// Run-granular propagation: segmenter unit tests plus the end-to-end
// contract — emissions of chunked, sharded and multi-producer ingestion are
// bit-identical for every engine kind, across shard counts and concurrent
// producer counts. The baseline for every cell is a plain single-threaded
// Session fed the whole stream as one batch.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/benchlib/workloads.h"
#include "src/query/run_segmenter.h"
#include "src/runtime/executor.h"
#include "src/runtime/sharded_session.h"

namespace hamlet {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
    EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
    EngineKind::kGretaPrefix,   EngineKind::kTwoStep,
    EngineKind::kSharon};

// ---------------------------------------------------------------------------
// SegmentRuns unit tests: hand-built batches and masks, exact span layout.

EventBatch MakeBatch(const std::vector<std::pair<Timestamp, TypeId>>& rows) {
  EventBatch batch(1);
  for (const auto& [time, type] : rows) {
    Event e;
    e.time = time;
    e.type = type;
    e.num_attrs = 1;
    batch.Append(e);
  }
  return batch;
}

SelectionMask MaskOf(const std::vector<uint8_t>& bytes01) {
  SelectionMask m;
  PackMask(bytes01.data(), static_cast<int>(bytes01.size()), &m);
  return m;
}

TEST(RunSegmenter, SplitsOnTypeChange) {
  EventBatch batch = MakeBatch({{1, 5}, {2, 5}, {3, 7}, {4, 7}, {5, 7}});
  std::vector<RunSpan> runs;
  SegmentRuns(batch, batch.size(), /*pane_size=*/0, QuerySet::FirstN(2),
              /*predicated_queries=*/{}, /*masks=*/{}, &runs);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].type, 5);
  EXPECT_EQ(runs[0].row_begin, 0);
  EXPECT_EQ(runs[0].row_end, 2);
  EXPECT_EQ(runs[1].type, 7);
  EXPECT_EQ(runs[1].row_begin, 2);
  EXPECT_EQ(runs[1].row_end, 5);
  EXPECT_EQ(runs[0].passes, QuerySet::FirstN(2));
  EXPECT_EQ(runs[1].passes, QuerySet::FirstN(2));
}

TEST(RunSegmenter, SplitsOnPaneBoundary) {
  EventBatch batch = MakeBatch({{1, 3}, {9, 3}, {10, 3}, {12, 3}});
  std::vector<RunSpan> runs;
  SegmentRuns(batch, batch.size(), /*pane_size=*/10, QuerySet::FirstN(1),
              /*predicated_queries=*/{}, /*masks=*/{}, &runs);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].row_end, 2);  // times 1, 9 -> pane 0
  EXPECT_EQ(runs[1].row_begin, 2);
  EXPECT_EQ(runs[1].row_end, 4);  // times 10, 12 -> pane 10

  // pane_size <= 0 disables pane splitting: one run.
  SegmentRuns(batch, batch.size(), /*pane_size=*/0, QuerySet::FirstN(1),
              /*predicated_queries=*/{}, /*masks=*/{}, &runs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].row_begin, 0);
  EXPECT_EQ(runs[0].row_end, 4);
}

TEST(RunSegmenter, SplitsOnPassSetFlipAcrossMaskWords) {
  // 130 same-type rows; query 1's predicate passes rows [0, 65) only, so
  // the flip sits past the first 64-bit mask word — exercising the
  // carry between words in the flip-bitmap build.
  std::vector<std::pair<Timestamp, TypeId>> rows;
  std::vector<uint8_t> bytes01;
  for (int i = 0; i < 130; ++i) {
    rows.push_back({i + 1, 4});
    bytes01.push_back(i < 65 ? 1 : 0);
  }
  EventBatch batch = MakeBatch(rows);
  std::vector<SelectionMask> masks;
  masks.push_back(MaskOf(bytes01));
  std::vector<RunSpan> runs;
  SegmentRuns(batch, batch.size(), /*pane_size=*/0, QuerySet::FirstN(3),
              /*predicated_queries=*/{1}, masks, &runs);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].row_begin, 0);
  EXPECT_EQ(runs[0].row_end, 65);
  EXPECT_EQ(runs[0].passes, QuerySet::FirstN(3));
  EXPECT_EQ(runs[1].row_begin, 65);
  EXPECT_EQ(runs[1].row_end, 130);
  QuerySet minus1 = QuerySet::FirstN(3);
  minus1.Erase(1);
  EXPECT_EQ(runs[1].passes, minus1);
}

// ---------------------------------------------------------------------------
// End-to-end equivalence matrix.

void ExpectSameValue(double a, double b, const std::string& label) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b) << label;
}

void ExpectSameEmissionSet(const std::vector<Emission>& expected,
                           const std::vector<Emission>& actual,
                           const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Emission& a = expected[i];
    const Emission& b = actual[i];
    const std::string at = label + " emission #" + std::to_string(i);
    EXPECT_EQ(a.query, b.query) << at;
    EXPECT_EQ(a.group_key, b.group_key) << at;
    EXPECT_EQ(a.window_start, b.window_start) << at;
    EXPECT_EQ(a.window_end, b.window_end) << at;
    ExpectSameValue(a.value, b.value, at);
  }
}

void FeedProducers(ShardedSession* session, const EventVector& ev,
                   int num_producers) {
  std::vector<std::unique_ptr<ShardedSession::Producer>> producers;
  for (int p = 0; p < num_producers; ++p) {
    producers.push_back(session->AddProducer().value());
  }
  std::vector<std::thread> threads;
  for (int p = 0; p < num_producers; ++p) {
    threads.emplace_back([&, p] {
      ShardedSession::Producer& producer = *producers[static_cast<size_t>(p)];
      for (size_t i = static_cast<size_t>(p); i < ev.size();
           i += static_cast<size_t>(num_producers)) {
        ASSERT_TRUE(producer.Push(ev[i]).ok());
      }
      if (!ev.empty()) {
        ASSERT_TRUE(producer.AdvanceTo(ev.back().time).ok());
      }
      ASSERT_TRUE(producer.Close().ok());
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(RunPropagation, EmissionsIdenticalAcrossShardsAndProducers) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  GeneratorConfig gen;
  gen.seed = 0xCAFE;
  gen.events_per_minute = 900;
  gen.duration_minutes = 1;
  gen.num_groups = 8;
  gen.burstiness = 0.7;  // bursty: real multi-row runs, not length-1 spans
  gen.max_burst = 10;
  EventVector ev = bw.generator->Generate(gen);
  ASSERT_FALSE(ev.empty());

  for (EngineKind kind : kAllKinds) {
    // Baseline: plain single-threaded Session, one batch.
    RunConfig ref_config;
    ref_config.kind = kind;
    StreamExecutor executor(*bw.plan, ref_config);
    RunOutput ref = executor.Run(ev);
    ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
    ASSERT_GT(ref.emissions.size(), 0u) << EngineKindName(kind);

    for (int shards : {1, 2, 4}) {
      for (int producers : {0, 1, 2}) {
        const std::string label =
            std::string(EngineKindName(kind)) +
            "/N=" + std::to_string(shards) +
            (producers == 0 ? "/session" : "/P=" + std::to_string(producers));
        SCOPED_TRACE(label);
        RunConfig config;
        config.kind = kind;
        config.num_shards = shards;
        CollectingSink sink;
        Result<std::unique_ptr<ShardedSession>> opened =
            ShardedSession::Open(*bw.plan, config, &sink);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        ShardedSession& session = *opened.value();
        if (producers == 0) {
          // Session-level chunked PushBatch: chunk length 48 keeps most
          // bursts whole while still exercising mid-burst chunk seams.
          for (size_t j = 0; j < ev.size(); j += 48) {
            const size_t len = std::min<size_t>(48, ev.size() - j);
            ASSERT_TRUE(
                session
                    .PushBatch(std::span<const Event>(ev.data() + j, len))
                    .ok());
          }
          ASSERT_TRUE(session.AdvanceTo(ev.back().time).ok());
        } else {
          FeedProducers(&session, ev, producers);
        }
        Result<RunMetrics> metrics = session.Close();
        ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
        ExpectSameEmissionSet(ref.emissions, sink.Take(), label);
        EXPECT_EQ(ref.metrics.events, metrics.value().events) << label;
        EXPECT_EQ(ref.metrics.emissions, metrics.value().emissions)
            << label;
        // The log2 length histogram partitions exactly the dispatched
        // runs.
        int64_t hist_total = 0;
        for (int64_t bucket : metrics.value().run_len_hist)
          hist_total += bucket;
        EXPECT_GT(metrics.value().runs, 0) << label;
        EXPECT_EQ(hist_total, metrics.value().runs) << label;
      }
    }
  }
}

}  // namespace
}  // namespace hamlet
