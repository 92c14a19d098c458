// Run-granular propagation: segmenter unit tests plus the end-to-end
// contract — emissions of chunked, sharded and multi-producer ingestion are
// bit-identical for every engine kind, across shard counts and concurrent
// producer counts. The baseline for every cell is a 1-shard
// Session fed the whole stream as one batch. Group-major dispatch (staged
// rows ordered by pane and group key) is checked against per-event Push.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/benchlib/workloads.h"
#include "src/query/parser.h"
#include "src/query/run_segmenter.h"
#include "src/runtime/executor.h"
#include "src/runtime/session.h"

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

// Rows of type 1 at times 0, 1, 2, ... carrying group key `keys[i]` in
// attribute 0.
EventVector KeyedRows(const std::vector<double>& keys) {
  EventVector rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    Event e(static_cast<Timestamp>(i), 1);
    e.set_attr(0, keys[i]);
    rows.push_back(e);
  }
  return rows;
}

TEST(RunSegmenter, SplitsOnGroupKeyChangeAfterRounding) {
  const EventVector rows = KeyedRows({2.25, 1.75, 2.0, 3.0, 3.4, -1.0});
  const EventBatch batch = EventBatch::FromRows(rows, 1);
  const AttrId key_attr = 0;
  std::vector<RunSpan> runs;
  SegmentRuns(batch, batch.size(), /*pane_size=*/0, QuerySet::FirstN(1),
              /*predicated_queries=*/{}, /*masks=*/{}, &runs,
              std::span<const AttrId>(&key_attr, 1));
  // Keys 2, 2, 2 | 3, 3 | -1 once rounded.
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].row_end, 3);
  EXPECT_EQ(runs[1].row_end, 5);
  EXPECT_EQ(runs[2].row_end, 6);
}

TEST(GroupMajorOrder, StableByPaneThenGroupInFirstAppearance) {
  GroupMajorOrder order;
  // Pane [0, 10): keys 7, 3, 7, 3, 3 once rounded; pane [10, 20): 3, 7.
  EventVector rows = KeyedRows({7, 3, 7.2, 2.8, 3, 3, 7});
  rows[5].time = 10;
  rows[6].time = 11;
  std::span<const int32_t> got = order.Of(rows, /*pane_size=*/10, 0);
  EXPECT_EQ(std::vector<int32_t>(got.begin(), got.end()),
            (std::vector<int32_t>{0, 2, 1, 3, 4, 5, 6}));
  // Already group-major: the empty span (arrival order).
  EXPECT_TRUE(order.Of(KeyedRows({1, 1, 4, 4, 2}), 10, 0).empty());

  // 300 keys interleaved round-robin in one pane.
  std::vector<double> keys;
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 300; ++k) keys.push_back(k * 1000.0 - 5000.0);
  }
  got = order.Of(KeyedRows(keys), /*pane_size=*/1 << 20, 0);
  ASSERT_EQ(got.size(), keys.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const size_t k = i / 3;
    EXPECT_EQ(got[i], static_cast<int32_t>(k + 300 * (i % 3))) << i;
  }
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

void FeedProducers(Session* session, const EventVector& ev,
                   int num_producers) {
  std::vector<std::unique_ptr<Session::Producer>> producers;
  for (int p = 0; p < num_producers; ++p) {
    producers.push_back(session->AddProducer().value());
  }
  std::vector<std::thread> threads;
  for (int p = 0; p < num_producers; ++p) {
    threads.emplace_back([&, p] {
      Session::Producer& producer = *producers[static_cast<size_t>(p)];
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
    // Baseline: a 1-shard Session, one batch.
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
        Result<std::unique_ptr<Session>> opened =
            Session::Open(*bw.plan, config, &sink);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        Session& session = *opened.value();
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

// ---------------------------------------------------------------------------
// Group-major dispatch: a staged batch is ordered by (pane, group key)
// before segmentation when every query groups by one attribute.

// Attribute ids of the group-major schema.
constexpr AttrId kPrice = 0;
constexpr AttrId kGroup = 1;
constexpr AttrId kSubGroup = 2;

struct SessionRun {
  std::vector<Emission> emissions;
  RunMetrics metrics;
};

// Schema, plans and the bursty interleaved stream of the group-major test.
class GroupMajorBench {
 public:
  GroupMajorBench() {
    schema_.AddAttr("price");
    schema_.AddAttr("g");
    schema_.AddAttr("h");
    type_a_ = schema_.AddType("A");
    type_b_ = schema_.AddType("B");
    type_c_ = schema_.AddType("C");
  }

  // All four group by g: a tumbling COUNT with an event predicate whose
  // pass-set flips inside every B burst, a sliding MAX, a sliding COUNT
  // with an edge predicate, and a sliding SUM.
  static std::vector<std::string> GroupedQueries() {
    return {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.price > 40 "
            "GROUPBY g WITHIN 400 ms",
            "RETURN MAX(B.price) PATTERN SEQ(A, B+) GROUPBY g "
            "WITHIN 400 ms SLIDE 200 ms",
            "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE prev.price <= "
            "next.price GROUPBY g WITHIN 400 ms SLIDE 200 ms",
            "RETURN SUM(B.price) PATTERN SEQ(A, B+) GROUPBY g "
            "WITHIN 400 ms SLIDE 200 ms"};
  }

  const WorkloadPlan& Plan(const std::vector<std::string>& texts) {
    workloads_.push_back(std::make_unique<Workload>(&schema_));
    for (const std::string& text : texts) {
      HAMLET_CHECK(workloads_.back()->Add(ParseQuery(text).value()).ok());
    }
    plans_.push_back(std::make_unique<WorkloadPlan>(
        AnalyzeWorkload(*workloads_.back()).value()));
    return *plans_.back();
  }

  // Group keys by the shard a 2-shard router sends them to: seven on shard
  // 0 (the first is hot) and three on shard 1, so the steal controller has
  // an imbalance to correct.
  std::vector<int64_t> Keys(const WorkloadPlan& plan) {
    const ShardRouter probe = Session::RouterFor(plan, 2).value();
    std::vector<int64_t> on0, on1;
    for (int64_t k = -40; on0.size() < 7 || on1.size() < 3; ++k) {
      std::vector<int64_t>& into = probe.ShardOfKey(k) == 0 ? on0 : on1;
      if (into.size() < (&into == &on0 ? 7u : 3u)) into.push_back(k);
    }
    on0.insert(on0.end(), on1.begin(), on1.end());
    return on0;
  }

  // Eight interleaved groups per 200 ms pane. Each group emits one
  // same-type burst per pane, its rows interleaved round-robin with the
  // other groups' (arrival-order runs have length 1); its type cycles
  // A, B, C, B from a per-group phase. Prices climb through the
  // B.price > 40 threshold once per burst and dip every fourth row. Keys
  // carry a +-0.25 jitter that rounds away. The hot group emits two rows
  // per round; two groups retire halfway and two new ones take over, so
  // idle eviction fires.
  EventVector Stream(const std::vector<int64_t>& keys) {
    const TypeId cycle[] = {type_a_, type_b_, type_c_, type_b_};
    constexpr int kPanes = 16;
    constexpr int kRounds = 16;
    constexpr Timestamp kPane = 200;
    EventVector ev;
    for (int p = 0; p < kPanes; ++p) {
      Timestamp t = p * kPane;
      std::vector<size_t> groups = {0, 1, 2, 3, 4, 7};
      if (p < kPanes / 2) {
        groups.insert(groups.end(), {5, 6});
      } else {
        groups.insert(groups.end(), {8, 9});
      }
      for (int j = 0; j < kRounds; ++j) {
        for (size_t g : groups) {
          const int reps = g == 0 ? 2 : 1;
          for (int rep = 0; rep < reps; ++rep) {
            const int row = j * reps + rep;
            Event e(t++, cycle[(static_cast<size_t>(p) + g) % 4]);
            e.set_attr(kPrice, 30.0 + row - (row % 4 == 3 ? 2.0 : 0.0));
            e.set_attr(kGroup, static_cast<double>(keys[g]) +
                                   (row % 2 == 0 ? 0.25 : -0.25));
            e.set_attr(kSubGroup, static_cast<double>(g % 3));
            ev.push_back(e);
          }
        }
      }
      HAMLET_CHECK(t <= (p + 1) * kPane);
    }
    return ev;
  }

  // A 1-shard Session fed `ev` in `chunk`-row PushBatch calls (Push when
  // chunk is 1), then a watermark at the last event and Close.
  static SessionRun RunSession(const WorkloadPlan& plan,
                               const RunConfig& config, const EventVector& ev,
                               size_t chunk) {
    CollectingSink sink;
    std::unique_ptr<Session> session =
        Session::Open(plan, config, &sink).value();
    for (size_t i = 0; i < ev.size(); i += chunk) {
      const size_t len = std::min(chunk, ev.size() - i);
      const Status s =
          len == 1 ? session->Push(ev[i])
                   : session->PushBatch(std::span<const Event>(&ev[i], len));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    EXPECT_TRUE(session->AdvanceTo(ev.back().time).ok());
    SessionRun out;
    out.metrics = session->Close().value();
    out.emissions = sink.Take();
    return out;
  }

  static SessionRun RunSharded(const WorkloadPlan& plan, RunConfig config,
                               const EventVector& ev) {
    config.num_shards = 2;
    CollectingSink sink;
    std::unique_ptr<Session> session =
        Session::Open(plan, config, &sink).value();
    for (size_t i = 0; i < ev.size(); i += 512) {
      const size_t len = std::min<size_t>(512, ev.size() - i);
      EXPECT_TRUE(
          session->PushBatch(std::span<const Event>(&ev[i], len)).ok());
    }
    EXPECT_TRUE(session->AdvanceTo(ev.back().time).ok());
    SessionRun out;
    out.metrics = session->Close().value();
    out.emissions = sink.Take();
    return out;
  }

  // Per-window baselines kept cheap: two-step windows past the budget
  // record a DNF on both paths alike.
  static RunConfig Config(EngineKind kind) {
    RunConfig config;
    config.kind = kind;
    config.two_step_budget = 20'000;
    config.sharon_max_length = 16;
    return config;
  }

  static void ExpectBatchedMatchesPushed(const WorkloadPlan& plan,
                                         const RunConfig& config,
                                         const EventVector& ev,
                                         const std::string& label,
                                         SessionRun* batched) {
    const SessionRun pushed = RunSession(plan, config, ev, 1);
    ASSERT_GT(pushed.emissions.size(), 0u) << label;
    EXPECT_EQ(pushed.metrics.runs, pushed.metrics.events) << label;
    *batched = RunSession(plan, config, ev, 512);
    ExpectSameEmissionSet(pushed.emissions, batched->emissions, label);
    EXPECT_EQ(pushed.metrics.events, batched->metrics.events) << label;
  }

 private:
  Schema schema_;
  TypeId type_a_ = 0;
  TypeId type_b_ = 0;
  TypeId type_c_ = 0;
  std::vector<std::unique_ptr<Workload>> workloads_;
  std::vector<std::unique_ptr<WorkloadPlan>> plans_;
};

// 512-row batches of a bursty stream whose groups interleave row by row
// reach the engines as per-group bursts, with emissions bit-identical to
// per-event Push for every engine kind; the same holds on 2 shards with
// stealing and idle eviction, and on the two plans that keep arrival order
// (a query without GROUPBY; components grouping by different attributes).
TEST(RunPropagation, GroupMajorDispatchMatchesPerEventPush) {
  GroupMajorBench bench;
  const WorkloadPlan& plan = bench.Plan(GroupMajorBench::GroupedQueries());
  const EventVector ev = bench.Stream(bench.Keys(plan));
  ASSERT_GT(ev.size(), 2048u);
  for (EngineKind kind : kAllKinds) {
    const std::string label = EngineKindName(kind);
    const RunConfig config = GroupMajorBench::Config(kind);
    SessionRun batched;
    GroupMajorBench::ExpectBatchedMatchesPushed(plan, config, ev, label,
                                                &batched);
    // In arrival order every run has length 1; group-major, each row lands
    // in one of its group's same-type bursts.
    EXPECT_GE(batched.metrics.events, 8 * batched.metrics.runs) << label;

    // Two shards with work stealing (on by default) and idle eviction
    // against the single-threaded run of the same config.
    RunConfig evicting = config;
    evicting.evict_idle_groups = true;
    const SessionRun single =
        GroupMajorBench::RunSession(plan, evicting, ev, 512);
    EXPECT_GT(single.metrics.evicted_idle_groups, 0) << label;
    const SessionRun sharded = GroupMajorBench::RunSharded(plan, evicting, ev);
    ExpectSameEmissionSet(single.emissions, sharded.emissions,
                          label + "/2 shards");
    EXPECT_GT(sharded.metrics.stolen_panes, 0) << label;
  }

  // Fallback plans keep arrival order; runs still end at every key change.
  std::vector<std::string> ungrouped = GroupMajorBench::GroupedQueries();
  ungrouped.push_back(
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.price > 40 "
      "WITHIN 400 ms SLIDE 200 ms");
  std::vector<std::string> mixed = GroupMajorBench::GroupedQueries();
  mixed.push_back(
      "RETURN SUM(B.price) PATTERN SEQ(C, B+) GROUPBY h WITHIN 400 ms");
  for (const std::vector<std::string>* texts : {&ungrouped, &mixed}) {
    const WorkloadPlan& fallback = bench.Plan(*texts);
    for (EngineKind kind : kAllKinds) {
      const std::string label = std::string(EngineKindName(kind)) +
                                (texts == &mixed ? "/mixed" : "/ungrouped");
      SessionRun batched;
      GroupMajorBench::ExpectBatchedMatchesPushed(
          fallback, GroupMajorBench::Config(kind), ev, label, &batched);
    }
  }
}

}  // namespace
}  // namespace hamlet
