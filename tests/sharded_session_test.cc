// ShardedSession tests.
//
// The core property is shard-count invariance: for every EngineKind, the
// emission set of a ShardedSession with N = 1/2/4 shards equals the
// single-threaded batch Run() on the same stream — a group's whole
// subsequence lands on one shard, so per-group results are bitwise
// identical and only cross-group interleaving (normalized away by
// CollectingSink::Take ordering) may differ. Also covered: deterministic
// merged count/memory metrics for a fixed shard count, watermark broadcast
// (windows close on shards that saw no events), backpressure under a tiny
// ingress queue, and the fail-fast Status contracts (out-of-order
// kInvalidArgument naming the timestamp, kFailedPrecondition after Close,
// num_shards validation, mixed group-by rejection).
//
// This suite is a primary TSan target (the `tsan` CMake preset / CI job,
// together with shard_batch_test): it drives every cross-thread path —
// SPSC batch hand-off, parking, the emission outbox fan-in, snapshot
// mirror — under real concurrency.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "src/benchlib/workloads.h"
#include "src/query/parser.h"
#include "src/runtime/executor.h"
#include "src/runtime/sharded_session.h"

namespace hamlet {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
    EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
    EngineKind::kGretaPrefix,   EngineKind::kTwoStep,
    EngineKind::kSharon};

struct ShardedResult {
  std::vector<Emission> emissions;
  RunMetrics metrics;
};

// Pushes `ev` through a ShardedSession in PushBatch(64) chunks with a
// trailing watermark, then Close. Emissions come back in Take()'s
// normalized (window_start, query, group) order.
ShardedResult RunSharded(const WorkloadPlan& plan, RunConfig config,
                         int num_shards, const EventVector& ev,
                         int queue_capacity = 8192) {
  config.num_shards = num_shards;
  config.shard_queue_capacity = queue_capacity;
  CollectingSink sink;
  Result<std::unique_ptr<ShardedSession>> session =
      ShardedSession::Open(plan, config, &sink);
  HAMLET_CHECK(session.ok());
  EXPECT_EQ(session.value()->num_shards(), num_shards);
  constexpr size_t kChunk = 64;
  for (size_t i = 0; i < ev.size(); i += kChunk) {
    const size_t len = std::min(kChunk, ev.size() - i);
    Status s = session.value()->PushBatch(
        std::span<const Event>(ev.data() + i, len));
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  if (!ev.empty()) {
    EXPECT_TRUE(session.value()->AdvanceTo(ev.back().time).ok());
  }
  ShardedResult out;
  out.metrics = session.value()->Close().value();
  out.emissions = sink.Take();
  return out;
}

// Exact (bitwise) equality, except that two NaNs compare equal.
void ExpectSameValue(double a, double b, const std::string& label) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b) << label;
}

// Set equality via the shared normalized order: one emission per
// (query, group, window) makes the sorted sequences directly comparable.
void ExpectSameEmissionSet(const std::vector<Emission>& expected,
                           const std::vector<Emission>& actual,
                           const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Emission& a = expected[i];
    const Emission& b = actual[i];
    const std::string at = label + " emission #" + std::to_string(i);
    EXPECT_EQ(a.query, b.query) << at;
    EXPECT_EQ(a.query_name, b.query_name) << at;
    EXPECT_EQ(a.group_key, b.group_key) << at;
    EXPECT_EQ(a.window_start, b.window_start) << at;
    EXPECT_EQ(a.window_end, b.window_end) << at;
    ExpectSameValue(a.value, b.value, at);
  }
}

void ExpectSameCounters(const RunMetrics& a, const RunMetrics& b,
                        const std::string& label) {
  EXPECT_EQ(a.events, b.events) << label;
  EXPECT_EQ(a.emissions, b.emissions) << label;
  EXPECT_EQ(a.dnf_windows, b.dnf_windows) << label;
  EXPECT_EQ(a.evicted_compositions, b.evicted_compositions) << label;
  EXPECT_EQ(a.decisions, b.decisions) << label;
  EXPECT_EQ(a.hamlet.events, b.hamlet.events) << label;
  EXPECT_EQ(a.hamlet.bursts_total, b.hamlet.bursts_total) << label;
  EXPECT_EQ(a.hamlet.bursts_shared, b.hamlet.bursts_shared) << label;
  EXPECT_EQ(a.hamlet.graphlets_opened, b.hamlet.graphlets_opened) << label;
  EXPECT_EQ(a.hamlet.graphlets_shared, b.hamlet.graphlets_shared) << label;
  EXPECT_EQ(a.hamlet.snapshots_created, b.hamlet.snapshots_created) << label;
  EXPECT_EQ(a.hamlet.event_snapshots, b.hamlet.event_snapshots) << label;
  EXPECT_EQ(a.hamlet.splits, b.hamlet.splits) << label;
  EXPECT_EQ(a.hamlet.merges, b.hamlet.merges) << label;
  EXPECT_EQ(a.hamlet.ops, b.hamlet.ops) << label;
}

TEST(ShardCountInvariance, Workload1AllEnginesAllShardCounts) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  GeneratorConfig gen;
  gen.seed = 77;
  gen.events_per_minute = 600;
  gen.duration_minutes = 1;
  gen.num_groups = 8;  // enough districts to occupy every shard
  gen.burstiness = 0.6;
  gen.max_burst = 8;
  EventVector ev = bw.generator->Generate(gen);

  for (EngineKind kind : kAllKinds) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(*bw.plan, config);
    RunOutput batch = executor.Run(ev);
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
    ASSERT_GT(batch.emissions.size(), 0u) << EngineKindName(kind);
    for (int shards : {1, 2, 4}) {
      ShardedResult sharded = RunSharded(*bw.plan, config, shards, ev);
      const std::string label = std::string(EngineKindName(kind)) + "/N=" +
                                std::to_string(shards);
      ExpectSameEmissionSet(batch.emissions, sharded.emissions, label);
      // Count metrics survive the shard fan-out: every event and burst is
      // processed exactly once, on exactly one shard.
      ExpectSameCounters(batch.metrics, sharded.metrics, label);
    }
  }
}

TEST(ShardCountInvariance, SlidingWindowsAcrossShards) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload(&schema);
  for (const char* text :
       {"RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g WITHIN 30 ms "
        "SLIDE 10 ms",
        "RETURN SUM(B.v) PATTERN SEQ(C, B+) GROUPBY g WITHIN 30 ms "
        "SLIDE 10 ms"}) {
    ASSERT_TRUE(workload.Add(ParseQuery(text).value()).ok());
  }
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  Rng rng(17);
  EventVector ev;
  Timestamp t = 1;
  const char* alphabet[] = {"A", "B", "C"};
  for (int i = 0; i < 200; ++i) {
    Event e(t, schema.AddType(alphabet[rng.NextBelow(3)]));
    e.set_attr(0, static_cast<double>(rng.NextInt(0, 9)));
    e.set_attr(1, static_cast<double>(rng.NextBelow(5)));
    ev.push_back(e);
    t += 1 + static_cast<Timestamp>(rng.NextBelow(3));
  }
  for (EngineKind kind : kAllKinds) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(plan, config);
    RunOutput batch = executor.Run(ev);
    ASSERT_TRUE(batch.status.ok());
    for (int shards : {2, 4}) {
      ShardedResult sharded = RunSharded(plan, config, shards, ev);
      ExpectSameEmissionSet(batch.emissions, sharded.emissions,
                            std::string("sliding/") + EngineKindName(kind) +
                                "/N=" + std::to_string(shards));
    }
  }
}

// A two-slot ingress queue forces the producer through the backpressure
// path on nearly every push; results must not change.
// Close without a trailing AdvanceTo: a shard that saw no event in the
// final pane must still open (and flush) that pane's sliding windows for
// its groups, exactly like a plain Session whose pane clock the last
// event advanced for every group.
TEST(ShardCountInvariance, CloseFlushesTrailingWindowsOnIdleShards) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload{&schema};
  ASSERT_TRUE(workload
                  .Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) "
                                  "GROUPBY g WITHIN 40 ms SLIDE 10 ms")
                           .value())
                  .ok());
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  ASSERT_EQ(plan.pane_size, 10);
  // 16 groups active before t=100; only group 0 reaches the final pane.
  EventVector ev;
  Timestamp t = 1;
  for (const char* type : {"A", "B", "B"}) {
    for (int g = 0; g < 16; ++g) {
      Event e(t, schema.AddType(type));
      e.set_attr(0, 1.0);
      e.set_attr(1, static_cast<double>(g));
      ev.push_back(e);
      t += 2;
    }
  }
  Event last(155, schema.AddType("B"));
  last.set_attr(0, 1.0);
  last.set_attr(1, 0.0);
  ev.push_back(last);

  StreamExecutor executor(plan, RunConfig());
  RunOutput plain = executor.Run(ev);
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
  ASSERT_GT(plain.emissions.size(), 0u);

  RunConfig config;
  config.num_shards = 2;
  CollectingSink sink;
  Result<std::unique_ptr<ShardedSession>> session =
      ShardedSession::Open(plan, config, &sink);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session.value()->PushBatch(ev).ok());
  ASSERT_TRUE(session.value()->Close().ok());
  ExpectSameEmissionSet(plain.emissions, sink.Take(), "close/N=2");
}

TEST(ShardCountInvariance, TinyQueueBackpressure) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 4, /*window_ms=*/2 * kMillisPerSecond);
  GeneratorConfig gen;
  gen.seed = 3;
  gen.events_per_minute = 400;
  gen.duration_minutes = 1;
  gen.num_groups = 8;
  EventVector ev = bw.generator->Generate(gen);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(*bw.plan, config);
  RunOutput batch = executor.Run(ev);
  ASSERT_TRUE(batch.status.ok());
  ShardedResult sharded =
      RunSharded(*bw.plan, config, /*num_shards=*/3, ev,
                 /*queue_capacity=*/2);
  ExpectSameEmissionSet(batch.emissions, sharded.emissions, "tiny-queue");
  ExpectSameCounters(batch.metrics, sharded.metrics, "tiny-queue");
}

// Two runs with the same shard count produce identical merged count and
// memory metrics — the per-shard subsequences are deterministic functions
// of (stream, shard count), never of thread timing.
TEST(ShardCountInvariance, MetricsDeterministicForFixedShardCount) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  GeneratorConfig gen;
  gen.seed = 41;
  gen.events_per_minute = 500;
  gen.duration_minutes = 1;
  gen.num_groups = 8;
  EventVector ev = bw.generator->Generate(gen);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  ShardedResult a = RunSharded(*bw.plan, config, /*num_shards=*/4, ev);
  ShardedResult b = RunSharded(*bw.plan, config, /*num_shards=*/4, ev);
  ExpectSameCounters(a.metrics, b.metrics, "deterministic");
  EXPECT_EQ(a.metrics.peak_memory_bytes, b.metrics.peak_memory_bytes);
  ExpectSameEmissionSet(a.emissions, b.emissions, "deterministic");
}

class ShardedContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_.AddAttr("v");
    schema_.AddAttr("g");
    ASSERT_TRUE(
        workload_
            .Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g "
                            "WITHIN 100 ms")
                     .value())
            .ok());
    plan_ = std::make_unique<WorkloadPlan>(
        AnalyzeWorkload(workload_).value());
  }

  Event Make(Timestamp t, const char* type, double group = 0.0) {
    Event e(t, schema_.AddType(type));
    e.set_attr(0, 1.0);
    e.set_attr(1, group);
    return e;
  }

  Result<std::unique_ptr<ShardedSession>> Open(int num_shards,
                                               EmissionSink* sink = nullptr) {
    RunConfig config;
    config.num_shards = num_shards;
    return ShardedSession::Open(*plan_, config, sink);
  }

  Schema schema_;
  Workload workload_{&schema_};
  std::unique_ptr<WorkloadPlan> plan_;
};

TEST_F(ShardedContractTest, OpenValidatesNumShards) {
  for (int bad : {0, -1, kMaxShards + 1}) {
    RunConfig config;
    config.num_shards = bad;
    Result<std::unique_ptr<ShardedSession>> r =
        ShardedSession::Open(*plan_, config, nullptr);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("num_shards"), std::string::npos);
  }
  RunConfig bad_queue;
  bad_queue.shard_queue_capacity = 1;
  Result<std::unique_ptr<ShardedSession>> r =
      ShardedSession::Open(*plan_, bad_queue, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("shard_queue_capacity"),
            std::string::npos);
}

TEST_F(ShardedContractTest, MixedGroupByIsUnsupportedWhenSharded) {
  // A second query without GROUPBY gives the plan two partition keys: no
  // single event->shard route exists, so only num_shards == 1 works.
  ASSERT_TRUE(
      workload_
          .Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 100 ms")
                   .value())
          .ok());
  WorkloadPlan mixed = AnalyzeWorkload(workload_).value();
  RunConfig config;
  config.num_shards = 2;
  Result<std::unique_ptr<ShardedSession>> r =
      ShardedSession::Open(mixed, config, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  config.num_shards = 1;
  EXPECT_TRUE(ShardedSession::Open(mixed, config, nullptr).ok());
}

TEST_F(ShardedContractTest, PushRejectsOutOfOrderNamingTimestamp) {
  Result<std::unique_ptr<ShardedSession>> session = Open(/*num_shards=*/3);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Push(Make(50, "A")).ok());
  Status s = session.value()->Push(Make(20, "B"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("t=20"), std::string::npos);
  // Duplicates are rejected too (strictly increasing contract), and the
  // session stays usable after a rejected push.
  EXPECT_EQ(session.value()->Push(Make(50, "B")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(session.value()->Push(Make(60, "B")).ok());
  RunMetrics m = session.value()->Close().value();
  EXPECT_EQ(m.events, 2);
}

TEST_F(ShardedContractTest, WatermarkBroadcastClosesWindowsOnAllShards) {
  CollectingSink sink;
  Result<std::unique_ptr<ShardedSession>> session =
      Open(/*num_shards=*/4, &sink);
  ASSERT_TRUE(session.ok());
  // Two groups — they may land on different shards; the broadcast must
  // close both windows either way, with no further events.
  ASSERT_TRUE(session.value()->Push(Make(10, "A", /*group=*/0)).ok());
  ASSERT_TRUE(session.value()->Push(Make(15, "A", /*group=*/1)).ok());
  ASSERT_TRUE(session.value()->Push(Make(20, "B", /*group=*/0)).ok());
  ASSERT_TRUE(session.value()->Push(Make(25, "B", /*group=*/1)).ok());
  ASSERT_TRUE(session.value()->AdvanceTo(100).ok());
  // Delivery is asynchronous (worker threads); MetricsSnapshot is the
  // thread-safe probe. Poll until both [0,100) emissions are out or 5s
  // pass — they must arrive from the watermark alone, before Close.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (session.value()->MetricsSnapshot().emissions < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(session.value()->MetricsSnapshot().emissions, 2);
  RunMetrics m = session.value()->Close().value();
  // Same semantics as the single-threaded Session: the watermark also
  // opened the next pane's window [100,200) per group, which Close then
  // flushed empty — 4 emissions total.
  EXPECT_EQ(m.emissions, 4);
  std::vector<Emission> emissions = sink.Take();
  ASSERT_EQ(emissions.size(), 4u);
  int populated = 0;
  for (const Emission& e : emissions) {
    if (e.window_start == 0) {
      EXPECT_EQ(e.window_end, 100);
      EXPECT_DOUBLE_EQ(e.value, 1.0);
      ++populated;
    } else {
      EXPECT_EQ(e.window_start, 100);
      EXPECT_DOUBLE_EQ(e.value, 0.0);
    }
  }
  EXPECT_EQ(populated, 2);  // one closed window per group
}

TEST_F(ShardedContractTest, UseAfterCloseIsFailedPrecondition) {
  Result<std::unique_ptr<ShardedSession>> session = Open(/*num_shards=*/2);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Push(Make(10, "A")).ok());
  Result<RunMetrics> first = session.value()->Close();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(session.value()->Push(Make(20, "B")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.value()->PushBatch({}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.value()->AdvanceTo(200).code(),
            StatusCode::kFailedPrecondition);
  Result<RunMetrics> second = session.value()->Close();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.value()->MetricsSnapshot().events, first.value().events);
}

// NaN, +-inf and values beyond int64 have no group key. Every ingest path
// rejects them like an out-of-order event: kInvalidArgument naming the
// timestamp and the attribute, a batch stopping at its valid prefix, and
// the rest of the stream emitting exactly as if the event never came.
TEST_F(ShardedContractTest, UnusableGroupKeysRejectedOnEveryIngestPath) {
  EventVector good;
  for (Timestamp t = 1; t <= 300; ++t) {
    good.push_back(Make(2 * t, t % 7 == 1 ? "A" : "B",
                        static_cast<double>(t % 3)));
  }
  StreamExecutor executor(*plan_, RunConfig());
  const std::vector<Emission> expected = executor.Run(good).emissions;
  ASSERT_FALSE(expected.empty());
  const size_t half = good.size() / 2;
  const std::span<const Event> head(good.data(), half);
  const std::span<const Event> tail(good.data() + half, good.size() - half);
  const Timestamp bad_time = head.back().time + 1;  // odd: between events
  auto expect_rejected = [&](const Status& s, const std::string& label) {
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << label;
    EXPECT_NE(s.message().find("t=" + std::to_string(bad_time)),
              std::string::npos)
        << label << ": " << s.ToString();
    EXPECT_NE(s.message().find("'g'"), std::string::npos)
        << label << ": " << s.ToString();
  };
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, 1e30}) {
    const Event bad_event = Make(bad_time, "B", bad);
    EventVector with_bad(head.begin(), head.end());
    with_bad.push_back(bad_event);
    with_bad.insert(with_bad.end(), tail.begin(), tail.end());
    const std::span<const Event> after_bad(with_bad.data() + half + 1,
                                           tail.size());
    const std::string value = std::to_string(bad);
    {
      CollectingSink sink;
      auto session = Session::Open(*plan_, RunConfig(), &sink).value();
      for (const Event& e : head) ASSERT_TRUE(session->Push(e).ok());
      expect_rejected(session->Push(bad_event), "Session::Push " + value);
      for (const Event& e : tail) ASSERT_TRUE(session->Push(e).ok());
      ASSERT_TRUE(session->Close().ok());
      ExpectSameEmissionSet(expected, sink.Take(), "Session::Push " + value);
    }
    {
      CollectingSink sink;
      auto session = Session::Open(*plan_, RunConfig(), &sink).value();
      expect_rejected(session->PushBatch(with_bad),
                      "Session::PushBatch " + value);
      ASSERT_TRUE(session->PushBatch(after_bad).ok());
      ASSERT_TRUE(session->Close().ok());
      ExpectSameEmissionSet(expected, sink.Take(),
                            "Session::PushBatch " + value);
    }
    {
      CollectingSink sink;
      auto session = Open(/*num_shards=*/2, &sink).value();
      for (const Event& e : head) ASSERT_TRUE(session->Push(e).ok());
      expect_rejected(session->Push(bad_event), "Sharded::Push " + value);
      for (const Event& e : tail) ASSERT_TRUE(session->Push(e).ok());
      ASSERT_TRUE(session->Close().ok());
      ExpectSameEmissionSet(expected, sink.Take(), "Sharded::Push " + value);
    }
    {
      CollectingSink sink;
      auto session = Open(/*num_shards=*/2, &sink).value();
      expect_rejected(session->PushBatch(with_bad),
                      "Sharded::PushBatch " + value);
      ASSERT_TRUE(session->PushBatch(after_bad).ok());
      ASSERT_TRUE(session->Close().ok());
      ExpectSameEmissionSet(expected, sink.Take(),
                            "Sharded::PushBatch " + value);
    }
    {
      CollectingSink sink;
      auto session = Open(/*num_shards=*/2, &sink).value();
      auto producer = session->AddProducer().value();
      for (const Event& e : head) ASSERT_TRUE(producer->Push(e).ok());
      expect_rejected(producer->Push(bad_event), "Producer::Push " + value);
      for (const Event& e : tail) ASSERT_TRUE(producer->Push(e).ok());
      ASSERT_TRUE(producer->Close().ok());
      ASSERT_TRUE(session->Close().ok());
      ExpectSameEmissionSet(expected, sink.Take(), "Producer::Push " + value);
    }
  }
}

TEST_F(ShardedContractTest, DestructorJoinsWithoutClose) {
  CollectingSink sink;
  {
    Result<std::unique_ptr<ShardedSession>> session =
        Open(/*num_shards=*/4, &sink);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value()->Push(Make(10, "A")).ok());
    ASSERT_TRUE(session.value()->Push(Make(20, "B")).ok());
    // No Close: destruction must stop and join the workers cleanly.
  }
  // The implicit Close flushed the open window before the sink went away.
  EXPECT_EQ(sink.emissions().size(), 1u);
}

}  // namespace
}  // namespace hamlet
