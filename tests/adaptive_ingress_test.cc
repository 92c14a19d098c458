// Burst-adaptive shard ingress + skewed routing tests.
//
// Three layers, mirroring the feature's stack:
//  * The event ring: a worker takes every event published to its shard's
//    ring, so a pushed event reaches its worker without any barrier —
//    also when the shard was busy and nothing is pushed to it afterwards —
//    a control message never runs ahead of the events stamped before it,
//    and for every EngineKind, shard count (1/2/4/8) and ring capacity the
//    sharded run emits exactly the batch Run() result: where the engine
//    calls are cut may move, WHAT is computed may not. Work stealing on
//    a hot-key stream is held to the same equivalence.
//  * A router unit, read back through the session's router.
//  * The ingress metrics (engine-call histogram, max ring depth,
//    per-shard events, steals) and the concurrent-peak-memory
//    merge fix (sequential phases must not sum into a fictitious peak).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/benchlib/workloads.h"
#include "src/query/parser.h"
#include "src/runtime/executor.h"
#include "src/runtime/session.h"
#include "src/stream/shard_router.h"

namespace hamlet {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
    EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
    EngineKind::kGretaPrefix,   EngineKind::kTwoStep,
    EngineKind::kSharon};

// ---------------------------------------------------------------------------
// Router unit, read back through Session::router().
// ---------------------------------------------------------------------------

class SkewRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_.AddAttr("v");
    schema_.AddAttr("g");
    type_a_ = schema_.AddType("A");
    ASSERT_TRUE(workload_
                    .Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) "
                                    "GROUPBY g WITHIN 100 ms")
                             .value())
                    .ok());
    plan_ = std::make_unique<WorkloadPlan>(AnalyzeWorkload(workload_).value());
  }

  std::unique_ptr<Session> Open() {
    RunConfig config;
    config.num_shards = 4;
    Result<std::unique_ptr<Session>> session =
        Session::Open(*plan_, config, nullptr);
    HAMLET_CHECK(session.ok());
    return std::move(session).value();
  }

  Event GroupEvent(Timestamp t, int64_t group) {
    Event e(t, type_a_);
    e.set_attr(0, 1.0);
    e.set_attr(1, static_cast<double>(group));
    return e;
  }

  Schema schema_;
  TypeId type_a_ = 0;
  Workload workload_{&schema_};
  std::unique_ptr<WorkloadPlan> plan_;
};

TEST_F(SkewRouterTest, PureRouterIsUnchangedByRouteCalls) {
  std::unique_ptr<Session> session = Open();
  const ShardRouter& router = session->router();
  const ShardRouter pure = Session::RouterFor(*plan_, 4).value();
  for (int64_t g = 0; g < 32; ++g) {
    Event e = GroupEvent(10 + g, g);
    ASSERT_TRUE(session->Push(e).ok());
    EXPECT_EQ(router.Route(e), pure.Route(e));
    EXPECT_EQ(router.AssignedShardOfKey(g), router.ShardOfKey(g));
  }
  EXPECT_EQ(router.map_size(), 0);
  ASSERT_TRUE(session->Close().ok());
}

// ---------------------------------------------------------------------------
// End-to-end equivalence + metrics.
// ---------------------------------------------------------------------------

// Set equality via the shared normalized order (one emission per
// (query, group, window)).
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
    if (!(std::isnan(a.value) && std::isnan(b.value))) {
      EXPECT_EQ(a.value, b.value) << at;
    }
  }
}

struct ShardedResult {
  std::vector<Emission> emissions;
  RunMetrics metrics;
};

// Pushes `ev` through a Session in mixed granularity with occasional
// interleaved watermarks and a trailing one, then Close. `config` arrives
// fully prepared (shard count, ring capacity, stealing).
ShardedResult RunSharded(const WorkloadPlan& plan, const RunConfig& config,
                         const EventVector& ev, uint64_t chunk_seed) {
  CollectingSink sink;
  Result<std::unique_ptr<Session>> session =
      Session::Open(plan, config, &sink);
  HAMLET_CHECK(session.ok());
  Rng rng(chunk_seed);
  size_t i = 0;
  while (i < ev.size()) {
    size_t len = 1 + static_cast<size_t>(rng.NextBelow(100));
    len = std::min(len, ev.size() - i);
    Status s = len == 1 ? session.value()->Push(ev[i])
                        : session.value()->PushBatch(
                              std::span<const Event>(ev.data() + i, len));
    EXPECT_TRUE(s.ok()) << s.ToString();
    i += len;
    if (i < ev.size() && rng.NextBelow(8) == 0) {
      EXPECT_TRUE(session.value()->AdvanceTo(ev[i].time - 1).ok());
    }
  }
  if (!ev.empty()) {
    EXPECT_TRUE(session.value()->AdvanceTo(ev.back().time).ok());
  }
  ShardedResult out;
  out.metrics = session.value()->Close().value();
  out.emissions = sink.Take();
  return out;
}

EventVector RidesharingStream(uint64_t seed, int num_groups) {
  GeneratorConfig gen;
  gen.seed = seed;
  gen.events_per_minute = 600;
  gen.duration_minutes = 1;
  gen.num_groups = num_groups;
  gen.burstiness = 0.6;
  gen.max_burst = 8;
  return MakeGenerator("ridesharing")->Generate(gen);
}

// The acceptance property: the ring capacity changes only where the
// workers' engine calls are cut and how often the front waits, never what
// is computed — for every engine and shard count, against the batch Run()
// reference, at capacities 2 and 16 (the ring wraps within every pushed
// chunk and the front is in backpressure constantly) and at the default.
TEST(AdaptiveIngressEquivalence, AllEnginesAllShardCounts) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  EventVector ev = RidesharingStream(/*seed=*/191, /*num_groups=*/8);
  for (EngineKind kind : kAllKinds) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(*bw.plan, config);
    RunOutput batch = executor.Run(ev);
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
    ASSERT_GT(batch.emissions.size(), 0u) << EngineKindName(kind);
    for (int shards : {1, 2, 4, 8}) {
      for (int capacity : {2, 16, RunConfig().shard_queue_capacity}) {
        RunConfig sharded = config;
        sharded.num_shards = shards;
        sharded.shard_queue_capacity = capacity;
        const std::string label = std::string(EngineKindName(kind)) +
                                  "/N=" + std::to_string(shards) +
                                  "/Q=" + std::to_string(capacity);
        ShardedResult run = RunSharded(*bw.plan, sharded, ev, 7);
        ExpectSameEmissionSet(batch.emissions, run.emissions, label);
        EXPECT_EQ(batch.metrics.events, run.metrics.events) << label;
      }
    }
  }
}

// A lull: the workers are drained and one more event is pushed. Push
// publishes it to its shard's ring and wakes the parked worker — no
// further push or watermark is needed for it to reach the worker.
TEST(AdaptiveIngressTest, StagedEventReachesIdleWorkerWithoutBarrier) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload(&schema);
  ASSERT_TRUE(workload
                  .Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) "
                                  "GROUPBY g WITHIN 100 ms")
                           .value())
                  .ok());
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  const TypeId type_a = schema.FindType("A");
  const TypeId type_b = schema.FindType("B");
  // One group per shard, so the watermark below closes a window — and so
  // leaves an emission to wait for — on both.
  const ShardRouter router = Session::RouterFor(plan, 2).value();
  std::vector<int64_t> groups;
  for (int64_t g = 0; groups.size() < 2; ++g) {
    if (router.ShardOfKey(g) == groups.size()) groups.push_back(g);
  }
  auto event = [&](Timestamp t, TypeId type, int64_t group) {
    Event e(t, type);
    e.set_attr(0, 1.0);
    e.set_attr(1, static_cast<double>(group));
    return e;
  };
  RunConfig config;
  config.num_shards = 2;
  CollectingSink sink;
  Result<std::unique_ptr<Session>> opened =
      Session::Open(plan, config, &sink);
  ASSERT_TRUE(opened.ok());
  Session& session = *opened.value();
  auto wait_for = [&](const std::function<bool(const RunMetrics&)>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done(session.MetricsSnapshot())) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  Timestamp t = 1;
  for (int64_t g : groups) {
    ASSERT_TRUE(session.Push(event(t++, type_a, g)).ok());
    ASSERT_TRUE(session.Push(event(t++, type_b, g)).ok());
  }
  // Each shard processes its events, then the watermark, which closes its
  // group's window: once both emissions are counted, both queues are empty.
  ASSERT_TRUE(session.AdvanceTo(100).ok());
  ASSERT_TRUE(wait_for([](const RunMetrics& m) {
    return m.events == 4 && m.emissions == 2;
  })) << "the workers never drained";
  ASSERT_TRUE(session.Push(event(150, type_b, groups[1])).ok());
  EXPECT_TRUE(wait_for([](const RunMetrics& m) { return m.events == 5; }))
      << "an event pushed to an idle shard never reached its worker";
  ASSERT_TRUE(session.Close().ok());
}

// A burst then a lull on ONE shard: shard A gets a large batch, then one
// more event while its worker is still busy with that batch, and from then
// on only shard B gets input, and then the input stops. Every event of A
// must still reach A's worker, with no watermark, steal or Close to push it
// there: a front that held A's last events back until A's queue looked idle
// and re-checked only the shard each push went to stranded them.
TEST(AdaptiveIngressTest, EventBehindBusyQueueReachesWorkerWithoutBarrier) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload(&schema);
  ASSERT_TRUE(workload
                  .Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) "
                                  "GROUPBY g WITHIN 100 ms")
                           .value())
                  .ok());
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  const TypeId type_a = schema.FindType("A");
  const TypeId type_b = schema.FindType("B");
  const ShardRouter router = Session::RouterFor(plan, 2).value();
  std::vector<int64_t> groups;  // groups[s] hashes to shard s
  for (int64_t g = 0; groups.size() < 2; ++g) {
    if (router.ShardOfKey(g) == groups.size()) groups.push_back(g);
  }
  auto event = [&](Timestamp t, int64_t group) {
    Event e(t, t % 4 == 0 ? type_a : type_b);
    e.set_attr(0, 1.0);
    e.set_attr(1, static_cast<double>(group));
    return e;
  };
  RunConfig config;
  config.num_shards = 2;
  config.work_stealing = false;  // keep every event on its hash shard
  Result<std::unique_ptr<Session>> opened =
      Session::Open(plan, config, nullptr);
  ASSERT_TRUE(opened.ok());
  Session& session = *opened.value();
  // Shard A's burst: enough events (milliseconds of engine work) that its
  // worker is still running them when the next push lands.
  constexpr int kBurst = 20'000;
  EventVector burst;
  Timestamp t = 1;
  for (int i = 0; i < kBurst; ++i) burst.push_back(event(t++, groups[0]));
  ASSERT_TRUE(session.PushBatch(burst).ok());
  ASSERT_TRUE(session.Push(event(t++, groups[0])).ok());
  // Input to shard B only, then the input stops.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(session.Push(event(t++, groups[1])).ok());
  }
  const int64_t total = kBurst + 1 + 8;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (session.MetricsSnapshot().events < total &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(session.MetricsSnapshot().events, total)
      << "events pushed behind a busy shard never reached its worker";
  ASSERT_TRUE(session.Close().ok());
}

// A control message never overtakes the events stamped before it. A worker
// reads its event ring and then peeks its control ring; the front can push
// events and then a message between those two loads, so the worker sees
// the message but not yet the events. Each round here pushes one to three
// events and follows them at once with a watermark just above them (Close
// after the last round), while both workers spin on near-empty rings, so
// rounds keep landing in that gap. A watermark applied early closes
// windows before their events; a Close applied early drops the last
// events. Both change the emissions or the event count against Run().
TEST(AdaptiveIngressTest, ControlMessageNeverOvertakesItsEvents) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload(&schema);
  ASSERT_TRUE(workload
                  .Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) "
                                  "GROUPBY g WITHIN 8 ms")
                           .value())
                  .ok());
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  const TypeId type_a = schema.FindType("A");
  const TypeId type_b = schema.FindType("B");
  // Two groups per shard, so both rings see events and watermarks.
  const ShardRouter router = Session::RouterFor(plan, 2).value();
  std::vector<int64_t> groups;
  for (int64_t g = 0; groups.size() < 4; ++g) {
    if (router.ShardOfKey(g) == groups.size() % 2) groups.push_back(g);
  }
  Rng rng(/*seed=*/2024);
  EventVector ev;
  for (Timestamp t = 1; t <= 3000; ++t) {
    Event e(t, rng.NextBelow(3) == 0 ? type_a : type_b);
    e.set_attr(0, 1.0);
    e.set_attr(1, static_cast<double>(groups[rng.NextBelow(4)]));
    ev.push_back(e);
  }
  RunConfig config;
  RunOutput batch = StreamExecutor(plan, config).Run(ev);
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
  ASSERT_GT(batch.emissions.size(), 0u);
  config.num_shards = 2;
  // With online re-optimization each AdvanceTo returns only once both
  // workers applied its watermark, so the next round's events and
  // watermark land just as each worker goes back to read its rings.
  config.reoptimize_every_panes = 1;
  for (int session_run = 0; session_run < 10; ++session_run) {
    CollectingSink sink;
    Result<std::unique_ptr<Session>> opened =
        Session::Open(plan, config, &sink);
    ASSERT_TRUE(opened.ok());
    Session& session = *opened.value();
    for (size_t i = 0; i < ev.size();) {
      const size_t len =
          std::min<size_t>(1 + rng.NextBelow(3), ev.size() - i);
      const std::span<const Event> round(ev.data() + i, len);
      ASSERT_TRUE((len == 1 ? session.Push(round[0]) : session.PushBatch(round))
                      .ok());
      i += len;
      if (i < ev.size()) {
        ASSERT_TRUE(session.AdvanceTo(round.back().time + 1).ok());
      }
    }
    Result<RunMetrics> closed = session.Close();
    ASSERT_TRUE(closed.ok());
    const std::string label = "run " + std::to_string(session_run);
    EXPECT_EQ(closed.value().events, batch.metrics.events) << label;
    ExpectSameEmissionSet(batch.emissions, sink.Take(), label);
  }
}

// Same property on a hot-key stream, where work stealing moves whole
// groups between shards: every per-group result is untouched.
TEST(SkewedRoutingEquivalence, AllEnginesAllShardCounts) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  EventVector ev = RidesharingStream(/*seed=*/193, /*num_groups=*/8);
  const AttrId group_attr = bw.plan->exec_queries[0].group_by;
  ASSERT_NE(group_attr, Schema::kInvalidId);
  SkewGroups(ev, group_attr, /*num_groups=*/24, /*hot_fraction=*/0.5,
             /*seed=*/5);
  for (EngineKind kind : kAllKinds) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(*bw.plan, config);
    RunOutput batch = executor.Run(ev);
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
    for (int shards : {1, 2, 4, 8}) {
      RunConfig skewed = config;
      skewed.num_shards = shards;
      skewed.shard_queue_capacity = 16;
      const std::string label = std::string(EngineKindName(kind)) +
                                "/skew/N=" + std::to_string(shards);
      ShardedResult run = RunSharded(*bw.plan, skewed, ev, 11);
      ExpectSameEmissionSet(batch.emissions, run.emissions, label);
      EXPECT_EQ(batch.metrics.events, run.metrics.events) << label;
      if (shards == 1) {
        EXPECT_EQ(run.metrics.stolen_panes, 0) << label;
      }
    }
  }
}

// The hot-key stream must actually trigger steals at >1 shard, and the
// merged metrics must expose them alongside the per-shard event counts.
TEST(SkewedRoutingEquivalence, SkewedStreamStealsAndReportsShares) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  EventVector ev = RidesharingStream(/*seed=*/197, /*num_groups=*/8);
  const AttrId group_attr = bw.plan->exec_queries[0].group_by;
  SkewGroups(ev, group_attr, /*num_groups=*/24, /*hot_fraction=*/0.5,
             /*seed=*/9);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  config.num_shards = 4;
  ShardedResult run = RunSharded(*bw.plan, config, ev, 13);
  EXPECT_GT(run.metrics.stolen_panes, 0)
      << "a 50% hot key over 24 progressively introduced groups must steal "
         "at least one key";
  ASSERT_EQ(run.metrics.shard_events.size(), 4u);
  EXPECT_EQ(std::accumulate(run.metrics.shard_events.begin(),
                            run.metrics.shard_events.end(), int64_t{0}),
            run.metrics.events);
}

// The histogram counts the workers' engine calls by size: a ring of 8
// events caps every call at 8 (buckets past [8,16) stay empty), and every
// event ran in exactly one call.
TEST(IngressMetricsTest, BatchHistogramCountsEngineCalls) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 4, /*window_ms=*/2 * kMillisPerSecond);
  EventVector ev = RidesharingStream(/*seed=*/199, /*num_groups=*/8);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  config.num_shards = 3;
  config.shard_queue_capacity = 8;
  ShardedResult run = RunSharded(*bw.plan, config, ev, 17);
  ASSERT_FALSE(run.metrics.shard_batch_hist.empty());
  int64_t calls = 0;
  for (size_t b = 0; b < run.metrics.shard_batch_hist.size(); ++b) {
    calls += run.metrics.shard_batch_hist[b];
    if (b > 3) {
      EXPECT_EQ(run.metrics.shard_batch_hist[b], 0) << b;
    }
  }
  EXPECT_GE(calls, run.metrics.events / config.shard_queue_capacity);
  EXPECT_LE(calls, run.metrics.events);
}

TEST(IngressMetricsTest, QueueDepthObservedUnderBackpressure) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 4, /*window_ms=*/2 * kMillisPerSecond);
  EventVector ev = RidesharingStream(/*seed=*/211, /*num_groups=*/8);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  config.num_shards = 2;
  config.shard_queue_capacity = 2;
  ShardedResult run = RunSharded(*bw.plan, config, ev, 19);
  // A 2-event ring must have been observed non-empty (and at most at
  // capacity).
  EXPECT_GE(run.metrics.max_queue_depth_msgs, 1);
  EXPECT_LE(run.metrics.max_queue_depth_msgs, 2);
}

// The concurrent-peak fix: groups active in disjoint phases (windows closed
// and workers drained between phases) must NOT have their per-shard peaks
// summed — the merged peak is the footprint that actually coexisted, which
// here equals the single-threaded run's peak exactly.
TEST(ConcurrentPeakMemoryTest, SequentialPhasesDoNotSumIntoThePeak) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload(&schema);
  ASSERT_TRUE(workload
                  .Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) "
                                  "GROUPBY g WITHIN 500 ms")
                           .value())
                  .ok());
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  const TypeId type_a = schema.AddType("A");
  const TypeId type_b = schema.AddType("B");
  // 8 groups, each alive in its own 1000 ms phase: one A, then 280 Bs.
  // Identical per-group structure => identical per-group engine peaks.
  constexpr int kPhaseEvents = 281;
  EventVector ev;
  std::vector<Timestamp> phase_ends;
  for (int64_t g = 0; g < 8; ++g) {
    const Timestamp base = g * 1000;
    Event a(base + 10, type_a);
    a.set_attr(0, 1.0);
    a.set_attr(1, static_cast<double>(g));
    ev.push_back(a);
    for (int i = 0; i < kPhaseEvents - 1; ++i) {
      Event b(base + 11 + i, type_b);
      b.set_attr(0, 1.0);
      b.set_attr(1, static_cast<double>(g));
      ev.push_back(b);
    }
    phase_ends.push_back(base + 700);
  }
  // GRETA graph mode holds one node per in-window event, all inside the
  // window slot, which is destroyed at window close — a phase's ~281-node
  // footprint dwarfs the tiny empty slots that linger for known groups, and
  // it genuinely vanishes between phases.
  RunConfig config;
  config.kind = EngineKind::kGretaGraph;

  // Reference: the true total high-water over the whole stream.
  Result<std::unique_ptr<Session>> single =
      Session::Open(plan, config, nullptr);
  ASSERT_TRUE(single.ok());
  {
    size_t i = 0;
    for (int64_t g = 0; g < 8; ++g) {
      for (int k = 0; k < 281; ++k) {
        ASSERT_TRUE(single.value()->Push(ev[i++]).ok());
      }
      ASSERT_TRUE(
          single.value()->AdvanceTo(phase_ends[static_cast<size_t>(g)]).ok());
    }
  }
  const int64_t single_peak =
      single.value()->Close().value().peak_memory_bytes;
  ASSERT_GT(single_peak, 0);

  config.num_shards = 4;
  Result<std::unique_ptr<Session>> sharded =
      Session::Open(plan, config, nullptr);
  ASSERT_TRUE(sharded.ok());
  {
    size_t i = 0;
    int64_t pushed = 0;
    for (int64_t g = 0; g < 8; ++g) {
      for (int k = 0; k < 281; ++k) {
        ASSERT_TRUE(sharded.value()->Push(ev[i++]).ok());
        ++pushed;
      }
      ASSERT_TRUE(
          sharded.value()->AdvanceTo(phase_ends[static_cast<size_t>(g)]).ok());
      // Drain to quiescence between phases: every event AND the watermark
      // processed (the phase's full windows closed, footprint back to the
      // small empty-slot floor), so no two phases' big states coexist.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      for (;;) {
        RunMetrics m = sharded.value()->MetricsSnapshot();
        if (m.events == pushed &&
            m.current_memory_bytes <= single_peak / 2) {
          break;
        }
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "shards never drained";
        std::this_thread::yield();
      }
    }
  }
  RunMetrics merged = sharded.value()->Close().value();
  // Pre-fix this was the SUM of per-shard peaks — with 8 identical groups
  // over 4 shards, ~4x the single-threaded peak. The phases never overlap,
  // so the sampled concurrent high-water mark must stay in the same
  // ballpark as the single-threaded peak (slack for the empty-slot floor
  // and one phase of snapshot-publication lag), far below the sum.
  EXPECT_LE(merged.peak_memory_bytes, single_peak + single_peak / 2);
  EXPECT_GE(merged.peak_memory_bytes, single_peak / 2);
}

}  // namespace
}  // namespace hamlet
