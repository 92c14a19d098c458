// Pane-boundary work stealing tests (RunConfig::work_stealing).
//
// The skew stream is CONSTRUCTED so steals provably occur: three hot keys
// whose hash shard (probed through Session::RouterFor) is shard 0
// and one key on shard 1, at equal per-key rates, give shard 0 three
// quarters of the load — past steal_imbalance_ratio x the min + floor
// within the first sliding half-window. The suite asserts the steal
// actually executed (RunMetrics::stolen_panes > 0, and 0 with the knob
// off) and that the emission set is bitwise invariant: stealing on ==
// stealing off == single-threaded batch Run, and two stealing runs agree
// with each other including the steal count (the controller sees the
// deterministic staged stream, so its decisions must replay exactly).
//
// A second stream flips its skew so a key is stolen and then stolen back,
// with watermarks that open some steal boundaries' windows before the
// steal: the moved runners carry those windows along.
//
// Also covered: the default config (stealing on) balancing the
// constructed skew, the knob's compatibility matrix (evict_idle_groups and
// online re-optimization accepted), a stolen key evicted, drained and
// reappearing under evict_idle_groups, several steals from one victim at
// one boundary with a key stolen back at the next, query churn and a plan
// swap while stealing, config validation, the inert single-shard case,
// stealing under concurrent multi-producer ingest, the router's override
// map staying bounded under key churn, and keys that first appear on the
// overloaded shard mid-stream.
//
// Runs under TSan and ASan in CI: the runner hand-off between shard
// threads (the victim fills a cell the thief waits on) is a cross-thread
// protocol step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/query/parser.h"
#include "src/runtime/executor.h"
#include "src/runtime/session.h"

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

class WorkStealingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_.AddAttr("v");
    schema_.AddAttr("g");
    type_a_ = schema_.AddType("A");
    type_b_ = schema_.AddType("B");
    workload_ = std::make_unique<Workload>(&schema_);
    for (const char* text :
         {"RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g WITHIN 30 ms "
          "SLIDE 10 ms",
          "RETURN SUM(B.v) PATTERN SEQ(A, B+) GROUPBY g WITHIN 20 ms "
          "SLIDE 10 ms"}) {
      ASSERT_TRUE(workload_->Add(ParseQuery(text).value()).ok());
    }
    // The plan keeps a pointer into the workload, so both live on the
    // fixture.
    plan_ =
        std::make_unique<WorkloadPlan>(AnalyzeWorkload(*workload_).value());
  }

  Event Make(Timestamp t, TypeId type, int64_t group) {
    Event e(t, type);
    e.set_attr(0, static_cast<double>(t % 7));
    e.set_attr(1, static_cast<double>(group));
    return e;
  }

  // Three keys hashing to shard 0 of a 2-shard router plus one key on
  // shard 1, probed through the session's own route so the skew is real
  // on every platform.
  void FindSkewKeys(std::vector<int64_t>* hot, int64_t* cold) {
    ShardRouter probe = Session::RouterFor(*plan_, 2).value();
    *cold = -1;
    for (int64_t k = 0; k < 256 && (hot->size() < 3 || *cold < 0); ++k) {
      if (probe.ShardOfKey(k) == 0) {
        if (hot->size() < 3) hot->push_back(k);
      } else if (*cold < 0) {
        *cold = k;
      }
    }
    ASSERT_EQ(hot->size(), 3u);
    ASSERT_GE(*cold, 0);
  }

  // Round-robin over {hot0, hot1, hot2, cold} at one event per ms: shard 0
  // carries 3/4 of the staged load, forever.
  EventVector SkewStream(const std::vector<int64_t>& hot, int64_t cold,
                         int rounds) {
    return SkewStreamWith(hot, cold, rounds, [](int) { return int64_t{-1}; });
  }

  // SkewStream plus `extra(r)`: when it returns a key >= 0, that key gets
  // one more event after round r's four.
  template <typename ExtraKey>
  EventVector SkewStreamWith(const std::vector<int64_t>& hot, int64_t cold,
                             int rounds, ExtraKey extra) {
    EventVector ev;
    Timestamp t = 1;
    for (int r = 0; r < rounds; ++r) {
      const TypeId type = (r % 5 == 0) ? type_a_ : type_b_;
      for (int64_t k : {hot[0], hot[1], hot[2], cold}) {
        ev.push_back(Make(t++, type, k));
      }
      const int64_t k = extra(r);
      if (k >= 0) ev.push_back(Make(t++, (r % 4 == 0) ? type_a_ : type_b_, k));
    }
    return ev;
  }

  // Phase 1: shard 0 carries hot[0] three times per round plus hot[1] and
  // hot[2] against one event of `cold` on shard 1, so hot[0], the heaviest
  // key, is stolen to shard 1. Phase 2: only hot[0] (three times per round)
  // and `cold` (twice) run, both on shard 1 now, so hot[0] is stolen back
  // once shard 0's phase-1 load has left the window. With a steal ratio of
  // 4 (see the test) the first phase-2 trigger fires late enough that
  // moving hot[0] improves the balance, and as the heaviest candidate it
  // goes first. Events are 2 ms apart, which keeps windows small for the
  // two-step and SHARON baselines.
  EventVector FlipStream(const std::vector<int64_t>& hot, int64_t cold,
                         int rounds) {
    EventVector ev;
    Timestamp t = 2;
    for (const std::vector<int64_t>& round :
         {std::vector<int64_t>{hot[0], hot[1], hot[0], hot[2], hot[0], cold},
          std::vector<int64_t>{hot[0], cold, hot[0], cold, hot[0]}}) {
      for (int r = 0; r < rounds; ++r) {
        const TypeId type = (r % 5 == 0) ? type_a_ : type_b_;
        for (int64_t k : round) {
          ev.push_back(Make(t, type, k));
          t += 2;
        }
      }
    }
    return ev;
  }

  // `count` keys hashing to shard 0 of a 2-shard router, none of them in
  // `taken`.
  std::vector<int64_t> ShardZeroKeys(const std::vector<int64_t>& taken,
                                     size_t count) {
    ShardRouter probe = Session::RouterFor(*plan_, 2).value();
    std::vector<int64_t> keys;
    for (int64_t k = 0; keys.size() < count; ++k) {
      if (probe.ShardOfKey(k) == 0 &&
          std::find(taken.begin(), taken.end(), k) == taken.end()) {
        keys.push_back(k);
      }
    }
    return keys;
  }

  ShardedResult RunSharded(RunConfig config, int num_shards,
                           const EventVector& ev) {
    config.num_shards = num_shards;
    CollectingSink sink;
    Result<std::unique_ptr<Session>> session =
        Session::Open(*plan_, config, &sink);
    HAMLET_CHECK(session.ok());
    constexpr size_t kChunk = 64;
    for (size_t i = 0; i < ev.size(); i += kChunk) {
      const size_t len = std::min(kChunk, ev.size() - i);
      Status s = session.value()->PushBatch(
          std::span<const Event>(ev.data() + i, len));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    EXPECT_TRUE(session.value()->AdvanceTo(ev.back().time).ok());
    ShardedResult out;
    out.metrics = session.value()->Close().value();
    out.emissions = sink.Take();
    return out;
  }

  // Per-event pushes. The first `mid` events get a watermark at the start
  // of every 10 ms pane, so a steal among them finds the boundary's windows
  // already open on the victim; later steals open them themselves.
  // `key_shards` gets `key`'s shard after the first `mid` events and after
  // the last one.
  ShardedResult RunWithWatermarks(RunConfig config, const EventVector& ev,
                                  int64_t key, size_t mid,
                                  std::vector<size_t>* key_shards) {
    config.num_shards = 2;
    CollectingSink sink;
    Result<std::unique_ptr<Session>> session =
        Session::Open(*plan_, config, &sink);
    HAMLET_CHECK(session.ok());
    const ShardRouter& router = session.value()->router();
    key_shards->clear();
    for (size_t i = 0; i < ev.size(); ++i) {
      if (i == mid) key_shards->push_back(router.AssignedShardOfKey(key));
      if (i < mid && ev[i].time % 10 == 0) {
        EXPECT_TRUE(session.value()->AdvanceTo(ev[i].time).ok());
      }
      EXPECT_TRUE(session.value()->Push(ev[i]).ok());
    }
    key_shards->push_back(router.AssignedShardOfKey(key));
    ShardedResult out;
    out.metrics = session.value()->Close().value();
    out.emissions = sink.Take();
    return out;
  }

  Schema schema_;
  TypeId type_a_ = 0;
  TypeId type_b_ = 0;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<WorkloadPlan> plan_;
};

TEST_F(WorkStealingTest, StealsFireAndEmissionsAreInvariantAllEngines) {
  std::vector<int64_t> hot;
  int64_t cold = -1;
  FindSkewKeys(&hot, &cold);
  EventVector ev = SkewStream(hot, cold, /*rounds=*/1200);
  for (EngineKind kind : kAllKinds) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(*plan_, config);
    RunOutput batch = executor.Run(ev);
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
    ASSERT_GT(batch.emissions.size(), 0u) << EngineKindName(kind);

    const std::string label = EngineKindName(kind);
    config.work_stealing = false;
    ShardedResult off = RunSharded(config, 2, ev);
    ExpectSameEmissionSet(batch.emissions, off.emissions, label + "/off");
    EXPECT_EQ(off.metrics.stolen_panes, 0) << label;

    config.work_stealing = true;
    ShardedResult on = RunSharded(config, 2, ev);
    ExpectSameEmissionSet(batch.emissions, on.emissions, label + "/on");
    EXPECT_GT(on.metrics.stolen_panes, 0)
        << label << ": the constructed skew must force at least one steal";
    EXPECT_EQ(batch.metrics.emissions, on.metrics.emissions) << label;

    // Determinism: the controller reads the deterministic staged stream,
    // so a replay reproduces the steals exactly — count included.
    ShardedResult again = RunSharded(config, 2, ev);
    ExpectSameEmissionSet(on.emissions, again.emissions, label + "/replay");
    EXPECT_EQ(on.metrics.stolen_panes, again.metrics.stolen_panes) << label;
  }
}

TEST_F(WorkStealingTest, StealBackAcrossWatermarkOpenedWindowsAllEngines) {
  std::vector<int64_t> hot;
  int64_t cold = -1;
  FindSkewKeys(&hot, &cold);
  constexpr int kRounds = 800;
  EventVector ev = FlipStream(hot, cold, kRounds);
  const size_t phase2 = static_cast<size_t>(kRounds) * 6;
  for (EngineKind kind : kAllKinds) {
    const std::string label = EngineKindName(kind);
    RunConfig config;
    config.kind = kind;
    config.steal_imbalance_ratio = 4.0;
    // No key has more than 9 events in a window, so SHARON stays exact
    // with a smaller (cheaper) provisioned match length.
    config.sharon_max_length = 16;
    StreamExecutor executor(*plan_, config);
    RunOutput batch = executor.Run(ev);
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();

    std::vector<size_t> key_shards;
    config.work_stealing = false;
    ShardedResult off =
        RunWithWatermarks(config, ev, hot[0], phase2, &key_shards);
    ExpectSameEmissionSet(batch.emissions, off.emissions, label + "/off");
    EXPECT_EQ(off.metrics.stolen_panes, 0) << label;

    config.work_stealing = true;
    ShardedResult on =
        RunWithWatermarks(config, ev, hot[0], phase2, &key_shards);
    ExpectSameEmissionSet(batch.emissions, on.emissions, label + "/on");
    EXPECT_GE(on.metrics.stolen_panes, 2) << label;
    EXPECT_EQ(on.metrics.duplicated_events, 0) << label;
    EXPECT_EQ(on.metrics.events, static_cast<int64_t>(ev.size())) << label;
    // hot[0] left its hash shard in phase 1 and came back in phase 2.
    EXPECT_EQ(key_shards, (std::vector<size_t>{1, 0})) << label;
  }
}

TEST_F(WorkStealingTest, FourShardsStayInvariant) {
  std::vector<int64_t> hot;
  int64_t cold = -1;
  FindSkewKeys(&hot, &cold);
  EventVector ev = SkewStream(hot, cold, 1200);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(*plan_, config);
  RunOutput batch = executor.Run(ev);
  ASSERT_TRUE(batch.status.ok());
  config.work_stealing = true;
  ShardedResult on = RunSharded(config, 4, ev);
  ExpectSameEmissionSet(batch.emissions, on.emissions, "N=4/on");
}

TEST_F(WorkStealingTest, SingleShardIsInert) {
  std::vector<int64_t> hot;
  int64_t cold = -1;
  FindSkewKeys(&hot, &cold);
  EventVector ev = SkewStream(hot, cold, 300);
  RunConfig config;
  config.kind = EngineKind::kGretaGraph;
  config.work_stealing = true;
  StreamExecutor executor(*plan_, config);
  RunOutput batch = executor.Run(ev);
  ASSERT_TRUE(batch.status.ok());
  ShardedResult one = RunSharded(config, 1, ev);
  ExpectSameEmissionSet(batch.emissions, one.emissions, "N=1");
  EXPECT_EQ(one.metrics.stolen_panes, 0);
}

TEST_F(WorkStealingTest, StealingUnderMultiProducerIngest) {
  std::vector<int64_t> hot;
  int64_t cold = -1;
  FindSkewKeys(&hot, &cold);
  EventVector ev = SkewStream(hot, cold, 1200);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(*plan_, config);
  RunOutput batch = executor.Run(ev);
  ASSERT_TRUE(batch.status.ok());

  config.work_stealing = true;
  config.num_shards = 2;
  CollectingSink sink;
  auto session = Session::Open(*plan_, config, &sink).value();
  constexpr int kProducers = 2;
  std::vector<std::unique_ptr<Session::Producer>> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.push_back(session->AddProducer().value());
  }
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (size_t i = static_cast<size_t>(p); i < ev.size(); i += kProducers) {
        ASSERT_TRUE(producers[static_cast<size_t>(p)]->Push(ev[i]).ok());
      }
      ASSERT_TRUE(producers[static_cast<size_t>(p)]
                      ->AdvanceTo(ev.back().time)
                      .ok());
      ASSERT_TRUE(producers[static_cast<size_t>(p)]->Close().ok());
    });
  }
  for (std::thread& t : threads) t.join();
  RunMetrics metrics = session->Close().value();
  ExpectSameEmissionSet(batch.emissions, sink.Take(), "mp+steal");
  EXPECT_GT(metrics.stolen_panes, 0);
}

// The router holds an override only while a steal keeps a key off its
// hash shard, so hundreds of short-lived keys (two
// events each) leave no trace in the map: it never outgrows the steal
// count.
TEST_F(WorkStealingTest, KeyChurnKeepsOverrideMapBounded) {
  std::vector<int64_t> hot;
  int64_t cold = -1;
  FindSkewKeys(&hot, &cold);
  constexpr int kRounds = 600;
  EventVector ev = SkewStreamWith(
      hot, cold, kRounds, [](int r) { return int64_t{10'000} + r / 2; });
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(*plan_, config);
  RunOutput batch = executor.Run(ev);
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();

  config.work_stealing = false;
  ShardedResult off = RunSharded(config, 2, ev);
  ExpectSameEmissionSet(batch.emissions, off.emissions, "off");
  config.work_stealing = true;
  ShardedResult on = RunSharded(config, 2, ev);
  ExpectSameEmissionSet(off.emissions, on.emissions, "on");
  EXPECT_GT(on.metrics.stolen_panes, 0);
  EXPECT_LE(on.metrics.rebalance_map_size, on.metrics.stolen_panes)
      << "override map grew with the " << kRounds / 2 << " churned keys";
}

// Keys that first appear once shard 0 is overloaded join the steal window
// mid-stream, while the established hot keys keep triggering steals.
// Stealing must not change what is computed.
TEST_F(WorkStealingTest, LateKeysOnHotShardAllEngines) {
  std::vector<int64_t> hot;
  int64_t cold = -1;
  FindSkewKeys(&hot, &cold);
  const std::vector<int64_t> late = ShardZeroKeys(hot, 4);
  // One late-key event every 8 rounds from round 40 on, rotating through
  // four keys that all hash to the overloaded shard 0.
  EventVector ev = SkewStreamWith(hot, cold, /*rounds=*/600, [&](int r) {
    return r >= 40 && r % 8 == 0 ? late[static_cast<size_t>(r / 8) % 4]
                                 : int64_t{-1};
  });
  for (EngineKind kind : kAllKinds) {
    const std::string label = EngineKindName(kind);
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(*plan_, config);
    RunOutput batch = executor.Run(ev);
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();

    config.work_stealing = false;
    ShardedResult off = RunSharded(config, 2, ev);
    ExpectSameEmissionSet(batch.emissions, off.emissions, label + "/off");
    EXPECT_EQ(off.metrics.stolen_panes, 0) << label;

    config.work_stealing = true;
    ShardedResult on = RunSharded(config, 2, ev);
    ExpectSameEmissionSet(batch.emissions, on.emissions, label + "/on");
    ExpectSameEmissionSet(off.emissions, on.emissions, label + "/on-off");
    EXPECT_GT(on.metrics.stolen_panes, 0) << label;
  }
}

TEST_F(WorkStealingTest, CompatibilityMatrixRejectedAtOpen) {
  CollectingSink sink;
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  config.num_shards = 2;
  config.work_stealing = true;

  // Idle-group eviction combines with stealing (EvictedStolenKey* below
  // checks what it computes).
  RunConfig evict = config;
  evict.evict_idle_groups = true;
  auto r1 = Session::Open(*plan_, evict, &sink);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1.value()->Close().ok());

  // Online re-optimization combines with stealing: every shard runs one
  // plan epoch and switches it at the same boundary.
  RunConfig reopt = config;
  reopt.reoptimize_every_panes = 4;
  auto r2 = Session::Open(*plan_, reopt, &sink);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(r2.value()->Close().ok());

  // The ratio is validated even with stealing off, so a latent bad value
  // can never bite when the knob is flipped on later.
  RunConfig ratio;
  ratio.kind = EngineKind::kHamletDynamic;
  ratio.steal_imbalance_ratio = 1.0;
  auto r3 = Session::Open(*plan_, ratio, &sink);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);

  RunConfig ring;
  ring.kind = EngineKind::kHamletDynamic;
  ring.producer_queue_capacity = 1;
  auto r4 = Session::Open(*plan_, ring, &sink);
  ASSERT_FALSE(r4.ok());
  EXPECT_EQ(r4.status().code(), StatusCode::kInvalidArgument);
}

// Query churn and a plan swap on a stealing session: an AddQuery that makes
// the pane finer, a forced sharing override, and a RemoveQuery, while
// the constructed skew keeps stealing. Every shard hands its windows to the
// new plan epoch at the same boundary, and the front keeps steal boundaries
// on the running grid until then, so the emission set equals the
// single-threaded churn run.
TEST_F(WorkStealingTest, ChurnAndPlanSwapWhileStealingAllEngines) {
  std::vector<int64_t> hot;
  int64_t cold = -1;
  FindSkewKeys(&hot, &cold);
  EventVector ev = SkewStream(hot, cold, /*rounds=*/500);
  Query finer = ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g "
                           "WITHIN 15 ms SLIDE 5 ms")
                    .value();
  finer.name = "finer";
  // The swap splits a share group of the plan the session runs after the
  // add: the fixture's queries, then `finer`.
  Workload grown(&schema_);
  for (const Query& q : workload_->queries()) ASSERT_TRUE(grown.Add(q).ok());
  ASSERT_TRUE(grown.Add(finer).ok());
  const WorkloadPlan grown_plan = AnalyzeWorkload(grown).value();
  ASSERT_FALSE(grown_plan.share_groups.empty());
  const ShareGroup& sg = grown_plan.share_groups.front();
  QueryId keep = -1;
  sg.members.ForEach([&](QueryId q) {
    if (keep < 0) keep = q;
  });
  const SharingOverride unshare{sg.type, sg.members, QuerySet::Single(keep)};

  auto drive = [&](Session& session, CollectingSink& sink) {
    auto push = [&](size_t from, size_t to) {
      for (size_t i = from; i < to; i += 64) {
        const size_t len = std::min<size_t>(64, to - i);
        EXPECT_TRUE(
            session.PushBatch(std::span<const Event>(ev.data() + i, len))
                .ok());
      }
    };
    // The add lands at t=257, just as the skew first passes the steal
    // trigger (3T/4 > 2 * T/4 + 64 staged events), with its boundary at
    // 260: a front on the finer 5 ms grid before then would steal at 255,
    // off the grid the shards still run.
    const size_t n = ev.size();
    push(0, 257);
    EXPECT_TRUE(session.AddQuery(finer).ok());
    push(257, n / 2);
    EXPECT_TRUE(session.ApplySharingOverrides(std::span(&unshare, 1)).ok());
    push(n / 2, 3 * n / 4);
    EXPECT_TRUE(session.RemoveQuery("q1").ok());
    push(3 * n / 4, n);
    EXPECT_TRUE(session.AdvanceTo(ev.back().time).ok());
    ShardedResult out;
    out.metrics = session.Close().value();
    out.emissions = sink.Take();
    return out;
  };

  for (EngineKind kind : kAllKinds) {
    const std::string label = EngineKindName(kind);
    RunConfig config;
    config.kind = kind;
    CollectingSink single_sink;
    auto single = Session::Open(*plan_, config, &single_sink);
    ASSERT_TRUE(single.ok()) << label;
    const ShardedResult want = drive(*single.value(), single_sink);
    ASSERT_GT(want.emissions.size(), 0u) << label;

    config.num_shards = 2;
    config.work_stealing = true;
    CollectingSink sink;
    auto sharded = Session::Open(*plan_, config, &sink);
    ASSERT_TRUE(sharded.ok()) << label;
    const ShardedResult got = drive(*sharded.value(), sink);
    ExpectSameEmissionSet(want.emissions, got.emissions, label);
    EXPECT_GT(got.metrics.stolen_panes, 0) << label;
    EXPECT_EQ(got.metrics.queries_added, 1) << label;
    EXPECT_EQ(got.metrics.queries_removed, 1) << label;
    EXPECT_EQ(got.metrics.plan_swaps, 1) << label;
  }
}

// The default config steals: a 2-shard session over the constructed 3:1
// hash skew ends up balanced, and computes what the batch Run computes.
TEST_F(WorkStealingTest, DefaultConfigBalancesHashSkew) {
  std::vector<int64_t> hot;
  int64_t cold = -1;
  FindSkewKeys(&hot, &cold);
  EventVector ev = SkewStream(hot, cold, /*rounds=*/1200);
  const RunConfig config;
  StreamExecutor executor(*plan_, config);
  RunOutput batch = executor.Run(ev);
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();

  ShardedResult out = RunSharded(config, 2, ev);
  ExpectSameEmissionSet(batch.emissions, out.emissions, "default");
  EXPECT_GE(out.metrics.stolen_panes, 1);
  ASSERT_EQ(out.metrics.shard_events.size(), 2u);
  const int64_t busiest = std::max(out.metrics.shard_events[0],
                                   out.metrics.shard_events[1]);
  EXPECT_LE(static_cast<double>(busiest) /
                static_cast<double>(out.metrics.events),
            0.6);
}

// Stealing x evict_idle_groups: a key stolen to the thief goes idle past
// every WITHIN, so the thief evicts its runners and the front drains its
// override; when the key comes back it routes by hash and starts fresh,
// as it does in a single-threaded evicting session. The steal itself
// fires on the first event after a 200 ms gap in which every group went
// idle, and a tumbling query emits at every pane a live group spans, so
// both shards must evict at exactly the single-threaded boundaries while
// they advance to the steal boundary.
TEST_F(WorkStealingTest, EvictedStolenKeyDrainsAndReappearsAllEngines) {
  Workload tumbling(&schema_);
  for (const Query& q : workload_->queries()) {
    ASSERT_TRUE(tumbling.Add(q).ok());
  }
  ASSERT_TRUE(tumbling
                  .Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) "
                                  "GROUPBY g WITHIN 10 ms SLIDE 10 ms")
                           .value())
                  .ok());
  const WorkloadPlan plan = AnalyzeWorkload(tumbling).value();
  std::vector<int64_t> hot;
  int64_t cold = -1;
  FindSkewKeys(&hot, &cold);
  RunConfig config;
  config.evict_idle_groups = true;
  config.num_shards = 2;
  // Phase 1: the 3:1 skew, long enough for one steal. The probe finds the
  // event that fires it and the key it moves.
  EventVector ev = SkewStream(hot, cold, /*rounds=*/150);
  size_t trigger = ev.size();
  int64_t stolen = -1;
  {
    auto probe = Session::Open(plan, config, nullptr).value();
    for (size_t i = 0; i < ev.size() && stolen < 0; ++i) {
      ASSERT_TRUE(probe->Push(ev[i]).ok());
      if (probe->MetricsSnapshot().stolen_panes == 0) continue;
      trigger = i;
      for (int64_t k : hot) {
        if (probe->router().AssignedShardOfKey(k) == 1) stolen = k;
      }
    }
    ASSERT_TRUE(probe->Close().ok());
  }
  ASSERT_GE(stolen, 0) << "the 3:1 skew must steal a hot key";
  // The gap leaves the loads the steal decision reads unchanged.
  for (size_t i = trigger; i < ev.size(); ++i) ev[i].time += 200;
  const size_t phase1 = ev.size();
  std::vector<int64_t> stay;
  for (int64_t k : hot) {
    if (k != stolen) stay.push_back(k);
  }
  // A fresh key on shard 1 keeps the two shards level while `stolen` is
  // idle (phase 2, 400 ms against a 30 ms WITHIN); in phase 3 `stolen`
  // comes back, 3:2 on its hash shard, below the steal ratio.
  int64_t filler = -1;
  ShardRouter hash = Session::RouterFor(plan, 2).value();
  for (int64_t k = 1000; filler < 0; ++k) {
    if (hash.ShardOfKey(k) == 1) filler = k;
  }
  Timestamp t = ev.back().time + 1;
  for (const std::vector<int64_t>& round :
       {std::vector<int64_t>{stay[0], stay[1], cold, filler},
        std::vector<int64_t>{stay[0], stay[1], stolen, cold, filler}}) {
    for (int r = 0; r < 100; ++r) {
      const TypeId type = (r % 5 == 0) ? type_a_ : type_b_;
      for (int64_t k : round) ev.push_back(Make(t++, type, k));
    }
  }
  const size_t phase2 = phase1 + 400;

  // Per-event pushes with a watermark in the middle of every pane: the
  // watermarks are the checkpoints at which the front drains overrides,
  // and none of them reaches a pane before its first event does.
  std::vector<int64_t> map_sizes;
  auto drive = [&](Session& session, CollectingSink& sink) {
    for (size_t i = 0; i < ev.size(); ++i) {
      if (ev[i].time % 10 == 5) {
        EXPECT_TRUE(session.AdvanceTo(ev[i].time).ok());
      }
      if (session.num_shards() > 1 && (i == phase1 || i == phase2)) {
        map_sizes.push_back(session.MetricsSnapshot().rebalance_map_size);
      }
      EXPECT_TRUE(session.Push(ev[i]).ok());
    }
    EXPECT_TRUE(session.AdvanceTo(ev.back().time).ok());
    ShardedResult out;
    out.metrics = session.Close().value();
    out.emissions = sink.Take();
    return out;
  };

  for (EngineKind kind : kAllKinds) {
    const std::string label = EngineKindName(kind);
    config.kind = kind;
    RunConfig one_shard = config;
    one_shard.num_shards = 1;
    CollectingSink single_sink;
    auto single = Session::Open(plan, one_shard, &single_sink).value();
    const ShardedResult want = drive(*single, single_sink);
    ASSERT_GT(want.emissions.size(), 0u) << label;
    EXPECT_GT(want.metrics.evicted_idle_groups, 0) << label;

    CollectingSink sink;
    auto sharded = Session::Open(plan, config, &sink).value();
    map_sizes.clear();
    const ShardedResult got = drive(*sharded, sink);
    ExpectSameEmissionSet(want.emissions, got.emissions, label);
    EXPECT_EQ(got.metrics.stolen_panes, 1) << label;
    EXPECT_EQ(got.metrics.evicted_idle_groups,
              want.metrics.evicted_idle_groups)
        << label;
    // One override after the steal, none once the idle key drained, and
    // none after it came back on its hash shard.
    EXPECT_EQ(map_sizes, (std::vector<int64_t>{1, 0})) << label;
    EXPECT_EQ(got.metrics.rebalance_map_size, 0) << label;
  }
}

// The asynchronous hand-off under load. Sixteen keys on shard 0 against
// one on shard 1 make the first 1 s pane boundary steal several keys from
// one victim; the next pane loads the thief so that one of them, `back`,
// is stolen home at the very next boundary. The whole stream is staged
// before the shards catch up, so the detach/attach pairs of both
// boundaries are queued at once, on session-level and on producer ingest.
TEST_F(WorkStealingTest, PipelinedStealsAndStealBackAcrossBoundaries) {
  Workload coarse(&schema_);
  for (const char* text :
       {"RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g WITHIN 2 s SLIDE 1 s",
        "RETURN SUM(B.v) PATTERN SEQ(A, B+) GROUPBY g WITHIN 1 s SLIDE 1 s"}) {
    ASSERT_TRUE(coarse.Add(ParseQuery(text).value()).ok());
  }
  const WorkloadPlan plan = AnalyzeWorkload(coarse).value();
  ShardRouter hash = Session::RouterFor(plan, 2).value();
  std::vector<int64_t> victim_keys;
  int64_t cold = -1;
  for (int64_t k = 0; victim_keys.size() < 16 || cold < 0; ++k) {
    if (hash.ShardOfKey(k) == 1) {
      if (cold < 0) cold = k;
    } else if (victim_keys.size() < 16) {
      victim_keys.push_back(k);
    }
  }
  auto type_at = [&](int r) { return r % 4 == 0 ? type_a_ : type_b_; };
  // Pane [0, 1000): every key of both shards, one event per 2 ms. The
  // first event of the next pane (a `cold` one) fires the steals.
  EventVector ev;
  Timestamp t = 2;
  for (int r = 0; t < 1000; ++r) {
    for (int64_t k : victim_keys) {
      if (t < 1000) ev.push_back(Make(t, type_at(r), k));
      t += 2;
    }
    if (t < 1000) ev.push_back(Make(t, type_at(r), cold));
    t += 2;
  }
  ev.push_back(Make(1000, type_a_, cold));
  const size_t first_boundary = ev.size();

  RunConfig config;
  config.num_shards = 2;
  std::vector<int64_t> moved;
  {
    auto probe = Session::Open(plan, config, nullptr).value();
    ASSERT_TRUE(probe->PushBatch(ev).ok());
    for (int64_t k : victim_keys) {
      if (probe->router().AssignedShardOfKey(k) == 1) moved.push_back(k);
    }
    EXPECT_GE(probe->MetricsSnapshot().stolen_panes, 3);
    ASSERT_TRUE(probe->Close().ok());
  }
  ASSERT_GE(moved.size(), 3u) << "one boundary must steal several keys";
  // Pane [1000, 2000): only the thief's keys, `back` twice per round, so
  // the thief is overloaded and `back` is the heaviest key whose return
  // improves the balance. Pane [2000, 3000): every key again.
  const int64_t back = moved.front();
  t = 1001;
  for (int r = 0; t < 2000; ++r) {
    ev.push_back(Make(t++, type_at(r), back));
    for (int64_t k : moved) ev.push_back(Make(t++, type_at(r), k));
    ev.push_back(Make(t++, type_at(r), cold));
  }
  while (ev.back().time >= 2000) ev.pop_back();
  for (int r = 0; t < 3000; ++r) {
    for (int64_t k : victim_keys) ev.push_back(Make(t++, type_at(r), k));
    ev.push_back(Make(t++, type_at(r), cold));
  }
  while (ev.back().time >= 3000) ev.pop_back();

  StreamExecutor executor(plan, config);
  RunOutput batch = executor.Run(ev);
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();

  // Session-level ingest in one PushBatch per pane.
  CollectingSink sink;
  auto session = Session::Open(plan, config, &sink).value();
  size_t second_boundary = first_boundary;
  while (ev[second_boundary].time < 2000) ++second_boundary;
  for (auto [from, to] : {std::pair<size_t, size_t>{0, first_boundary},
                          {first_boundary, second_boundary + 1},
                          {second_boundary + 1, ev.size()}}) {
    ASSERT_TRUE(session
                    ->PushBatch(std::span<const Event>(ev.data() + from,
                                                       to - from))
                    .ok());
    if (from == 0) {
      EXPECT_EQ(session->router().AssignedShardOfKey(back), 1u);
    } else if (from == first_boundary) {
      EXPECT_EQ(session->router().AssignedShardOfKey(back), 0u)
          << "`back` must return home at the next boundary";
    }
  }
  ASSERT_TRUE(session->AdvanceTo(ev.back().time).ok());
  const RunMetrics level = session->Close().value();
  ExpectSameEmissionSet(batch.emissions, sink.Take(), "session-level");
  EXPECT_GE(level.stolen_panes, static_cast<int64_t>(moved.size()) + 1);

  // Producer ingest: the sequencer merges the same stream, so it steals
  // the same keys at the same boundaries.
  CollectingSink mp_sink;
  auto mp = Session::Open(plan, config, &mp_sink).value();
  constexpr int kProducers = 2;
  std::vector<std::unique_ptr<Session::Producer>> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.push_back(mp->AddProducer().value());
  }
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Session::Producer& producer = *producers[static_cast<size_t>(p)];
      for (size_t i = static_cast<size_t>(p); i < ev.size(); i += kProducers) {
        ASSERT_TRUE(producer.Push(ev[i]).ok());
      }
      ASSERT_TRUE(producer.AdvanceTo(ev.back().time).ok());
      ASSERT_TRUE(producer.Close().ok());
    });
  }
  for (std::thread& th : threads) th.join();
  const RunMetrics multi = mp->Close().value();
  ExpectSameEmissionSet(batch.emissions, mp_sink.Take(), "producers");
  EXPECT_EQ(multi.stolen_panes, level.stolen_panes);
}

}  // namespace
}  // namespace hamlet
