// Pane-boundary work stealing tests (RunConfig::work_stealing).
//
// The skew stream is CONSTRUCTED so steals provably occur: three hot keys
// whose hash shard (probed through ShardedSession::RouterFor) is shard 0
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
// Also covered: the knob's compatibility matrix (evict_idle_groups and
// online re-optimization rejected at Open, live churn rejected per call),
// config validation, the inert single-shard case, stealing under
// concurrent multi-producer ingest, the router's override map staying
// bounded under key churn, and stealing together with skew-aware
// first-sight placement (both policies read one load window).
//
// Runs under TSan and ASan in CI: the runner hand-off between shard
// threads and the detach-ack spin are cross-thread protocol steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
    ShardRouter probe = ShardedSession::RouterFor(*plan_, 2).value();
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
    ShardRouter probe = ShardedSession::RouterFor(*plan_, 2).value();
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
    Result<std::unique_ptr<ShardedSession>> session =
        ShardedSession::Open(*plan_, config, &sink);
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
    Result<std::unique_ptr<ShardedSession>> session =
        ShardedSession::Open(*plan_, config, &sink);
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
  auto session = ShardedSession::Open(*plan_, config, &sink).value();
  constexpr int kProducers = 2;
  std::vector<std::unique_ptr<ShardedSession::Producer>> producers;
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

// Without rebalancing the router holds an override only while a steal
// keeps a key off its hash shard, so hundreds of short-lived keys (two
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

  ShardedResult off = RunSharded(config, 2, ev);
  ExpectSameEmissionSet(batch.emissions, off.emissions, "off");
  config.work_stealing = true;
  ShardedResult on = RunSharded(config, 2, ev);
  ExpectSameEmissionSet(off.emissions, on.emissions, "on");
  EXPECT_GT(on.metrics.stolen_panes, 0);
  EXPECT_LE(on.metrics.rebalance_map_size, on.metrics.stolen_panes)
      << "override map grew with the " << kRounds / 2 << " churned keys";
}

// Both placement policies on at once, sharing one load window: keys that
// first appear once shard 0 is overloaded are diverted on first sight,
// and the established hot keys still trigger steals. Neither may change
// what is computed.
TEST_F(WorkStealingTest, RebalanceAndStealTogetherAllEngines) {
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

    config.shard_rebalance_threshold = 4;
    ShardedResult off = RunSharded(config, 2, ev);
    ExpectSameEmissionSet(batch.emissions, off.emissions, label + "/off");
    EXPECT_GT(off.metrics.rebalanced_keys, 0) << label;

    config.work_stealing = true;
    ShardedResult on = RunSharded(config, 2, ev);
    ExpectSameEmissionSet(batch.emissions, on.emissions, label + "/on");
    ExpectSameEmissionSet(off.emissions, on.emissions, label + "/on-off");
    EXPECT_GT(on.metrics.rebalanced_keys, 0) << label;
    EXPECT_GT(on.metrics.stolen_panes, 0) << label;
  }
}

TEST_F(WorkStealingTest, CompatibilityMatrixRejectedAtOpen) {
  CollectingSink sink;
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  config.num_shards = 2;
  config.work_stealing = true;

  RunConfig evict = config;
  evict.evict_idle_groups = true;
  auto r1 = ShardedSession::Open(*plan_, evict, &sink);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kUnsupported)
      << r1.status().ToString();

  RunConfig reopt = config;
  reopt.reoptimize_every_panes = 4;
  auto r2 = ShardedSession::Open(*plan_, reopt, &sink);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kUnsupported)
      << r2.status().ToString();

  // The ratio is validated even with stealing off, so a latent bad value
  // can never bite when the knob is flipped on later.
  RunConfig ratio;
  ratio.kind = EngineKind::kHamletDynamic;
  ratio.steal_imbalance_ratio = 1.0;
  auto r3 = ShardedSession::Open(*plan_, ratio, &sink);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);

  RunConfig ring;
  ring.kind = EngineKind::kHamletDynamic;
  ring.producer_queue_capacity = 1;
  auto r4 = ShardedSession::Open(*plan_, ring, &sink);
  ASSERT_FALSE(r4.ok());
  EXPECT_EQ(r4.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WorkStealingTest, ChurnRejectedWhileStealing) {
  CollectingSink sink;
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  config.num_shards = 2;
  config.work_stealing = true;
  auto session = ShardedSession::Open(*plan_, config, &sink).value();
  ASSERT_TRUE(session->Push(Make(1, type_a_, 1)).ok());

  Query q = ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g "
                       "WITHIN 10 ms")
                .value();
  auto add = session->AddQuery(q);
  ASSERT_FALSE(add.ok());
  EXPECT_EQ(add.status().code(), StatusCode::kUnsupported)
      << add.status().ToString();
  auto remove = session->RemoveQuery("q0");
  ASSERT_FALSE(remove.ok());
  EXPECT_EQ(remove.status().code(), StatusCode::kUnsupported);

  EXPECT_TRUE(session->Close().ok());
}

}  // namespace
}  // namespace hamlet
