// Optimizer tests: the benefit model reproduces the paper's worked decision
// numbers (Eq. 9-11) exactly; the pruned plan search (Theorems 4.1/4.2)
// matches exhaustive search; policies steer the engine as §4.2 describes;
// the runtime cost model (kRuntime) shares where the engine's shared code
// is cheaper and splits where it is not.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/benchlib/workloads.h"
#include "src/common/rng.h"
#include "src/hamlet/batch_eval.h"
#include "src/optimizer/plan_search.h"
#include "src/optimizer/policies.h"
#include "src/query/parser.h"
#include "src/runtime/session.h"
#include "src/stream/stream_builder.h"

namespace hamlet {
namespace {

// ---- Eq. 9-11: the split/merge decision numbers of §4.2 (Fig. 6) ----

TEST(CostModelTest, Equation9ShareIsBeneficial) {
  // Shared(B3) = 4*7*1 + 1*2*4*2 = 44; NonShared = 2*4*7 = 56; benefit 12.
  CostInputs in;
  in.k = 2;
  in.b = 4;
  in.n = 7;
  in.g = 4;
  in.t = 2;
  in.sc = 1;
  in.sp = 1;
  EXPECT_DOUBLE_EQ(SharedCost(in, CostModelVariant::kSimple), 44.0);
  EXPECT_DOUBLE_EQ(NonSharedCost(in, CostModelVariant::kSimple), 56.0);
  EXPECT_DOUBLE_EQ(SharingBenefit(in, CostModelVariant::kSimple), 12.0);
}

TEST(CostModelTest, Equation10SplitDecision) {
  // Shared = 4*11*2 + 1*2*8*2 = 120; NonShared = 2*4*11 = 88; benefit -32.
  CostInputs in;
  in.k = 2;
  in.b = 4;
  in.n = 11;
  in.g = 8;
  in.t = 2;
  in.sc = 1;
  in.sp = 2;
  EXPECT_DOUBLE_EQ(SharedCost(in, CostModelVariant::kSimple), 120.0);
  EXPECT_DOUBLE_EQ(NonSharedCost(in, CostModelVariant::kSimple), 88.0);
  EXPECT_DOUBLE_EQ(SharingBenefit(in, CostModelVariant::kSimple), -32.0);
}

TEST(CostModelTest, Equation11MergeDecision) {
  // Shared(B6) = 4*15*1 + 1*2*4*2 = 76; NonShared = 2*4*15 = 120; benefit 44.
  CostInputs in;
  in.k = 2;
  in.b = 4;
  in.n = 15;
  in.g = 4;
  in.t = 2;
  in.sc = 1;
  in.sp = 1;
  EXPECT_DOUBLE_EQ(SharedCost(in, CostModelVariant::kSimple), 76.0);
  EXPECT_DOUBLE_EQ(NonSharedCost(in, CostModelVariant::kSimple), 120.0);
  EXPECT_DOUBLE_EQ(SharingBenefit(in, CostModelVariant::kSimple), 44.0);
}

TEST(CostModelTest, RefinedVariantAddsLookupCosts) {
  CostInputs in;
  in.k = 2;
  in.b = 4;
  in.n = 7;
  in.g = 4;
  in.p = 2;
  in.sc = 1;
  in.sp = 1;
  // Shared = 1*2*4*2 + 4*(2 + 7) = 52; NonShared = 2*4*(2+7) = 72.
  EXPECT_DOUBLE_EQ(SharedCost(in, CostModelVariant::kRefined), 52.0);
  EXPECT_DOUBLE_EQ(NonSharedCost(in, CostModelVariant::kRefined), 72.0);
}

TEST(CostModelTest, BenefitGrowsWithQueriesAndShrinksWithSnapshots) {
  // Definition 12's qualitative reading: more sharing queries -> more
  // benefit; more snapshots -> less benefit.
  CostInputs in;
  in.k = 2;
  in.b = 8;
  in.n = 100;
  in.g = 8;
  in.t = 3;
  in.sc = 1;
  in.sp = 1;
  double base = SharingBenefit(in, CostModelVariant::kRefined);
  CostInputs more_queries = in;
  more_queries.k = 10;
  EXPECT_GT(SharingBenefit(more_queries, CostModelVariant::kRefined), base);
  CostInputs more_snapshots = in;
  more_snapshots.sc = 50;
  more_snapshots.sp = 20;
  EXPECT_LT(SharingBenefit(more_snapshots, CostModelVariant::kRefined), base);
}

// ---- §4.3 plan search: pruned == exhaustive ----

class PlanSearchSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlanSearchSweep, PrunedMatchesExhaustiveCost) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  for (int trial = 0; trial < 200; ++trial) {
    const int k = static_cast<int>(rng.NextInt(2, 8));
    PlanSearchInputs in;
    in.base.b = static_cast<double>(rng.NextInt(1, 16));
    in.base.n = static_cast<double>(rng.NextInt(1, 200));
    in.base.g = static_cast<double>(rng.NextInt(1, 32));
    in.base.p = static_cast<int>(rng.NextInt(1, 3));
    in.base.t = static_cast<int>(rng.NextInt(1, 4));
    in.base.sp = static_cast<double>(rng.NextInt(1, 6));
    in.variant = GetParam() == 0 ? CostModelVariant::kSimple
                                 : CostModelVariant::kRefined;
    for (int q = 0; q < k; ++q) {
      // Half the queries introduce no snapshots (Theorem 4.1 candidates).
      in.sc_q.push_back(rng.NextBool(0.5)
                            ? 0.0
                            : static_cast<double>(rng.NextInt(1, 40)));
    }
    SharingPlan exhaustive = ExhaustivePlanSearch(in, k);
    SharingPlan pruned = PrunedPlanSearch(in, k);
    // The pruned search must find an equally cheap plan (Theorems 4.1/4.2
    // guarantee optimality over the Level-1/2 space).
    EXPECT_NEAR(pruned.cost, exhaustive.cost, 1e-9)
        << "k=" << k << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, PlanSearchSweep, ::testing::Values(0, 1));

TEST(PlanSearchTest, SnapshotFreeQueriesAlwaysShared) {
  // Theorem 4.1: zero-snapshot queries belong in the shared set.
  PlanSearchInputs in;
  in.base.b = 8;
  in.base.n = 100;
  in.base.g = 8;
  in.sc_q = {0.0, 0.0, 1000.0};
  SharingPlan plan = PrunedPlanSearch(in, 3);
  EXPECT_TRUE(plan.shared.Contains(0));
  EXPECT_TRUE(plan.shared.Contains(1));
  EXPECT_FALSE(plan.shared.Contains(2));  // hugely snapshot-heavy
}

TEST(PlanSearchTest, Figure7SpaceSizeIsTwelveForFourQueries) {
  // 1 all-shared + 4 triples + 6 pairs + 1 all-solo = 12 plans (Fig. 7).
  int plans = 0;
  for (uint32_t mask = 0; mask < 16; ++mask) {
    if (__builtin_popcount(mask) == 1) continue;
    ++plans;
  }
  EXPECT_EQ(plans, 12);
}

// ---- policies driving the engine ----

class PolicyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* text :
         {"RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
          "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min"}) {
      Query q = ParseQuery(text).value();
      ASSERT_TRUE(workload_.Add(q).ok());
    }
  }
  EventVector BurstyStream(int bursts, int burst_len) {
    StreamBuilder b(&schema_);
    for (int i = 0; i < bursts; ++i) {
      b.Add("A").Add("C").AddRun(burst_len, "B");
    }
    return b.Take();
  }
  Schema schema_;
  Workload workload_{&schema_};
};

TEST_F(PolicyFixture, DynamicSharesBeneficialBursts) {
  WorkloadPlan plan = AnalyzeWorkload(workload_).value();
  DynamicBenefitPolicy dynamic;
  BatchResult r = EvalHamletBatch(plan, BurstyStream(20, 10), &dynamic);
  // No predicates, two queries, long bursts: sharing is beneficial and the
  // optimizer should share (nearly) all bursts after warm-up.
  EXPECT_GT(r.stats.bursts_shared, r.stats.bursts_total / 2);
  EXPECT_GT(dynamic.decisions(), 0);
}

TEST_F(PolicyFixture, PoliciesAgreeOnValues) {
  WorkloadPlan plan = AnalyzeWorkload(workload_).value();
  EventVector ev = BurstyStream(6, 5);
  NeverSharePolicy never;
  AlwaysSharePolicy always;
  DynamicBenefitPolicy dynamic;
  BatchResult a = EvalHamletBatch(plan, ev, &never);
  BatchResult b = EvalHamletBatch(plan, ev, &always);
  BatchResult c = EvalHamletBatch(plan, ev, &dynamic);
  for (int i = 0; i < plan.num_exec(); ++i) {
    EXPECT_DOUBLE_EQ(a.exec_values[static_cast<size_t>(i)],
                     b.exec_values[static_cast<size_t>(i)]);
    EXPECT_DOUBLE_EQ(a.exec_values[static_cast<size_t>(i)],
                     c.exec_values[static_cast<size_t>(i)]);
  }
}

TEST_F(PolicyFixture, SharedExecutionDoesLessWorkThanNonShared) {
  // The point of the paper: with k sharable queries and long bursts, shared
  // propagation does roughly k times less per-event work. Sharing has
  // per-burst overhead (snapshot creation), so the win needs k > 2.
  for (const char* text : {"RETURN COUNT(*) PATTERN SEQ(D, B+) WITHIN 1 min",
                           "RETURN COUNT(*) PATTERN SEQ(E, B+) WITHIN 1 min",
                           "RETURN COUNT(*) PATTERN SEQ(F, B+) WITHIN 1 min",
                           "RETURN COUNT(*) PATTERN SEQ(G, B+) WITHIN 1 min"}) {
    Query q = ParseQuery(text).value();
    ASSERT_TRUE(workload_.Add(q).ok());
  }
  WorkloadPlan plan = AnalyzeWorkload(workload_).value();
  EventVector ev = BurstyStream(50, 40);
  NeverSharePolicy never;
  AlwaysSharePolicy always;
  BatchResult solo = EvalHamletBatch(plan, ev, &never);
  BatchResult shared = EvalHamletBatch(plan, ev, &always);
  EXPECT_LT(shared.stats.ops, solo.stats.ops);
}

TEST(PolicyUnitTest, DynamicRespectsMarginalTests) {
  DynamicBenefitPolicy policy;
  BurstStats stats;
  stats.k = 3;
  stats.b = 8;
  stats.n = 50;
  stats.g = 8;
  stats.sp = 1;
  stats.sc_per_member = {0.0, 0.0, 500.0};  // member 2 is snapshot-heavy
  SharingDecision d = policy.Decide({0, 1, 2}, stats);
  EXPECT_TRUE(d.shared.Contains(0));
  EXPECT_TRUE(d.shared.Contains(1));
  EXPECT_FALSE(d.shared.Contains(2));
}

TEST(PolicyUnitTest, DynamicRefusesUnbeneficialSharing) {
  DynamicBenefitPolicy policy;
  BurstStats stats;
  stats.k = 2;
  stats.b = 1;     // tiny bursts
  stats.n = 1;     // nearly empty window
  stats.g = 100;   // huge graphlets to maintain
  stats.p = 3;
  stats.sp = 1;
  stats.sc_per_member = {0.0, 0.0};
  // Shared fixed cost sc*k*g*p = 600 dwarfs NonShared = 2*1*(log+1).
  SharingDecision d = policy.Decide({0, 1}, stats);
  EXPECT_TRUE(d.shared.Empty());
}

TEST(PolicyUnitTest, NeverAndAlwaysAreConstant) {
  BurstStats stats;
  stats.k = 2;
  NeverSharePolicy never;
  EXPECT_TRUE(never.Decide({0, 1}, stats).shared.Empty());
  AlwaysSharePolicy always;
  EXPECT_EQ(always.Decide({0, 1}, stats).shared.Count(), 2);
}

// ---- kRuntime: one cost form per propagation mode ----

CostInputs RuntimeInputs(PropagationMode mode, int k, double b, double c) {
  CostInputs in;
  in.mode = mode;
  in.k = k;
  in.b = b;
  in.c = c;
  in.sc = 1.0;  // no divergent event
  return in;
}

TEST(RuntimeCostModelTest, LongNonDivergentFastSumBurstsShareAtTwoQueries) {
  // One fast-sum append per event replaces two solo appends.
  for (double b : {64.0, 200.0, 1000.0}) {
    const CostInputs in = RuntimeInputs(PropagationMode::kFastSum, 2, b, 1.0);
    EXPECT_GT(SharingBenefit(in, CostModelVariant::kRuntime), 0.0) << b;
  }
}

TEST(RuntimeCostModelTest, OneOrTwoEventGraphletsWithOneContextSplit) {
  // The shared graphlet's own open, snapshots and fold outweigh one or two
  // solo appends per member.
  for (double b : {1.0, 2.0}) {
    const CostInputs in = RuntimeInputs(PropagationMode::kFastSum, 2, b, 1.0);
    EXPECT_LT(SharingBenefit(in, CostModelVariant::kRuntime), 0.0) << b;
  }
}

TEST(RuntimeCostModelTest, PerEventSnapshotLaneWithoutScannersNeverShares) {
  // Every event is a snapshot set for every sharer context on top of the
  // appends the members would do alone, and nobody's scan is saved.
  DynamicBenefitPolicy policy(CostModelVariant::kRuntime);
  for (int k : {2, 4, 12, 40}) {
    for (double b : {1.0, 2.0, 8.0, 64.0, 500.0}) {
      for (double c : {1.0, 2.0, 8.0}) {
        for (double sc : {1.0, 3.0, 50.0}) {
          CostInputs in =
              RuntimeInputs(PropagationMode::kPerEventSnapshot, k, b, c);
          in.sc = sc;
          in.n = 1000.0;
          EXPECT_GT(SharedCost(in, CostModelVariant::kRuntime),
                    NonSharedCost(in, CostModelVariant::kRuntime))
              << "k=" << k << " b=" << b << " c=" << c << " sc=" << sc;
          BurstStats stats;
          stats.mode = PropagationMode::kPerEventSnapshot;
          stats.k = k;
          stats.b = b;
          stats.c = c;
          stats.n = 1000.0;
          stats.sc_per_member.assign(static_cast<size_t>(k), 0.0);
          std::vector<int> members;
          for (int q = 0; q < k; ++q) members.push_back(q);
          EXPECT_TRUE(policy.Decide(members, stats).shared.Empty());
        }
      }
    }
  }
}

TEST(RuntimeCostModelTest, ScannersWindowTermIsEqualOnBothSides) {
  // An edge-predicate member scans its window's predecessor events whether
  // it shares or not; members that do not scan never pay for n.
  for (PropagationMode mode :
       {PropagationMode::kFastSum, PropagationMode::kPerEventSnapshot}) {
    for (int scanners : {0, 1, 3}) {
      CostInputs small = RuntimeInputs(mode, 6, 40.0, 2.0);
      small.scanners = scanners;
      small.sc = 4.0;
      small.n = 10.0;
      CostInputs large = small;
      large.n = 5000.0;
      const double shared = SharedCost(large, CostModelVariant::kRuntime) -
                            SharedCost(small, CostModelVariant::kRuntime);
      const double solo = NonSharedCost(large, CostModelVariant::kRuntime) -
                          NonSharedCost(small, CostModelVariant::kRuntime);
      EXPECT_DOUBLE_EQ(shared, solo) << PropagationModeName(mode);
      if (scanners == 0) {
        EXPECT_EQ(shared, 0.0);
      } else {
        EXPECT_GT(shared, 0.0);
      }
    }
  }
}

TEST(RuntimeCostModelTest, BurstChoiceAgreesWithPlanChoice) {
  // DynamicBenefitPolicy and the re-optimizer's PrunedPlanSearch price the
  // same terms: whenever a burst shares, the plan search shares the same
  // members.
  Rng rng(2027);
  DynamicBenefitPolicy policy(CostModelVariant::kRuntime);
  int shared_bursts = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const int k = static_cast<int>(rng.NextInt(2, 8));
    BurstStats stats;
    stats.mode = PropagationMode::kFastSum;
    stats.k = k;
    stats.b = static_cast<double>(rng.NextInt(1, 64));
    stats.c = static_cast<double>(rng.NextInt(1, 3));
    std::vector<int> members;
    PlanSearchInputs in;
    in.variant = CostModelVariant::kRuntime;
    in.base.b = stats.b;
    in.base.c = stats.c;
    for (int q = 0; q < k; ++q) {
      members.push_back(q);
      const double sc_q = rng.NextBool(0.5)
                              ? 0.0
                              : static_cast<double>(rng.NextInt(1, 8)) / 4.0;
      stats.sc_per_member.push_back(sc_q);
      in.sc_q.push_back(sc_q);
    }
    const SharingDecision burst = policy.Decide(members, stats);
    if (burst.shared.Empty()) continue;
    ++shared_bursts;
    EXPECT_EQ(PrunedPlanSearch(in, k).shared, burst.shared)
        << "trial " << trial;
  }
  EXPECT_GT(shared_bursts, 100);
}

// The engine under the default configuration's dynamic policy: never more
// work than the better of the two static choices, on a diverse stock
// workload (where the paper's Definition 12 inputs made it share bursts
// that cost more shared) and on ridesharing (where sharing wins).
struct EngineOps {
  BatchResult never, always, dynamic;
};

EngineOps RunAllPolicies(const BenchWorkload& bw, const GeneratorConfig& gen) {
  const EventVector ev = bw.generator->Generate(gen);
  NeverSharePolicy never;
  AlwaysSharePolicy always;
  DynamicBenefitPolicy dynamic(RunConfig().cost_variant);
  return {EvalHamletBatch(*bw.plan, ev, &never),
          EvalHamletBatch(*bw.plan, ev, &always),
          EvalHamletBatch(*bw.plan, ev, &dynamic)};
}

TEST(RuntimePolicyEngineTest, StockDynamicDoesNoMoreOpsThanEitherStaticPlan) {
  BenchWorkload bw = MakeWorkload2(20);
  GeneratorConfig gen;
  gen.seed = 1;
  gen.events_per_minute = 400;
  gen.duration_minutes = 5;
  gen.num_groups = 1;
  gen.burstiness = 0.992;
  gen.max_burst = 150;
  const EngineOps r = RunAllPolicies(bw, gen);
  const int64_t best = std::min(r.never.stats.ops, r.always.stats.ops);
  EXPECT_LE(static_cast<double>(r.dynamic.stats.ops),
            1.05 * static_cast<double>(best))
      << "never " << r.never.stats.ops << " always " << r.always.stats.ops;
}

TEST(RuntimePolicyEngineTest, RidesharingDynamicSharesAndBeatsNever) {
  BenchWorkload bw = MakeWorkload1("ridesharing", 20, 2 * kMillisPerSecond,
                                   /*with_predicate=*/false);
  GeneratorConfig gen;
  gen.seed = 1;
  gen.events_per_minute = 6000;
  gen.duration_minutes = 1;
  gen.num_groups = 1;
  gen.burstiness = 0.9;
  gen.max_burst = 120;
  const EngineOps r = RunAllPolicies(bw, gen);
  ASSERT_GT(r.dynamic.stats.bursts_total, 0);
  EXPECT_GE(static_cast<double>(r.dynamic.stats.bursts_shared),
            0.9 * static_cast<double>(r.dynamic.stats.bursts_total));
  EXPECT_LT(r.dynamic.stats.ops, r.never.stats.ops);
}

}  // namespace
}  // namespace hamlet
