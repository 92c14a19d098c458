// Streaming executor stress tests: generator-driven multi-pane streams,
// sliding windows, cross-engine value agreement on real workload shapes,
// and metric sanity under load.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "src/benchlib/workloads.h"
#include "src/runtime/executor.h"
#include "tests/test_seed.h"

namespace hamlet {
namespace {

using EmissionKey = std::tuple<QueryId, int64_t, Timestamp>;

std::map<EmissionKey, double> ToMap(const RunOutput& out) {
  std::map<EmissionKey, double> m;
  for (const Emission& e : out.emissions)
    m[{e.query, e.group_key, e.window_start}] = e.value;
  return m;
}

TEST(ExecutorStressTest, EnginesAgreeOnGeneratedRidesharingStream) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 8, /*window_ms=*/5 * kMillisPerSecond);
  GeneratorConfig gen;
  gen.seed = test::SeedOr(77);
  gen.events_per_minute = 1200;
  gen.duration_minutes = 1;
  gen.num_groups = 3;
  gen.burstiness = 0.6;
  gen.max_burst = 8;
  EventVector ev = bw.generator->Generate(gen);

  RunConfig base;
  base.kind = EngineKind::kGretaGraph;
  StreamExecutor ref(*bw.plan, base);
  std::map<EmissionKey, double> expected = ToMap(ref.Run(ev));
  ASSERT_GT(expected.size(), 0u);

  for (EngineKind kind :
       {EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
        EngineKind::kHamletNoShare, EngineKind::kGretaPrefix}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(*bw.plan, config);
    std::map<EmissionKey, double> actual = ToMap(executor.Run(ev));
    ASSERT_EQ(actual.size(), expected.size()) << EngineKindName(kind);
    for (const auto& [key, value] : expected) {
      auto it = actual.find(key);
      ASSERT_NE(it, actual.end()) << EngineKindName(kind);
      EXPECT_DOUBLE_EQ(it->second, value)
          << EngineKindName(kind) << " q" << std::get<0>(key) << " g"
          << std::get<1>(key) << " ws" << std::get<2>(key);
    }
  }
}

TEST(ExecutorStressTest, WorkloadTwoAgreesAcrossPolicies) {
  BenchWorkload bw = MakeWorkload2(12);
  GeneratorConfig gen;
  gen.seed = test::SeedOr(5);
  gen.events_per_minute = 150;
  gen.duration_minutes = 20;
  gen.num_groups = 2;
  gen.burstiness = 0.95;
  gen.max_burst = 60;
  EventVector ev = bw.generator->Generate(gen);

  RunConfig base;
  base.kind = EngineKind::kHamletNoShare;
  StreamExecutor ref(*bw.plan, base);
  std::map<EmissionKey, double> expected = ToMap(ref.Run(ev));
  ASSERT_GT(expected.size(), 0u);

  for (EngineKind kind :
       {EngineKind::kHamletDynamic, EngineKind::kHamletStatic}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(*bw.plan, config);
    std::map<EmissionKey, double> actual = ToMap(executor.Run(ev));
    ASSERT_EQ(actual.size(), expected.size());
    for (const auto& [key, value] : expected) {
      // Trend counts on 20-minute bursty windows reach 1e100+; summation
      // order differs between shared and solo folding, so compare with a
      // tight relative tolerance (empty-window MAX yields -inf: inf==inf).
      const double actual_value = actual.at(key);
      if (std::isinf(value)) {
        EXPECT_DOUBLE_EQ(actual_value, value);
      } else {
        const double scale = std::max({1.0, std::abs(value)});
        EXPECT_NEAR(actual_value, value, 1e-9 * scale)
            << EngineKindName(kind) << " q" << std::get<0>(key) << " g"
            << std::get<1>(key) << " ws" << std::get<2>(key);
      }
    }
  }
}

TEST(ExecutorStressTest, SlidingWindowsOverGeneratedStream) {
  // 15s window sliding by 5s over a 1-minute smart-home stream: every event
  // belongs to 3 window instances of each query.
  Schema* schema;
  BenchWorkload bw = MakeWorkload1("smart_home", 4, 15 * kMillisPerSecond);
  schema = const_cast<Schema*>(&bw.generator->schema());
  (void)schema;
  // Rebuild with sliding windows via the text API.
  Workload sliding(const_cast<Schema*>(&bw.generator->schema()));
  for (const Query& q : bw.workload->queries()) {
    Query copy = q;
    copy.window = WindowSpec::Sliding(15 * kMillisPerSecond,
                                      5 * kMillisPerSecond);
    ASSERT_TRUE(sliding.Add(copy).ok());
  }
  WorkloadPlan plan = AnalyzeWorkload(sliding).value();
  EXPECT_EQ(plan.pane_size, 5 * kMillisPerSecond);

  GeneratorConfig gen;
  gen.seed = test::SeedOr(21);
  gen.events_per_minute = 600;
  gen.duration_minutes = 1;
  gen.num_groups = 2;
  EventVector ev = bw.generator->Generate(gen);

  RunConfig greta_cfg;
  greta_cfg.kind = EngineKind::kGretaGraph;
  StreamExecutor ref(plan, greta_cfg);
  std::map<EmissionKey, double> expected = ToMap(ref.Run(ev));

  RunConfig hamlet_cfg;
  hamlet_cfg.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(plan, hamlet_cfg);
  std::map<EmissionKey, double> actual = ToMap(executor.Run(ev));
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [key, value] : expected)
    EXPECT_DOUBLE_EQ(actual.at(key), value);
  // Multiple overlapping instances must have been emitted per query.
  EXPECT_GT(expected.size(), 4u * 4u);
}

TEST(ExecutorStressTest, MetricsScaleWithLoad) {
  BenchWorkload bw =
      MakeWorkload1("nyc_taxi", 6, /*window_ms=*/10 * kMillisPerSecond);
  GeneratorConfig small;
  small.seed = test::SeedOr(3);
  small.events_per_minute = 500;
  small.duration_minutes = 1;
  small.num_groups = 2;
  GeneratorConfig big = small;
  big.events_per_minute = 2000;
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor a(*bw.plan, config);
  RunMetrics ma = a.Run(bw.generator->Generate(small)).metrics;
  StreamExecutor b(*bw.plan, config);
  RunMetrics mb = b.Run(bw.generator->Generate(big)).metrics;
  EXPECT_EQ(ma.events, 500);
  EXPECT_EQ(mb.events, 2000);
  EXPECT_GT(mb.peak_memory_bytes, ma.peak_memory_bytes);
  EXPECT_GT(mb.hamlet.bursts_total, ma.hamlet.bursts_total);
}

TEST(ExecutorStressTest, WorkloadFactoriesProduceValidPlans) {
  for (const char* dataset : {"ridesharing", "nyc_taxi", "smart_home"}) {
    for (int k : {5, 25, 50}) {
      BenchWorkload bw = MakeWorkload1(dataset, k, kMillisPerMinute);
      EXPECT_EQ(bw.plan->num_exec(), k) << dataset;
      // Every W1 query shares the dataset's Kleene type: one share group
      // containing all queries.
      ASSERT_GE(bw.plan->share_groups.size(), 1u) << dataset;
      EXPECT_EQ(bw.plan->share_groups[0].members.Count(), k) << dataset;
    }
  }
  for (int k : {10, 40, 100}) {
    BenchWorkload bw = MakeWorkload2(k);
    EXPECT_EQ(bw.plan->num_exec(), k);
    EXPECT_GE(bw.plan->share_groups.size(), 2u);
    EXPECT_EQ(bw.plan->pane_size, 5 * kMillisPerMinute);
  }
}

}  // namespace
}  // namespace hamlet

int main(int argc, char** argv) {
  return hamlet::test::RunSeededSuite(argc, argv);
}
