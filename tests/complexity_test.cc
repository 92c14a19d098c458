// Empirical validation of the paper's complexity analysis:
//   Eq. 4  NonShared(Q) ~ k * n^2   (GRETA graph mode)
//   Eq. 6  Shared(Q)    ~ n^2 * s + s*k*g*t, which collapses to ~n per
//          window for fast-sum sharing with O(1) snapshots per burst.
// The engines expose an `ops` counter (predecessor visits / expression
// term operations); these tests check its growth orders, not wall time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/greta/greta_engine.h"
#include "src/hamlet/batch_eval.h"
#include "src/hamlet/hamlet_engine.h"
#include "src/optimizer/policies.h"
#include "src/query/parser.h"
#include "src/stream/stream_builder.h"

namespace hamlet {
namespace {

class ComplexityFixture : public ::testing::Test {
 protected:
  WorkloadPlan Plan(std::initializer_list<const char*> queries) {
    for (const char* text : queries) {
      Query q = ParseQuery(text).value();
      HAMLET_CHECK(workload_.Add(q).ok());
    }
    Result<WorkloadPlan> plan = AnalyzeWorkload(workload_);
    HAMLET_CHECK(plan.ok());
    return std::move(plan).value();
  }
  // a/c separators every `burst` B's, total ~n events.
  EventVector BurstStream(int n, int burst) {
    StreamBuilder sb(&schema_);
    int emitted = 0;
    while (emitted < n) {
      sb.Add("A").Add("C");
      sb.AddRun(burst, "B");
      emitted += burst + 2;
    }
    return sb.Take();
  }
  Schema schema_;
  Workload workload_{&schema_};
};

TEST_F(ComplexityFixture, GretaGraphOpsGrowQuadratically) {
  // Eq. 4: within one window the graph mode visits O(n^2) predecessors.
  WorkloadPlan plan =
      Plan({"RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min"});
  int64_t ops_small, ops_large;
  {
    GretaEngine engine(plan.exec_queries[0], GretaMode::kGraph);
    for (const Event& e : BurstStream(200, 10)) engine.OnEvent(e);
    ops_small = engine.ops();
  }
  {
    GretaEngine engine(plan.exec_queries[0], GretaMode::kGraph);
    for (const Event& e : BurstStream(800, 10)) engine.OnEvent(e);
    ops_large = engine.ops();
  }
  // 4x the events -> ~16x the work; require clearly super-linear (>8x) and
  // at most quadratic (<24x).
  EXPECT_GT(ops_large, 8 * ops_small);
  EXPECT_LT(ops_large, 24 * ops_small);
}

TEST_F(ComplexityFixture, GretaPrefixOpsGrowLinearly) {
  WorkloadPlan plan =
      Plan({"RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min"});
  int64_t ops_small, ops_large;
  {
    GretaEngine engine(plan.exec_queries[0], GretaMode::kPrefixSum);
    for (const Event& e : BurstStream(200, 10)) engine.OnEvent(e);
    ops_small = engine.ops();
  }
  {
    GretaEngine engine(plan.exec_queries[0], GretaMode::kPrefixSum);
    for (const Event& e : BurstStream(800, 10)) engine.OnEvent(e);
    ops_large = engine.ops();
  }
  EXPECT_GT(ops_large, 3 * ops_small);
  EXPECT_LT(ops_large, 6 * ops_small);
}

TEST_F(ComplexityFixture, HamletFastSumOpsGrowLinearlyInEvents) {
  // Fast-sum sharing: O(1) expression work per event plus O(k) per burst.
  WorkloadPlan plan = Plan({
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
  });
  AlwaysSharePolicy always;
  BatchResult small = EvalHamletBatch(plan, BurstStream(200, 10), &always);
  BatchResult large = EvalHamletBatch(plan, BurstStream(800, 10), &always);
  EXPECT_GT(large.stats.ops, 3 * small.stats.ops);
  EXPECT_LT(large.stats.ops, 7 * small.stats.ops);
}

TEST_F(ComplexityFixture, SharedWorkIsSublinearInQueries) {
  // The heart of Eq. 4 vs Eq. 6: non-shared work scales with k, shared
  // propagation does not (only the per-burst snapshot maintenance does).
  std::vector<int64_t> shared_ops, solo_ops;
  for (int k : {4, 8, 16}) {
    Schema schema;
    Workload workload(&schema);
    for (int i = 0; i < k; ++i) {
      std::string prefix(1, static_cast<char>('C' + i));
      Query q = ParseQuery("RETURN COUNT(*) PATTERN SEQ(" + prefix +
                           ", B+) WITHIN 1 min")
                    .value();
      HAMLET_CHECK(workload.Add(q).ok());
    }
    WorkloadPlan plan = AnalyzeWorkload(workload).value();
    StreamBuilder sb(&schema);
    for (int r = 0; r < 10; ++r) {
      for (int i = 0; i < k; ++i)
        sb.Add(std::string(1, static_cast<char>('C' + i)));
      sb.AddRun(30, "B");
    }
    EventVector ev = sb.Take();
    AlwaysSharePolicy always;
    NeverSharePolicy never;
    shared_ops.push_back(EvalHamletBatch(plan, ev, &always).stats.ops);
    solo_ops.push_back(EvalHamletBatch(plan, ev, &never).stats.ops);
  }
  // Doubling k roughly doubles non-shared B-propagation work...
  EXPECT_GT(solo_ops[2], 3 * solo_ops[0]);
  // ...while the shared runs grow strictly slower than the solo runs.
  const double shared_growth = static_cast<double>(shared_ops[2]) /
                               static_cast<double>(shared_ops[0]);
  const double solo_growth = static_cast<double>(solo_ops[2]) /
                             static_cast<double>(solo_ops[0]);
  EXPECT_LT(shared_growth, solo_growth);
  // And at k=16 the shared total is below the non-shared total.
  EXPECT_LT(shared_ops[2], solo_ops[2]);
}

TEST_F(ComplexityFixture, PlainSharersOfEdgeQueryCostLinearOps) {
  // One edge-predicate query shares B+ with 8 plain queries, which puts the
  // group in per-event-snapshot mode. Only the edge query scans stored
  // nodes (O(n) per event); each plain sharer values its event snapshots by
  // u + x + R in O(1). So the ops beyond the edge query alone grow linearly
  // in the events, not quadratically.
  const char* edge =
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE prev.v <= next.v WITHIN 1 min";
  auto ops = [&](bool with_plain, int n) {
    Schema schema;
    schema.AddAttr("v");
    Workload workload(&schema);
    std::vector<std::string> texts = {edge};
    if (with_plain) {
      for (const char* p :
           {"SEQ(A, B+)", "SEQ(C, B+)", "B+", "SEQ(B+, A)", "SEQ(B+, C)",
            "SEQ(A, B+, C)", "SEQ(C, B+, A)", "SEQ(A, C, B+)"}) {
        texts.push_back(std::string("RETURN COUNT(*) PATTERN ") + p +
                        " WITHIN 1 min");
      }
    }
    for (const std::string& text : texts)
      HAMLET_CHECK(workload.Add(ParseQuery(text).value()).ok());
    WorkloadPlan plan = AnalyzeWorkload(workload).value();
    if (with_plain) {
      HAMLET_CHECK(plan.share_groups.size() == 1);
      HAMLET_CHECK(plan.share_groups[0].members.Count() == 9);
      HAMLET_CHECK(plan.share_groups[0].mode ==
                   PropagationMode::kPerEventSnapshot);
    }
    // v = 0 everywhere: the edge predicate holds for every B pair.
    StreamBuilder sb(&schema);
    int emitted = 0;
    while (emitted < n) {
      sb.Add("A", {0.0}).Add("C", {0.0});
      sb.AddRun(10, "B", {0.0});
      emitted += 12;
    }
    AlwaysSharePolicy always;
    return EvalHamletBatch(plan, sb.Take(), &always).stats.ops;
  };
  const int64_t extra_small = ops(true, 200) - ops(false, 200);
  const int64_t extra_large = ops(true, 800) - ops(false, 800);
  ASSERT_GT(extra_small, 0);
  // 4x the events: linear extra work grows ~4x, a scan per plain sharer
  // ~16x.
  EXPECT_GT(extra_large, 3 * extra_small);
  EXPECT_LT(extra_large, 6 * extra_small);
}

TEST_F(ComplexityFixture, SoloEdgeQueryStateGrowsByOneCompactRowPerEvent) {
  // A solo edge-predicate append keeps one scan-column row per open window
  // (time, the compared attribute, the payload): a few dozen bytes, where a
  // stored graphlet node with its full event took over 400.
  WorkloadPlan plan = Plan(
      {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE prev.v <= next.v WITHIN 1 "
       "min"});
  auto memory = [&](int n) {
    // Falling B values: every B follows the A, none follows another B.
    StreamBuilder sb(&schema_);
    sb.Add("A", {-1e9});
    for (int i = 0; i < n; ++i) sb.Add("B", {-static_cast<double>(i)});
    NeverSharePolicy never;
    return EvalHamletBatch(plan, sb.Take(), &never).memory_bytes;
  };
  const int64_t growth = memory(2000) - memory(1000);
  EXPECT_GT(growth, 0);
  EXPECT_LE(growth, 128 * 1000);
}

TEST_F(ComplexityFixture, ClosedContextSlotsAreReused) {
  // One engine opens and closes a one-pane window per pane, 100k times. A
  // closed window's slot is reused once the horizon passed it, so the
  // context table stays as small as the windows one horizon holds.
  WorkloadPlan plan = Plan({"RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10 ms"});
  const TypeId a = schema_.FindType("A");
  const TypeId b = schema_.FindType("B");
  NeverSharePolicy never;
  HamletEngine engine(plan, QuerySet::FirstN(1), &never);
  constexpr Timestamp kPane = 10;
  for (Timestamp start = 0; start < 100'000 * kPane; start += kPane) {
    engine.OnPaneStart(start);
    const ContextId ctx = engine.OpenContext(0, start, start + kPane);
    engine.OnEvent(Event(start, a));
    engine.OnEvent(Event(start + 1, b));
    engine.OnEvent(Event(start + 2, b));
    engine.OnPaneEnd();
    ASSERT_EQ(engine.CloseContext(ctx).value, 3.0) << "window at " << start;
  }
  EXPECT_LE(engine.context_slots(), 4u);
}

TEST_F(ComplexityFixture, SnapshotCountTracksBurstsNotEvents) {
  // Fast-sum sharing creates O(1) snapshots per burst (u and x), however
  // long the burst is (Definition 8's whole point).
  WorkloadPlan plan = Plan({
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
  });
  AlwaysSharePolicy always;
  BatchResult short_bursts =
      EvalHamletBatch(plan, BurstStream(600, 5), &always);
  BatchResult long_bursts =
      EvalHamletBatch(plan, BurstStream(600, 50), &always);
  // Same event volume, 10x fewer bursts -> far fewer snapshots.
  EXPECT_GT(short_bursts.stats.snapshots_created,
            4 * long_bursts.stats.snapshots_created);
  EXPECT_EQ(long_bursts.stats.event_snapshots, 0);
}

}  // namespace
}  // namespace hamlet
