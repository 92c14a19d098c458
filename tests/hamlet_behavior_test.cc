// White-box behaviour tests of the HAMLET engine beyond value equivalence:
// split/merge mechanics, snapshot lifecycle and GC, horizon pruning,
// window-scoped negation, divergent-membership snapshots, memory accounting.
#include <gtest/gtest.h>

#include "src/brute/enumerator.h"
#include "src/hamlet/batch_eval.h"
#include "src/optimizer/policies.h"
#include "src/query/parser.h"
#include "src/stream/stream_builder.h"

namespace hamlet {
namespace {

class BehaviorFixture : public ::testing::Test {
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
  Schema schema_;
  Workload workload_{&schema_};
};

// A policy that alternates share/split per decision, forcing the Fig. 6
// split-then-merge machinery to execute.
class AlternatingPolicy : public SharingPolicy {
 public:
  SharingDecision Decide(const std::vector<int>& members,
                         const BurstStats& stats) override {
    (void)stats;
    SharingDecision d;
    if (++calls_ % 2 == 0) {
      for (int q : members) d.shared.Insert(q);
    }
    return d;
  }
  const char* name() const override { return "alternating"; }

 private:
  int calls_ = 0;
};

TEST_F(BehaviorFixture, SplitMergeCycleStaysCorrect) {
  WorkloadPlan plan = Plan({
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
  });
  StreamBuilder sb(&schema_);
  for (int i = 0; i < 4; ++i) sb.Add("A").Add("C").AddRun(3, "B");
  EventVector ev = sb.Take();

  AlternatingPolicy alternating;
  BatchResult alt = EvalHamletBatch(plan, ev, &alternating);
  // The forced alternation exercises merge (solo -> shared, creating a
  // consolidating snapshot, Fig. 6(f)) and split (shared -> solo, Fig. 6(d)).
  EXPECT_GT(alt.stats.splits, 0);
  EXPECT_GT(alt.stats.merges, 0);
  for (int i = 0; i < plan.num_exec(); ++i) {
    EXPECT_DOUBLE_EQ(alt.exec_values[static_cast<size_t>(i)],
                     BruteForceEval(plan.exec_queries[static_cast<size_t>(i)],
                                    ev)
                         .value()
                         .value);
  }
}

TEST_F(BehaviorFixture, DivergentMembershipCreatesZeroValuedSnapshots) {
  // q1 filters B.v > 5; a burst mixing passing and failing B's forces
  // event-level snapshots whose value is zero for the non-matching query.
  WorkloadPlan plan = Plan({
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v > 5 WITHIN 1 min",
      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
  });
  AttrId v = schema_.FindAttr("v");
  TypeId A = schema_.FindType("A"), B = schema_.FindType("B"),
         C = schema_.FindType("C");
  EventVector ev;
  Event a(1, A);
  a.set_attr(v, 0);
  Event c(2, C);
  c.set_attr(v, 0);
  ev = {a, c};
  double vals[] = {9, 2, 7};  // middle one diverges
  for (int i = 0; i < 3; ++i) {
    Event b(3 + i, B);
    b.set_attr(v, vals[i]);
    ev.push_back(b);
  }
  AlwaysSharePolicy always;
  BatchResult r = EvalHamletBatch(plan, ev, &always);
  EXPECT_GT(r.stats.event_snapshots, 0);
  // q1 sees only b(9) and b(7): trends (a,b9),(a,b7),(a,b9,b7).
  EXPECT_DOUBLE_EQ(r.exec_values[0], 3.0);
  // q2 sees all three: 2^3 - 1 = 7.
  EXPECT_DOUBLE_EQ(r.exec_values[1], 7.0);
}

TEST_F(BehaviorFixture, HorizonPruningBoundsMemoryAcrossPanes) {
  WorkloadPlan plan = Plan({
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE [driver] WITHIN 100 ms",
      "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE [driver] WITHIN 100 ms",
  });
  AlwaysSharePolicy always;
  HamletEngine engine(plan, plan.AllExec(), &always);
  AttrId driver = schema_.FindAttr("driver");
  TypeId A = schema_.FindType("A"), B = schema_.FindType("B");
  Timestamp t = 0;
  int64_t mem_after_5 = 0;
  std::vector<ContextId> open;
  for (int pane = 0; pane < 40; ++pane) {
    const Timestamp start = pane * 100;
    open.push_back(engine.OpenContext(0, start, start + 100));
    open.push_back(engine.OpenContext(1, start, start + 100));
    engine.OnPaneStart(start);
    for (int i = 0; i < 20; ++i) {
      Event e(++t + start * 0, i == 0 ? A : B);
      e.time = start + i + 1;
      e.set_attr(driver, i % 3);
      engine.OnEvent(e);
    }
    engine.OnPaneEnd();
    // Close the pane's windows (tumbling: both contexts of this pane).
    engine.CloseContext(open[open.size() - 2]);
    engine.CloseContext(open[open.size() - 1]);
    if (pane == 5) mem_after_5 = engine.MemoryBytes();
  }
  // Retained scan history is pruned to the window horizon, so memory must
  // not grow unboundedly with the number of processed panes.
  EXPECT_LT(engine.MemoryBytes(), 3 * mem_after_5);
}

TEST_F(BehaviorFixture, SnapshotStoreStaysBoundedAcrossPanes) {
  // Sliding two-pane windows over a steady shared stream, driven the way a
  // session drives an engine: pane end, close expired windows, open the
  // pane's windows, pane start, events.
  WorkloadPlan plan = Plan({
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 200 ms SLIDE 100 ms",
      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 200 ms SLIDE 100 ms",
  });
  AlwaysSharePolicy always;
  HamletEngine engine(plan, plan.AllExec(), &always);
  TypeId A = schema_.FindType("A"), B = schema_.FindType("B"),
         C = schema_.FindType("C");
  std::vector<std::pair<ContextId, Timestamp>> open;  // (ctx, window end)
  int64_t store_after_100 = 0;
  for (int pane = 0; pane < 400; ++pane) {
    const Timestamp start = pane * 100;
    if (pane > 0) engine.OnPaneEnd();
    std::erase_if(open, [&](const auto& w) {
      if (w.second > start) return false;
      engine.CloseContext(w.first);
      return true;
    });
    for (int q = 0; q < 2; ++q) {
      open.emplace_back(engine.OpenContext(q, start, start + 200),
                        start + 200);
    }
    engine.OnPaneStart(start);
    engine.OnEvent(Event(start + 1, A));
    engine.OnEvent(Event(start + 2, C));
    for (int i = 0; i < 10; ++i) engine.OnEvent(Event(start + 3 + i, B));
    if (pane == 99) store_after_100 = engine.snapshot_store().MemoryBytes();
  }
  ASSERT_GT(engine.stats().bursts_shared, 0);
  // Only the panes inside the window horizon keep snapshot variables, so
  // the store does not grow with the number of processed panes.
  EXPECT_LE(engine.snapshot_store().MemoryBytes(), store_after_100 * 3 / 2);
}

TEST_F(BehaviorFixture, SnapshotStoreDropsClosedContexts) {
  WorkloadPlan plan = Plan({
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
  });
  AlwaysSharePolicy always;
  HamletEngine engine(plan, plan.AllExec(), &always);
  ContextId c0 = engine.OpenContext(0, 0, 1000);
  ContextId c1 = engine.OpenContext(1, 0, 1000);
  engine.OnPaneStart(0);
  EventVector ev = ParseStreamScript("A C B B B", &schema_);
  for (const Event& e : ev) engine.OnEvent(e);
  engine.OnPaneEnd();
  EXPECT_GT(engine.snapshot_store().num_entries(), 0);
  engine.CloseContext(c0);
  engine.CloseContext(c1);
  EXPECT_EQ(engine.snapshot_store().num_entries(), 0);
}

TEST_F(BehaviorFixture, LeadingNegationIsWindowScoped) {
  // A leading-N before a window's start must not block starts inside it.
  WorkloadPlan plan =
      Plan({"RETURN COUNT(*) PATTERN SEQ(NOT N, A, B+) WITHIN 1 min"});
  NeverSharePolicy never;
  HamletEngine engine(plan, plan.AllExec(), &never);
  TypeId N = schema_.FindType("N"), A = schema_.FindType("A"),
         B = schema_.FindType("B");
  // Pane 1: an N arrives (blocks starts for contexts open now).
  ContextId c_old = engine.OpenContext(0, 0, 100);
  engine.OnPaneStart(0);
  engine.OnEvent(Event(10, N));
  engine.OnEvent(Event(11, A));
  engine.OnEvent(Event(12, B));
  engine.OnPaneEnd();
  EXPECT_DOUBLE_EQ(engine.CloseContext(c_old).value, 0.0);  // blocked
  // Pane 2: a fresh window starts after the N; its A may start trends.
  ContextId c_new = engine.OpenContext(0, 100, 200);
  engine.OnPaneStart(100);
  engine.OnEvent(Event(110, A));
  engine.OnEvent(Event(111, B));
  engine.OnPaneEnd();
  EXPECT_DOUBLE_EQ(engine.CloseContext(c_new).value, 1.0);  // not blocked
}

TEST_F(BehaviorFixture, UnmatchedEventsDoNotEndBursts) {
  // An event failing every member's predicates is invisible (Definition 10:
  // bursts end on *matched* events of other types).
  WorkloadPlan plan = Plan({
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE A.v < 100 WITHIN 1 min",
      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
  });
  AttrId v = schema_.FindAttr("v");
  TypeId A = schema_.FindType("A"), B = schema_.FindType("B"),
         C = schema_.FindType("C");
  EventVector ev;
  Event a1(1, A);
  a1.set_attr(v, 1);
  Event c1(2, C);
  c1.set_attr(v, 1);
  ev = {a1, c1};
  Event b1(3, B), b2(5, B);
  b1.set_attr(v, 1);
  b2.set_attr(v, 1);
  Event a_filtered(4, A);
  a_filtered.set_attr(v, 500);  // fails A.v < 100: must not split the burst
  ev.push_back(b1);
  ev.push_back(a_filtered);
  ev.push_back(b2);
  AlwaysSharePolicy always;
  BatchResult r = EvalHamletBatch(plan, ev, &always);
  // One shared B-burst (not two): the filtered A never closed it.
  EXPECT_EQ(r.stats.graphlets_shared, 1);
  EXPECT_DOUBLE_EQ(r.exec_values[0], 3.0);
  EXPECT_DOUBLE_EQ(r.exec_values[1], 3.0);
}

TEST_F(BehaviorFixture, MemoryAccountingTracksGrowth) {
  WorkloadPlan plan = Plan({
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
  });
  AlwaysSharePolicy always;
  HamletEngine engine(plan, plan.AllExec(), &always);
  engine.OpenContext(0, 0, 100000);
  engine.OpenContext(1, 0, 100000);
  engine.OnPaneStart(0);
  const int64_t empty = engine.MemoryBytes();
  StreamBuilder sb(&schema_);
  sb.Add("A").Add("C").AddRun(50, "B");
  for (const Event& e : sb.events()) engine.OnEvent(e);
  EXPECT_GT(engine.MemoryBytes(), empty);
}

TEST_F(BehaviorFixture, StatsCountersAreConsistent) {
  WorkloadPlan plan = Plan({
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
  });
  StreamBuilder sb(&schema_);
  for (int i = 0; i < 5; ++i) sb.Add("A").Add("C").AddRun(3, "B");
  EventVector ev = sb.Take();
  DynamicBenefitPolicy dynamic;
  BatchResult r = EvalHamletBatch(plan, ev, &dynamic);
  EXPECT_EQ(r.stats.events, static_cast<int64_t>(ev.size()));
  EXPECT_LE(r.stats.bursts_shared, r.stats.bursts_total);
  EXPECT_LE(r.stats.graphlets_shared, r.stats.graphlets_opened);
  EXPECT_GE(r.stats.snapshots_created, r.stats.event_snapshots);
  EXPECT_EQ(dynamic.decisions(), r.stats.bursts_total);
}

}  // namespace
}  // namespace hamlet
