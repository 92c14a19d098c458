// The central correctness property of the reproduction (DESIGN.md §3):
// for every workload and stream,
//   BruteForce == Greta == Hamlet(never) == Hamlet(always) == Hamlet(dynamic).
// Randomized sweeps over workload shapes, predicates, negation, aggregates
// and stream mixes; any mismatch prints the full repro (seed, stream).
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/brute/enumerator.h"
#include "src/common/rng.h"
#include "src/greta/greta_engine.h"
#include "src/hamlet/batch_eval.h"
#include "src/optimizer/policies.h"
#include "src/query/parser.h"
#include "src/stream/stream_builder.h"

namespace hamlet {
namespace {

struct WorkloadCase {
  const char* name;
  std::vector<const char*> queries;
  std::vector<const char*> alphabet;
  /// When set, the plan must share B+ across all queries in this mode.
  std::optional<PropagationMode> b_mode = std::nullopt;
};

std::string StreamToScript(const EventVector& ev, const Schema& s) {
  std::string out;
  for (const Event& e : ev) {
    out += s.TypeName(e.type);
    out += "(v=" + std::to_string(e.attr(0)) +
           ",d=" + std::to_string(e.attr(1)) + ") ";
  }
  return out;
}

class HamletEquivTest : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(HamletEquivTest, AllEnginesAgree) {
  const WorkloadCase& c = GetParam();
  Rng rng(0xFEED ^ std::hash<std::string>{}(c.name));
  for (int trial = 0; trial < 60; ++trial) {
    Schema schema;
    // Attribute ids fixed: v=0, driver=1 (queries may reference them).
    schema.AddAttr("v");
    schema.AddAttr("driver");
    Workload workload(&schema);
    for (const char* text : c.queries) {
      Query q = ParseQuery(text).value();
      ASSERT_TRUE(workload.Add(q).ok());
    }
    WorkloadPlan plan = AnalyzeWorkload(workload).value();
    if (c.b_mode.has_value()) {
      ASSERT_EQ(plan.share_groups.size(), 1u);
      EXPECT_EQ(plan.share_groups[0].type, schema.FindType("B"));
      EXPECT_EQ(plan.share_groups[0].members, plan.AllExec());
      EXPECT_EQ(plan.share_groups[0].mode, *c.b_mode);
    }

    EventVector ev;
    const int len = static_cast<int>(rng.NextInt(1, 16));
    for (int i = 0; i < len; ++i) {
      Event e(i + 1,
              schema.AddType(c.alphabet[rng.NextBelow(c.alphabet.size())]));
      e.set_attr(0, static_cast<double>(rng.NextInt(0, 9)));
      e.set_attr(1, static_cast<double>(rng.NextInt(1, 2)));
      ev.push_back(e);
    }
    const std::string repro =
        std::string(c.name) + " trial " + std::to_string(trial) + ": " +
        StreamToScript(ev, schema);

    // Ground truth.
    std::vector<double> expected;
    for (const ExecQuery& eq : plan.exec_queries)
      expected.push_back(BruteForceEval(eq, ev).value().value);

    // GRETA.
    for (int i = 0; i < plan.num_exec(); ++i) {
      GretaEngine greta(plan.exec_queries[static_cast<size_t>(i)],
                        GretaMode::kGraph);
      for (const Event& e : ev) greta.OnEvent(e);
      EXPECT_DOUBLE_EQ(greta.Value(), expected[static_cast<size_t>(i)])
          << "greta " << repro;
    }

    // HAMLET under all three policies.
    NeverSharePolicy never;
    AlwaysSharePolicy always;
    DynamicBenefitPolicy dynamic;
    SharingPolicy* policies[] = {&never, &always, &dynamic};
    for (SharingPolicy* policy : policies) {
      BatchResult r = EvalHamletBatch(plan, ev, policy);
      for (int i = 0; i < plan.num_exec(); ++i) {
        EXPECT_DOUBLE_EQ(r.exec_values[static_cast<size_t>(i)],
                         expected[static_cast<size_t>(i)])
            << "hamlet(" << policy->name() << ") exec " << i << " " << repro;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, HamletEquivTest,
    ::testing::Values(
        WorkloadCase{"paper_pair",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min"},
                     {"A", "B", "C"}},
        WorkloadCase{"three_sharers",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN B+ WITHIN 1 min"},
                     {"A", "B", "C"}},
        WorkloadCase{"suffix_differs",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+, C) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(A, B+, D) WITHIN 1 min"},
                     {"A", "B", "C", "D"}},
        WorkloadCase{"two_shared_types",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(B+, D+) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, D+) WITHIN 1 min"},
                     {"A", "B", "C", "D"}},
        WorkloadCase{"event_pred_divergence",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v > 4 "
                      "WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min"},
                     {"A", "B", "C"}},
        WorkloadCase{"both_preds_diverge",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v > 6 "
                      "WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE B.v < 8 "
                      "WITHIN 1 min"},
                     {"A", "B", "C"}},
        WorkloadCase{"edge_pred_shared",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE [driver] "
                      "WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE "
                      "prev.v <= next.v WITHIN 1 min"},
                     {"A", "B", "C"}},
        WorkloadCase{"edge_pred_identical_scan",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE [driver] "
                      "WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE [driver] "
                      "WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN B+ WHERE [driver] WITHIN 1 "
                      "min"},
                     {"A", "B", "C"}},
        WorkloadCase{"edge_pred_identical_with_event_divergence",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE [driver] AND "
                      "B.v > 4 WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE [driver] "
                      "WITHIN 1 min"},
                     {"A", "B", "C"}},
        WorkloadCase{"edge_pred_monotone_identical",
                     {"RETURN SUM(B.v) PATTERN SEQ(A, B+) WHERE prev.v <= "
                      "next.v WITHIN 1 min",
                      "RETURN SUM(B.v) PATTERN SEQ(C, B+) WHERE prev.v <= "
                      "next.v WITHIN 1 min"},
                     {"A", "B", "C"}},
        WorkloadCase{"negation_one_side",
                     {"RETURN COUNT(*) PATTERN SEQ(A, NOT N, B+) WITHIN 1 "
                      "min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min"},
                     {"A", "B", "C", "N"}},
        WorkloadCase{"negation_trailing_shared",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+, NOT N) WITHIN 1 "
                      "min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min"},
                     {"A", "B", "C", "N"}},
        WorkloadCase{"group_kleene_shared",
                     {"RETURN COUNT(*) PATTERN (SEQ(A, B+))+ WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN (SEQ(C, B+))+ WITHIN 1 min"},
                     {"A", "B", "C"}},
        WorkloadCase{"avg_family_sharing",
                     {"RETURN AVG(B.v) PATTERN SEQ(A, B+) WITHIN 1 min",
                      "RETURN SUM(B.v) PATTERN SEQ(C, B+) WITHIN 1 min",
                      "RETURN COUNT(B) PATTERN B+ WITHIN 1 min"},
                     {"A", "B", "C"}},
        WorkloadCase{"minmax_sharing",
                     {"RETURN MIN(B.v) PATTERN SEQ(A, B+) WITHIN 1 min",
                      "RETURN MIN(B.v) PATTERN SEQ(C, B+) WITHIN 1 min",
                      "RETURN MAX(B.v) PATTERN SEQ(A, B+) WITHIN 1 min",
                      "RETURN MAX(B.v) PATTERN SEQ(C, B+) WITHIN 1 min"},
                     {"A", "B", "C"}},
        WorkloadCase{"min_with_event_pred_divergence",
                     {"RETURN MIN(B.v) PATTERN SEQ(A, B+) WHERE B.v > 2 "
                      "WITHIN 1 min",
                      "RETURN MIN(B.v) PATTERN SEQ(C, B+) WITHIN 1 min"},
                     {"A", "B", "C"}},
        WorkloadCase{"incompatible_aggregates_no_share",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
                      "RETURN MIN(B.v) PATTERN SEQ(C, B+) WITHIN 1 min"},
                     {"A", "B", "C"}},
        WorkloadCase{"or_composition",
                     {"RETURN COUNT(*) PATTERN SEQ(A,B+) OR SEQ(C,D+) WITHIN "
                      "1 min",
                      "RETURN COUNT(*) PATTERN SEQ(E, B+) WITHIN 1 min"},
                     {"A", "B", "C", "D", "E"}},
        WorkloadCase{"ten_query_fanout",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(D, B+) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(E, B+) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(F, B+) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(A, B+, C) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+, D) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN B+ WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(A, C) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(B+, F) WITHIN 1 min"},
                     {"A", "B", "C", "D", "E", "F"}},
        // One edge-predicate query shares B+ with plain queries, which puts
        // the group in kPerEventSnapshot: the edge query scans stored nodes,
        // the plain sharers take u + x + R per event snapshot.
        WorkloadCase{"edge_sharer_count",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE prev.v <= "
                      "next.v WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN B+ WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(A, B+, C) WITHIN 1 min"},
                     {"A", "B", "C"},
                     PropagationMode::kPerEventSnapshot},
        WorkloadCase{"edge_sharer_sum_avg_family",
                     {"RETURN SUM(B.v) PATTERN SEQ(A, B+) WHERE prev.v < "
                      "next.v WITHIN 1 min",
                      "RETURN AVG(B.v) PATTERN SEQ(C, B+) WITHIN 1 min",
                      "RETURN SUM(B.v) PATTERN SEQ(A, B+) WITHIN 1 min",
                      "RETURN COUNT(B) PATTERN B+ WITHIN 1 min"},
                     {"A", "B", "C"},
                     PropagationMode::kPerEventSnapshot},
        WorkloadCase{"edge_sharer_event_pred_divergence",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE prev.v <= "
                      "next.v AND B.v > 2 WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE B.v > 4 "
                      "WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v != 3 "
                      "WITHIN 1 min"},
                     {"A", "B", "C"},
                     PropagationMode::kPerEventSnapshot},
        WorkloadCase{"edge_sharer_negation",
                     {"RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE prev.v <= "
                      "next.v WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(A, NOT N, B+) WITHIN 1 "
                      "min",
                      "RETURN COUNT(*) PATTERN SEQ(A, B+, NOT N) WITHIN 1 "
                      "min",
                      "RETURN COUNT(*) PATTERN SEQ(NOT N, C, B+) WITHIN 1 "
                      "min"},
                     {"A", "B", "C", "N"},
                     PropagationMode::kPerEventSnapshot},
        WorkloadCase{"edge_sharer_equality",
                     {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE [driver] "
                      "WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
                      "RETURN COUNT(*) PATTERN B+ WITHIN 1 min"},
                     {"A", "B", "C"},
                     PropagationMode::kPerEventSnapshot}),
    [](const ::testing::TestParamInfo<WorkloadCase>& info) {
      return info.param.name;
    });

// Composition of query values must also agree with the brute-force composed
// value (OR/AND queries).
TEST(HamletCompositionTest, QueryValuesMatchBrute) {
  Rng rng(123);
  for (int trial = 0; trial < 40; ++trial) {
    Schema schema;
    schema.AddAttr("v");
    Workload workload(&schema);
    Query q1 = ParseQuery(
                   "RETURN COUNT(*) PATTERN SEQ(A,B+) OR SEQ(C,D+) WITHIN 1 "
                   "min")
                   .value();
    Query q2 =
        ParseQuery(
            "RETURN COUNT(*) PATTERN SEQ(A,B+) AND SEQ(A,B+) WITHIN 1 min")
            .value();
    ASSERT_TRUE(workload.Add(q1).ok());
    ASSERT_TRUE(workload.Add(q2).ok());
    WorkloadPlan plan = AnalyzeWorkload(workload).value();
    const char* alphabet[] = {"A", "B", "C", "D"};
    EventVector ev;
    int len = static_cast<int>(rng.NextInt(1, 12));
    for (int i = 0; i < len; ++i) {
      Event e(i + 1, schema.AddType(alphabet[rng.NextBelow(4)]));
      e.set_attr(0, 1.0);
      ev.push_back(e);
    }
    AlwaysSharePolicy always;
    BatchResult r = EvalHamletBatch(plan, ev, &always);
    for (QueryId q = 0; q < workload.size(); ++q) {
      EXPECT_DOUBLE_EQ(r.query_values[static_cast<size_t>(q)],
                       BruteForceQueryValue(plan, q, ev).value())
          << "query " << q << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace hamlet
