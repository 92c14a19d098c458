// The central correctness property of the reproduction (DESIGN.md §3):
// for every workload and stream,
//   BruteForce == Greta == Hamlet(never) == Hamlet(always) == Hamlet(dynamic).
// Randomized sweeps over workload shapes, predicates, negation, aggregates
// and stream mixes; any mismatch prints the full repro (seed, stream).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "src/brute/enumerator.h"
#include "src/common/rng.h"
#include "src/greta/greta_engine.h"
#include "src/hamlet/batch_eval.h"
#include "src/optimizer/policies.h"
#include "src/query/parser.h"
#include "src/runtime/session.h"
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

// Scan columns: an edge-predicate query keeps each predecessor once per
// open window as a row (time, compared attributes, value), and scans those
// rows instead of stored nodes. Each case below is checked against the
// brute-force enumerator, an oracle that shares no code with the engine.
// Attribute `w` carries the edge comparisons (NaN in about one event of
// six, so a NaN lands on either side of a comparison) and `v` the
// aggregated values. COUNT results are integers far below 2^53, so they
// must match exactly: every summation order gives the same bits.

constexpr AttrId kV = 0;
constexpr AttrId kW = 1;
constexpr AttrId kD = 2;

void SeedScanSchema(Schema* schema) {
  schema->AddAttr("v");
  schema->AddAttr("w");
  schema->AddAttr("d");
}

Event ScanEvent(Rng& rng, Schema* schema,
                const std::vector<const char*>& alphabet, Timestamp t) {
  Event e(t, schema->AddType(alphabet[rng.NextBelow(alphabet.size())]));
  e.set_attr(kV, 0.25 * static_cast<double>(rng.NextInt(1, 8)));
  e.set_attr(kW, rng.NextBelow(6) == 0
                     ? std::nan("")
                     : static_cast<double>(rng.NextInt(0, 4)));
  e.set_attr(kD, static_cast<double>(rng.NextInt(1, 2)));
  return e;
}

bool IsCount(AggKind kind) {
  return kind == AggKind::kCountTrends || kind == AggKind::kCountEvents;
}

void ExpectOracle(const WorkloadPlan& plan, QueryId q, double got,
                  const EventVector& window, const std::string& label) {
  const double want = BruteForceQueryValue(plan, q, window).value();
  if (IsCount(plan.workload->query(q).aggregate.kind)) {
    EXPECT_EQ(got, want) << label;
  } else {
    EXPECT_DOUBLE_EQ(got, want) << label;
  }
}

/// Shares every other burst of each lane: with kSharedScan, a sharer's
/// scans then read its solo-burst rows and its shared-burst nodes in turn.
class AlternatingPolicy : public SharingPolicy {
 public:
  SharingDecision Decide(const std::vector<int>& members,
                         const BurstStats&) override {
    SharingDecision d;
    if (share_ = !share_; share_) {
      for (int q : members) d.shared.Insert(q);
    }
    return d;
  }
  const char* name() const override { return "alternating"; }

 private:
  bool share_ = false;
};

struct ScanCase {
  const char* name;
  std::vector<const char*> queries;
  std::vector<const char*> alphabet;
  std::optional<PropagationMode> b_mode = std::nullopt;
};

class ScanColumnOracleTest : public ::testing::TestWithParam<ScanCase> {};

TEST_P(ScanColumnOracleTest, MatchesBruteForce) {
  const ScanCase& c = GetParam();
  Rng rng(0x5CA9 ^ std::hash<std::string>{}(c.name));
  for (int trial = 0; trial < 50; ++trial) {
    Schema schema;
    SeedScanSchema(&schema);
    Workload workload(&schema);
    for (const char* text : c.queries)
      ASSERT_TRUE(workload.Add(ParseQuery(text).value()).ok()) << text;
    WorkloadPlan plan = AnalyzeWorkload(workload).value();
    if (c.b_mode.has_value()) {
      ASSERT_EQ(plan.share_groups.size(), 1u);
      EXPECT_EQ(plan.share_groups[0].members, plan.AllExec());
      EXPECT_EQ(plan.share_groups[0].mode, *c.b_mode);
    }
    EventVector ev;
    const int len = static_cast<int>(rng.NextInt(1, 18));
    for (int i = 0; i < len; ++i)
      ev.push_back(ScanEvent(rng, &schema, c.alphabet, i + 1));

    NeverSharePolicy never;
    AlwaysSharePolicy always;
    DynamicBenefitPolicy dynamic;
    AlternatingPolicy alternating;
    SharingPolicy* policies[] = {&never, &always, &dynamic, &alternating};
    for (SharingPolicy* policy : policies) {
      BatchResult r = EvalHamletBatch(plan, ev, policy);
      for (QueryId q = 0; q < workload.size(); ++q) {
        ExpectOracle(plan, q, r.query_values[static_cast<size_t>(q)], ev,
                     std::string(c.name) + " trial " +
                         std::to_string(trial) + " " + policy->name() +
                         " query " + std::to_string(q) + ": " +
                         StreamToScript(ev, schema));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScanColumnOracleTest,
    ::testing::Values(
        ScanCase{"every_cmp_op",
                 {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE prev.w < next.w "
                  "WITHIN 1 min",
                  "RETURN SUM(B.v) PATTERN SEQ(C, B+) WHERE prev.w <= next.w "
                  "WITHIN 1 min",
                  "RETURN COUNT(B) PATTERN B+ WHERE prev.w > next.w WITHIN 1 "
                  "min",
                  "RETURN AVG(B.v) PATTERN SEQ(A, B+) WHERE prev.w >= next.w "
                  "WITHIN 1 min",
                  "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE prev.w = next.w "
                  "WITHIN 1 min",
                  "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE prev.w != next.w "
                  "WITHIN 1 min",
                  "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE [d] AND prev.w "
                  "<= next.w WITHIN 1 min"},
                 {"A", "B", "C"}},
        ScanCase{"cross_type_kleene",
                 {"RETURN COUNT(*) PATTERN SEQ(A+, B+) WHERE prev.w <= next.w "
                  "WITHIN 1 min",
                  "RETURN COUNT(*) PATTERN (SEQ(A, B+))+ WHERE prev.w < "
                  "next.w WITHIN 1 min"},
                 {"A", "B"}},
        ScanCase{"boundary_negation",
                 {"RETURN COUNT(*) PATTERN SEQ(A, NOT C, B+) WHERE prev.w <= "
                  "next.w WITHIN 1 min",
                  "RETURN SUM(B.v) PATTERN SEQ(A, NOT C, B+) WHERE prev.w <= "
                  "next.w WITHIN 1 min",
                  "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min"},
                 {"A", "B", "C"}},
        ScanCase{"max_min_avg",
                 {"RETURN MAX(B.v) PATTERN SEQ(A, B+) WHERE prev.w <= next.w "
                  "WITHIN 1 min",
                  "RETURN MIN(B.v) PATTERN SEQ(C, B+) WHERE prev.w > next.w "
                  "WITHIN 1 min",
                  "RETURN AVG(B.v) PATTERN SEQ(A, B+) WHERE prev.w < next.w "
                  "WITHIN 1 min"},
                 {"A", "B", "C"}},
        // One edge query and plain sharers: the edge query's rows come from
        // the event-snapshot branch, the plain sharers fold solo_sums.
        ScanCase{"event_snapshot_plain_sharers",
                 {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE prev.w <= next.w "
                  "WITHIN 1 min",
                  "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min",
                  "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v > 1 WITHIN 1 "
                  "min",
                  "RETURN COUNT(*) PATTERN B+ WITHIN 1 min"},
                 {"A", "B", "C"},
                 PropagationMode::kPerEventSnapshot},
        // Identical edge predicates: shared bursts walk stored nodes, solo
        // bursts write rows, and scans merge both in time order.
        ScanCase{"shared_scan_flips",
                 {"RETURN SUM(B.v) PATTERN SEQ(A, B+) WHERE prev.w <= next.w "
                  "WITHIN 1 min",
                  "RETURN AVG(B.v) PATTERN SEQ(C, B+) WHERE prev.w <= next.w "
                  "AND B.v > 1 WITHIN 1 min",
                  "RETURN COUNT(B) PATTERN B+ WHERE prev.w <= next.w WITHIN 1 "
                  "min"},
                 {"A", "B", "B", "C"},
                 PropagationMode::kSharedScan}),
    [](const ::testing::TestParamInfo<ScanCase>& info) {
      return info.param.name;
    });

// Runs `queries` (named q0, q1, ...) through a Session over sliding windows
// and checks every emission against the brute-force value of its window's
// events. With `add`, the query `add` joins a third of the way in and q0
// leaves two thirds in: both hand the open windows' state, scan columns
// included, to the next plan epoch mid-window.
RunMetrics CheckSessionOracle(EngineKind kind,
                              const std::vector<const char*>& queries,
                              const char* add, uint64_t seed) {
  Schema schema;
  SeedScanSchema(&schema);
  Workload oracle(&schema);
  Workload initial(&schema);
  std::vector<const char*> all = queries;
  if (add != nullptr) all.push_back(add);
  for (size_t i = 0; i < all.size(); ++i) {
    Query q = ParseQuery(all[i]).value();
    q.name = "q" + std::to_string(i);
    HAMLET_CHECK(oracle.Add(q).ok());
    if (i < queries.size()) HAMLET_CHECK(initial.Add(q).ok());
  }
  WorkloadPlan oracle_plan = AnalyzeWorkload(oracle).value();
  WorkloadPlan plan = AnalyzeWorkload(initial).value();

  Rng rng(seed);
  EventVector ev;
  for (int i = 0; i < 240; ++i)
    ev.push_back(ScanEvent(rng, &schema, {"A", "B", "B", "C"}, i + 1));

  RunConfig config;
  config.kind = kind;
  CollectingSink sink;
  std::unique_ptr<Session> session =
      std::move(Session::Open(plan, config, &sink)).value();
  for (size_t i = 0; i < ev.size(); i += 8) {
    if (add != nullptr && i == 80) {
      Query q = ParseQuery(add).value();
      q.name = "q" + std::to_string(queries.size());
      HAMLET_CHECK(session->AddQuery(q).ok());
    }
    if (add != nullptr && i == 160)
      HAMLET_CHECK(session->RemoveQuery("q0").ok());
    HAMLET_CHECK(session
                     ->PushBatch(std::span<const Event>(
                         ev.data() + i, std::min<size_t>(8, ev.size() - i)))
                     .ok());
  }
  HAMLET_CHECK(session->AdvanceTo(ev.back().time).ok());
  const RunMetrics metrics = session->Close().value();

  const std::vector<Emission> emissions = sink.Take();
  EXPECT_GT(emissions.size(), 100u);
  for (const Emission& em : emissions) {
    EventVector window;
    for (const Event& e : ev) {
      if (e.time >= em.window_start && e.time < em.window_end)
        window.push_back(e);
    }
    const QueryId q = static_cast<QueryId>(std::stoi(em.query_name.substr(1)));
    ExpectOracle(oracle_plan, q, em.value, window,
                 std::string(EngineKindName(kind)) + " " + em.query_name +
                     " [" + std::to_string(em.window_start) + ", " +
                     std::to_string(em.window_end) + ")");
  }
  return metrics;
}

constexpr EngineKind kHamletKinds[] = {EngineKind::kHamletDynamic,
                                       EngineKind::kHamletStatic,
                                       EngineKind::kHamletNoShare};

// Windows of 16 ms sliding by 4 ms: every event is a row in four open
// windows at once.
TEST(ScanColumnSessionOracleTest, SlidingWindowsKeepOneRowPerOpenWindow) {
  for (EngineKind kind : kHamletKinds) {
    CheckSessionOracle(
        kind,
        {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE prev.w <= next.w WITHIN "
         "16 ms SLIDE 4 ms",
         "RETURN SUM(B.v) PATTERN SEQ(C, B+) WHERE prev.w > next.w WITHIN "
         "16 ms SLIDE 4 ms",
         "RETURN COUNT(*) PATTERN SEQ(A, NOT C, B+) WHERE prev.w != next.w "
         "WITHIN 12 ms SLIDE 4 ms",
         "RETURN AVG(B.v) PATTERN SEQ(C, B+) WITHIN 16 ms SLIDE 4 ms"},
        nullptr, 11);
  }
}

TEST(ScanColumnSessionOracleTest, MidWindowChurnHandsColumnsOver) {
  // A per-event-snapshot group (mixed predicates) and a shared-scan group
  // (identical ones): the latter's shared bursts leave stored nodes that
  // ExportQuery values into rows.
  for (EngineKind kind : kHamletKinds) {
    CheckSessionOracle(
        kind,
        {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE prev.w <= next.w WITHIN "
         "16 ms SLIDE 4 ms",
         "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 16 ms SLIDE 4 ms"},
        "RETURN COUNT(*) PATTERN B+ WHERE prev.w < next.w WITHIN 12 ms "
        "SLIDE 4 ms",
        21);
    CheckSessionOracle(
        kind,
        {"RETURN SUM(B.v) PATTERN SEQ(A, B+) WHERE prev.w <= next.w WITHIN "
         "16 ms SLIDE 4 ms",
         "RETURN AVG(B.v) PATTERN SEQ(C, B+) WHERE prev.w <= next.w WITHIN "
         "16 ms SLIDE 4 ms"},
        "RETURN COUNT(B) PATTERN B+ WHERE prev.w <= next.w WITHIN 12 ms "
        "SLIDE 4 ms",
        22);
  }
}

TEST(ScanColumnSessionOracleTest, SharedScanBurstsFlipUnderDynamic) {
  // The event predicate makes the sharers diverge, so the dynamic policy
  // splits the group after its first shared bursts: later scans read the
  // shared bursts' nodes and the solo bursts' rows in one window.
  const RunMetrics m = CheckSessionOracle(
      EngineKind::kHamletDynamic,
      {"RETURN SUM(B.v) PATTERN SEQ(A, B+) WHERE prev.w <= next.w WITHIN 16 "
       "ms SLIDE 4 ms",
       "RETURN AVG(B.v) PATTERN SEQ(C, B+) WHERE prev.w <= next.w AND B.v > "
       "1 WITHIN 16 ms SLIDE 4 ms"},
      nullptr, 31);
  EXPECT_GT(m.hamlet.bursts_shared, 0);
  EXPECT_LT(m.hamlet.bursts_shared, m.hamlet.bursts_total);
  EXPECT_GT(m.hamlet.splits, 0);
}

}  // namespace
}  // namespace hamlet
