// Query lifecycle (src/runtime/query_lifecycle.h) and online plan-swap
// tests.
//
// The core property is churn equivalence: AddQuery/RemoveQuery on a LIVE
// session partition the stream into activation intervals [P_i, P_{i+1})
// at pane boundaries, and within each interval the emission set must be
// bit-identical to a fresh session compiled with that interval's query
// set and fed the full stream — for every EngineKind at 1, 2 and 4
// shards. The test streams keep every group dense (an
// event at least every 12 ticks against a 100 ms window), so window
// instantiation is boundary-driven on both sides and the comparison is
// exact, empty windows included.
//
// Each property runs on two query sets: the share-eligible COUNT trio, and
// a set whose state the pane-boundary hand-off must carry beyond context
// totals — an edge-predicate query's retained nodes, negation, MAX and an
// OR composition — with windows spanning two and three panes.
//
// Also covers: plan hot swaps (explicit ApplySharingOverrides and the
// online re-optimizer under a burst-shifted stream, with
// RunConfig::clock_override pinning the clock) leaving
// emissions identical to a frozen plan, and the re-optimizer deciding the
// same at the same boundaries in repeated 1-shard runs across churn;
// the lifecycle error contracts
// (unnamed/duplicate adds, schema-extending adds, unknown/last-query
// removes); a churn storm with one AddQuery per pane, one on sharded
// sessions whose shards idle across ops, and one whose ops merge and split
// components over eight group keys; a removed query leaving the plan
// once drained; the reoptimize knob validation matrix; and
// evict_idle_groups determinism across shard counts (the router drain it
// enables for stolen keys is covered in work_stealing_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/query/parser.h"
#include "src/runtime/session.h"

namespace hamlet {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
    EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
    EngineKind::kGretaPrefix,   EngineKind::kTwoStep,
    EngineKind::kSharon};

// All share-eligible COUNT queries over one 100 ms / 50 ms sliding window,
// so every epoch's workload has the same pane size (50) and activation
// boundaries line up across epochs. qa and qb share the B+ Kleene
// sub-pattern (one share group, one component); qc is its own component.
constexpr char kQa[] =
    "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g WITHIN 100 ms SLIDE 50 ms";
constexpr char kQb[] =
    "RETURN COUNT(*) PATTERN SEQ(C, B+) GROUPBY g WITHIN 100 ms SLIDE 50 ms";
constexpr char kQc[] =
    "RETURN COUNT(*) PATTERN SEQ(A, C+) GROUPBY g WITHIN 100 ms SLIDE 50 ms";

Query MakeQuery(const std::string& name, const std::string& text) {
  Result<Query> q = ParseQuery(text);
  HAMLET_CHECK(q.ok());
  Query out = std::move(q).value();
  out.name = name;
  return out;
}

// A workload + plan pair; the workload owns the queries the plan indexes.
struct Compiled {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<WorkloadPlan> plan;
};

Compiled Compile(Schema* schema,
                 std::vector<std::pair<std::string, std::string>> queries) {
  Compiled c;
  c.workload = std::make_unique<Workload>(schema);
  for (auto& [name, text] : queries) {
    Result<QueryId> id = c.workload->Add(MakeQuery(name, text));
    HAMLET_CHECK(id.ok());
  }
  Result<WorkloadPlan> plan = AnalyzeWorkload(*c.workload);
  HAMLET_CHECK(plan.ok());
  c.plan = std::make_unique<WorkloadPlan>(std::move(plan).value());
  return c;
}

// Registers the fixed type/attr layout the streams below assume:
// types A=0, B=1, C=2; attrs v=0, g=1.
void SeedSchema(Schema* schema) {
  schema->AddAttr("v");
  schema->AddAttr("g");
  schema->AddType("A");
  schema->AddType("B");
  schema->AddType("C");
}

// Deterministic stream where every group (i % 4) gets an event at least
// every 12 ticks — dense against the 100 ms window, so no group ever goes
// idle around a churn boundary.
std::vector<Event> DenseStream(int n) {
  static constexpr TypeId kCycle[] = {0, 1, 1, 2, 1, 2};  // A B B C B C
  std::vector<Event> ev;
  ev.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ev.emplace_back(Timestamp{1 + 3 * i}, kCycle[i % 6],
                    std::initializer_list<double>{
                        static_cast<double>(i % 7),
                        static_cast<double>(i % 4)});
  }
  return ev;
}

// DenseStream's density with a five-type cycle, so every group sees A, B
// and C interleaved (DenseStream's groups each miss A or C).
std::vector<Event> MixedStream(int n) {
  static constexpr TypeId kCycle[] = {0, 1, 2, 1, 1};  // A B C B B
  std::vector<Event> ev;
  ev.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ev.emplace_back(Timestamp{1 + 3 * i}, kCycle[i % 5],
                    std::initializer_list<double>{
                        static_cast<double>(i % 7),
                        static_cast<double>(i % 4)});
  }
  return ev;
}

// B-heavy first half, C-heavy second half: shifts which Kleene type
// dominates mid-stream, the drift the online re-optimizer watches for.
std::vector<Event> BurstShiftStream(int n) {
  static constexpr TypeId kCalm[] = {0, 1, 1, 1, 1, 2};   // B bursts
  static constexpr TypeId kShift[] = {0, 2, 2, 2, 1, 2};  // C bursts
  std::vector<Event> ev;
  ev.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const TypeId* cycle = i < n / 2 ? kCalm : kShift;
    ev.emplace_back(Timestamp{1 + 3 * i}, cycle[i % 6],
                    std::initializer_list<double>{
                        static_cast<double>(i % 5),
                        static_cast<double>(i % 4)});
  }
  return ev;
}

// One churn input: qa and qb open the session, qc is added and qa removed
// mid-run; `extra` queries run throughout; `stream` makes the events.
struct ChurnSet {
  const char* qa;
  const char* qb;
  const char* qc;
  std::vector<std::pair<std::string, std::string>> extra;
  std::vector<Event> (*stream)(int n);
};

// The trio above, and a set with windows of two and three panes whose
// hand-off carries more than context totals: qa's and qb's edge predicates
// keep retained nodes (qb's scans also skip predecessors before its last
// negated C), qd folds MAX and qc is an OR composition.
std::vector<ChurnSet> ChurnSets() {
  return {
      {kQa, kQb, kQc, {}, DenseStream},
      {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE prev.v <= next.v GROUPBY g "
       "WITHIN 150 ms SLIDE 50 ms",
       "RETURN COUNT(*) PATTERN SEQ(A, NOT C, B+) WHERE prev.v <= next.v "
       "GROUPBY g WITHIN 150 ms SLIDE 50 ms",
       "RETURN COUNT(*) PATTERN SEQ(A, B+) OR C+ GROUPBY g WITHIN 150 ms "
       "SLIDE 50 ms",
       {{"qd", "RETURN MAX(B.v) PATTERN SEQ(A, B+) GROUPBY g WITHIN 100 ms "
               "SLIDE 50 ms"}},
       MixedStream},
  };
}

// `set`'s queries named by `names` ("qa", "qb", "qc"), then its extras.
std::vector<std::pair<std::string, std::string>> SetQueries(
    const ChurnSet& set, std::initializer_list<const char*> names) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* name : names) {
    const std::string n = name;
    out.emplace_back(n, n == "qa" ? set.qa : n == "qb" ? set.qb : set.qc);
  }
  for (const auto& q : set.extra) out.push_back(q);
  return out;
}

// (query name, group, window start, window end, value bits): the identity
// of one emission across sessions whose QueryIds differ (ids shift when
// epochs recompile the workload, names do not).
using Tuple = std::tuple<std::string, int64_t, Timestamp, Timestamp, uint64_t>;

uint64_t ValueBits(double v) {
  if (std::isnan(v)) return 0x7ff8000000000000ULL;  // canonical NaN
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

constexpr Timestamp kMinTs = std::numeric_limits<Timestamp>::min();
constexpr Timestamp kMaxTs = std::numeric_limits<Timestamp>::max();

// Emissions with window_start in [lo, hi), as sortable tuples.
std::vector<Tuple> Tuples(const std::vector<Emission>& emissions,
                          Timestamp lo = kMinTs, Timestamp hi = kMaxTs) {
  std::vector<Tuple> out;
  for (const Emission& e : emissions) {
    if (e.window_start < lo || e.window_start >= hi) continue;
    out.emplace_back(e.query_name, e.group_key, e.window_start, e.window_end,
                     ValueBits(e.value));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameTuples(const std::vector<Tuple>& want,
                      const std::vector<Tuple>& got,
                      const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  int mismatches = 0;
  for (size_t i = 0; i < want.size() && mismatches < 5; ++i) {
    if (want[i] == got[i]) continue;
    ++mismatches;
    ADD_FAILURE() << label << " tuple #" << i << ": want ("
                  << std::get<0>(want[i]) << ", g=" << std::get<1>(want[i])
                  << ", ws=" << std::get<2>(want[i])
                  << ", we=" << std::get<3>(want[i]) << ") got ("
                  << std::get<0>(got[i]) << ", g=" << std::get<1>(got[i])
                  << ", ws=" << std::get<2>(got[i])
                  << ", we=" << std::get<3>(got[i]) << ")";
  }
}

void PushRange(Session& s, const std::vector<Event>& ev, size_t from,
               size_t to) {
  size_t i = from;
  while (i < to) {
    const size_t len = std::min<size_t>(64, to - i);
    Status st = s.PushBatch(std::span<const Event>(ev.data() + i, len));
    HAMLET_CHECK(st.ok());
    i += len;
  }
}

struct RunOut {
  std::vector<Emission> emissions;
  RunMetrics metrics;
};

RunOut RunPlain(const WorkloadPlan& plan, const RunConfig& config,
                const std::vector<Event>& ev) {
  CollectingSink sink;
  Result<std::unique_ptr<Session>> s = Session::Open(plan, config, &sink);
  HAMLET_CHECK(s.ok());
  PushRange(*s.value(), ev, 0, ev.size());
  if (!ev.empty()) HAMLET_CHECK(s.value()->AdvanceTo(ev.back().time).ok());
  Result<RunMetrics> m = s.value()->Close();
  HAMLET_CHECK(m.ok());
  return {sink.Take(), m.value()};
}

struct ChurnOut {
  std::vector<Emission> emissions;
  RunMetrics metrics;
  Timestamp p1 = -1;  // activation boundary of the AddQuery
  Timestamp p2 = -1;  // activation boundary of the RemoveQuery
};

// Pushes the first third, adds `add`, pushes the second third, removes
// "qa", pushes the rest, then drains and closes.
ChurnOut DriveChurn(Session& s, CollectingSink& sink,
                    const std::vector<Event>& ev, const Query& add) {
  ChurnOut out;
  const size_t a = ev.size() / 3;
  const size_t b = 2 * ev.size() / 3;
  PushRange(s, ev, 0, a);
  Result<Timestamp> p1 = s.AddQuery(add);
  HAMLET_CHECK(p1.ok());
  out.p1 = p1.value();
  PushRange(s, ev, a, b);
  // One plan epoch runs at every point: churn hands state over instead of
  // draining a second epoch.
  EXPECT_EQ(s.MetricsSnapshot().active_epochs, 1);
  Result<Timestamp> p2 = s.RemoveQuery("qa");
  HAMLET_CHECK(p2.ok());
  out.p2 = p2.value();
  PushRange(s, ev, b, ev.size());
  EXPECT_EQ(s.MetricsSnapshot().active_epochs, 1);
  HAMLET_CHECK(s.AdvanceTo(ev.back().time).ok());
  Result<RunMetrics> m = s.Close();
  HAMLET_CHECK(m.ok());
  out.metrics = m.value();
  out.emissions = sink.Take();
  return out;
}

// The tentpole property: per activation interval, churned emissions are
// bit-identical to a fresh session with that interval's query set, for
// every engine at 1, 2 and 4 shards.
TEST(QueryChurnEquivalence, AllEnginesAllShardCounts) {
  Schema schema;
  SeedSchema(&schema);
  for (const ChurnSet& set : ChurnSets()) {
    const std::vector<Event> ev = set.stream(600);
    const Query add = MakeQuery("qc", set.qc);

    Compiled base = Compile(&schema, SetQueries(set, {"qa", "qb"}));
    Compiled mid = Compile(&schema, SetQueries(set, {"qa", "qb", "qc"}));
    Compiled tail = Compile(&schema, SetQueries(set, {"qb", "qc"}));

    for (EngineKind kind : kAllKinds) {
      const std::string kl = std::string(EngineKindName(kind)) +
                             (set.extra.empty() ? "" : " (carried state)");
      RunConfig config;
      config.kind = kind;

      // Fresh full-stream references, one per interval query set.
      const RunOut ref0 = RunPlain(*base.plan, config, ev);
      const RunOut ref1 = RunPlain(*mid.plan, config, ev);
      const RunOut ref2 = RunPlain(*tail.plan, config, ev);

      // The 1-shard churn run establishes the boundaries.
      CollectingSink st_sink;
      Result<std::unique_ptr<Session>> st =
          Session::Open(*base.plan, config, &st_sink);
      ASSERT_TRUE(st.ok()) << kl;
      const ChurnOut churned = DriveChurn(*st.value(), st_sink, ev, add);
      ASSERT_GT(churned.p1, 0) << kl;
      ASSERT_GT(churned.p2, churned.p1) << kl;

      std::vector<Tuple> want = Tuples(ref0.emissions, kMinTs, churned.p1);
      for (Tuple& t : Tuples(ref1.emissions, churned.p1, churned.p2)) {
        want.push_back(std::move(t));
      }
      for (Tuple& t : Tuples(ref2.emissions, churned.p2, kMaxTs)) {
        want.push_back(std::move(t));
      }
      std::sort(want.begin(), want.end());
      ASSERT_FALSE(want.empty()) << kl;
      // The added query does emit after activation, and the removed one
      // does not emit past its deactivation boundary.
      int added_emissions = 0;
      for (const Tuple& t : want) {
        if (std::get<0>(t) == "qc") ++added_emissions;
        if (std::get<0>(t) == "qa") {
          EXPECT_LT(std::get<2>(t), churned.p2) << kl;
        }
      }
      EXPECT_GT(added_emissions, 0) << kl;

      ExpectSameTuples(want, Tuples(churned.emissions), kl + " shards=1");
      EXPECT_EQ(churned.metrics.queries_added, 1) << kl;
      EXPECT_EQ(churned.metrics.queries_removed, 1) << kl;
      EXPECT_EQ(churned.metrics.events, static_cast<int64_t>(ev.size())) << kl;

      for (int shards : {2, 4}) {
        const std::string sl = kl + " shards=" + std::to_string(shards);
        RunConfig sharded_config = config;
        sharded_config.num_shards = shards;
        CollectingSink sink;
        Result<std::unique_ptr<Session>> s =
            Session::Open(*base.plan, sharded_config, &sink);
        ASSERT_TRUE(s.ok()) << sl;
        const ChurnOut out = DriveChurn(*s.value(), sink, ev, add);
        // The front computes activation from the same gate state, so the
        // boundaries must match the 1-shard run exactly.
        EXPECT_EQ(out.p1, churned.p1) << sl;
        EXPECT_EQ(out.p2, churned.p2) << sl;
        ExpectSameTuples(want, Tuples(out.emissions), sl);
        EXPECT_EQ(out.metrics.queries_added, 1) << sl;
        EXPECT_EQ(out.metrics.queries_removed, 1) << sl;
      }
    }
  }
}

// Feeds `ev` to a re-optimizing session one 50 ms pane at a time, with
// AdvanceTo(p) before the first event of every pane p, removes qc after
// ev[800] and adds qc's text as qd after ev[807].
RunOut DriveReoptChurn(Session& s, CollectingSink& sink,
                       const std::vector<Event>& ev) {
  Timestamp pane = -1;
  for (size_t i = 0; i < ev.size();) {
    if (ev[i].time / 50 * 50 > pane) {
      pane = ev[i].time / 50 * 50;
      HAMLET_CHECK(s.AdvanceTo(pane).ok());
    }
    size_t end = i + 1;
    while (end < ev.size() && ev[end].time < pane + 50 && end != 801 &&
           end != 808) {
      ++end;
    }
    HAMLET_CHECK(s.PushBatch(std::span(ev).subspan(i, end - i)).ok());
    i = end;
    if (i == 801) HAMLET_CHECK(s.RemoveQuery("qc").ok());
    if (i == 808) HAMLET_CHECK(s.AddQuery(MakeQuery("qd", kQc)).ok());
  }
  HAMLET_CHECK(s.AdvanceTo(ev.back().time).ok());
  Result<RunMetrics> m = s.Close();
  HAMLET_CHECK(m.ok());
  return {sink.Take(), m.value()};
}

// Hot-swap under burst: with the re-optimizer checking every 2 panes over
// a stream whose dominant burst type flips mid-run, emissions stay
// bit-identical to a frozen plan (sharing never changes values), at 1 and
// 2 shards. clock_override pins the clock so latency accounting cannot
// perturb scheduling-visible state under sanitizer load. With churn
// mid-run, 2- and 4-shard runs emit the same as a 1-shard run and take the
// same decisions at the same boundaries: the driver advances the watermark
// at every pane boundary before pushing that pane's events, so every drift
// check runs at the AdvanceTo barrier, where the shards' published
// statistics cover exactly what the inline engine's exact ones do.
TEST(OnlineReoptimization, HotSwapUnderBurstMatchesFrozenPlan) {
  Schema schema;
  SeedSchema(&schema);
  const std::vector<Event> ev = BurstShiftStream(2400);
  Compiled w = Compile(&schema, {{"qa", kQa}, {"qb", kQb}, {"qc", kQc}});

  for (EngineKind kind :
       {EngineKind::kHamletDynamic, EngineKind::kHamletStatic}) {
    const std::string label = EngineKindName(kind);
    RunConfig frozen;
    frozen.kind = kind;
    frozen.clock_override = [] { return 0.0; };
    RunConfig reopt = frozen;
    reopt.reoptimize_every_panes = 2;
    reopt.reoptimize_threshold = 0.05;

    const RunOut frozen_out = RunPlain(*w.plan, frozen, ev);

    CollectingSink sink;
    Result<std::unique_ptr<Session>> s =
        Session::Open(*w.plan, reopt, &sink);
    ASSERT_TRUE(s.ok()) << label;
    PushRange(*s.value(), ev, 0, ev.size());
    ASSERT_TRUE(s.value()->AdvanceTo(ev.back().time).ok()) << label;
    Result<RunMetrics> m = s.value()->Close();
    ASSERT_TRUE(m.ok()) << label;

    ExpectSameTuples(Tuples(frozen_out.emissions), Tuples(sink.Take()),
                     label);
    EXPECT_GT(m.value().reopt_checks, 0) << label;
    EXPECT_EQ(m.value().reopt_swaps,
              static_cast<int64_t>([&] {
                int64_t swapped = 0;
                for (const ReoptDecision& d : s.value()->reopt_log()) {
                  if (d.swapped) ++swapped;
                }
                return swapped;
              }()))
        << label;
    EXPECT_GE(m.value().plan_swaps, m.value().reopt_swaps) << label;

    // 2 shards: only the front re-optimizes and broadcasts the swap. The
    // mid-stream watermark is the checkpoint where the front waits for
    // the shards' statistics, so the later drift checks are guaranteed
    // to see real evidence.
    RunConfig sharded = reopt;
    sharded.num_shards = 2;
    CollectingSink ssink;
    Result<std::unique_ptr<Session>> sh =
        Session::Open(*w.plan, sharded, &ssink);
    ASSERT_TRUE(sh.ok()) << label;
    PushRange(*sh.value(), ev, 0, ev.size() / 2);
    ASSERT_TRUE(sh.value()->AdvanceTo(ev[ev.size() / 2 - 1].time).ok())
        << label;
    PushRange(*sh.value(), ev, ev.size() / 2, ev.size());
    ASSERT_TRUE(sh.value()->AdvanceTo(ev.back().time).ok()) << label;
    Result<RunMetrics> sm = sh.value()->Close();
    ASSERT_TRUE(sm.ok()) << label;
    ExpectSameTuples(Tuples(frozen_out.emissions), Tuples(ssink.Take()),
                     label + " sharded");
    EXPECT_GT(sm.value().reopt_checks, 0) << label;

    for (int every : {1, 2}) {
      const std::string el = label + " every=" + std::to_string(every);
      RunConfig churn = reopt;
      churn.reoptimize_every_panes = every;
      CollectingSink psink;
      Result<std::unique_ptr<Session>> first =
          Session::Open(*w.plan, churn, &psink);
      ASSERT_TRUE(first.ok()) << el;
      const RunOut pout = DriveReoptChurn(*first.value(), psink, ev);
      const std::vector<ReoptDecision>& want = first.value()->reopt_log();
      ASSERT_GE(want.size(), 3u) << el;
      EXPECT_EQ(pout.metrics.queries_added, 1) << el;
      EXPECT_EQ(pout.metrics.queries_removed, 1) << el;
      for (int shards : {2, 4}) {
        const std::string sl = el + " shards=" + std::to_string(shards);
        RunConfig sharded_churn = churn;
        sharded_churn.num_shards = shards;
        CollectingSink csink;
        Result<std::unique_ptr<Session>> sc =
            Session::Open(*w.plan, sharded_churn, &csink);
        ASSERT_TRUE(sc.ok()) << sl;
        const RunOut out = DriveReoptChurn(*sc.value(), csink, ev);
        ExpectSameTuples(Tuples(pout.emissions), Tuples(out.emissions), sl);
        EXPECT_EQ(out.metrics.queries_added, 1) << sl;
        EXPECT_EQ(out.metrics.queries_removed, 1) << sl;
        EXPECT_EQ(out.metrics.reopt_checks, pout.metrics.reopt_checks) << sl;
        EXPECT_EQ(out.metrics.reopt_swaps, pout.metrics.reopt_swaps) << sl;
        const std::vector<ReoptDecision>& got = sc.value()->reopt_log();
        ASSERT_EQ(got.size(), want.size()) << sl;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].boundary, want[i].boundary) << sl << " entry " << i;
          EXPECT_EQ(got[i].swapped, want[i].swapped) << sl << " entry " << i;
          EXPECT_EQ(got[i].observed_cost, want[i].observed_cost)
              << sl << " entry " << i;
          EXPECT_EQ(got[i].best_cost, want[i].best_cost)
              << sl << " entry " << i;
        }
      }
    }
  }
}

// Deterministic swap-path coverage: force a mid-stream plan swap that
// splits the B+ share group and check the swap is invisible in results.
// For two-step and SHARON the split leaves a carried cohort window whose
// queries now live in two components with different event types.
TEST(PlanHotSwap, ForcedOverrideKeepsEmissionsIdentical) {
  Schema schema;
  SeedSchema(&schema);
  for (const ChurnSet& set : ChurnSets()) {
    const std::vector<Event> ev = set.stream(600);
    Compiled w = Compile(&schema, SetQueries(set, {"qa", "qb", "qc"}));
    ASSERT_FALSE(w.plan->share_groups.empty());
    const ShareGroup& sg = w.plan->share_groups.front();
    QueryId keep = -1;
    sg.members.ForEach([&](QueryId q) {
      if (keep < 0) keep = q;
    });
    ASSERT_GE(keep, 0);
    const SharingOverride unshare{sg.type, sg.members, QuerySet::Single(keep)};

    for (EngineKind kind : kAllKinds) {
      const std::string kl = std::string(EngineKindName(kind)) +
                             (set.extra.empty() ? "" : " (carried state)");
      RunConfig config;
      config.kind = kind;
      const RunOut ref = RunPlain(*w.plan, config, ev);

      CollectingSink sink;
      Result<std::unique_ptr<Session>> s =
          Session::Open(*w.plan, config, &sink);
      ASSERT_TRUE(s.ok()) << kl;
      PushRange(*s.value(), ev, 0, ev.size() / 2);
      Result<Timestamp> swapped =
          s.value()->ApplySharingOverrides(std::span(&unshare, 1));
      ASSERT_TRUE(swapped.ok()) << kl;
      EXPECT_GT(swapped.value(), 0) << kl;
      PushRange(*s.value(), ev, ev.size() / 2, ev.size());
      EXPECT_EQ(s.value()->MetricsSnapshot().active_epochs, 1) << kl;
      ASSERT_TRUE(s.value()->AdvanceTo(ev.back().time).ok()) << kl;
      Result<RunMetrics> m = s.value()->Close();
      ASSERT_TRUE(m.ok()) << kl;
      ExpectSameTuples(Tuples(ref.emissions), Tuples(sink.Take()), kl);
      EXPECT_EQ(m.value().plan_swaps, 1) << kl;

      RunConfig sharded_config = config;
      sharded_config.num_shards = 2;
      CollectingSink ssink;
      Result<std::unique_ptr<Session>> sh =
          Session::Open(*w.plan, sharded_config, &ssink);
      ASSERT_TRUE(sh.ok()) << kl;
      PushRange(*sh.value(), ev, 0, ev.size() / 2);
      Result<Timestamp> ssw =
          sh.value()->ApplySharingOverrides(std::span(&unshare, 1));
      ASSERT_TRUE(ssw.ok()) << kl;
      EXPECT_EQ(ssw.value(), swapped.value()) << kl;
      PushRange(*sh.value(), ev, ev.size() / 2, ev.size());
      EXPECT_EQ(sh.value()->MetricsSnapshot().active_epochs, 1) << kl;
      ASSERT_TRUE(sh.value()->AdvanceTo(ev.back().time).ok()) << kl;
      Result<RunMetrics> sm = sh.value()->Close();
      ASSERT_TRUE(sm.ok()) << kl;
      ExpectSameTuples(Tuples(ref.emissions), Tuples(ssink.Take()),
                       kl + " sharded");
      EXPECT_EQ(sm.value().plan_swaps, 1) << kl;
    }
  }
}

// Lifecycle error contracts: every rejected churn op leaves the session
// (and the schema) exactly as it was.
TEST(QueryLifecycleErrors, RejectedChurnLeavesSessionIntact) {
  Schema schema;
  SeedSchema(&schema);
  Compiled w = Compile(&schema, {{"qa", kQa}, {"qb", kQb}});
  RunConfig config;
  CollectingSink sink;
  Result<std::unique_ptr<Session>> s = Session::Open(*w.plan, config, &sink);
  ASSERT_TRUE(s.ok());
  Session& session = *s.value();

  Query unnamed = MakeQuery("", kQc);
  EXPECT_EQ(session.AddQuery(unnamed).status().code(),
            StatusCode::kInvalidArgument);
  Query duplicate = MakeQuery("qa", kQc);
  EXPECT_FALSE(session.AddQuery(duplicate).ok());
  // Validation must not register unknown names into the live schema.
  Query alien = MakeQuery(
      "qz", "RETURN COUNT(*) PATTERN SEQ(Z, B+) GROUPBY g WITHIN 100 ms");
  EXPECT_FALSE(session.AddQuery(alien).ok());
  EXPECT_EQ(schema.FindType("Z"), Schema::kInvalidId);

  EXPECT_EQ(session.RemoveQuery("nope").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(session.RemoveQuery("qa").ok());
  // Removing the last query is rejected; Close is the way to stop.
  EXPECT_FALSE(session.RemoveQuery("qb").ok());
  EXPECT_EQ(static_cast<int>(session.queries().size()), 1);

  ASSERT_TRUE(session.Close().ok());
  EXPECT_EQ(session.AddQuery(MakeQuery("late", kQc)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.RemoveQuery("qb").status().code(),
            StatusCode::kFailedPrecondition);

  // A 2-shard front pre-validates without disturbing the workers.
  RunConfig sharded_config;
  sharded_config.num_shards = 2;
  CollectingSink ssink;
  Result<std::unique_ptr<Session>> sh =
      Session::Open(*w.plan, sharded_config, &ssink);
  ASSERT_TRUE(sh.ok());
  EXPECT_FALSE(sh.value()->AddQuery(duplicate).ok());
  EXPECT_FALSE(sh.value()->RemoveQuery("nope").ok());
  EXPECT_TRUE(sh.value()->Push(Event(1, 0, {0.0, 0.0})).ok());
  EXPECT_TRUE(sh.value()->Close().ok());
}

// A churn storm: sixteen AddQuery ops one pane apart, against queries
// whose 1000 ms windows span twenty panes. Every op succeeds (no epoch
// drains, so nothing accumulates), and each activation interval's
// emissions equal a fresh session with that interval's query set. The
// storm then removes qa at 850; it leaves the plan at 1850, when its last
// window closed, on the 50 ms grid. Two later ops follow: the first
// activates at 2050, off the 100 ms grid the remaining queries alone would
// use, and the second at 2400 moves onto that coarser grid.
TEST(QueryLifecycleChurnStorm, OneAddPerPaneMatchesFreshSessions) {
  constexpr char kLongA[] =
      "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g WITHIN 1000 ms SLIDE 50 ms";
  constexpr char kLongC[] =
      "RETURN COUNT(*) PATTERN SEQ(A, C+) GROUPBY g WITHIN 1000 ms "
      "SLIDE 100 ms";
  constexpr int kStorm = 16;
  struct Op {
    Timestamp boundary;  // the op follows every event before it
    std::string add;     // a kLongC query to add, or
    std::string remove;  // a query to remove
  };
  std::vector<Op> ops;
  for (int i = 0; i < kStorm; ++i) {
    ops.push_back({50 * (i + 1), "add" + std::to_string(i), ""});
  }
  ops.push_back({850, "", "qa"});
  ops.push_back({2050, "late0", ""});
  ops.push_back({2400, "late1", ""});
  Schema schema;
  SeedSchema(&schema);
  const std::vector<Event> ev = DenseStream(1000);
  const std::vector<std::pair<std::string, std::string>> opening = {
      {"qa", kLongA}};
  Compiled w = Compile(&schema, opening);

  for (EngineKind kind : {EngineKind::kHamletDynamic,
                          EngineKind::kGretaPrefix}) {
    const std::string kl = EngineKindName(kind);
    RunConfig config;
    config.kind = kind;
    CollectingSink sink;
    Result<std::unique_ptr<Session>> s = Session::Open(*w.plan, config, &sink);
    ASSERT_TRUE(s.ok()) << kl;
    Session& session = *s.value();
    size_t pushed = 0;
    for (const Op& op : ops) {
      size_t upto = pushed;
      while (upto < ev.size() && ev[upto].time < op.boundary) ++upto;
      PushRange(session, ev, pushed, upto);
      pushed = upto;
      Result<Timestamp> r = op.add.empty()
                                ? session.RemoveQuery(op.remove)
                                : session.AddQuery(MakeQuery(op.add, kLongC));
      ASSERT_TRUE(r.ok()) << kl << " op at " << op.boundary << ": "
                          << r.status().ToString();
      EXPECT_EQ(r.value(), op.boundary) << kl;
      EXPECT_EQ(session.MetricsSnapshot().active_epochs, 1) << kl;
    }
    PushRange(session, ev, pushed, ev.size());
    ASSERT_TRUE(session.AdvanceTo(ev.back().time).ok()) << kl;
    Result<RunMetrics> m = session.Close();
    ASSERT_TRUE(m.ok()) << kl;
    EXPECT_EQ(m.value().queries_added, kStorm + 2) << kl;
    const std::vector<Emission> churned = sink.Take();

    std::vector<std::pair<std::string, std::string>> set = opening;
    for (size_t i = 0; i <= ops.size(); ++i) {
      const Timestamp lo = i == 0 ? kMinTs : ops[i - 1].boundary;
      const Timestamp hi = i == ops.size() ? kMaxTs : ops[i].boundary;
      Compiled fresh = Compile(&schema, set);
      const RunOut ref = RunPlain(*fresh.plan, config, ev);
      ExpectSameTuples(Tuples(ref.emissions, lo, hi),
                       Tuples(churned, lo, hi),
                       kl + " interval " + std::to_string(i));
      if (i == ops.size()) break;
      if (ops[i].add.empty()) {
        std::erase_if(set, [&](const auto& q) {
          return q.first == ops[i].remove;
        });
      } else {
        set.emplace_back(ops[i].add, kLongC);
      }
    }
  }
}

// Churn ops one pane apart on sharded sessions whose keys take turns: one
// key per 150 ms phase, so a shard holding none of the phase's keys sees no
// event across several ops and still holds earlier pending epochs when
// later ones arrive. The ops add a query that refines the pane to 25 ms,
// activate further ops on that finer grid, and remove queries (each then
// leaves the plan at its drain boundary on every shard). Every engine and
// shard count must emit what the 1-shard session with the same ops emits.
TEST(QueryLifecycleChurnStorm, ShardsIdleAcrossOpsMatchOneShard) {
  constexpr char kLongA[] =
      "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g WITHIN 200 ms SLIDE 50 ms";
  constexpr char kLongC[] =
      "RETURN COUNT(*) PATTERN SEQ(A, C+) GROUPBY g WITHIN 200 ms SLIDE 100 ms";
  constexpr char kFine[] =
      "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g WITHIN 100 ms SLIDE 25 ms";
  struct Op {
    Timestamp boundary;  // the op follows every event before it
    std::string name;
    const char* add;  // the added query's text, or null for a removal
  };
  const std::vector<Op> ops = {
      {100, "c0", kLongC}, {150, "f0", kFine},   {175, "c1", kLongC},
      {200, "c0", nullptr}, {250, "c2", kLongC}, {300, "qa", nullptr},
      {350, "f0", nullptr}, {400, "c3", kLongC}};
  Schema schema;
  SeedSchema(&schema);
  Compiled w = Compile(&schema, {{"qa", kLongA}});
  static constexpr TypeId kCycle[] = {0, 1, 2, 1, 1};  // A B C B B
  std::vector<Event> ev;
  for (int i = 0; i < 300; ++i) {
    const Timestamp t = 1 + 9 * i;
    ev.emplace_back(t, kCycle[i % 5],
                    std::initializer_list<double>{
                        static_cast<double>(i % 7),
                        static_cast<double>((t / 150 + 2) % 8)});
  }
  for (int shards : {2, 4}) {
    // Key 2 (t < 150) and key 3 (150 <= t < 300) land on different
    // shards, so key 2's shard idles through the ops of key 3's phase.
    ShardRouter router = Session::RouterFor(*w.plan, shards).value();
    ASSERT_NE(router.ShardOfKey(2), router.ShardOfKey(3)) << shards;
  }

  auto drive = [&](Session& session, CollectingSink& sink,
                   const std::string& label) {
    size_t pushed = 0;
    for (const Op& op : ops) {
      size_t upto = pushed;
      while (upto < ev.size() && ev[upto].time < op.boundary) ++upto;
      PushRange(session, ev, pushed, upto);
      pushed = upto;
      Result<Timestamp> r = op.add == nullptr
                                ? session.RemoveQuery(op.name)
                                : session.AddQuery(MakeQuery(op.name, op.add));
      HAMLET_CHECK(r.ok());
      EXPECT_EQ(r.value(), op.boundary) << label;
    }
    PushRange(session, ev, pushed, ev.size());
    HAMLET_CHECK(session.AdvanceTo(ev.back().time).ok());
    HAMLET_CHECK(session.Close().ok());
    return Tuples(sink.Take());
  };

  for (EngineKind kind : kAllKinds) {
    const std::string kl = EngineKindName(kind);
    RunConfig config;
    config.kind = kind;
    CollectingSink st_sink;
    Result<std::unique_ptr<Session>> st =
        Session::Open(*w.plan, config, &st_sink);
    ASSERT_TRUE(st.ok()) << kl;
    const std::vector<Tuple> want = drive(*st.value(), st_sink, kl);
    ASSERT_FALSE(want.empty()) << kl;
    for (int shards : {2, 4}) {
      const std::string sl = kl + " shards=" + std::to_string(shards);
      RunConfig sharded_config = config;
      sharded_config.num_shards = shards;
      CollectingSink sink;
      Result<std::unique_ptr<Session>> s =
          Session::Open(*w.plan, sharded_config, &sink);
      ASSERT_TRUE(s.ok()) << sl;
      ExpectSameTuples(want, drive(*s.value(), sink, sl), sl);
    }
  }
}

// Churn ops that merge and split components over eight group keys: each
// added query shares B+ with qa and C+ with qc, so its epoch runs one
// component where the one before ran two, and its removal splits them
// again once it drained. The hand-off re-lays every key's engines onto the
// next epoch's layouts, with fewer engines per key at a merge and more at a
// split. Each activation interval must emit what a fresh session with that
// interval's queries emits, for the HAMLET engines at 1, 2 and 4 shards.
TEST(QueryLifecycleChurnStorm, MergeAndSplitMatchFreshSessions) {
  constexpr char kBridge[] =
      "RETURN COUNT(*) PATTERN SEQ(B+, C+) GROUPBY g WITHIN 100 ms SLIDE 50 ms";
  struct Op {
    Timestamp boundary;  // the op follows every event before it
    std::string name;
    bool add;  // adds a kBridge query, or removes `name`
  };
  const std::vector<Op> ops = {{100, "m0", true},  {200, "m0", false},
                               {300, "m1", true},  {350, "m1", false},
                               {500, "m2", true},  {550, "m2", false}};
  Schema schema;
  SeedSchema(&schema);
  const std::vector<std::pair<std::string, std::string>> opening = {
      {"qa", kQa}, {"qc", kQc}};
  Compiled w = Compile(&schema, opening);
  {
    // The premise: the bridge joins qa's and qc's share groups.
    Compiled merged = Compile(&schema, {{"qa", kQa}, {"qc", kQc},
                                        {"m", kBridge}});
    int bridged = 0;
    for (const ShareGroup& g : merged.plan->share_groups) {
      if (g.members.Contains(2) && g.members.Count() == 2) ++bridged;
    }
    ASSERT_EQ(bridged, 2);
  }
  // Eight keys, one event per tick, and a five-type cycle, so every key
  // sees A, B and C every 40 ticks.
  static constexpr TypeId kCycle[] = {0, 1, 2, 1, 1};  // A B C B B
  std::vector<Event> ev;
  for (int i = 0; i < 800; ++i) {
    ev.emplace_back(Timestamp{1 + i}, kCycle[i % 5],
                    std::initializer_list<double>{
                        static_cast<double>(i % 7),
                        static_cast<double>(i % 8)});
  }

  auto drive = [&](Session& session, CollectingSink& sink,
                   const std::string& label) {
    size_t pushed = 0;
    for (const Op& op : ops) {
      size_t upto = pushed;
      while (upto < ev.size() && ev[upto].time < op.boundary) ++upto;
      PushRange(session, ev, pushed, upto);
      pushed = upto;
      Result<Timestamp> r = op.add
                                ? session.AddQuery(MakeQuery(op.name, kBridge))
                                : session.RemoveQuery(op.name);
      HAMLET_CHECK(r.ok());
      EXPECT_EQ(r.value(), op.boundary) << label;
    }
    PushRange(session, ev, pushed, ev.size());
    HAMLET_CHECK(session.AdvanceTo(ev.back().time).ok());
    HAMLET_CHECK(session.Close().ok());
    return sink.Take();
  };

  for (EngineKind kind : {EngineKind::kHamletDynamic,
                          EngineKind::kHamletStatic,
                          EngineKind::kHamletNoShare}) {
    RunConfig config;
    config.kind = kind;
    // Fresh references, one per activation interval's query set.
    std::vector<std::vector<Emission>> refs;
    std::vector<std::pair<std::string, std::string>> set = opening;
    for (size_t i = 0; i <= ops.size(); ++i) {
      Compiled fresh = Compile(&schema, set);
      refs.push_back(RunPlain(*fresh.plan, config, ev).emissions);
      if (i == ops.size()) break;
      if (ops[i].add) {
        set.emplace_back(ops[i].name, kBridge);
      } else {
        std::erase_if(set,
                      [&](const auto& q) { return q.first == ops[i].name; });
      }
    }
    for (int shards : {1, 2, 4}) {
      const std::string sl = std::string(EngineKindName(kind)) +
                             " shards=" + std::to_string(shards);
      RunConfig sharded_config = config;
      sharded_config.num_shards = shards;
      CollectingSink sink;
      Result<std::unique_ptr<Session>> s =
          Session::Open(*w.plan, sharded_config, &sink);
      ASSERT_TRUE(s.ok()) << sl;
      const std::vector<Emission> churned = drive(*s.value(), sink, sl);
      for (size_t i = 0; i <= ops.size(); ++i) {
        const Timestamp lo = i == 0 ? kMinTs : ops[i - 1].boundary;
        const Timestamp hi = i == ops.size() ? kMaxTs : ops[i].boundary;
        const std::vector<Tuple> want = Tuples(refs[i], lo, hi);
        ASSERT_FALSE(want.empty()) << sl << " interval " << i;
        ExpectSameTuples(want, Tuples(churned, lo, hi),
                         sl + " interval " + std::to_string(i));
      }
    }
  }
}

// A removed query leaves the plan at the first pane boundary after its last
// window closed, with no later op needed: from there on, events of the
// types only it used reach no engine.
TEST(QueryLifecycleDrain, RemovedQueryLeavesPlanAfterLastWindow) {
  Schema schema;
  SeedSchema(&schema);
  Compiled w = Compile(&schema, {{"qa", kQa}, {"qc", kQc}});
  // Interleaved A/B/C events up to t=301, then C events only, which only
  // qc (SEQ(A, C+)) reacts to.
  std::vector<Event> ev = MixedStream(101);
  for (Timestamp t = 304; t < 700; t += 3) {
    ev.emplace_back(t, TypeId{2},
                    std::initializer_list<double>{1.0,
                                                  static_cast<double>(t % 4)});
  }
  auto upto = [&](Timestamp time) {
    return static_cast<size_t>(
        std::partition_point(ev.begin(), ev.end(),
                             [&](const Event& e) { return e.time < time; }) -
        ev.begin());
  };
  for (EngineKind kind :
       {EngineKind::kHamletDynamic, EngineKind::kHamletNoShare}) {
    const std::string kl = EngineKindName(kind);
    RunConfig config;
    config.kind = kind;
    CollectingSink sink;
    Result<std::unique_ptr<Session>> s = Session::Open(*w.plan, config, &sink);
    ASSERT_TRUE(s.ok()) << kl;
    Session& session = *s.value();
    PushRange(session, ev, 0, upto(300));
    Result<Timestamp> removed = session.RemoveQuery("qc");
    ASSERT_TRUE(removed.ok()) << kl;
    ASSERT_EQ(removed.value(), 300) << kl;
    // While qc drains, its open windows still take the C events.
    PushRange(session, ev, upto(300), upto(380));
    const HamletStats draining = session.MetricsSnapshot().hamlet;
    PushRange(session, ev, upto(380), upto(400));
    EXPECT_GT(session.MetricsSnapshot().hamlet.events, draining.events) << kl;
    // qc's last window [250, 350) closed at 350; the boundary at 400 drops
    // it, and the C events after that do no engine work.
    PushRange(session, ev, upto(400), upto(410));
    const HamletStats dropped = session.MetricsSnapshot().hamlet;
    PushRange(session, ev, upto(410), ev.size());
    const HamletStats after = session.MetricsSnapshot().hamlet;
    EXPECT_EQ(after.events, dropped.events) << kl;
    EXPECT_EQ(after.ops, dropped.ops) << kl;
    ASSERT_TRUE(session.Close().ok()) << kl;
  }
}

// The reoptimize knob validation matrix (see ValidateRunConfig).
TEST(RunConfigValidation, ReoptimizeKnobMatrix) {
  RunConfig config;

  RunConfig bad_threshold = config;
  bad_threshold.reoptimize_threshold = 0.0;
  // The threshold is checked even while re-optimization is off — a bad
  // value must not lie dormant until someone flips the cadence on.
  EXPECT_EQ(ValidateRunConfig(bad_threshold).code(),
            StatusCode::kInvalidArgument);
  bad_threshold.reoptimize_threshold = -0.5;
  EXPECT_EQ(ValidateRunConfig(bad_threshold).code(),
            StatusCode::kInvalidArgument);

  RunConfig bad_cadence = config;
  bad_cadence.reoptimize_every_panes = -1;
  EXPECT_EQ(ValidateRunConfig(bad_cadence).code(),
            StatusCode::kInvalidArgument);

  for (EngineKind kind : {EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
                          EngineKind::kGretaPrefix, EngineKind::kTwoStep,
                          EngineKind::kSharon}) {
    RunConfig no_plan = config;
    no_plan.kind = kind;
    no_plan.reoptimize_every_panes = 2;
    EXPECT_EQ(ValidateRunConfig(no_plan).code(), StatusCode::kUnsupported)
        << EngineKindName(kind);
  }

  // Supported combinations.
  for (EngineKind kind :
       {EngineKind::kHamletDynamic, EngineKind::kHamletStatic}) {
    RunConfig ok = config;
    ok.kind = kind;
    ok.reoptimize_every_panes = 4;
    EXPECT_TRUE(ValidateRunConfig(ok).ok()) << EngineKindName(kind);
  }
}

// evict_idle_groups drops exactly the zero-valued emissions of groups
// whose windows all closed, deterministically in event time — so runs at
// every shard count agree bit-identically.
TEST(IdleGroupEviction, DeterministicAcrossShards) {
  Schema schema;
  SeedSchema(&schema);
  Compiled w = Compile(&schema, {{"qa", kQa}, {"qb", kQb}});

  // Two key generations separated by a long quiet gap: groups 0..7 before
  // t=600, groups 8..15 after t=5000.
  std::vector<Event> ev;
  static constexpr TypeId kCycle[] = {0, 1, 1, 2, 1, 2};
  for (int i = 0; i < 200; ++i) {
    ev.emplace_back(Timestamp{1 + 3 * i}, kCycle[i % 6],
                    std::initializer_list<double>{0.0,
                                                  static_cast<double>(i % 8)});
  }
  for (int i = 0; i < 200; ++i) {
    ev.emplace_back(Timestamp{5001 + 3 * i}, kCycle[i % 6],
                    std::initializer_list<double>{
                        0.0, static_cast<double>(8 + i % 8)});
  }

  auto drive = [&](Session& session, CollectingSink& sink) -> RunOut {
    PushRange(session, ev, 0, 200);
    HAMLET_CHECK(session.AdvanceTo(3000).ok());
    PushRange(session, ev, 200, 400);
    HAMLET_CHECK(session.AdvanceTo(6000).ok());
    Result<RunMetrics> m = session.Close();
    HAMLET_CHECK(m.ok());
    return {sink.Take(), m.value()};
  };

  RunConfig evict;
  evict.evict_idle_groups = true;
  CollectingSink one_sink;
  Result<std::unique_ptr<Session>> one =
      Session::Open(*w.plan, evict, &one_sink);
  ASSERT_TRUE(one.ok());
  const RunOut one_out = drive(*one.value(), one_sink);
  EXPECT_GT(one_out.metrics.evicted_idle_groups, 0);

  // Eviction only ever removes emissions a non-evicting run would have
  // made (the idle groups' empty windows) — never adds or alters any.
  RunConfig keep;
  CollectingSink keep_sink;
  Result<std::unique_ptr<Session>> keep_s =
      Session::Open(*w.plan, keep, &keep_sink);
  ASSERT_TRUE(keep_s.ok());
  const RunOut keep_out = drive(*keep_s.value(), keep_sink);
  const std::vector<Tuple> evicted = Tuples(one_out.emissions);
  const std::vector<Tuple> kept = Tuples(keep_out.emissions);
  EXPECT_LT(evicted.size(), kept.size());
  EXPECT_TRUE(std::includes(kept.begin(), kept.end(), evicted.begin(),
                            evicted.end()));

  for (int shards : {2, 4}) {
    RunConfig config = evict;
    config.num_shards = shards;
    CollectingSink sink;
    Result<std::unique_ptr<Session>> s =
        Session::Open(*w.plan, config, &sink);
    ASSERT_TRUE(s.ok());
    const RunOut out = drive(*s.value(), sink);
    ExpectSameTuples(evicted, Tuples(out.emissions),
                     "evict shards=" + std::to_string(shards));
    EXPECT_GT(out.metrics.evicted_idle_groups, 0);
  }
}

}  // namespace
}  // namespace hamlet
