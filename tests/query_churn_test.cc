// Query lifecycle (src/runtime/query_lifecycle.h) and online plan-swap
// tests.
//
// The core property is churn equivalence: AddQuery/RemoveQuery on a LIVE
// session partition the stream into activation intervals [P_i, P_{i+1})
// at pane boundaries, and within each interval the emission set must be
// bit-identical to a fresh session compiled with that interval's query
// set and fed the full stream — for every EngineKind, single-threaded and
// sharded (1/2/4 shards). The test streams keep every group dense (an
// event at least every 12 ticks against a 100 ms window), so window
// instantiation is boundary-driven on both sides and the comparison is
// exact, empty windows included.
//
// Also covers: plan hot swaps (explicit ApplySharingOverrides and the
// online re-optimizer under a burst-shifted stream, with
// RunConfig::clock_override pinning the clock) leaving
// emissions identical to a frozen plan; the lifecycle error contracts
// (unnamed/duplicate adds, schema-extending adds, unknown/last-query
// removes, the kMaxLiveEpochs backpressure cap and recovery); the
// reoptimize knob validation matrix; and evict_idle_groups determinism
// plus the ShardRouter rebalance-map drain it enables.
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
#include "src/runtime/sharded_session.h"

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

template <typename SessionT>
void PushRange(SessionT& s, const std::vector<Event>& ev, size_t from,
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
template <typename SessionT>
ChurnOut DriveChurn(SessionT& s, CollectingSink& sink,
                    const std::vector<Event>& ev, const Query& add) {
  ChurnOut out;
  const size_t a = ev.size() / 3;
  const size_t b = 2 * ev.size() / 3;
  PushRange(s, ev, 0, a);
  Result<Timestamp> p1 = s.AddQuery(add);
  HAMLET_CHECK(p1.ok());
  out.p1 = p1.value();
  PushRange(s, ev, a, b);
  Result<Timestamp> p2 = s.RemoveQuery("qa");
  HAMLET_CHECK(p2.ok());
  out.p2 = p2.value();
  PushRange(s, ev, b, ev.size());
  HAMLET_CHECK(s.AdvanceTo(ev.back().time).ok());
  Result<RunMetrics> m = s.Close();
  HAMLET_CHECK(m.ok());
  out.metrics = m.value();
  out.emissions = sink.Take();
  return out;
}

// The tentpole property: per activation interval, churned emissions are
// bit-identical to a fresh session with that interval's query set, for
// every engine, single-threaded and under 1/2/4 shards.
TEST(QueryChurnEquivalence, AllEnginesAllShardCounts) {
  Schema schema;
  SeedSchema(&schema);
  const std::vector<Event> ev = DenseStream(600);
  const Query add = MakeQuery("qc", kQc);

  Compiled base = Compile(&schema, {{"qa", kQa}, {"qb", kQb}});
  Compiled mid = Compile(&schema, {{"qa", kQa}, {"qb", kQb}, {"qc", kQc}});
  Compiled tail = Compile(&schema, {{"qb", kQb}, {"qc", kQc}});

  for (EngineKind kind : kAllKinds) {
    const std::string kl = EngineKindName(kind);
    RunConfig config;
    config.kind = kind;

    // Fresh full-stream references, one per interval query set.
    const RunOut ref0 = RunPlain(*base.plan, config, ev);
    const RunOut ref1 = RunPlain(*mid.plan, config, ev);
    const RunOut ref2 = RunPlain(*tail.plan, config, ev);

    // Single-threaded churn run establishes the boundaries.
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

    ExpectSameTuples(want, Tuples(churned.emissions), kl + " single-threaded");
    EXPECT_EQ(churned.metrics.queries_added, 1) << kl;
    EXPECT_EQ(churned.metrics.queries_removed, 1) << kl;
    EXPECT_EQ(churned.metrics.events, static_cast<int64_t>(ev.size())) << kl;

    for (int shards : {1, 2, 4}) {
      const std::string sl = kl + " shards=" + std::to_string(shards);
      RunConfig sharded_config = config;
      sharded_config.num_shards = shards;
      CollectingSink sink;
      Result<std::unique_ptr<ShardedSession>> s =
          ShardedSession::Open(*base.plan, sharded_config, &sink);
      ASSERT_TRUE(s.ok()) << sl;
      const ChurnOut out = DriveChurn(*s.value(), sink, ev, add);
      // The front computes activation from the same gate state, so the
      // boundaries must match the single-threaded run exactly.
      EXPECT_EQ(out.p1, churned.p1) << sl;
      EXPECT_EQ(out.p2, churned.p2) << sl;
      ExpectSameTuples(want, Tuples(out.emissions), sl);
      EXPECT_EQ(out.metrics.queries_added, 1) << sl;
      EXPECT_EQ(out.metrics.queries_removed, 1) << sl;
    }
  }
}

// Hot-swap under burst: with the re-optimizer checking every 2 panes over
// a stream whose dominant burst type flips mid-run, emissions stay
// bit-identical to a frozen plan (sharing never changes values),
// single-threaded and sharded. clock_override
// pins the clock so latency accounting cannot perturb scheduling-visible
// state under sanitizer load.
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

    // Sharded: only the front re-optimizes and broadcasts the swap. The
    // mid-stream watermark is the checkpoint where the front waits for
    // the shards' statistics, so the later drift checks are guaranteed
    // to see real evidence.
    RunConfig sharded = reopt;
    sharded.num_shards = 2;
    CollectingSink ssink;
    Result<std::unique_ptr<ShardedSession>> sh =
        ShardedSession::Open(*w.plan, sharded, &ssink);
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
  }
}

// Deterministic swap-path coverage: force a mid-stream plan swap that
// splits the B+ share group and check the swap is invisible in results.
TEST(PlanHotSwap, ForcedOverrideKeepsEmissionsIdentical) {
  Schema schema;
  SeedSchema(&schema);
  const std::vector<Event> ev = DenseStream(600);
  Compiled w = Compile(&schema, {{"qa", kQa}, {"qb", kQb}, {"qc", kQc}});
  ASSERT_FALSE(w.plan->share_groups.empty());
  const ShareGroup& sg = w.plan->share_groups.front();
  QueryId keep = -1;
  sg.members.ForEach([&](QueryId q) {
    if (keep < 0) keep = q;
  });
  ASSERT_GE(keep, 0);
  const SharingOverride unshare{sg.type, sg.members, QuerySet::Single(keep)};

  for (EngineKind kind : {EngineKind::kHamletDynamic,
                          EngineKind::kHamletStatic,
                          EngineKind::kGretaGraph}) {
    const std::string kl = EngineKindName(kind);
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
    ASSERT_TRUE(s.value()->AdvanceTo(ev.back().time).ok()) << kl;
    Result<RunMetrics> m = s.value()->Close();
    ASSERT_TRUE(m.ok()) << kl;
    ExpectSameTuples(Tuples(ref.emissions), Tuples(sink.Take()), kl);
    EXPECT_EQ(m.value().plan_swaps, 1) << kl;

    RunConfig sharded_config = config;
    sharded_config.num_shards = 2;
    CollectingSink ssink;
    Result<std::unique_ptr<ShardedSession>> sh =
        ShardedSession::Open(*w.plan, sharded_config, &ssink);
    ASSERT_TRUE(sh.ok()) << kl;
    PushRange(*sh.value(), ev, 0, ev.size() / 2);
    Result<Timestamp> ssw =
        sh.value()->ApplySharingOverrides(std::span(&unshare, 1));
    ASSERT_TRUE(ssw.ok()) << kl;
    EXPECT_EQ(ssw.value(), swapped.value()) << kl;
    PushRange(*sh.value(), ev, ev.size() / 2, ev.size());
    ASSERT_TRUE(sh.value()->AdvanceTo(ev.back().time).ok()) << kl;
    Result<RunMetrics> sm = sh.value()->Close();
    ASSERT_TRUE(sm.ok()) << kl;
    ExpectSameTuples(Tuples(ref.emissions), Tuples(ssink.Take()),
                     kl + " sharded");
    EXPECT_EQ(sm.value().plan_swaps, 1) << kl;
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

  // Sharded front pre-validates without disturbing the workers.
  RunConfig sharded_config;
  sharded_config.num_shards = 2;
  CollectingSink ssink;
  Result<std::unique_ptr<ShardedSession>> sh =
      ShardedSession::Open(*w.plan, sharded_config, &ssink);
  ASSERT_TRUE(sh.ok());
  EXPECT_FALSE(sh.value()->AddQuery(duplicate).ok());
  EXPECT_FALSE(sh.value()->RemoveQuery("nope").ok());
  EXPECT_TRUE(sh.value()->Push(Event(1, 0, {0.0, 0.0})).ok());
  EXPECT_TRUE(sh.value()->Close().ok());
}

// The kMaxLiveEpochs cap: churn faster than old epochs can drain their
// 1000 ms windows and AddQuery applies backpressure; draining the stream
// recovers.
TEST(QueryLifecycleErrors, EpochCapBackpressureAndRecovery) {
  constexpr char kLongA[] =
      "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g WITHIN 1000 ms SLIDE 50 ms";
  constexpr char kLongC[] =
      "RETURN COUNT(*) PATTERN SEQ(A, C+) GROUPBY g WITHIN 1000 ms SLIDE 50 ms";
  Schema schema;
  SeedSchema(&schema);
  Compiled w = Compile(&schema, {{"qa", kLongA}});
  RunConfig config;
  CollectingSink sink;
  Result<std::unique_ptr<Session>> s = Session::Open(*w.plan, config, &sink);
  ASSERT_TRUE(s.ok());
  Session& session = *s.value();

  bool exhausted = false;
  Timestamp t = 0;
  for (int i = 0; i < 16 && !exhausted; ++i) {
    t = 1 + 60 * i;
    ASSERT_TRUE(session.Push(Event(t, /*B=*/1, {0.0, 0.0})).ok());
    Result<Timestamp> r =
        session.AddQuery(MakeQuery("add" + std::to_string(i), kLongC));
    if (r.ok()) continue;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    exhausted = true;
  }
  ASSERT_TRUE(exhausted);
  EXPECT_EQ(session.live_epochs(), QueryLifecycle::kMaxLiveEpochs);

  // Advancing past every open window drains the superseded epochs and
  // lifts the cap.
  ASSERT_TRUE(session.AdvanceTo(t + 5000).ok());
  EXPECT_EQ(session.live_epochs(), 1);
  EXPECT_TRUE(session.AddQuery(MakeQuery("late", kLongC)).ok());
  EXPECT_TRUE(session.Close().ok());
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
// whose windows all closed, deterministically in event time — so plain
// and sharded runs agree bit-identically — and enables the ShardRouter
// rebalance-map drain surfaced by RunMetrics::rebalance_map_size.
TEST(IdleGroupEviction, DeterministicAcrossShardsAndDrainsRouter) {
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

  auto drive = [&](auto& session, CollectingSink& sink) -> RunOut {
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
  CollectingSink plain_sink;
  Result<std::unique_ptr<Session>> plain =
      Session::Open(*w.plan, evict, &plain_sink);
  ASSERT_TRUE(plain.ok());
  const RunOut plain_out = drive(*plain.value(), plain_sink);
  EXPECT_GT(plain_out.metrics.evicted_idle_groups, 0);

  // Eviction only ever removes emissions a non-evicting run would have
  // made (the idle groups' empty windows) — never adds or alters any.
  RunConfig keep;
  CollectingSink keep_sink;
  Result<std::unique_ptr<Session>> keep_s =
      Session::Open(*w.plan, keep, &keep_sink);
  ASSERT_TRUE(keep_s.ok());
  const RunOut keep_out = drive(*keep_s.value(), keep_sink);
  const std::vector<Tuple> evicted = Tuples(plain_out.emissions);
  const std::vector<Tuple> kept = Tuples(keep_out.emissions);
  EXPECT_LT(evicted.size(), kept.size());
  EXPECT_TRUE(std::includes(kept.begin(), kept.end(), evicted.begin(),
                            evicted.end()));

  for (int shards : {2, 4}) {
    RunConfig config = evict;
    config.num_shards = shards;
    CollectingSink sink;
    Result<std::unique_ptr<ShardedSession>> s =
        ShardedSession::Open(*w.plan, config, &sink);
    ASSERT_TRUE(s.ok());
    const RunOut out = drive(*s.value(), sink);
    ExpectSameTuples(evicted, Tuples(out.emissions),
                     "evict shards=" + std::to_string(shards));
    EXPECT_GT(out.metrics.evicted_idle_groups, 0);
  }

  // Rebalance-map drain: with skew routing on, the watermark checkpoints
  // retire assignments whose windows all closed, so the first key
  // generation is gone from the map by the mid-run checkpoint and the
  // final map never holds both generations.
  RunConfig routed = evict;
  routed.num_shards = 2;
  routed.shard_rebalance_threshold = 1;
  CollectingSink rsink;
  Result<std::unique_ptr<ShardedSession>> rs =
      ShardedSession::Open(*w.plan, routed, &rsink);
  ASSERT_TRUE(rs.ok());
  PushRange(*rs.value(), ev, 0, 200);
  ASSERT_TRUE(rs.value()->AdvanceTo(3000).ok());
  EXPECT_EQ(rs.value()->MetricsSnapshot().rebalance_map_size, 0);
  PushRange(*rs.value(), ev, 200, 400);
  EXPECT_GT(rs.value()->MetricsSnapshot().rebalance_map_size, 0);
  ASSERT_TRUE(rs.value()->AdvanceTo(6000).ok());
  Result<RunMetrics> rm = rs.value()->Close();
  ASSERT_TRUE(rm.ok());
  EXPECT_LE(rm.value().rebalance_map_size, 8);
  ExpectSameTuples(evicted, Tuples(rsink.Take()), "evict rebalanced");
}

}  // namespace
}  // namespace hamlet
