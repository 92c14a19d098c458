// StreamExecutor tests: pane management, tumbling/sliding windows, group-by
// partitioning, and cross-engine agreement. The reference is the brute-force
// enumerator applied per (query, group, window instance).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <span>

#include "src/brute/enumerator.h"
#include "src/common/rng.h"
#include "src/query/parser.h"
#include "src/runtime/executor.h"
#include "src/runtime/sharded_session.h"
#include "src/stream/stream_builder.h"

namespace hamlet {
namespace {

// Expected emissions computed per window instance with the brute-force
// enumerator.
std::map<std::tuple<QueryId, int64_t, Timestamp>, double> Reference(
    const WorkloadPlan& plan, const EventVector& events) {
  std::map<std::tuple<QueryId, int64_t, Timestamp>, double> out;
  if (events.empty()) return out;
  Timestamp horizon = 0;
  for (const ExecQuery& eq : plan.exec_queries)
    horizon = std::max(horizon, eq.window.within);
  const Timestamp t_max = events.back().time + horizon;
  for (QueryId query = 0; query < plan.workload->size(); ++query) {
    const CompositionRule& rule =
        plan.compositions[static_cast<size_t>(query)];
    const ExecQuery& first =
        plan.exec_queries[static_cast<size_t>(rule.exec_ids[0])];
    const WindowSpec& spec = first.window;
    const AttrId group_by = first.group_by;
    // Group keys present in the stream.
    std::vector<int64_t> keys;
    for (const Event& e : events) {
      int64_t k = group_by == Schema::kInvalidId
                      ? 0
                      : static_cast<int64_t>(std::llround(e.attr(group_by)));
      if (std::find(keys.begin(), keys.end(), k) == keys.end())
        keys.push_back(k);
    }
    for (int64_t key : keys) {
      for (Timestamp ws = 0; ws < t_max; ws += spec.slide) {
        EventVector in_window;
        for (const Event& e : events) {
          if (e.time < ws || e.time >= ws + spec.within) continue;
          int64_t k = group_by == Schema::kInvalidId
                          ? 0
                          : static_cast<int64_t>(
                                std::llround(e.attr(group_by)));
          if (k == key) in_window.push_back(e);
        }
        std::vector<double> branch_values;
        for (int exec : rule.exec_ids) {
          branch_values.push_back(
              BruteForceEval(plan.exec_queries[static_cast<size_t>(exec)],
                             in_window)
                  .value()
                  .value);
        }
        out[{query, key, ws}] = ComposeQueryValue(rule, branch_values);
      }
    }
  }
  return out;
}

// The executor only emits windows it opened (i.e. covering panes at/after
// the first event); compare on the intersection, requiring every emission to
// match the reference.
void ExpectEmissionsMatch(const RunOutput& run,
                          const std::map<std::tuple<QueryId, int64_t, Timestamp>,
                                         double>& ref,
                          const std::string& label) {
  ASSERT_GT(run.emissions.size(), 0u) << label;
  for (const Emission& e : run.emissions) {
    auto it = ref.find({e.query, e.group_key, e.window_start});
    ASSERT_NE(it, ref.end())
        << label << " unexpected window q" << e.query << " g" << e.group_key
        << " ws=" << e.window_start;
    EXPECT_DOUBLE_EQ(e.value, it->second)
        << label << " q" << e.query << " g" << e.group_key
        << " ws=" << e.window_start;
  }
}

class RuntimeFixture : public ::testing::Test {
 protected:
  void Add(const std::string& text) {
    Query q = ParseQuery(text).value();
    ASSERT_TRUE(workload_.Add(q).ok());
  }
  WorkloadPlan Analyze() {
    Result<WorkloadPlan> plan = AnalyzeWorkload(workload_);
    HAMLET_CHECK(plan.ok());
    return std::move(plan).value();
  }
  // Random stream: timestamps 1ms apart starting at 1, types from alphabet,
  // attrs: v (0), g (1) in [0, groups).
  EventVector RandomStream(Rng& rng, int len,
                           const std::vector<const char*>& alphabet,
                           int groups, Timestamp spacing = 1) {
    EventVector ev;
    Timestamp t = 1;
    for (int i = 0; i < len; ++i) {
      Event e(t, schema_.AddType(alphabet[rng.NextBelow(alphabet.size())]));
      e.set_attr(0, static_cast<double>(rng.NextInt(0, 9)));
      e.set_attr(1, static_cast<double>(rng.NextInt(0, groups - 1)));
      ev.push_back(e);
      t += 1 + static_cast<Timestamp>(rng.NextBelow(
               static_cast<uint64_t>(spacing)));
    }
    return ev;
  }
  Schema schema_;
  Workload workload_{&schema_};
};

TEST_F(RuntimeFixture, TumblingWindowsAllEngines) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 40 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 40 ms");
  WorkloadPlan plan = Analyze();
  Rng rng(2024);
  EventVector ev = RandomStream(rng, 60, {"A", "B", "C"}, 1, 3);
  auto ref = Reference(plan, ev);
  for (EngineKind kind :
       {EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
        EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
        EngineKind::kGretaPrefix, EngineKind::kTwoStep, EngineKind::kSharon}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(plan, config);
    RunOutput run = executor.Run(ev);
    ExpectEmissionsMatch(run, ref, EngineKindName(kind));
    EXPECT_EQ(run.metrics.events, 60);
    EXPECT_GT(run.metrics.throughput_eps, 0);
  }
}

TEST_F(RuntimeFixture, SlidingWindowsReplicateCorrectly) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 30 ms SLIDE 10 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 30 ms SLIDE 10 ms");
  WorkloadPlan plan = Analyze();
  EXPECT_EQ(plan.pane_size, 10);
  Rng rng(7);
  EventVector ev = RandomStream(rng, 50, {"A", "B", "C"}, 1, 3);
  auto ref = Reference(plan, ev);
  for (EngineKind kind : {EngineKind::kHamletDynamic, EngineKind::kGretaGraph,
                          EngineKind::kTwoStep}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(plan, config);
    ExpectEmissionsMatch(executor.Run(ev), ref, EngineKindName(kind));
  }
}

TEST_F(RuntimeFixture, DiverseWindowsShareViaPanes) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  // Different tumbling windows, pane = gcd = 20ms; the HAMLET component
  // still shares B+ across the queries.
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 40 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 60 ms");
  WorkloadPlan plan = Analyze();
  EXPECT_EQ(plan.pane_size, 20);
  ASSERT_EQ(plan.share_groups.size(), 1u);
  Rng rng(99);
  EventVector ev = RandomStream(rng, 80, {"A", "B", "C"}, 1, 3);
  auto ref = Reference(plan, ev);
  for (EngineKind kind : {EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
                          EngineKind::kGretaGraph}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(plan, config);
    RunOutput run = executor.Run(ev);
    ExpectEmissionsMatch(run, ref, EngineKindName(kind));
    if (kind == EngineKind::kHamletStatic) {
      EXPECT_GT(run.metrics.hamlet.bursts_shared, 0);
    }
  }
}

TEST_F(RuntimeFixture, GroupByPartitionsStreams) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g WITHIN 50 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(C, B+) GROUPBY g WITHIN 50 ms");
  WorkloadPlan plan = Analyze();
  Rng rng(31);
  EventVector ev = RandomStream(rng, 90, {"A", "B", "C"}, 3, 2);
  auto ref = Reference(plan, ev);
  for (EngineKind kind : {EngineKind::kHamletDynamic, EngineKind::kGretaGraph,
                          EngineKind::kSharon}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(plan, config);
    ExpectEmissionsMatch(executor.Run(ev), ref, EngineKindName(kind));
  }
}

TEST_F(RuntimeFixture, SumAndAvgAcrossWindows) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN SUM(B.v) PATTERN SEQ(A, B+) WITHIN 30 ms");
  Add("RETURN AVG(B.v) PATTERN SEQ(C, B+) WITHIN 30 ms");
  WorkloadPlan plan = Analyze();
  Rng rng(55);
  EventVector ev = RandomStream(rng, 70, {"A", "B", "C"}, 1, 2);
  auto ref = Reference(plan, ev);
  for (EngineKind kind : {EngineKind::kHamletDynamic, EngineKind::kGretaGraph,
                          EngineKind::kTwoStep, EngineKind::kSharon}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(plan, config);
    ExpectEmissionsMatch(executor.Run(ev), ref, EngineKindName(kind));
  }
}

TEST_F(RuntimeFixture, OrCompositionAcrossComponents) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN SEQ(A,B+) OR SEQ(C,D+) WITHIN 40 ms");
  WorkloadPlan plan = Analyze();
  Rng rng(66);
  EventVector ev = RandomStream(rng, 60, {"A", "B", "C", "D"}, 1, 2);
  auto ref = Reference(plan, ev);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(plan, config);
  ExpectEmissionsMatch(executor.Run(ev), ref, "or_composition");
}

// How a stream reaches the session: per-event Push, one PushBatch, or
// ragged PushBatch chunks of 1-7 events.
enum class Feed { kPerEvent, kOneBatch, kRagged };

template <typename SessionT>
RunOutput FeedAndClose(SessionT& session, CollectingSink& sink,
                       const EventVector& ev, Feed feed) {
  size_t i = 0;
  int chunk = 0;
  while (i < ev.size()) {
    Status s;
    if (feed == Feed::kPerEvent) {
      s = session.Push(ev[i]);
      ++i;
    } else {
      const size_t len = feed == Feed::kOneBatch
                             ? ev.size()
                             : std::min<size_t>(chunk % 7 + 1, ev.size() - i);
      s = session.PushBatch(std::span<const Event>(ev.data() + i, len));
      i += len;
      ++chunk;
    }
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  RunOutput out;
  out.metrics = session.Close().value();
  out.emissions = sink.Take();
  return out;
}

// The runtime's one dispatch path against the oracle: event predicates
// (the stream carries a NaN predicate attribute, which fails every
// comparison but !=), sliding windows and GROUPBY, for every engine kind,
// fed per event (1-row runs), as one batch, and in ragged chunks, on a
// plain Session and on 2 shards.
TEST_F(RuntimeFixture, PredicatedStreamEveryFeedMatchesOracle) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v > 3 GROUPBY g "
      "WITHIN 30 ms SLIDE 10 ms");
  Add("RETURN SUM(B.v) PATTERN SEQ(C, B+) WHERE B.v <= 7 GROUPBY g "
      "WITHIN 30 ms SLIDE 10 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v != 5 GROUPBY g "
      "WITHIN 30 ms SLIDE 10 ms");
  WorkloadPlan plan = Analyze();
  Rng rng(4242);
  EventVector ev = RandomStream(rng, 90, {"A", "B", "C"}, 3, 2);
  const TypeId b = schema_.FindType("B");
  auto nan_b =
      std::find_if(ev.begin() + static_cast<std::ptrdiff_t>(ev.size() / 2),
                   ev.end(), [&](const Event& e) { return e.type == b; });
  ASSERT_NE(nan_b, ev.end());
  nan_b->set_attr(0, std::numeric_limits<double>::quiet_NaN());
  auto ref = Reference(plan, ev);
  for (EngineKind kind :
       {EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
        EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
        EngineKind::kGretaPrefix, EngineKind::kTwoStep, EngineKind::kSharon}) {
    for (Feed feed : {Feed::kPerEvent, Feed::kOneBatch, Feed::kRagged}) {
      const std::string label = std::string(EngineKindName(kind)) + "/feed" +
                                std::to_string(static_cast<int>(feed));
      RunConfig config;
      config.kind = kind;
      CollectingSink plain_sink;
      Result<std::unique_ptr<Session>> plain =
          Session::Open(plan, config, &plain_sink);
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();
      RunOutput single = FeedAndClose(*plain.value(), plain_sink, ev, feed);
      ExpectEmissionsMatch(single, ref, label + "/session");
      config.num_shards = 2;
      CollectingSink sharded_sink;
      Result<std::unique_ptr<ShardedSession>> sharded =
          ShardedSession::Open(plan, config, &sharded_sink);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      RunOutput two = FeedAndClose(*sharded.value(), sharded_sink, ev, feed);
      ExpectEmissionsMatch(two, ref, label + "/N=2");
      EXPECT_EQ(single.emissions.size(), two.emissions.size()) << label;
    }
  }
}

// Window-bounded scans: one edge-predicate query shares B+ with plain
// queries (a kPerEventSnapshot group) under mixed tumbling and sliding
// windows of 10-40 ms over ~18 panes, so retained history spans several
// panes and each scan must start exactly at its own window's first pane.
// Fed per event and as one batch, under every HAMLET sharing policy.
TEST_F(RuntimeFixture, EdgeSharerScansAcrossPanesMatchOracle) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE prev.v <= next.v "
      "WITHIN 40 ms SLIDE 10 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 20 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v > 2 "
      "WITHIN 30 ms SLIDE 10 ms");
  Add("RETURN COUNT(*) PATTERN B+ WITHIN 10 ms");
  WorkloadPlan plan = Analyze();
  EXPECT_EQ(plan.pane_size, 10);
  ASSERT_EQ(plan.share_groups.size(), 1u);
  EXPECT_EQ(plan.share_groups[0].mode, PropagationMode::kPerEventSnapshot);
  Rng rng(1414);
  EventVector ev = RandomStream(rng, 120, {"A", "B", "C"}, 1, 2);
  ASSERT_GT(ev.back().time, 150);
  auto ref = Reference(plan, ev);
  for (EngineKind kind : {EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
                          EngineKind::kHamletNoShare}) {
    for (Feed feed : {Feed::kPerEvent, Feed::kOneBatch}) {
      const std::string label = std::string(EngineKindName(kind)) + "/feed" +
                                std::to_string(static_cast<int>(feed));
      RunConfig config;
      config.kind = kind;
      CollectingSink sink;
      Result<std::unique_ptr<Session>> session =
          Session::Open(plan, config, &sink);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      RunOutput run = FeedAndClose(*session.value(), sink, ev, feed);
      ExpectEmissionsMatch(run, ref, label);
      if (kind == EngineKind::kHamletStatic) {
        EXPECT_GT(run.metrics.hamlet.event_snapshots, 0) << label;
      }
    }
  }
}

TEST_F(RuntimeFixture, TwoStepBudgetProducesDnf) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN B+ WITHIN 100 ms");
  WorkloadPlan plan = Analyze();
  StreamBuilder sb(&schema_);
  sb.AddRun(40, "B");  // 2^40 trends: hopeless for construction
  RunConfig config;
  config.kind = EngineKind::kTwoStep;
  config.two_step_budget = 10'000;
  StreamExecutor executor(plan, config);
  RunOutput run = executor.Run(sb.Take());
  EXPECT_GT(run.metrics.dnf_windows, 0);
}

TEST_F(RuntimeFixture, MetricsArePopulated) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 50 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 50 ms");
  WorkloadPlan plan = Analyze();
  Rng rng(5);
  EventVector ev = RandomStream(rng, 200, {"A", "B", "C"}, 1, 1);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(plan, config);
  RunOutput run = executor.Run(ev);
  EXPECT_EQ(run.metrics.events, 200);
  EXPECT_GT(run.metrics.emissions, 0);
  EXPECT_GT(run.metrics.peak_memory_bytes, 0);
  EXPECT_GT(run.metrics.decisions, 0);
  EXPECT_GE(run.metrics.avg_latency_seconds, 0);
  EXPECT_GE(run.metrics.max_latency_seconds, run.metrics.avg_latency_seconds);
}

}  // namespace
}  // namespace hamlet
