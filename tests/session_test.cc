// Session API tests.
//
// The core property is chunk equivalence: for every EngineKind, pushing a
// stream through a Session in arbitrary batch sizes (including 1-event
// chunks, interleaved and trailing AdvanceTo watermarks) yields emissions
// and deterministic metrics identical to batch StreamExecutor::Run on the
// same stream. Also covers the fail-fast Status contracts (config
// validation at Open, out-of-order rejection, watermark regression, use
// after Close) and the sink implementations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <span>
#include <string>

#include "src/benchlib/workloads.h"
#include "src/common/rng.h"
#include "src/query/parser.h"
#include "src/runtime/executor.h"
#include "src/stream/stream_builder.h"

namespace hamlet {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
    EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
    EngineKind::kGretaPrefix,   EngineKind::kTwoStep,
    EngineKind::kSharon};

struct ChunkedResult {
  std::vector<Emission> emissions;
  RunMetrics metrics;
};

// Pushes `ev` in random-sized chunks (1..7 events, singles via Push, larger
// via PushBatch), issues occasional watermarks, a trailing AdvanceTo past
// the last event, then Close.
ChunkedResult RunChunked(const WorkloadPlan& plan, const RunConfig& config,
                         const EventVector& ev, uint64_t chunk_seed) {
  CollectingSink sink;
  Result<std::unique_ptr<Session>> session =
      Session::Open(plan, config, &sink);
  HAMLET_CHECK(session.ok());
  Rng rng(chunk_seed);
  size_t i = 0;
  while (i < ev.size()) {
    size_t len = 1 + static_cast<size_t>(rng.NextBelow(7));
    len = std::min(len, ev.size() - i);
    Status s = len == 1 ? session.value()->Push(ev[i])
                        : session.value()->PushBatch(
                              std::span<const Event>(ev.data() + i, len));
    EXPECT_TRUE(s.ok()) << s.ToString();
    i += len;
    // Interleaved watermark just before the next event: genuinely advances
    // panes the batch path would only reach while processing that event.
    if (i < ev.size() && rng.NextBelow(4) == 0) {
      EXPECT_TRUE(session.value()->AdvanceTo(ev[i].time - 1).ok());
    }
  }
  // Trailing watermark at the last event time (a later one would open and
  // close windows batch Run() never reaches).
  if (!ev.empty()) {
    EXPECT_TRUE(session.value()->AdvanceTo(ev.back().time).ok());
  }
  ChunkedResult out;
  out.metrics = session.value()->Close().value();
  out.emissions = sink.Take();
  return out;
}

// Exact (bitwise) equality, except that two NaNs compare equal.
void ExpectSameValue(double a, double b, const std::string& label) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b) << label;
}

void ExpectIdentical(const RunOutput& batch, const ChunkedResult& chunked,
                     const std::string& label) {
  ASSERT_EQ(batch.emissions.size(), chunked.emissions.size()) << label;
  for (size_t i = 0; i < batch.emissions.size(); ++i) {
    const Emission& a = batch.emissions[i];
    const Emission& b = chunked.emissions[i];
    const std::string at = label + " emission #" + std::to_string(i);
    EXPECT_EQ(a.query, b.query) << at;
    EXPECT_EQ(a.query_name, b.query_name) << at;
    EXPECT_EQ(a.group_key, b.group_key) << at;
    EXPECT_EQ(a.window_start, b.window_start) << at;
    EXPECT_EQ(a.window_end, b.window_end) << at;
    ExpectSameValue(a.value, b.value, at);
  }
  const RunMetrics& m = batch.metrics;
  const RunMetrics& c = chunked.metrics;
  EXPECT_EQ(m.events, c.events) << label;
  EXPECT_EQ(m.emissions, c.emissions) << label;
  EXPECT_EQ(m.dnf_windows, c.dnf_windows) << label;
  EXPECT_EQ(m.decisions, c.decisions) << label;
  EXPECT_EQ(m.peak_memory_bytes, c.peak_memory_bytes) << label;
  EXPECT_EQ(m.hamlet.events, c.hamlet.events) << label;
  EXPECT_EQ(m.hamlet.bursts_total, c.hamlet.bursts_total) << label;
  EXPECT_EQ(m.hamlet.bursts_shared, c.hamlet.bursts_shared) << label;
  EXPECT_EQ(m.hamlet.graphlets_opened, c.hamlet.graphlets_opened) << label;
  EXPECT_EQ(m.hamlet.graphlets_shared, c.hamlet.graphlets_shared) << label;
  EXPECT_EQ(m.hamlet.snapshots_created, c.hamlet.snapshots_created) << label;
  EXPECT_EQ(m.hamlet.event_snapshots, c.hamlet.event_snapshots) << label;
  EXPECT_EQ(m.hamlet.splits, c.hamlet.splits) << label;
  EXPECT_EQ(m.hamlet.merges, c.hamlet.merges) << label;
  EXPECT_EQ(m.hamlet.ops, c.hamlet.ops) << label;
}

TEST(SessionChunkEquivalence, Workload1AllEngines) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  GeneratorConfig gen;
  gen.seed = 77;
  gen.events_per_minute = 600;
  gen.duration_minutes = 1;
  gen.num_groups = 3;
  gen.burstiness = 0.6;
  gen.max_burst = 8;
  EventVector ev = bw.generator->Generate(gen);

  uint64_t chunk_seed = 1;
  for (EngineKind kind : kAllKinds) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(*bw.plan, config);
    RunOutput batch = executor.Run(ev);
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
    ASSERT_GT(batch.emissions.size(), 0u) << EngineKindName(kind);
    ChunkedResult chunked =
        RunChunked(*bw.plan, config, ev, /*chunk_seed=*/chunk_seed++);
    ExpectIdentical(batch, chunked, EngineKindName(kind));
  }
}

TEST(SessionChunkEquivalence, Workload2AllEngines) {
  BenchWorkload bw = MakeWorkload2(8);
  GeneratorConfig gen;
  gen.seed = 5;
  gen.events_per_minute = 100;
  gen.duration_minutes = 6;
  gen.num_groups = 2;
  gen.burstiness = 0.9;
  gen.max_burst = 40;
  EventVector ev = bw.generator->Generate(gen);

  uint64_t chunk_seed = 100;
  for (EngineKind kind : kAllKinds) {
    RunConfig config;
    config.kind = kind;
    // Bursty 5-20 min windows make full trend construction hopeless; a
    // small budget DNFs quickly and identically on both paths.
    config.two_step_budget = 5'000;
    StreamExecutor executor(*bw.plan, config);
    RunOutput batch = executor.Run(ev);
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
    ChunkedResult chunked =
        RunChunked(*bw.plan, config, ev, /*chunk_seed=*/chunk_seed++);
    ExpectIdentical(batch, chunked, EngineKindName(kind));
  }
}

// Sliding windows exercise the pane-replication path under chunked pushes.
TEST(SessionChunkEquivalence, SlidingWindows) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload(&schema);
  for (const char* text :
       {"RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 30 ms SLIDE 10 ms",
        "RETURN SUM(B.v) PATTERN SEQ(C, B+) WITHIN 30 ms SLIDE 10 ms"}) {
    ASSERT_TRUE(workload.Add(ParseQuery(text).value()).ok());
  }
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  Rng rng(17);
  EventVector ev;
  Timestamp t = 1;
  const char* alphabet[] = {"A", "B", "C"};
  for (int i = 0; i < 120; ++i) {
    Event e(t, schema.AddType(alphabet[rng.NextBelow(3)]));
    e.set_attr(0, static_cast<double>(rng.NextInt(0, 9)));
    e.set_attr(1, 0.0);
    ev.push_back(e);
    t += 1 + static_cast<Timestamp>(rng.NextBelow(3));
  }
  for (EngineKind kind : kAllKinds) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(plan, config);
    RunOutput batch = executor.Run(ev);
    ChunkedResult chunked = RunChunked(plan, config, ev, /*chunk_seed=*/9);
    ExpectIdentical(batch, chunked,
                    std::string("sliding/") + EngineKindName(kind));
  }
}

class SessionContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_.AddAttr("v");
    schema_.AddAttr("g");
    ASSERT_TRUE(
        workload_
            .Add(ParseQuery(
                     "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 100 ms")
                     .value())
            .ok());
    plan_ = std::make_unique<WorkloadPlan>(
        AnalyzeWorkload(workload_).value());
  }

  Event Make(Timestamp t, const char* type) {
    Event e(t, schema_.AddType(type));
    e.set_attr(0, 1.0);
    e.set_attr(1, 0.0);
    return e;
  }

  Schema schema_;
  Workload workload_{&schema_};
  std::unique_ptr<WorkloadPlan> plan_;
};

TEST_F(SessionContractTest, OpenValidatesConfig) {
  RunConfig bad_sharon;
  bad_sharon.sharon_max_length = 0;
  Result<std::unique_ptr<Session>> r1 =
      Session::Open(*plan_, bad_sharon, nullptr);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r1.status().message().find("sharon_max_length"),
            std::string::npos);

  RunConfig bad_budget;
  bad_budget.two_step_budget = 0;
  Result<std::unique_ptr<Session>> r2 =
      Session::Open(*plan_, bad_budget, nullptr);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r2.status().message().find("two_step_budget"),
            std::string::npos);

  // Run() surfaces the same validation failure through RunOutput::status.
  StreamExecutor executor(*plan_, bad_sharon);
  RunOutput out = executor.Run({});
  EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionContractTest, PushRejectsOutOfOrderNamingTimestamp) {
  CollectingSink sink;
  Result<std::unique_ptr<Session>> session =
      Session::Open(*plan_, RunConfig(), &sink);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Push(Make(50, "A")).ok());
  Status s = session.value()->Push(Make(20, "B"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("t=20"), std::string::npos);
  // The engines require strictly increasing times, so duplicates are
  // rejected too — and the session remains usable after a rejected push.
  EXPECT_EQ(session.value()->Push(Make(50, "B")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(session.value()->Push(Make(60, "B")).ok());
  RunMetrics m = session.value()->Close().value();
  EXPECT_EQ(m.events, 2);
}

TEST_F(SessionContractTest, RunReportsOutOfOrderStream) {
  EventVector ev = {Make(50, "A"), Make(20, "B")};
  StreamExecutor executor(*plan_, RunConfig());
  RunOutput out = executor.Run(ev);
  EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status.message().find("t=20"), std::string::npos);
  EXPECT_EQ(out.metrics.events, 1);  // the valid prefix was processed
}

TEST_F(SessionContractTest, WatermarkContracts) {
  Result<std::unique_ptr<Session>> session =
      Session::Open(*plan_, RunConfig(), nullptr);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->AdvanceTo(500).ok());
  // Watermarks must not regress, and events may not arrive behind one.
  EXPECT_EQ(session.value()->AdvanceTo(400).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.value()->Push(Make(499, "A")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(session.value()->Push(Make(500, "A")).ok());
}

TEST_F(SessionContractTest, AdvanceToClosesWindowsWithoutEvents) {
  std::vector<Emission> seen;
  CallbackSink sink([&](const Emission& e) { seen.push_back(e); });
  Result<std::unique_ptr<Session>> session =
      Session::Open(*plan_, RunConfig(), &sink);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Push(Make(10, "A")).ok());
  ASSERT_TRUE(session.value()->Push(Make(20, "B")).ok());
  EXPECT_TRUE(seen.empty());  // window [0, 100) still open
  ASSERT_TRUE(session.value()->AdvanceTo(100).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].window_start, 0);
  EXPECT_EQ(seen[0].window_end, 100);
  EXPECT_EQ(seen[0].query_name, workload_.query(seen[0].query).name);
  EXPECT_DOUBLE_EQ(seen[0].value, 1.0);
  ASSERT_TRUE(session.value()->Close().ok());
}

// Everything after Close — a second Close included — fails fast with
// kFailedPrecondition instead of relying on caller discipline; the final
// metrics stay readable through MetricsSnapshot.
TEST_F(SessionContractTest, UseAfterCloseIsFailedPrecondition) {
  Result<std::unique_ptr<Session>> session =
      Session::Open(*plan_, RunConfig(), nullptr);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Push(Make(10, "A")).ok());
  Result<RunMetrics> first = session.value()->Close();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(session.value()->Push(Make(20, "B")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.value()->PushBatch({}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.value()->AdvanceTo(200).code(),
            StatusCode::kFailedPrecondition);
  Result<RunMetrics> second = session.value()->Close();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  RunMetrics snapshot = session.value()->MetricsSnapshot();
  EXPECT_EQ(first.value().events, snapshot.events);
  EXPECT_EQ(first.value().emissions, snapshot.emissions);
  EXPECT_EQ(first.value().elapsed_seconds, snapshot.elapsed_seconds);
}

TEST_F(SessionContractTest, CsvSinkStreamsRows) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  {
    CsvSink sink(tmp);
    Result<std::unique_ptr<Session>> session =
        Session::Open(*plan_, RunConfig(), &sink);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value()->Push(Make(10, "A")).ok());
    ASSERT_TRUE(session.value()->Push(Make(20, "B")).ok());
    RunMetrics m = session.value()->Close().value();
    EXPECT_EQ(sink.rows_written(), m.emissions);
    EXPECT_GT(sink.rows_written(), 0);
  }
  std::rewind(tmp);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof(line), tmp), nullptr);
  EXPECT_EQ(std::string(line),
            "query,name,group,window_start,window_end,value\n");
  int data_rows = 0;
  while (std::fgets(line, sizeof(line), tmp) != nullptr) ++data_rows;
  EXPECT_GT(data_rows, 0);
  std::fclose(tmp);
}

// Rejected calls do no engine work, so they must not accrue busy time —
// otherwise a caller retrying after errors deflates reported throughput.
TEST_F(SessionContractTest, RejectedCallsAccrueNoBusyTime) {
  Result<std::unique_ptr<Session>> session =
      Session::Open(*plan_, RunConfig(), nullptr);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Push(Make(50, "A")).ok());
  const double busy_after_accept =
      session.value()->MetricsSnapshot().elapsed_seconds;
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(session.value()->Push(Make(10, "B")).ok());
    EXPECT_FALSE(session.value()->AdvanceTo(5).ok());
  }
  EventVector behind = {Make(7, "B"), Make(8, "B")};
  EXPECT_FALSE(session.value()->PushBatch(behind).ok());
  // Bitwise-unchanged: none of the 401 rejections touched the accumulator.
  EXPECT_EQ(session.value()->MetricsSnapshot().elapsed_seconds,
            busy_after_accept);
}

// MergeRunMetrics must not sum per-shard rates: shards run concurrently
// over overlapping busy intervals, so a summed 4-shard merge would report
// ~4x the real rate. The merged rate is merged events / merged elapsed.
TEST(MergeRunMetricsTest, ThroughputRecomputedFromMergedTotals) {
  RunMetrics a;
  a.events = 3000;
  a.elapsed_seconds = 3.0;
  a.throughput_eps = 1000.0;
  a.emissions = 10;
  a.avg_latency_seconds = 0.5;
  a.max_latency_seconds = 1.0;
  a.evicted_compositions = 2;
  a.peak_memory_bytes = 100;
  a.current_memory_bytes = 40;
  RunMetrics b;
  b.events = 1000;
  b.elapsed_seconds = 2.0;
  b.throughput_eps = 500.0;
  b.emissions = 30;
  b.avg_latency_seconds = 0.1;
  b.max_latency_seconds = 2.0;
  b.evicted_compositions = 3;
  b.peak_memory_bytes = 60;
  b.current_memory_bytes = 25;
  RunMetrics merged;
  MergeRunMetrics(merged, a);
  MergeRunMetrics(merged, b);
  EXPECT_EQ(merged.events, 4000);
  EXPECT_DOUBLE_EQ(merged.elapsed_seconds, 3.0);
  // 4000 events over the 3.0s busy envelope — not 1500 (the old sum).
  EXPECT_DOUBLE_EQ(merged.throughput_eps, 4000 / 3.0);
  EXPECT_DOUBLE_EQ(merged.max_latency_seconds, 2.0);
  EXPECT_DOUBLE_EQ(merged.avg_latency_seconds, (0.5 * 10 + 0.1 * 30) / 40);
  EXPECT_EQ(merged.evicted_compositions, 5);
  // Peaks at different times never sum: the merge keeps the always-true
  // floor (the largest single peak, 100 — not 160, the old sum);
  // ShardedSession raises it with its sampled concurrent high-water mark.
  // Current footprints are simultaneous by definition, so they do sum.
  EXPECT_EQ(merged.peak_memory_bytes, 100);
  EXPECT_EQ(merged.current_memory_bytes, 65);
}

// A composition branch that never emits (here: a two-step window that DNFs
// on one OR branch while the other completes) must not leave its partial
// (query, group, window) entry in the pending map forever.
TEST(CompositionEviction, DeadBranchesEvictedAndMemoryBounded) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload(&schema);
  ASSERT_TRUE(workload
                  .Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) OR "
                                  "SEQ(C, D+) GROUPBY g WITHIN 100 ms")
                           .value())
                  .ok());
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  RunConfig config;
  config.kind = EngineKind::kTwoStep;
  // Low enough that the 18-B burst below always blows the budget (~2^18
  // trends), high enough that the C/D+ branch (3 trends) completes.
  config.two_step_budget = 1000;
  auto run = [&](int windows) {
    EventVector ev;
    for (int w = 0; w < windows; ++w) {
      Timestamp t = static_cast<Timestamp>(w) * 100 + 1;
      auto add = [&](const char* type) {
        Event e(t++, schema.AddType(type));
        e.set_attr(0, 1.0);
        e.set_attr(1, 0.0);
        ev.push_back(e);
      };
      add("A");
      for (int i = 0; i < 18; ++i) add("B");
      add("C");
      add("D");
      add("D");
    }
    Result<std::unique_ptr<Session>> session =
        Session::Open(plan, config, nullptr);
    HAMLET_CHECK(session.ok());
    HAMLET_CHECK(session.value()->PushBatch(ev).ok());
    return session.value()->Close().value();
  };
  RunMetrics short_run = run(20);
  RunMetrics long_run = run(200);
  // Every window DNFs the A/B+ branch, so its C/D+ partial entry can never
  // compose; each closed window must evict exactly one entry and emit
  // nothing.
  EXPECT_EQ(short_run.dnf_windows, 20);
  EXPECT_EQ(short_run.evicted_compositions, 20);
  EXPECT_EQ(short_run.emissions, 0);
  EXPECT_EQ(long_run.evicted_compositions, 200);
  // The leak made session memory grow with stream length; with per-window
  // eviction the memory profile is periodic, so a 10x longer stream peaks
  // exactly where the short one did (pending entries are charged to
  // CurrentMemory, so a reintroduced leak shows up here).
  EXPECT_EQ(long_run.peak_memory_bytes, short_run.peak_memory_bytes);
}

// An event only resets the emission-latency clock of windows it can
// contribute to. Here C is relevant to the second query only: pushing it
// late must not mask how long the first query's result actually waited.
// Time comes from RunConfig::clock_override, so the asserted wait is exact
// and immune to sanitizer/CI scheduling jitter — the sleep-based original
// flaked.
TEST(LatencyAttribution, IrrelevantEventsDoNotResetArrivalClock) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload(&schema);
  for (const char* text :
       {"RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g WITHIN 100 ms",
        "RETURN COUNT(*) PATTERN SEQ(C, B+) GROUPBY g WITHIN 100 ms"}) {
    ASSERT_TRUE(workload.Add(ParseQuery(text).value()).ok());
  }
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  double fake_now = 100.0;  // seconds; arbitrary epoch
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  config.clock_override = [&fake_now] { return fake_now; };
  Result<std::unique_ptr<Session>> session =
      Session::Open(plan, config, nullptr);
  ASSERT_TRUE(session.ok());
  auto make = [&](Timestamp t, const char* type) {
    Event e(t, schema.AddType(type));
    e.set_attr(0, 1.0);
    e.set_attr(1, 0.0);
    return e;
  };
  ASSERT_TRUE(session.value()->Push(make(10, "A")).ok());
  ASSERT_TRUE(session.value()->Push(make(20, "B")).ok());
  // The first query's [0,100) window last saw a relevant event at
  // fake_now=100; its emission latency must include this 0.12 s wait.
  fake_now += 0.12;
  ASSERT_TRUE(session.value()->Push(make(30, "C")).ok());
  ASSERT_TRUE(session.value()->AdvanceTo(100).ok());
  RunMetrics m = session.value()->Close().value();
  // [0,100) for both queries, plus the watermark-opened [100,200) pair
  // flushed empty by Close.
  EXPECT_EQ(m.emissions, 4);
  // Pre-fix, the late C stamped the first query's window too, reporting
  // 0 latency for a result that waited 0.12 s. The whole run shares the
  // frozen fake clock, so the maximum is the injected wait (up to the
  // rounding of the 100.12 - 100.0 subtraction).
  EXPECT_NEAR(m.max_latency_seconds, 0.12, 1e-9);
}

// CollectingSink::Take matches the documented batch order even when windows
// close out of (query, group) order.
TEST_F(SessionContractTest, CollectingSinkSortsLikeBatchRun) {
  StreamBuilder sb(&schema_);
  sb.Add("A");
  for (int i = 0; i < 3; ++i) sb.Add("B");
  sb.Gap(200);
  sb.Add("A").Add("B");
  EventVector ev = sb.Take();
  StreamExecutor executor(*plan_, RunConfig());
  RunOutput out = executor.Run(ev);
  ASSERT_TRUE(out.status.ok());
  ASSERT_GE(out.emissions.size(), 2u);
  for (size_t i = 1; i < out.emissions.size(); ++i) {
    EXPECT_LE(out.emissions[i - 1].window_start,
              out.emissions[i].window_start);
  }
}

}  // namespace
}  // namespace hamlet
