// End-to-end benchmark driver: one workload, one seed, one run.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--commit <id>] [--trace-dir <dir>]
//
// A run generates the workload's stream from the seed before any clock
// starts, times set-up (parse + analyze + open) several times, warms up,
// then alternates closed-loop and open-loop replays through the real
// session stack until --seconds are spent. Every replay's emissions are
// checked against a GRETA-prefix reference run on the same stream with the
// same churn ops. --trace 0 reports the end-to-end metrics; --trace 1 runs
// untraced and traced closed loops plus the layer-kernel replays and
// reports the per-layer metrics, writing the spans to --trace-dir. The
// last stdout line is one JSON object: correct, attempted, failed, metrics.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/src/measure.h"
#include "e2ebench/src/replay.h"
#include "e2ebench/src/workloads.h"
#include "src/plan/workload_plan.h"
#include "src/query/parser.h"
#include "src/query/run_segmenter.h"
#include "src/stream/generator.h"

namespace e2ebench {
namespace {

using hamlet::Event;
using hamlet::EventVector;
using hamlet::RunMetrics;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
  std::string trace_dir = ".bench_build/traces";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--trace") a->trace = std::atoi(v);
    else if (k == "--commit") a->commit = v;
    else if (k == "--trace-dir") a->trace_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Everything a compiled workload references, built by one timed set-up.
struct Setup {
  std::unique_ptr<hamlet::StreamGenerator> generator;  // owns the schema
  std::unique_ptr<hamlet::Workload> workload;
  std::unique_ptr<hamlet::WorkloadPlan> plan;
  double parse_s = 0.0;
  double analyze_s = 0.0;
  double open_s = 0.0;
  double total() const { return parse_s + analyze_s + open_s; }
};

/// ParseQuery + AnalyzeWorkload + Open for the workload's queries; the
/// session opened here is discarded (outside the timed region).
bool TimedSetup(const WorkloadSpec& spec, Tracer& tracer, Setup* out,
                std::string* error) {
  const int32_t n_setup = tracer.Name("setup");
  const int32_t n_parse = tracer.Name("parse");
  const int32_t n_analyze = tracer.Name("analyze");
  const int32_t n_open = tracer.Name("open");
  out->generator = hamlet::MakeGenerator(spec.dataset);
  out->workload = std::make_unique<hamlet::Workload>(
      const_cast<hamlet::Schema*>(&out->generator->schema()));
  tracer.NewRun();
  ScopedSpan setup_span(tracer, n_setup);
  double t = NowSeconds();
  std::vector<hamlet::Query> queries;
  {
    ScopedSpan span(tracer, n_parse);
    for (const std::string& text : spec.queries) {
      hamlet::Result<hamlet::Query> q = hamlet::ParseQuery(text);
      if (!q.ok()) {
        *error = "parse: " + q.status().ToString() + " in " + text;
        return false;
      }
      queries.push_back(std::move(q).value());
    }
  }
  out->parse_s = NowSeconds() - t;
  t = NowSeconds();
  {
    ScopedSpan span(tracer, n_analyze);
    for (hamlet::Query& q : queries) {
      hamlet::Result<hamlet::QueryId> id = out->workload->Add(std::move(q));
      if (!id.ok()) {
        *error = "workload: " + id.status().ToString();
        return false;
      }
    }
    hamlet::Result<hamlet::WorkloadPlan> plan =
        hamlet::AnalyzeWorkload(*out->workload);
    if (!plan.ok()) {
      *error = "analyze: " + plan.status().ToString();
      return false;
    }
    out->plan = std::make_unique<hamlet::WorkloadPlan>(std::move(plan).value());
  }
  out->analyze_s = NowSeconds() - t;
  t = NowSeconds();
  hamlet::Result<std::unique_ptr<Target>> target = [&] {
    ScopedSpan span(tracer, n_open);
    return Target::Open(*out->plan, spec.config, spec.ingest, nullptr);
  }();
  out->open_s = NowSeconds() - t;
  if (!target.ok()) {
    *error = "open: " + target.status().ToString();
    return false;
  }
  return true;
}

/// One metric as reported: name, value, unit. Every metric is printed;
/// `in_result` ones also go into the final JSON line (the metrics
/// BENCHMARK.json names).
struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool in_result = true;
};

/// Layer-kernel replay over the stream in the sessions' 512-row batches:
/// staging (EventBatch::AppendRows), predicate kernels (EvalBatch), run
/// segmentation (SegmentRuns) and shard routing (ShardRouter::Route), each
/// timed per batch as a span.
struct KernelTotals {
  double stage_s = 0, eval_s = 0, segment_s = 0, route_s = 0;
  int64_t rows = 0;
  int64_t selected = 0;
  int64_t predicated_rows = 0;
  uint64_t route_sum = 0;  ///< keeps the routing results live
};

KernelTotals ReplayKernels(const hamlet::WorkloadPlan& plan,
                           const hamlet::Schema& schema, int shards,
                           std::span<const Event> events, Tracer& tracer) {
  KernelTotals k;
  const int32_t n_stage = tracer.Name("kernel.stage");
  const int32_t n_eval = tracer.Name("kernel.eval");
  const int32_t n_segment = tracer.Name("kernel.segment");
  const int32_t n_route = tracer.Name("kernel.route");
  tracer.NewRun();
  hamlet::Result<hamlet::PredicateProgram> program =
      hamlet::CompilePredicateProgram(plan);
  HAMLET_CHECK(program.ok());
  hamlet::Result<hamlet::ShardRouter> router =
      hamlet::ShardedSession::RouterFor(plan, shards);
  HAMLET_CHECK(router.ok());
  hamlet::EventBatch batch(schema.num_attrs());
  hamlet::BatchSelection sel;
  std::vector<hamlet::RunSpan> runs;
  const hamlet::QuerySet all = plan.AllExec();
  for (size_t i = 0; i < events.size(); i += 512) {
    const auto chunk = events.subspan(i, std::min<size_t>(512, events.size() - i));
    double t = NowSeconds();
    {
      ScopedSpan span(tracer, n_stage);
      batch.Clear();
      batch.AppendRows(chunk);
    }
    double u = NowSeconds();
    k.stage_s += u - t;
    {
      ScopedSpan span(tracer, n_eval);
      program.value().EvalBatch(batch, &sel);
    }
    t = NowSeconds();
    k.eval_s += t - u;
    {
      ScopedSpan span(tracer, n_segment);
      hamlet::SegmentRuns(batch, batch.size(), plan.pane_size, all,
                          program.value().predicated_queries(), sel.masks,
                          &runs);
    }
    u = NowSeconds();
    k.segment_s += u - t;
    {
      ScopedSpan span(tracer, n_route);
      for (const Event& e : chunk) k.route_sum += router.value().Route(e);
    }
    k.route_s += NowSeconds() - u;
    k.rows += static_cast<int64_t>(chunk.size());
    for (const hamlet::SelectionMask& m : sel.masks) {
      k.selected += m.CountSelected();
      k.predicated_rows += m.rows();
    }
  }
  return k;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int RunBenchmark(const Args& args) {
  std::vector<WorkloadSpec> all = AllWorkloads();
  const WorkloadSpec* found = nullptr;
  for (const WorkloadSpec& w : all) {
    if (w.name == args.workload) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const bool traced = args.trace == 1;
  std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d "
              "commit=%s compiler=\"%s\" nproc=%u\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, args.commit.c_str(), __VERSION__,
              std::thread::hardware_concurrency());

  // Load generation, before any clock that is reported as a system metric.
  double t = NowSeconds();
  const EventVector stream = GenerateStream(spec, args.seed);
  const double gen_s = NowSeconds() - t;
  const std::span<const Event> events(stream);
  HAMLET_CHECK(!stream.empty());

  Tracer tracer(traced);
  Tracer sink_tracer(traced);  // producer path: emissions on the sequencer

  // Set-up, timed several times: a few before the replays (the last one is
  // kept for them) and a few in every measured cycle, so the median samples
  // the host across the whole run rather than one moment of it.
  constexpr int kSetupWarm = 2;
  constexpr int kSetupFirst = 11;
  constexpr int kSetupPerCycle = 4;
  std::vector<double> setup_s, parse_s, analyze_s, open_s;
  auto time_setups = [&](int reps, Setup* keep) {
    for (int rep = 0; rep < reps; ++rep) {
      Setup s;
      std::string error;
      if (!TimedSetup(spec, tracer, &s, &error)) {
        std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
        return false;
      }
      setup_s.push_back(s.total());
      parse_s.push_back(s.parse_s);
      analyze_s.push_back(s.analyze_s);
      open_s.push_back(s.open_s);
      if (keep != nullptr) *keep = std::move(s);
    }
    return true;
  };
  Setup setup;
  if (!time_setups(kSetupWarm, nullptr)) return 1;
  setup_s.clear();
  parse_s.clear();
  analyze_s.clear();
  open_s.clear();
  if (!time_setups(kSetupFirst, &setup)) return 1;

  // Churn ops at fixed stream positions, parsed outside the timed replays.
  std::vector<hamlet::Query> churn_queries;
  churn_queries.reserve(spec.churn.size());
  ReplayEnv env;
  env.plan = setup.plan.get();
  env.config = spec.config;
  env.ingest = spec.ingest;
  env.events = events;
  for (const ChurnOp& op : spec.churn) {
    ResolvedChurn c;
    c.at = static_cast<size_t>(op.at_fraction * static_cast<double>(stream.size()));
    c.op = &op;
    if (op.add) {
      hamlet::Result<hamlet::Query> q = hamlet::ParseQuery(op.text);
      HAMLET_CHECK(q.ok());
      churn_queries.push_back(std::move(q).value());
      churn_queries.back().name = op.name;
      c.query = &churn_queries.back();
    }
    env.churn.push_back(c);
  }

  // Untimed warm-up on a prefix: first-touch page faults and lazy
  // allocations stay out of the measured replays.
  RecordingSink sink;
  {
    ReplayEnv warm = env;
    warm.churn.clear();
    warm.events = events.first(std::max<size_t>(1, events.size() / 4));
    (void)ClosedLoop(warm, sink);
  }

  // Output check, part 1: every replay (closed and open loop, traced, one
  // shard) must reproduce the first closed-loop replay's emissions bit for
  // bit; part 2 compares that baseline with the reference. Each replay's
  // emissions are dropped once checked, and open-loop samples go into
  // fixed-size histograms, so the benchmark's own memory stays flat however
  // many replays fit in --seconds.
  int64_t calls = 0;
  int64_t failed_calls = 0;
  std::vector<CheckResult> checks;
  std::vector<EmissionRow> baseline;
  bool have_baseline = false;
  auto settle = [&](ReplayResult& r, const char* what) {
    calls += r.calls;
    failed_calls += r.failed_calls;
    if (!r.first_error.empty()) {
      std::fprintf(stderr, "%s replay: %s\n", what, r.first_error.c_str());
    }
    if (!have_baseline) {
      baseline = std::move(r.emissions);
      have_baseline = true;
    } else {
      checks.push_back(CompareEmissions(std::move(r.emissions), baseline, 0.0));
    }
    r.emissions = {};
  };

  // Measured cycles until --seconds are spent. Untraced: the workload's
  // closed_per_open closed-loop replays and one open-loop replay (which
  // runs below capacity, so it takes the larger part of each cycle), then a
  // few set-ups. Traced: an untraced and a traced closed loop, plus the
  // same job at one shard for sharded workloads.
  // A plain Session runs on the calling thread, so each of its replays is
  // pinned to the next CPU in turn (CpuRotation); sharded sessions start
  // their threads in Open, which would inherit the pin, so they stay free.
  std::vector<ReplayResult> closed, traced_closed, one_shard;
  LogHistogram latency, lateness;
  size_t open_replays = 0;
  CpuRotation rotation;
  auto next_cpu = [&] {
    if (spec.ingest == Ingest::kSession) rotation.Next();
  };
  const double deadline = NowSeconds() + args.seconds;
  double last_cycle = 0.0;
  while (closed.empty() || NowSeconds() + last_cycle <= deadline) {
    const double cycle_start = NowSeconds();
    next_cpu();
    closed.push_back(ClosedLoop(env, sink));
    settle(closed.back(), "closed-loop");
    if (!traced) {
      for (int k = 1; k < spec.closed_per_open; ++k) {
        next_cpu();
        closed.push_back(ClosedLoop(env, sink));
        settle(closed.back(), "closed-loop");
      }
      next_cpu();
      ReplayResult o = OpenLoop(env, spec.open_loop_eps, sink);
      for (double v : o.latency_s) latency.Add(v);
      for (double v : o.lateness_s) lateness.Add(v);
      settle(o, "open-loop");
      ++open_replays;
    } else {
      ReplayEnv tenv = env;
      tenv.tracer = &tracer;
      tenv.sink_tracer = &sink_tracer;
      tracer.NewRun();
      next_cpu();
      traced_closed.push_back(ClosedLoop(tenv, sink));
      settle(traced_closed.back(), "traced closed-loop");
      if (spec.config.num_shards > 1) {
        ReplayEnv one = env;
        one.config.num_shards = 1;
        one_shard.push_back(ClosedLoop(one, sink));
        settle(one_shard.back(), "one-shard closed-loop");
      }
    }
    if (!time_setups(kSetupPerCycle, nullptr)) return 1;
    last_cycle = NowSeconds() - cycle_start;
  }
  rotation.Restore();
  const int64_t peak_rss = PeakRssBytes();

  // Reference: GRETA prefix on a plain Session, same stream and churn.
  ReplayEnv ref_env = env;
  ref_env.config = hamlet::RunConfig{};
  ref_env.config.kind = hamlet::EngineKind::kGretaPrefix;
  ref_env.ingest = Ingest::kSession;
  RecordingSink ref_sink;
  const ReplayResult ref = ClosedLoop(ref_env, ref_sink);
  calls += ref.calls;
  failed_calls += ref.failed_calls;
  if (!ref.first_error.empty()) {
    std::fprintf(stderr, "reference replay: %s\n", ref.first_error.c_str());
  }
  checks.push_back(CompareEmissions(baseline, ref.emissions, kRelTolerance));
  const double max_rel = checks.back().max_rel_error;

  int64_t failed = failed_calls;
  int64_t attempted = calls;
  for (const CheckResult& c : checks) {
    failed += c.errors();
    attempted += c.checked;
    if (c.errors() > 0) {
      std::fprintf(stderr,
                   "emission check: %lld wrong, %lld missing, %lld extra of "
                   "%lld\n",
                   static_cast<long long>(c.wrong),
                   static_cast<long long>(c.missing),
                   static_cast<long long>(c.extra),
                   static_cast<long long>(c.checked));
    }
  }
  const double error_rate = ErrorRate(failed_calls, calls, checks);
  bool correct = failed == 0 && !ref.emissions.empty();
  const double greta_eps = static_cast<double>(ref.events) / ref.wall_s;
  std::printf("# replays: %zu closed, %zu open, %zu traced, %zu one-shard; "
              "%zu events each; %zu emissions each, reference %.0f events/s, "
              "max relative error %.3g (tolerance %.0e)\n",
              closed.size(), open_replays, traced_closed.size(),
              one_shard.size(), stream.size(), baseline.size(), greta_eps,
              max_rel, kRelTolerance);
  std::printf("metric error_rate %.6g ratio\n", error_rate);
  std::printf("# closed-loop events/s per replay:");
  for (const ReplayResult& r : closed) {
    std::printf(" %.0f", static_cast<double>(r.events) / r.wall_s);
  }
  std::printf("\n");

  auto med = [](const std::vector<ReplayResult>& rs, auto fn) {
    std::vector<double> v;
    for (const ReplayResult& r : rs) v.push_back(fn(r));
    return Median(v);
  };
  auto eps_of = [](const ReplayResult& r) {
    return static_cast<double>(r.events) / r.wall_s;
  };

  std::vector<Metric> metrics;
  if (!traced) {
    // Emissions come in bursts (every group's windows close together), so
    // one replay holds only a few independent tail events; the histograms
    // pool all open-loop replays of the run.
    const bool p99_ok = PercentileSupported(
        static_cast<size_t>(latency.count()), 0.99);
    std::printf("# latency samples %lld over %zu open-loop replays (p99 %s); "
                "ingest-lag samples %lld\n",
                static_cast<long long>(latency.count()), open_replays,
                p99_ok ? "supported" : "NOT supported",
                static_cast<long long>(lateness.count()));
    if (!p99_ok) correct = false;
    metrics = {
        {"throughput_eps", med(closed, eps_of), "events/s"},
        {"cpu_ns_per_event",
         med(closed, [](const ReplayResult& r) {
           return r.cpu_s * 1e9 / static_cast<double>(r.events);
         }),
         "ns"},
        // Printed, not gated: on a shared 4-vCPU host the open-loop
        // percentiles spread beyond any allowed bound from run to run
        // (README.md, "Run-to-run spread").
        {"latency_p50_ms", latency.Quantile(0.50) * 1e3, "ms", false},
        {"latency_p99_ms", latency.Quantile(0.99) * 1e3, "ms", false},
        {"ingest_lag_p99_ms", lateness.Quantile(0.99) * 1e3, "ms", false},
        {"peak_state_bytes",
         med(closed,
             [](const ReplayResult& r) {
               return static_cast<double>(r.metrics.peak_memory_bytes);
             }),
         "bytes"},
        {"peak_rss_bytes", static_cast<double>(peak_rss), "bytes"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    const RunMetrics& m0 = closed.front().metrics;
    const double events_d = static_cast<double>(stream.size());
    auto per_k = [&](int64_t v) { return static_cast<double>(v) * 1e3 / events_d; };
    const int32_t n_push = tracer.Name("push");
    const int32_t n_close = tracer.Name("close");
    const int32_t n_sink = tracer.Name("sink");
    tracer.Adopt(sink_tracer);
    std::vector<double> push_self = tracer.SelfTimesOf(n_push);
    // Summed push self time per traced replay: the kernel-share base.
    const double push_total_per_replay =
        [&] {
          double sum = 0;
          for (double v : push_self) sum += v;
          return sum;
        }() /
        static_cast<double>(std::max<size_t>(1, traced_closed.size()));
    const KernelTotals k = ReplayKernels(*setup.plan, setup.generator->schema(),
                                         spec.config.num_shards, events, tracer);
    const double rows = static_cast<double>(k.rows);
    int64_t batches = 0;
    for (int64_t b : m0.shard_batch_hist) batches += b;
    int64_t shard_max = 0, shard_sum = 0;
    for (int64_t e : m0.shard_events) {
      shard_max = std::max(shard_max, e);
      shard_sum += e;
    }
    const double eps_untraced = med(closed, eps_of);
    const double eps_traced = med(traced_closed, eps_of);
    std::vector<double> close_self = tracer.SelfTimesOf(n_close);
    std::vector<double> sink_ns = tracer.DurationsOf(n_sink);
    for (double& v : sink_ns) v *= 1e9;
    int64_t epochs_max = 0, per_push_max = 0;
    for (const ReplayResult& r : closed) {
      epochs_max = std::max(epochs_max, r.epochs_max);
      per_push_max = std::max(per_push_max, r.emissions_per_push_max);
    }
    const hamlet::HamletStats& h = m0.hamlet;
    metrics = {
        {"runtime.push_us_p50", Quantile(push_self, 0.50) * 1e6, "us"},
        {"runtime.push_us_p99", Quantile(push_self, 0.99) * 1e6, "us"},
        {"runtime.close_ms", Median(close_self) * 1e3, "ms"},
        {"runtime.open_ms", Median(open_s) * 1e3, "ms"},
        {"runtime.busy_share",
         med(closed, [](const ReplayResult& r) {
           return r.metrics.elapsed_seconds / r.wall_s;
         }),
         "ratio"},
        {"runtime.queue_depth_max_msgs",
         med(closed, [](const ReplayResult& r) {
           return static_cast<double>(r.metrics.max_queue_depth_msgs);
         }),
         "msgs"},
        {"runtime.shard_batch_mean",
         batches > 0 ? static_cast<double>(m0.events) / static_cast<double>(batches)
                     : 0.0,
         "events"},
        {"runtime.emissions_per_push_max", static_cast<double>(per_push_max),
         "count"},
        {"runtime.scaling_vs_1shard",
         one_shard.empty() ? 1.0 : eps_untraced / med(one_shard, eps_of),
         "ratio"},
        {"runtime.max_shard_share",
         shard_sum > 0 ? static_cast<double>(shard_max) /
                             static_cast<double>(shard_sum)
                       : 1.0,
         "ratio"},
        {"runtime.stolen_panes", static_cast<double>(m0.stolen_panes), "count"},
        {"runtime.duplicated_events", static_cast<double>(m0.duplicated_events),
         "count"},
        {"lifecycle.add_query_ms",
         med(closed, [](const ReplayResult& r) { return r.add_query_s * 1e3; }),
         "ms"},
        {"lifecycle.remove_query_ms",
         med(closed, [](const ReplayResult& r) { return r.remove_query_s * 1e3; }),
         "ms"},
        {"lifecycle.epochs_max", static_cast<double>(epochs_max), "count"},
        {"optimizer.reopt_checks", static_cast<double>(m0.reopt_checks), "count"},
        {"optimizer.reopt_swaps", static_cast<double>(m0.reopt_swaps), "count"},
        {"optimizer.decisions_per_1k_events", per_k(m0.decisions), "count"},
        {"hamlet.ops_per_event", static_cast<double>(h.ops) / events_d, "count"},
        {"hamlet.shared_burst_ratio",
         h.bursts_total > 0 ? static_cast<double>(h.bursts_shared) /
                                  static_cast<double>(h.bursts_total)
                            : 0.0,
         "ratio"},
        {"hamlet.snapshots_per_1k_events", per_k(h.snapshots_created), "count"},
        {"hamlet.event_snapshots_per_1k_events", per_k(h.event_snapshots),
         "count"},
        {"hamlet.graphlets_per_1k_events", per_k(h.graphlets_opened), "count"},
        {"hamlet.split_merge_per_1k_events", per_k(h.splits + h.merges),
         "count"},
        {"query.parse_ms", Median(parse_s) * 1e3, "ms"},
        {"query.eval_ns_per_row", k.eval_s * 1e9 / rows, "ns"},
        {"query.segment_ns_per_row", k.segment_s * 1e9 / rows, "ns"},
        {"query.mean_run_len",
         m0.runs > 0 ? events_d / static_cast<double>(m0.runs) : 0.0, "events"},
        {"query.selectivity",
         k.predicated_rows > 0 ? static_cast<double>(k.selected) /
                                     static_cast<double>(k.predicated_rows)
                               : 1.0,
         "ratio"},
        {"query.kernel_share",
         (k.stage_s + k.eval_s + k.segment_s) / push_total_per_replay, "ratio"},
        {"stream.stage_ns_per_row", k.stage_s * 1e9 / rows, "ns"},
        {"stream.route_ns_per_event", k.route_s * 1e9 / rows, "ns"},
        {"plan.analyze_ms", Median(analyze_s) * 1e3, "ms"},
        {"plan.share_groups", static_cast<double>(setup.plan->share_groups.size()),
         "count"},
        {"sink.emissions", static_cast<double>(baseline.size()),
         "count"},
        {"sink.callback_ns_p99", Quantile(sink_ns, 0.99), "ns"},
        {"loadgen.gen_s", gen_s, "s"},
        {"reference.greta_eps", greta_eps, "events/s"},
        {"trace.overhead_ratio", eps_untraced / eps_traced, "ratio"},
    };
    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
    // One file per workload, overwritten by the next traced run.
    const std::string path = args.trace_dir + "/" + spec.name + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"commit\":\"%s\","
                      "\"compiler\":\"%s\",\"nproc\":%u,\"trace\":\n",
                   spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                   args.commit.c_str(), __VERSION__,
                   std::thread::hardware_concurrency());
      const bool ok = tracer.WriteJson(f);
      std::fprintf(f, "}\n");
      if (std::fclose(f) != 0 || !ok) correct = false;
      std::printf("# trace: %zu spans -> %s\n", tracer.spans().size(),
                  path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      correct = false;
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>] [--trace-dir <dir>]\n");
    return 2;
  }
  return e2ebench::RunBenchmark(args);
}
