// Guards the Session wrapper overhead and measures shard scaling.
//
// Part 1 — overhead: batch Run() versus per-event Push() versus PushBatch()
// over one identical pre-materialized stream, per engine. The push path
// must stay within a few percent of batch throughput — the batch wrapper is
// itself a PushBatch, so any gap is pure per-call overhead (Status checks,
// busy-time sampling). Part 1 replays its own 100k-event stream (fast
// mode; 13-30 ms per HAMLET replay), so a shared host's speed phases
// average out within a replay, and SHARON its first fifth; each cell is
// the median of 5 replays with its interquartile range.
//
// Part 2 — scaling: the same stream through a Session at 1/2/4/8 shards
// (capped by --threads=N) on a multi-group workload, through session-level
// PushBatch. The 1-shard row measures the inline front: its one engine runs
// on the calling thread with no ring; at more shards the front writes each
// event into its shard's ring and each worker runs its backlog. Reported as
// end-to-end wall-clock events/s (first push to Close-join inclusive),
// since summed per-shard busy-time throughput would hide queueing effects;
// each cell is the median of 5 replays with its interquartile range.
// Expect near-linear speedup up to the machine's core count; beyond it the
// extra shards only add hand-off overhead.
//
// Part 2b — run propagation: the bursty preset with one group and with four
// interleaved groups through one Session in 512-row batches, with the mean
// run length the engines see and the group-major partition's ns per row.
//
// Part 3 — bursty ingress: the stream is replayed at 2 shards as
// alternating full-speed bursts and paced lulls (2 ms inter-arrival). Burst
// throughput is timed over the burst phases only; after each lull phase the
// bench probes how long the lull tail takes to REACH its shard worker (spin
// on MetricsSnapshot, capped at 4 ms) — the hand-off delay that turns into
// emission-delivery latency. A worker behind in a burst runs its backlog in
// large engine calls; an idle one is woken for each lull event, so the
// lull hand-off should take microseconds. Reported: burst events/s, the
// mean, max and p99 of the lull probes, the worker engine calls and the
// deepest ring backlog (the `default` row: the one ingress there is).
//
// Part 4 — skewed groups, hash vs steal: a hot-key stream (30% of events
// on one group, the rest spread over 63 progressively appearing groups) at
// up to 4 shards through session-level PushBatch, with pure hash routing
// (work_stealing off) and with pane-boundary work stealing, the one
// balancer (on by default). Reported: wall events/s, the busiest shard's
// event share (the bottleneck stealing evens out) and the executed steals,
// each row the median of five replays with its wall events/s range. See
// docs/BENCHMARKS.md for the measured numbers.
//
// Part 5 — concurrent ingest + work stealing (hot-key preset): the Part 4
// skewed stream pushed by --producers=N concurrent Producer handles
// (strided split; the generator's strictly increasing timestamps make any
// split per-producer ordered) through 1/2/4/8 shards, with pane-boundary
// work stealing off (pure hash routing) vs on. Reported: wall events/s
// both ways and executed steals. Part 4 has the session-level comparison
// of the same two settings.
//
// Part 6 — plan-epoch hand-off: a 1-shard Session on the W2 stock plan (40
// queries, 16 companies) fills one pane, then takes an AddQuery and later
// a RemoveQuery. Each op's hand-off runs inside the PushBatch(512) whose
// rows straddle its activation boundary; the bench times that call and the
// same rows' PushBatch on a session without the op, in alternating
// replays, and reports each as the median of 7 replays (IQR) plus the
// median pairwise difference: the hand-off's cost, in total and per group
// runner (group keys seen times the old epoch's components).
//
// Pass --json to append one machine-readable `JSON: {...}` line per table
// so future PRs can track the scaling numbers.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/benchlib/harness.h"
#include "src/query/parser.h"
#include "src/query/run_segmenter.h"
#include "src/runtime/executor.h"

namespace hamlet {
namespace {

using bench::Scale;

double PushEps(const WorkloadPlan& plan, const RunConfig& config,
               const EventVector& events, size_t chunk) {
  Result<std::unique_ptr<Session>> session =
      Session::Open(plan, config, /*sink=*/nullptr);
  HAMLET_CHECK(session.ok());
  if (chunk <= 1) {
    for (const Event& e : events) {
      HAMLET_CHECK(session.value()->Push(e).ok());
    }
  } else {
    for (size_t i = 0; i < events.size(); i += chunk) {
      const size_t len = std::min(chunk, events.size() - i);
      HAMLET_CHECK(session.value()
                       ->PushBatch(std::span<const Event>(
                           events.data() + i, len))
                       .ok());
    }
  }
  return session.value()->Close().value().throughput_eps;
}

/// The batch column: what StreamExecutor::Run does (one PushBatch of the
/// whole stream), but into a Session without a sink, so it excludes
/// emission collection like the push columns.
double BatchEps(const WorkloadPlan& plan, const RunConfig& config,
                const EventVector& events) {
  return PushEps(plan, config, events, std::max<size_t>(events.size(), 2));
}

double WallEps(size_t events,
               std::chrono::steady_clock::time_point start) {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return wall <= 0 ? 0 : static_cast<double>(events) / wall;
}

/// Wall-clock events/s through a Session: pre-materialized stream,
/// PushBatch(512) chunks, timed from first push through Close (join
/// included), so queue hand-off and imbalance count against the number.
double ShardedWallEps(const WorkloadPlan& plan, const RunConfig& config,
                      const EventVector& events) {
  Result<std::unique_ptr<Session>> session =
      Session::Open(plan, config, /*sink=*/nullptr);
  HAMLET_CHECK(session.ok());
  constexpr size_t kChunk = 512;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < events.size(); i += kChunk) {
    const size_t len = std::min(kChunk, events.size() - i);
    HAMLET_CHECK(session.value()
                     ->PushBatch(std::span<const Event>(
                         events.data() + i, len))
                     .ok());
  }
  HAMLET_CHECK(session.value()->Close().ok());
  return WallEps(events.size(), start);
}

/// Median and interquartile range of a cell's replays.
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

/// Replays per cell.
constexpr int kReps = 5;

/// The median of `samples` and the spread of their middle half (quartiles
/// by the nearest-rank rule).
Spread SpreadOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return {samples[n / 2], samples[(3 * n) / 4] - samples[n / 4]};
}

std::string EpsCell(const Spread& s) {
  return bench::Eps(s.median) + " (" + bench::Eps(s.iqr) + ")";
}

void RunOverhead(const BenchWorkload& bw, const EventVector& long_events) {
  Table table({"engine", "batch Run() (IQR)", "Push(e) (IQR)",
               "PushBatch(512) (IQR)", "push/batch"});
  // SHARON runs about 300x slower than HAMLET, so a fifth of the stream
  // already takes over a second per replay.
  const EventVector short_events(
      long_events.begin(),
      long_events.begin() +
          static_cast<std::ptrdiff_t>(long_events.size() / 5));
  for (EngineKind kind :
       {EngineKind::kHamletDynamic, EngineKind::kGretaPrefix,
        EngineKind::kSharon}) {
    RunConfig config;
    config.kind = kind;
    const EventVector& events =
        kind == EngineKind::kSharon ? short_events : long_events;
    // The three columns' replays interleave, so a slow phase of the host
    // hits them alike.
    std::vector<double> batch_eps, push1_eps, push512_eps;
    for (int rep = 0; rep < kReps; ++rep) {
      batch_eps.push_back(BatchEps(*bw.plan, config, events));
      push1_eps.push_back(PushEps(*bw.plan, config, events, 1));
      push512_eps.push_back(PushEps(*bw.plan, config, events, 512));
    }
    const Spread batch = SpreadOf(std::move(batch_eps));
    const Spread push1 = SpreadOf(std::move(push1_eps));
    const Spread push512 = SpreadOf(std::move(push512_eps));
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.3f",
                  batch.median <= 0 ? 0.0 : push1.median / batch.median);
    table.AddRow({EngineKindName(kind), EpsCell(batch), EpsCell(push1),
                  EpsCell(push512), ratio});
  }
  bench::PrintFigure("Push overhead",
                     "streaming push path vs batch wrapper, same stream, "
                     "median of 5 replays (IQR)",
                     table);
}

/// Replays `events` kReps times through ShardedWallEps. A 10-40 ms replay
/// scatters run to run on a shared host, so a cell is the median of five
/// with the spread of the middle half.
Spread ShardedWallSpread(const WorkloadPlan& plan, const RunConfig& config,
                         const EventVector& events) {
  std::vector<double> eps;
  for (int rep = 0; rep < kReps; ++rep) {
    eps.push_back(ShardedWallEps(plan, config, events));
  }
  return SpreadOf(std::move(eps));
}

void RunScaling(const BenchWorkload& bw, const EventVector& events,
                int max_shards, bool json) {
  Table table({"shards", "eps (IQR)", "speedup vs 1"});
  std::string json_rows;
  double base = 0;
  for (int shards = 1; shards <= max_shards; shards *= 2) {
    RunConfig config;
    config.kind = EngineKind::kHamletDynamic;
    config.num_shards = shards;
    const Spread batched = ShardedWallSpread(*bw.plan, config, events);
    if (shards == 1) base = batched.median;
    const double speedup = base <= 0 ? 0.0 : batched.median / base;
    char speedup_str[32];
    std::snprintf(speedup_str, sizeof(speedup_str), "%.2fx", speedup);
    table.AddRow({std::to_string(shards), EpsCell(batched), speedup_str});
    if (json) {
      char row[256];
      std::snprintf(row, sizeof(row),
                    "%s{\"shards\":%d,\"batched_eps\":%.1f,"
                    "\"batched_eps_iqr\":%.1f,\"speedup_batched\":%.3f}",
                    json_rows.empty() ? "" : ",", shards, batched.median,
                    batched.iqr, speedup);
      json_rows += row;
    }
  }
  bench::PrintFigure(
      "Shard scaling",
      "Session wall-clock throughput, median of 5 replays (IQR), hamlet "
      "dynamic, multi-group; 1 shard runs inline",
      table);
  if (json) {
    std::printf(
        "JSON: {\"bench\":\"push_overhead\",\"table\":\"shard_scaling\","
        "\"max_shards\":%d,\"events\":%zu,\"rows\":[%s]}\n",
        max_shards, events.size(), json_rows.c_str());
    std::fflush(stdout);
  }
}

// ---------------------------------------------------------------------------
// Part 2b: run-granular dispatch on the bursty preset.
// ---------------------------------------------------------------------------

/// PushBatch(512) chunks through one session, once per stream: each staged
/// batch is ordered group-major, segmented into maximal same-type,
/// same-pass-set, group-confined runs, and fed to the engines one call per
/// run. Reports per stream the throughput, the run shape (total runs, mean
/// run length = events / runs, runs per pane, the log2 run-length
/// histogram: bucket i = runs of length [2^i, 2^(i+1))) and the partition's
/// own cost: GroupMajorOrder replayed over the same chunks, ns per row.
void RunRunPropagation(const BenchWorkload& bw,
                       const std::vector<std::pair<int, EventVector>>& streams,
                       bool json) {
  constexpr size_t kChunk = 512;
  const Timestamp pane = bw.plan->pane_size;
  const AttrId group_by = bw.plan->exec_queries[0].group_by;
  Table table({"groups", "PushBatch eps", "runs", "mean run len",
               "runs/pane", "partition ns/row", "run len hist (log2)"});
  std::string json_rows;
  for (const auto& [groups, events] : streams) {
    // Pane count of the replayed stream: runs are pane-confined, so this
    // is the denominator of the runs-per-pane shape metric.
    int64_t panes = 0;
    Timestamp prev = 0;
    for (const Event& e : events) {
      const Timestamp p = (e.time / pane) * pane;
      if (panes == 0 || p != prev) {
        ++panes;
        prev = p;
      }
    }
    RunConfig config;
    config.kind = EngineKind::kHamletDynamic;
    // Best of 3 replays: a single pass is below the noise floor of the
    // wall clock.
    RunMetrics m;
    double partition_s = 0;
    size_t reordered = 0;  // keeps the partition results live
    for (int rep = 0; rep < 3; ++rep) {
      Result<std::unique_ptr<Session>> session =
          Session::Open(*bw.plan, config, /*sink=*/nullptr);
      HAMLET_CHECK(session.ok());
      for (size_t i = 0; i < events.size(); i += kChunk) {
        const size_t len = std::min(kChunk, events.size() - i);
        HAMLET_CHECK(session.value()
                         ->PushBatch(std::span<const Event>(
                             events.data() + i, len))
                         .ok());
      }
      RunMetrics rm = session.value()->Close().value();
      if (rep == 0 || rm.throughput_eps > m.throughput_eps) m = std::move(rm);

      GroupMajorOrder order;
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < events.size(); i += kChunk) {
        const size_t len = std::min(kChunk, events.size() - i);
        reordered += order
                         .Of(std::span<const Event>(events.data() + i, len),
                             pane, group_by)
                         .size();
      }
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      if (rep == 0 || s < partition_s) partition_s = s;
    }
    const double rows = static_cast<double>(std::max<size_t>(events.size(), 1));
    const double mean_len =
        m.runs <= 0 ? 0.0 : static_cast<double>(m.events) /
                                 static_cast<double>(m.runs);
    const double rpp = panes <= 0 ? 0.0
                                  : static_cast<double>(m.runs) /
                                        static_cast<double>(panes);
    const double partition_ns = partition_s * 1e9 / rows;
    std::string hist = "[";
    for (size_t b = 0; b < m.run_len_hist.size(); ++b) {
      if (b > 0) hist += ",";
      hist += std::to_string(m.run_len_hist[b]);
    }
    hist += "]";
    char mean_str[32], rpp_str[32], ns_str[32];
    std::snprintf(mean_str, sizeof(mean_str), "%.2f", mean_len);
    std::snprintf(rpp_str, sizeof(rpp_str), "%.1f", rpp);
    std::snprintf(ns_str, sizeof(ns_str), "%.1f", partition_ns);
    table.AddRow({std::to_string(groups), bench::Eps(m.throughput_eps),
                  std::to_string(m.runs), mean_str, rpp_str, ns_str, hist});
    if (json) {
      char row[512];
      std::snprintf(row, sizeof(row),
                    "%s{\"mode\":\"runs\",\"groups\":%d,\"events\":%zu,"
                    "\"push_eps\":%.1f,\"runs\":%lld,\"mean_run_len\":%.3f,"
                    "\"panes\":%lld,\"runs_per_pane\":%.2f,"
                    "\"partition_ns_per_row\":%.2f,\"reordered_rows\":%zu,"
                    "\"run_len_hist\":%s}",
                    json_rows.empty() ? "" : ",", groups, events.size(),
                    m.throughput_eps, static_cast<long long>(m.runs),
                    mean_len, static_cast<long long>(panes), rpp,
                    partition_ns, reordered / 3, hist.c_str());
      json_rows += row;
    }
  }
  bench::PrintFigure(
      "Run propagation (bursty preset)",
      "run-granular engine dispatch of group-major staged batches; mean run "
      "length, runs/pane and the run-length histogram describe the burst "
      "shape the engines see, partition ns/row the cost of the ordering",
      table);
  if (json) {
    std::printf(
        "JSON: {\"bench\":\"push_overhead\",\"table\":\"run_propagation\","
        "\"rows\":[%s]}\n",
        json_rows.c_str());
    std::fflush(stdout);
  }
}

// ---------------------------------------------------------------------------
// Part 3: bursty ingress.
// ---------------------------------------------------------------------------

struct BurstyNumbers {
  double burst_eps = 0.0;
  double lull_handoff_mean_us = 0.0;
  double lull_handoff_max_us = 0.0;
  double lull_handoff_p99_us = 0.0;
  int64_t batches = 0;
  int64_t max_queue_depth = 0;
};

/// Replays `events` as alternating full-speed bursts (PushBatch chunks) and
/// paced lulls (single Push every kLullGap), probing after each lull how
/// long its tail needs to reach the shard workers. See file comment.
BurstyNumbers RunBurstyOnce(const WorkloadPlan& plan, const RunConfig& config,
                            const EventVector& events) {
  Result<std::unique_ptr<Session>> session =
      Session::Open(plan, config, /*sink=*/nullptr);
  HAMLET_CHECK(session.ok());
  constexpr size_t kBurstLen = 4096;
  constexpr size_t kLullLen = 16;
  constexpr size_t kChunk = 256;
  constexpr auto kLullGap = std::chrono::milliseconds(2);
  constexpr auto kProbeCap = std::chrono::milliseconds(4);
  BurstyNumbers out;
  double burst_seconds = 0.0;
  size_t burst_events = 0;
  std::vector<double> probes_us;
  size_t i = 0;
  bool burst = true;
  while (i < events.size()) {
    if (burst) {
      const size_t end = std::min(events.size(), i + kBurstLen);
      burst_events += end - i;
      const auto t0 = std::chrono::steady_clock::now();
      while (i < end) {
        const size_t len = std::min(kChunk, end - i);
        HAMLET_CHECK(session.value()
                         ->PushBatch(std::span<const Event>(
                             events.data() + i, len))
                         .ok());
        i += len;
      }
      burst_seconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    } else {
      const size_t end = std::min(events.size(), i + kLullLen);
      while (i < end) {
        std::this_thread::sleep_for(kLullGap);
        HAMLET_CHECK(session.value()->Push(events[i]).ok());
        ++i;
      }
      // Hand-off probe: a lull event that has not reached its worker is an
      // emission the user sees late. Spin until every pushed event has
      // reached its shard worker — or give up at the cap (a front that
      // held events back for a fuller batch would hold the lull tail
      // hostage until the next burst).
      const auto t0 = std::chrono::steady_clock::now();
      while (session.value()->MetricsSnapshot().events <
                 static_cast<int64_t>(i) &&
             std::chrono::steady_clock::now() - t0 < kProbeCap) {
        std::this_thread::yield();
      }
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      probes_us.push_back(us);
    }
    burst = !burst;
  }
  RunMetrics m = session.value()->Close().value();
  out.burst_eps = burst_seconds <= 0
                      ? 0.0
                      : static_cast<double>(burst_events) / burst_seconds;
  if (!probes_us.empty()) {
    std::sort(probes_us.begin(), probes_us.end());
    double sum = 0.0;
    for (double us : probes_us) sum += us;
    out.lull_handoff_mean_us = sum / static_cast<double>(probes_us.size());
    out.lull_handoff_max_us = probes_us.back();
    // Nearest rank: the smallest probe at or above 99% of them.
    const size_t rank = static_cast<size_t>(
        std::ceil(0.99 * static_cast<double>(probes_us.size())));
    out.lull_handoff_p99_us = probes_us[std::max<size_t>(rank, 1) - 1];
  }
  for (int64_t bucket : m.shard_batch_hist) out.batches += bucket;
  out.max_queue_depth = m.max_queue_depth_msgs;
  return out;
}

void RunBursty(const BenchWorkload& bw, const EventVector& events,
               int max_shards, bool json) {
  const int shards = std::min(max_shards, 2);
  Table table({"ingress", "burst eps", "lull hand-off us (mean)",
               "lull hand-off us (max)", "lull hand-off us (p99)",
               "engine calls", "max ring depth"});
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  config.num_shards = shards;
  const BurstyNumbers n = RunBurstyOnce(*bw.plan, config, events);
  char mean_us[32], max_us[32], p99_us[32];
  std::snprintf(mean_us, sizeof(mean_us), "%.0f", n.lull_handoff_mean_us);
  std::snprintf(max_us, sizeof(max_us), "%.0f", n.lull_handoff_max_us);
  std::snprintf(p99_us, sizeof(p99_us), "%.0f", n.lull_handoff_p99_us);
  table.AddRow({"default", bench::Eps(n.burst_eps), mean_us, max_us, p99_us,
                std::to_string(n.batches),
                std::to_string(n.max_queue_depth)});
  bench::PrintFigure(
      "Bursty ingress",
      "alternating full-speed bursts and 2 ms-paced lulls; hand-off = time "
      "until the lull tail reached its workers (capped at 4000 us)",
      table);
  if (json) {
    // "batches" counts the workers' engine calls, and "max_queue_depth" the
    // deepest ring backlog in events; the keys keep their old order.
    std::printf(
        "JSON: {\"bench\":\"push_overhead\",\"table\":\"adaptive_bursty\","
        "\"shards\":%d,\"events\":%zu,\"rows\":[{\"mode\":\"default\","
        "\"burst_eps\":%.1f,\"lull_handoff_mean_us\":%.1f,"
        "\"lull_handoff_max_us\":%.1f,\"batches\":%lld,"
        "\"max_queue_depth\":%lld,\"lull_handoff_p99_us\":%.1f}]}\n",
        shards, events.size(), n.burst_eps, n.lull_handoff_mean_us,
        n.lull_handoff_max_us, static_cast<long long>(n.batches),
        static_cast<long long>(n.max_queue_depth), n.lull_handoff_p99_us);
    std::fflush(stdout);
  }
}

// ---------------------------------------------------------------------------
// Part 4: skewed groups, hash vs steal.
// ---------------------------------------------------------------------------

void RunSkewed(const BenchWorkload& bw, const EventVector& events,
               int max_shards, bool json) {
  const int shards = std::min(max_shards, 4);
  Table table({"routing", "wall eps (min-max)", "max shard share",
               "stolen panes"});
  std::string json_rows;
  // Each row is a 15-40 ms replay that scatters +-30% run to run on a
  // shared host: it reports the median of kReps replays with their range,
  // and the median replay's shape counters.
  for (const bool stealing : {false, true}) {
    const char* name = stealing ? "steal" : "hash";
    RunConfig config;
    config.kind = EngineKind::kHamletDynamic;
    config.num_shards = shards;
    config.work_stealing = stealing;
    std::vector<std::pair<double, RunMetrics>> reps;
    for (int rep = 0; rep < kReps; ++rep) {
      Result<std::unique_ptr<Session>> session =
          Session::Open(*bw.plan, config, /*sink=*/nullptr);
      HAMLET_CHECK(session.ok());
      constexpr size_t kChunk = 512;
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < events.size(); i += kChunk) {
        const size_t len = std::min(kChunk, events.size() - i);
        HAMLET_CHECK(session.value()
                         ->PushBatch(std::span<const Event>(
                             events.data() + i, len))
                         .ok());
      }
      RunMetrics m = session.value()->Close().value();
      reps.emplace_back(WallEps(events.size(), start), std::move(m));
    }
    std::sort(reps.begin(), reps.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const auto& [eps, m] = reps[reps.size() / 2];
    const double min_eps = reps.front().first;
    const double max_eps = reps.back().first;
    int64_t busiest = 0;
    for (int64_t per_shard : m.shard_events) {
      busiest = std::max(busiest, per_shard);
    }
    const double share =
        m.events <= 0 ? 0.0
                      : static_cast<double>(busiest) /
                            static_cast<double>(m.events);
    char share_str[32];
    std::snprintf(share_str, sizeof(share_str), "%.1f%%", share * 100.0);
    table.AddRow({name,
                  bench::Eps(eps) + " (" + bench::Eps(min_eps) + "-" +
                      bench::Eps(max_eps) + ")",
                  share_str, std::to_string(m.stolen_panes)});
    if (json) {
      char row[320];
      std::snprintf(row, sizeof(row),
                    "%s{\"mode\":\"%s\",\"wall_eps\":%.1f,"
                    "\"max_shard_share\":%.4f,"
                    "\"stolen_panes\":%lld,\"wall_eps_min\":%.1f,"
                    "\"wall_eps_max\":%.1f,\"reps\":%d}",
                    json_rows.empty() ? "" : ",", name, eps, share,
                    static_cast<long long>(m.stolen_panes), min_eps, max_eps,
                    kReps);
      json_rows += row;
    }
  }
  bench::PrintFigure(
      "Skew routing (hot-key preset)",
      "30% hot key + 63 progressively appearing groups, session-level "
      "PushBatch; max shard share = the bottleneck shard's fraction of all "
      "events",
      table);
  if (json) {
    std::printf(
        "JSON: {\"bench\":\"push_overhead\",\"table\":\"skew_routing\","
        "\"shards\":%d,\"events\":%zu,\"rows\":[%s]}\n",
        shards, events.size(), json_rows.c_str());
    std::fflush(stdout);
  }
}

// ---------------------------------------------------------------------------
// Part 5: concurrent producers x work stealing on the hot-key preset.
// ---------------------------------------------------------------------------

/// Wall-clock events/s with `producers` threads each pushing a strided
/// subsequence through its own Producer handle (PushBatch(512) chunks
/// copied out of the stride), all closing with a final watermark at the
/// stream's last timestamp. Timed from first push through session Close.
double MultiProducerWallEps(const WorkloadPlan& plan, const RunConfig& config,
                            const EventVector& events, int producers,
                            RunMetrics* metrics_out) {
  Result<std::unique_ptr<Session>> session =
      Session::Open(plan, config, /*sink=*/nullptr);
  HAMLET_CHECK(session.ok());
  std::vector<std::unique_ptr<Session::Producer>> handles;
  for (int p = 0; p < producers; ++p) {
    handles.push_back(session.value()->AddProducer().value());
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      constexpr size_t kChunk = 512;
      EventVector chunk;
      chunk.reserve(kChunk);
      Session::Producer& handle = *handles[static_cast<size_t>(p)];
      for (size_t i = static_cast<size_t>(p); i < events.size();
           i += static_cast<size_t>(producers)) {
        chunk.push_back(events[i]);
        if (chunk.size() == kChunk) {
          HAMLET_CHECK(handle
                           .PushBatch(std::span<const Event>(chunk.data(),
                                                             chunk.size()))
                           .ok());
          chunk.clear();
        }
      }
      if (!chunk.empty()) {
        HAMLET_CHECK(handle
                         .PushBatch(std::span<const Event>(chunk.data(),
                                                           chunk.size()))
                         .ok());
      }
      HAMLET_CHECK(handle.AdvanceTo(events.back().time).ok());
      HAMLET_CHECK(handle.Close().ok());
    });
  }
  for (std::thread& t : threads) t.join();
  RunMetrics m = session.value()->Close().value();
  if (metrics_out != nullptr) *metrics_out = m;
  return WallEps(events.size(), start);
}

void RunMultiProducer(const BenchWorkload& bw, const EventVector& events,
                      int max_shards, int producers, bool json) {
  Table table({"shards", "steal off eps", "steal on eps", "stolen panes",
               "on speedup vs 1"});
  std::string json_rows;
  double base_on = 0;
  for (int shards = 1; shards <= max_shards; shards *= 2) {
    RunConfig config;
    config.kind = EngineKind::kHamletDynamic;
    config.num_shards = shards;
    config.work_stealing = false;
    const double off_eps =
        MultiProducerWallEps(*bw.plan, config, events, producers, nullptr);
    config.work_stealing = true;
    RunMetrics on_metrics;
    const double on_eps = MultiProducerWallEps(*bw.plan, config, events,
                                               producers, &on_metrics);
    if (shards == 1) base_on = on_eps;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  base_on <= 0 ? 0.0 : on_eps / base_on);
    table.AddRow({std::to_string(shards), bench::Eps(off_eps),
                  bench::Eps(on_eps),
                  std::to_string(on_metrics.stolen_panes), speedup});
    if (json) {
      char row[320];
      std::snprintf(row, sizeof(row),
                    "%s{\"shards\":%d,\"steal_off_eps\":%.1f,"
                    "\"steal_on_eps\":%.1f,\"stolen_panes\":%lld,"
                    "\"speedup_on\":%.3f}",
                    json_rows.empty() ? "" : ",", shards, off_eps, on_eps,
                    static_cast<long long>(on_metrics.stolen_panes),
                    base_on <= 0 ? 0.0 : on_eps / base_on);
      json_rows += row;
    }
  }
  bench::PrintFigure(
      "Concurrent ingest + work stealing (hot-key preset)",
      "strided stream over " + std::to_string(producers) +
          " producer handles; steal off is pure hash routing, steal on "
          "moves keys off the hot shard at pane boundaries",
      table);
  if (json) {
    std::printf(
        "JSON: {\"bench\":\"push_overhead\",\"table\":\"mp_hot_key\","
        "\"producers\":%d,\"max_shards\":%d,\"events\":%zu,\"rows\":[%s]}\n",
        producers, max_shards, events.size(), json_rows.c_str());
    std::fflush(stdout);
  }
}

// ---------------------------------------------------------------------------
// Part 6: plan-epoch hand-off cost.
// ---------------------------------------------------------------------------

/// Pushes events [begin, end) in PushBatch(512) chunks.
void PushChunks(Session& session, const EventVector& events, size_t begin,
                size_t end) {
  constexpr size_t kChunk = 512;
  for (size_t i = begin; i < end; i += kChunk) {
    const size_t len = std::min(kChunk, end - i);
    HAMLET_CHECK(
        session.PushBatch(std::span<const Event>(events.data() + i, len))
            .ok());
  }
}

/// Wall-clock microseconds of one PushBatch of events [begin, end).
double TimedPushUs(Session& session, const EventVector& events, size_t begin,
                   size_t end) {
  const auto start = std::chrono::steady_clock::now();
  HAMLET_CHECK(session
                   .PushBatch(std::span<const Event>(events.data() + begin,
                                                     end - begin))
                   .ok());
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Exec queries of `plan` connected through share groups: a HAMLET
/// session runs one engine per (component, group key).
int CountComponents(const WorkloadPlan& plan) {
  std::vector<int> parent(static_cast<size_t>(plan.num_exec()));
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  auto find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const ShareGroup& g : plan.share_groups) {
    int root = -1;
    g.members.ForEach([&](QueryId q) {
      if (root < 0) {
        root = find(q);
      } else {
        parent[static_cast<size_t>(find(q))] = root;
      }
    });
  }
  int components = 0;
  for (size_t i = 0; i < parent.size(); ++i) {
    components += find(static_cast<int>(i)) == static_cast<int>(i);
  }
  return components;
}

void RunEpochHandoff(bool json) {
  BenchWorkload bw = MakeWorkload2(40);
  // The stock stream of e2ebench's stock_diverse_churn: 16 companies, about
  // 25 events per company-minute in bursts of up to 150.
  GeneratorConfig gen;
  gen.seed = 5;
  gen.events_per_minute = 400;
  gen.duration_minutes = 20;
  gen.num_groups = 16;
  gen.burstiness = 0.992;
  gen.max_burst = 150;
  const EventVector events = bw.generator->Generate(gen);
  const Timestamp pane = bw.plan->pane_size;
  // The first row at or after time `t`.
  auto row_at = [&](Timestamp t) {
    return static_cast<size_t>(
        std::partition_point(events.begin(), events.end(),
                             [&](const Event& e) { return e.time < t; }) -
        events.begin());
  };
  // Each op is applied in pane k-1 and activates at boundary k * pane; the
  // timed PushBatch(512) holds 256 rows on either side of it.
  constexpr size_t kHalf = 256;
  const Timestamp add_at = pane, remove_at = 2 * pane;
  HAMLET_CHECK(row_at(add_at) >= kHalf &&
               row_at(remove_at) >= row_at(add_at) + 2 * kHalf &&
               row_at(remove_at) + kHalf <= events.size());
  Query added =
      ParseQuery("RETURN SUM(Up.price) PATTERN SEQ(Flat, Up+) WHERE "
                 "Up.price > 35 GROUPBY company WITHIN 10 min")
          .value();
  added.name = "churn_add";
  const std::string removed = bw.workload->query(7).name;
  // Runners the two hand-offs walk: the keys seen times the components of
  // the epoch handed off.
  const AttrId company = bw.plan->exec_queries[0].group_by;
  std::vector<int64_t> keys;
  for (size_t i = 0; i < row_at(add_at); ++i) {
    keys.push_back(std::llround(events[i].attr(company)));
  }
  std::sort(keys.begin(), keys.end());
  const int64_t group_keys =
      std::unique(keys.begin(), keys.end()) - keys.begin();
  Workload with_added(bw.workload->schema());
  for (const Query& q : bw.workload->queries()) {
    HAMLET_CHECK(with_added.Add(q).ok());
  }
  HAMLET_CHECK(with_added.Add(added).ok());
  const int components[] = {
      CountComponents(*bw.plan),
      CountComponents(AnalyzeWorkload(with_added).value())};

  // One replay: `churn` applies the ops, otherwise the same rows are pushed
  // plainly. Returns the two straddling pushes' microseconds.
  auto replay = [&](bool churn) {
    RunConfig config;
    config.kind = EngineKind::kHamletDynamic;
    Result<std::unique_ptr<Session>> opened =
        Session::Open(*bw.plan, config, /*sink=*/nullptr);
    HAMLET_CHECK(opened.ok());
    Session& session = *opened.value();
    std::pair<double, double> us;
    PushChunks(session, events, 0, row_at(add_at) - kHalf);
    if (churn) HAMLET_CHECK(session.AddQuery(added).value() == add_at);
    us.first = TimedPushUs(session, events, row_at(add_at) - kHalf,
                           row_at(add_at) + kHalf);
    PushChunks(session, events, row_at(add_at) + kHalf,
               row_at(remove_at) - kHalf);
    if (churn) HAMLET_CHECK(session.RemoveQuery(removed).value() == remove_at);
    us.second = TimedPushUs(session, events, row_at(remove_at) - kHalf,
                            row_at(remove_at) + kHalf);
    HAMLET_CHECK(session.Close().ok());
    return us;
  };
  constexpr int kHandoffReps = 7;
  std::vector<double> op_us[2], plain_us[2], diff_us[2];
  for (int rep = 0; rep < kHandoffReps; ++rep) {
    // Alternate which replay goes first, so warm-up favours neither.
    std::pair<double, double> op, plain;
    if (rep % 2 == 0) {
      op = replay(true);
      plain = replay(false);
    } else {
      plain = replay(false);
      op = replay(true);
    }
    const double ops[] = {op.first, op.second};
    const double plains[] = {plain.first, plain.second};
    for (int k = 0; k < 2; ++k) {
      op_us[k].push_back(ops[k]);
      plain_us[k].push_back(plains[k]);
      diff_us[k].push_back(ops[k] - plains[k]);
    }
  }

  Table table({"op", "runners", "straddling push us (IQR)",
               "plain push us (IQR)", "hand-off us (IQR)", "us per runner"});
  std::string json_rows;
  const char* names[] = {"add_query", "remove_query"};
  for (int k = 0; k < 2; ++k) {
    const Spread op = SpreadOf(op_us[k]);
    const Spread plain = SpreadOf(plain_us[k]);
    const Spread handoff = SpreadOf(diff_us[k]);
    const int64_t runners = group_keys * components[k];
    const double per_runner =
        handoff.median / static_cast<double>(std::max<int64_t>(runners, 1));
    auto cell = [](const Spread& s) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.0f (%.0f)", s.median, s.iqr);
      return std::string(buf);
    };
    char per_runner_str[32];
    std::snprintf(per_runner_str, sizeof(per_runner_str), "%.2f", per_runner);
    table.AddRow({names[k], std::to_string(runners), cell(op), cell(plain),
                  cell(handoff), per_runner_str});
    if (json) {
      char row[512];
      std::snprintf(row, sizeof(row),
                    "%s{\"op\":\"%s\",\"runners\":%lld,\"components\":%d,"
                    "\"straddling_push_us\":%.1f,"
                    "\"straddling_push_us_iqr\":%.1f,\"plain_push_us\":%.1f,"
                    "\"plain_push_us_iqr\":%.1f,\"handoff_us\":%.1f,"
                    "\"handoff_us_iqr\":%.1f,\"handoff_us_per_runner\":%.3f}",
                    json_rows.empty() ? "" : ",", names[k],
                    static_cast<long long>(runners), components[k], op.median,
                    op.iqr, plain.median, plain.iqr, handoff.median,
                    handoff.iqr, per_runner);
      json_rows += row;
    }
  }
  bench::PrintFigure(
      "Plan-epoch hand-off (W2 stock, 40 queries, 16 companies, 1 shard)",
      "the PushBatch(512) straddling an op's activation boundary vs the same "
      "rows without the op; median of 7 alternating replays (IQR); runners "
      "= group keys x components of the epoch handed off",
      table);
  if (json) {
    std::printf(
        "JSON: {\"bench\":\"push_overhead\",\"table\":\"epoch_handoff\","
        "\"group_keys\":%lld,\"pane_events\":%zu,\"reps\":%d,"
        "\"rows\":[%s]}\n",
        static_cast<long long>(group_keys), row_at(add_at), kHandoffReps,
        json_rows.c_str());
    std::fflush(stdout);
  }
}

void Run(int max_shards, int producers, bool json) {
  {
    BenchWorkload bw = MakeWorkload1("ridesharing", 8,
                                     /*window_ms=*/2 * kMillisPerSecond);
    GeneratorConfig gen;
    gen.seed = 11;
    gen.events_per_minute = Scale(20'000, 200'000);
    gen.duration_minutes = Scale(1, 3);
    gen.num_groups = 4;
    gen.burstiness = 0.9;
    gen.max_burst = 120;
    EventVector events = bw.generator->Generate(gen);
    // Part 1 times each replay on a stream five times longer (fast mode),
    // so one replay outlasts a host speed phase's jitter.
    GeneratorConfig overhead_gen = gen;
    overhead_gen.events_per_minute = Scale(100'000, 200'000);
    RunOverhead(bw, bw.generator->Generate(overhead_gen));
    // The run-propagation figure compares a single-group stream, whose
    // bursts arrive contiguous, with this four-group one, whose per-group
    // bursts interleave in time order and reach the engines whole only
    // through the group-major partition.
    GeneratorConfig run_gen = gen;
    run_gen.seed = 13;
    run_gen.num_groups = 1;
    std::vector<std::pair<int, EventVector>> run_streams;
    run_streams.emplace_back(1, bw.generator->Generate(run_gen));
    run_streams.emplace_back(gen.num_groups, events);
    RunRunPropagation(bw, run_streams, json);
  }
  {
    // Scaling wants many independent groups so the hash spreads work evenly
    // across shards; 64 districts keeps the worst shard within a few
    // percent of the mean at 8 shards.
    BenchWorkload bw = MakeWorkload1("ridesharing", 8,
                                     /*window_ms=*/2 * kMillisPerSecond);
    GeneratorConfig gen;
    gen.seed = 12;
    gen.events_per_minute = Scale(40'000, 400'000);
    gen.duration_minutes = Scale(1, 3);
    gen.num_groups = 64;
    gen.burstiness = 0.9;
    gen.max_burst = 120;
    EventVector events = bw.generator->Generate(gen);
    RunScaling(bw, events, max_shards, json);
    RunBursty(bw, events, max_shards, json);
    // Skewed preset: same workload, group keys rewritten to a hot-key
    // distribution with progressively appearing cold groups.
    EventVector skewed = events;
    SkewGroups(skewed, bw.plan->exec_queries[0].group_by, /*num_groups=*/64,
               /*hot_fraction=*/0.3, /*seed=*/21);
    RunSkewed(bw, skewed, max_shards, json);
    if (producers > 0) {
      RunMultiProducer(bw, skewed, max_shards, producers, json);
    }
  }
  RunEpochHandoff(json);
}

}  // namespace
}  // namespace hamlet

int main(int argc, char** argv) {
  // --threads=N caps the scaling curve (default 8: 1/2/4/8); --producers=N
  // drives the hot-key preset through N concurrent Producer handles
  // (0 skips the figure); --json appends a machine-readable line per table.
  hamlet::Run(hamlet::bench::ThreadsFlag(argc, argv, /*fallback=*/8),
              hamlet::bench::ProducersFlag(argc, argv, /*fallback=*/2),
              hamlet::bench::JsonFlag(argc, argv));
  return 0;
}
