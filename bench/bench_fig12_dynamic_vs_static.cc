// Figure 12 (a-e): dynamic versus static sharing decisions (Stock data).
//
// Workload 2 is diverse (windows 5-20 min, mixed aggregates, predicates on
// several types, ~120-event bursts). The static optimizer decides at compile
// time to share everything; under predicate-driven snapshot churn this
// "does more harm than good" (paper §6.2). HAMLET's dynamic optimizer
// re-decides per burst, sharing only when the cost model's benefit is
// positive. The paper reports 21-34% latency speed-up and 27-52% throughput
// gain over static, and ~90% of bursts shared. Under the default kRuntime
// model this engine shares 40-50% of W2's bursts: its per-event-snapshot
// groups (mixed edge predicates) cost more shared than solo whatever the
// burst, so dynamic tracks the no-share column and beats static;
// docs/BENCHMARKS.md has measured rows.
//
// Section (e) measures online plan re-optimization on Workload 1
// (Ridesharing, the sharing-wins regime of Figs. 9-11): a session starts
// from a stale compile-time decision (all share groups split solo) that is
// either frozen for the whole run or handed to the OnlineReoptimizer
// (RunConfig::reoptimize_every_panes), which re-runs the pruned plan search
// on live statistics at pane boundaries and re-merges the groups via a
// pane-aligned hot swap once the observed cost drifts past the threshold —
// closing most of the gap to the oracle shared plan.
//
// Pass --json to append one machine-readable `JSON: {...}` line per figure
// (CI greps these into the bench-json artifact).
#include <cstdio>
#include <string>

#include "src/benchlib/harness.h"

namespace hamlet {
namespace {

using bench::Scale;

GeneratorConfig GenFor(int rate, int minutes = 20) {
  GeneratorConfig gen;
  gen.seed = 13;
  gen.events_per_minute = rate;
  gen.duration_minutes = minutes;  // default: one full cycle of the largest
                                   // window
  gen.num_groups = 4;
  gen.burstiness = 0.992;  // ~120-event average bursts as in the paper
  gen.max_burst = 400;
  return gen;
}

/// The online column needs more than RunOnce exposes: the per-check
/// ReoptDecision log (observed vs best cost, swap detail). Same 512-event
/// batching as the harness drain loop.
struct OnlineRun {
  RunMetrics metrics;
  std::vector<ReoptDecision> log;
};

OnlineRun RunOnlineOnce(const BenchWorkload& bw,
                        const GeneratorConfig& gen_config,
                        const RunConfig& run_config,
                        std::span<const SharingOverride> initial = {}) {
  std::unique_ptr<EventCursor> cursor = bw.generator->Stream(gen_config);
  Result<std::unique_ptr<Session>> session =
      Session::Open(*bw.plan, run_config, /*sink=*/nullptr);
  HAMLET_CHECK(session.ok());
  Session& s = *session.value();
  // A pre-stream override models a stale compile-time decision: the session
  // starts on the restricted plan, but the reoptimizer keeps the
  // UNRESTRICTED groups as its search space and can re-merge them.
  if (!initial.empty()) HAMLET_CHECK(s.ApplySharingOverrides(initial).ok());
  constexpr size_t kBatch = 512;
  EventVector batch;
  batch.reserve(kBatch);
  Event e;
  while (cursor->Next(&e)) {
    batch.push_back(e);
    if (batch.size() == kBatch) {
      HAMLET_CHECK(s.PushBatch(batch).ok());
      batch.clear();
    }
  }
  HAMLET_CHECK(s.PushBatch(batch).ok());
  OnlineRun out;
  out.metrics = s.Close().value();
  out.log = s.reopt_log();
  return out;
}

void EmitJson(const std::string& figure, const std::string& rows) {
  std::printf(
      "JSON: {\"bench\":\"fig12_dynamic_vs_static\",\"figure\":\"%s\","
      "\"rows\":[%s]}\n",
      figure.c_str(), rows.c_str());
  std::fflush(stdout);
}

void Run(bool json) {
  // (a)+(c): vary events per minute (paper: 2K-4K).
  {
    Table latency({"events/min", "dynamic", "static", "no-share",
                   "shared_bursts%", "snapshots_dyn", "snapshots_static"});
    Table throughput({"events/min", "dynamic", "static", "no-share"});
    std::string json_rows;
    for (int rate :
         {Scale(200, 2000), Scale(300, 3000), Scale(400, 4000)}) {
      BenchWorkload bw = MakeWorkload2(Scale(20, 50));
      RunConfig dyn_cfg;
      dyn_cfg.kind = EngineKind::kHamletDynamic;
      RunConfig stat_cfg;
      stat_cfg.kind = EngineKind::kHamletStatic;
      RunConfig solo_cfg;
      solo_cfg.kind = EngineKind::kHamletNoShare;
      RunMetrics d = bench::RunOnce(bw, GenFor(rate), dyn_cfg);
      RunMetrics s = bench::RunOnce(bw, GenFor(rate), stat_cfg);
      RunMetrics n = bench::RunOnce(bw, GenFor(rate), solo_cfg);
      const double shared_pct =
          d.hamlet.bursts_total == 0
              ? 0
              : 100.0 * static_cast<double>(d.hamlet.bursts_shared) /
                    static_cast<double>(d.hamlet.bursts_total);
      latency.AddRow({std::to_string(rate),
                      bench::Seconds(d.avg_latency_seconds),
                      bench::Seconds(s.avg_latency_seconds),
                      bench::Seconds(n.avg_latency_seconds),
                      Table::Num(shared_pct, 1),
                      std::to_string(d.hamlet.snapshots_created),
                      std::to_string(s.hamlet.snapshots_created)});
      throughput.AddRow({std::to_string(rate), bench::Eps(d.throughput_eps),
                         bench::Eps(s.throughput_eps),
                         bench::Eps(n.throughput_eps)});
      if (json) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "%s{\"rate\":%d,\"dynamic_latency_s\":%.6f,"
            "\"static_latency_s\":%.6f,\"noshare_latency_s\":%.6f,"
            "\"dynamic_eps\":%.1f,\"static_eps\":%.1f,\"noshare_eps\":%.1f,"
            "\"shared_bursts_pct\":%.1f}",
            json_rows.empty() ? "" : ",", rate, d.avg_latency_seconds,
            s.avg_latency_seconds, n.avg_latency_seconds, d.throughput_eps,
            s.throughput_eps, n.throughput_eps, shared_pct);
        json_rows += buf;
      }
    }
    bench::PrintFigure("Figure 12(a)",
                       "latency vs events/min (dynamic vs static, Stock)",
                       latency);
    bench::PrintFigure("Figure 12(c)",
                       "throughput vs events/min (dynamic vs static, Stock)",
                       throughput);
    if (json) EmitJson("12ac_rate_sweep", json_rows);
  }

  // (b)+(d): vary the number of queries (paper: 20-100).
  {
    Table latency({"queries", "dynamic", "static", "no-share"});
    Table throughput({"queries", "dynamic", "static", "no-share"});
    std::string json_rows;
    const int rate = Scale(300, 3000);
    for (int k : {20, Scale(40, 60), Scale(60, 100)}) {
      BenchWorkload bw = MakeWorkload2(k);
      RunConfig dyn_cfg;
      dyn_cfg.kind = EngineKind::kHamletDynamic;
      RunConfig stat_cfg;
      stat_cfg.kind = EngineKind::kHamletStatic;
      RunConfig solo_cfg;
      solo_cfg.kind = EngineKind::kHamletNoShare;
      RunMetrics d = bench::RunOnce(bw, GenFor(rate), dyn_cfg);
      RunMetrics s = bench::RunOnce(bw, GenFor(rate), stat_cfg);
      RunMetrics n = bench::RunOnce(bw, GenFor(rate), solo_cfg);
      latency.AddRow({std::to_string(k),
                      bench::Seconds(d.avg_latency_seconds),
                      bench::Seconds(s.avg_latency_seconds),
                      bench::Seconds(n.avg_latency_seconds)});
      throughput.AddRow({std::to_string(k), bench::Eps(d.throughput_eps),
                         bench::Eps(s.throughput_eps),
                         bench::Eps(n.throughput_eps)});
      if (json) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "%s{\"queries\":%d,\"dynamic_latency_s\":%.6f,"
            "\"static_latency_s\":%.6f,\"noshare_latency_s\":%.6f,"
            "\"dynamic_eps\":%.1f,\"static_eps\":%.1f,\"noshare_eps\":%.1f}",
            json_rows.empty() ? "" : ",", k, d.avg_latency_seconds,
            s.avg_latency_seconds, n.avg_latency_seconds, d.throughput_eps,
            s.throughput_eps, n.throughput_eps);
        json_rows += buf;
      }
    }
    bench::PrintFigure("Figure 12(b)",
                       "latency vs #queries (dynamic vs static, Stock)",
                       latency);
    bench::PrintFigure("Figure 12(d)",
                       "throughput vs #queries (dynamic vs static, Stock)",
                       throughput);
    if (json) EmitJson("12bd_query_sweep", json_rows);
  }

  // (e): online plan re-optimization (Workload 1, Ridesharing — the
  // sharing-wins regime of Figs. 9-11). All three runs drive the same
  // engine (kHamletStatic) over the same stream; "frozen" and "online"
  // both start from a STALE compile-time decision — every share group
  // split into solo queries, as a cold-start optimizer with no statistics
  // would leave it. Frozen never revisits that plan. Online hands it to
  // the OnlineReoptimizer (check every 2 panes, 10% drift threshold),
  // which sees the observed solo cost dwarf the best shared plan's cost
  // and re-merges the groups via a pane-aligned hot swap a few panes in —
  // closing most of the gap to "shared", the oracle compile-time plan.
  {
    Table online({"events/min", "frozen(solo)", "online", "shared(oracle)",
                  "checks", "swaps", "plan_epochs"});
    std::string json_rows;
    const Timestamp window = 10 * kMillisPerSecond;  // pane = 10 s
    for (int rate : {Scale(3000, 10'000), Scale(4500, 15'000),
                     Scale(6000, 20'000)}) {
      BenchWorkload bw = MakeWorkload1("ridesharing", Scale(20, 25), window,
                                       /*with_predicate=*/false);
      // The stale decision: keep only the first member of every potential
      // share group (Count()<2 => the group runs solo).
      std::vector<SharingOverride> solo;
      for (const ShareGroup& sg : bw.plan->share_groups) {
        SharingOverride ov;
        ov.type = sg.type;
        ov.original_members = sg.members;
        int first = -1;
        sg.members.ForEach([&](QueryId q) {
          if (first < 0) first = q;
        });
        ov.shared = QuerySet::Single(first);
        solo.push_back(ov);
      }
      GeneratorConfig gen;
      gen.seed = 7;
      gen.events_per_minute = rate;
      gen.duration_minutes = 3;  // 18 panes -> up to 8 checks
      gen.num_groups = 4;
      gen.burstiness = 0.9;
      gen.max_burst = 40;
      RunConfig frozen_cfg;
      frozen_cfg.kind = EngineKind::kHamletStatic;
      RunConfig online_cfg;
      online_cfg.kind = EngineKind::kHamletStatic;
      online_cfg.reoptimize_every_panes = 2;
      online_cfg.reoptimize_threshold = 0.1;
      RunConfig shared_cfg;
      shared_cfg.kind = EngineKind::kHamletStatic;
      RunMetrics f = RunOnlineOnce(bw, gen, frozen_cfg, solo).metrics;
      OnlineRun or_ = RunOnlineOnce(bw, gen, online_cfg, solo);
      const RunMetrics& o = or_.metrics;
      RunMetrics s = RunOnlineOnce(bw, gen, shared_cfg).metrics;
      online.AddRow({std::to_string(rate),
                     bench::Seconds(f.avg_latency_seconds),
                     bench::Seconds(o.avg_latency_seconds),
                     bench::Seconds(s.avg_latency_seconds),
                     std::to_string(o.reopt_checks),
                     std::to_string(o.reopt_swaps),
                     std::to_string(o.plan_swaps)});
      std::printf("  reopt decisions @ %d ev/min:\n", rate);
      for (const ReoptDecision& dec : or_.log) {
        std::printf("    pane %lld: observed=%.1f best=%.1f %s (%s)\n",
                    static_cast<long long>(dec.boundary), dec.observed_cost,
                    dec.best_cost, dec.swapped ? "SWAP" : "keep",
                    dec.detail.c_str());
      }
      if (json) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "%s{\"rate\":%d,\"frozen_latency_s\":%.6f,"
            "\"online_latency_s\":%.6f,\"shared_latency_s\":%.6f,"
            "\"frozen_eps\":%.1f,\"online_eps\":%.1f,\"shared_eps\":%.1f,"
            "\"reopt_checks\":%lld,\"reopt_swaps\":%lld,"
            "\"plan_swaps\":%lld}",
            json_rows.empty() ? "" : ",", rate, f.avg_latency_seconds,
            o.avg_latency_seconds, s.avg_latency_seconds, f.throughput_eps,
            o.throughput_eps, s.throughput_eps,
            static_cast<long long>(o.reopt_checks),
            static_cast<long long>(o.reopt_swaps),
            static_cast<long long>(o.plan_swaps));
        json_rows += buf;
      }
    }
    bench::PrintFigure(
        "Figure 12(e)",
        "latency: frozen stale plan vs online re-optimization (Ridesharing)",
        online);
    if (json) EmitJson("12e_online_reopt", json_rows);
  }
}

}  // namespace
}  // namespace hamlet

int main(int argc, char** argv) {
  hamlet::Run(hamlet::bench::JsonFlag(argc, argv));
  return 0;
}
