// Ablations for the design choices called out in DESIGN.md §6:
//  (1) GRETA graph mode vs prefix-sum mode (how much of HAMLET's win
//      survives against a tuned non-shared baseline);
//  (2) sharing-decision granularity: dynamic per-burst vs static-always vs
//      never (the non-shared floor);
//  (3) cost-model variant: Definition 11 (simple) vs Definition 12
//      (refined) steering the dynamic optimizer.
#include "src/benchlib/harness.h"

namespace hamlet {
namespace {

using bench::Scale;

void Run() {
  // (1) GRETA graph vs prefix-sum vs HAMLET on workload 1.
  {
    Table table({"events/min", "hamlet", "greta_graph", "greta_prefix"});
    const Timestamp window = 30 * kMillisPerSecond;
    for (int rate : {Scale(1000, 10'000), Scale(2000, 20'000)}) {
      BenchWorkload bw = MakeWorkload1("ridesharing", 10, window);
      GeneratorConfig gen;
      gen.seed = 3;
      gen.events_per_minute = rate;
      gen.duration_minutes = 1;
      gen.num_groups = 4;
      gen.burstiness = 0.9;
      gen.max_burst = 120;
      RunConfig h;
      h.kind = EngineKind::kHamletDynamic;
      RunConfig gg;
      gg.kind = EngineKind::kGretaGraph;
      RunConfig gp;
      gp.kind = EngineKind::kGretaPrefix;
      table.AddRow({std::to_string(rate),
                    bench::Eps(bench::RunOnce(bw, gen, h).throughput_eps),
                    bench::Eps(bench::RunOnce(bw, gen, gg).throughput_eps),
                    bench::Eps(bench::RunOnce(bw, gen, gp).throughput_eps)});
    }
    bench::PrintFigure("Ablation 1", "baseline tuning: graph vs prefix-sum",
                       table);
  }

  // (2) Decision granularity on workload 2.
  {
    Table table({"policy", "latency", "throughput", "memory", "snapshots"});
    BenchWorkload bw = MakeWorkload2(Scale(20, 50));
    GeneratorConfig gen;
    gen.seed = 13;
    gen.events_per_minute = Scale(300, 3000);
    gen.duration_minutes = 20;
    gen.num_groups = 4;
    gen.burstiness = 0.992;
    gen.max_burst = 400;
    for (EngineKind kind :
         {EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
          EngineKind::kHamletNoShare}) {
      RunConfig config;
      config.kind = kind;
      RunMetrics m = bench::RunOnce(bw, gen, config);
      table.AddRow({EngineKindName(kind),
                    bench::Seconds(m.avg_latency_seconds),
                    bench::Eps(m.throughput_eps),
                    bench::Bytes(m.peak_memory_bytes),
                    std::to_string(m.hamlet.snapshots_created)});
    }
    bench::PrintFigure("Ablation 2", "decision granularity (workload 2)",
                       table);
  }

  // (3) Cost-model variant steering the dynamic policy.
  {
    Table table({"variant", "latency", "throughput", "shared%"});
    BenchWorkload bw = MakeWorkload2(Scale(20, 50));
    GeneratorConfig gen;
    gen.seed = 13;
    gen.events_per_minute = Scale(300, 3000);
    gen.duration_minutes = 20;
    gen.num_groups = 4;
    gen.burstiness = 0.992;
    gen.max_burst = 400;
    for (CostModelVariant variant :
         {CostModelVariant::kRuntime, CostModelVariant::kRefined,
          CostModelVariant::kSimple}) {
      RunConfig config;
      config.kind = EngineKind::kHamletDynamic;
      config.cost_variant = variant;
      RunMetrics m = bench::RunOnce(bw, gen, config);
      const double shared_pct =
          m.hamlet.bursts_total == 0
              ? 0
              : 100.0 * static_cast<double>(m.hamlet.bursts_shared) /
                    static_cast<double>(m.hamlet.bursts_total);
      const char* name = variant == CostModelVariant::kRuntime
                             ? "runtime(default)"
                             : variant == CostModelVariant::kRefined
                                   ? "refined(Def12)"
                                   : "simple(Def11)";
      table.AddRow({name, bench::Seconds(m.avg_latency_seconds),
                    bench::Eps(m.throughput_eps), Table::Num(shared_pct, 1)});
    }
    bench::PrintFigure("Ablation 3", "cost-model variant (workload 2)",
                       table);
  }
}

}  // namespace
}  // namespace hamlet

int main() {
  hamlet::Run();
  return 0;
}
