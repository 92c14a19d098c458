// Ridesharing monitor: the paper's Figure 1 scenario.
//
// Three trip-statistics queries over a ridesharing stream share the
// expensive Travel+ Kleene sub-pattern; HAMLET decides per burst whether
// sharing pays off. Compares the dynamic executor against non-shared GRETA
// on the same stream.
#include <cstdio>

#include "src/query/parser.h"
#include "src/runtime/executor.h"
#include "src/stream/generators.h"

int main() {
  using namespace hamlet;

  RidesharingGenerator generator;
  Schema* schema = const_cast<Schema*>(&generator.schema());
  Workload workload(schema);

  // Figure 1, adapted to the linear-pattern core (one type per pattern):
  //  q1: trips where the driver travels after a request (trend count),
  //  q2: pooled trips ending in a dropoff (total trip duration),
  //  q3: cancelled trips in slow traffic (average speed).
  const char* queries[] = {
      "RETURN COUNT(*) PATTERN SEQ(Request, Travel+, NOT Pickup, Cancel) "
      "GROUPBY district WITHIN 2 min",
      "RETURN SUM(Travel.duration) PATTERN SEQ(Pool, Travel+, Dropoff) "
      "GROUPBY district WITHIN 2 min",
      "RETURN COUNT(*) PATTERN SEQ(Accept, Travel+, Cancel) "
      "WHERE Travel.speed < 10 GROUPBY district WITHIN 2 min",
  };
  for (const char* text : queries) {
    Result<Query> q = ParseQuery(text);
    HAMLET_CHECK(q.ok());
    HAMLET_CHECK(workload.Add(q.value()).ok());
  }
  Result<WorkloadPlan> plan = AnalyzeWorkload(workload);
  HAMLET_CHECK(plan.ok());
  std::printf("%s\n", plan->Describe().c_str());
  std::printf("Merged workload template:\n%s\n",
              plan->merged.ToString(*schema).c_str());

  GeneratorConfig gen;
  gen.seed = 2021;
  gen.events_per_minute = 4000;
  gen.duration_minutes = 4;
  gen.num_groups = 4;
  gen.burstiness = 0.9;
  EventVector events = generator.Generate(gen);

  for (EngineKind kind : {EngineKind::kHamletDynamic,
                          EngineKind::kGretaGraph}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(*plan, config);
    RunOutput out = executor.Run(events);
    std::printf(
        "%-14s: %8.0f events/s, avg latency %.3f ms, peak memory %lld KB\n",
        EngineKindName(kind), out.metrics.throughput_eps,
        out.metrics.avg_latency_seconds * 1e3,
        static_cast<long long>(out.metrics.peak_memory_bytes / 1024));
    if (kind == EngineKind::kHamletDynamic) {
      std::printf(
          "                %lld/%lld bursts shared, %lld snapshots "
          "(%lld event-level), %lld splits, %lld merges\n",
          static_cast<long long>(out.metrics.hamlet.bursts_shared),
          static_cast<long long>(out.metrics.hamlet.bursts_total),
          static_cast<long long>(out.metrics.hamlet.snapshots_created),
          static_cast<long long>(out.metrics.hamlet.event_snapshots),
          static_cast<long long>(out.metrics.hamlet.splits),
          static_cast<long long>(out.metrics.hamlet.merges));
    }
  }
  return 0;
}
