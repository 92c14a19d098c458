// Live dashboard: push-based ingestion with incremental result delivery,
// running sharded across worker threads.
//
// Streams a bursty ridesharing feed through a hamlet::Session one event
// at a time — the shape of a production ingest loop — and prints
// every query result shortly after its window closes (no end-of-run
// buffering), plus a periodic status line with the dynamic optimizer's
// per-burst sharing decisions. The CallbackSink below is a plain
// single-threaded sink at every shard count: the shards buffer their
// emissions and the session fans them in to the sink on THIS thread during
// Push/AdvanceTo/Close, so the sink needs no locking and may even use
// thread-locals. Each shard's worker takes whatever events are waiting in
// its ring: an idle worker gets each event as soon as it is pushed, so
// dashboard lines appear promptly through lulls, while a busy one takes a
// burst's backlog in one engine call. Contrast with
// examples/quickstart.cpp, which uses the batch Run() wrapper.
//
// The run also exercises the query lifecycle and the online optimizer: a
// fourth query is registered on the LIVE session mid-stream (AddQuery
// compiles a new plan epoch that activates at the next pane boundary —
// results for it appear from that boundary on, everything already running
// is unaffected), and RunConfig::reoptimize_every_panes keeps the plan
// under review — every decision the OnlineReoptimizer took (observed vs
// best cost, swap or keep) is printed at the end.
//
// Pass --threads=N to change the shard count (default 2).
#include <cstdio>

#include "src/benchlib/harness.h"
#include "src/query/parser.h"
#include "src/runtime/session.h"
#include "src/stream/generators.h"

int main(int argc, char** argv) {
  using namespace hamlet;

  const int num_shards = bench::ThreadsFlag(argc, argv, /*fallback=*/2);

  RidesharingGenerator generator;
  Schema* schema = const_cast<Schema*>(&generator.schema());
  Workload workload(schema);
  const char* queries[] = {
      "RETURN COUNT(*) PATTERN SEQ(Request, Travel+) GROUPBY district "
      "WITHIN 10 s",
      "RETURN SUM(Travel.duration) PATTERN SEQ(Pool, Travel+, Dropoff) "
      "GROUPBY district WITHIN 10 s",
      "RETURN COUNT(*) PATTERN SEQ(Accept, Travel+, Cancel) "
      "GROUPBY district WITHIN 10 s",
  };
  for (const char* text : queries) {
    Result<Query> q = ParseQuery(text);
    HAMLET_CHECK(q.ok());
    HAMLET_CHECK(workload.Add(q.value()).ok());
  }
  Result<WorkloadPlan> plan = AnalyzeWorkload(workload);
  HAMLET_CHECK(plan.ok());
  std::printf("%s\n", plan->Describe().c_str());

  // Emissions carry the query name and window bounds, so rendering needs
  // neither the Workload nor the plan.
  CallbackSink sink([](const Emission& e) {
    std::printf("  [%6lld ms .. %6lld ms) district=%lld  %-24s -> %g\n",
                static_cast<long long>(e.window_start),
                static_cast<long long>(e.window_end),
                static_cast<long long>(e.group_key), e.query_name.c_str(),
                e.value);
  });

  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  config.num_shards = num_shards;  // validated at Open like every knob
  config.reoptimize_every_panes = 2;  // review the plan every 20 s pane pair
  Result<std::unique_ptr<Session>> session =
      Session::Open(*plan, config, &sink);
  HAMLET_CHECK(session.ok());
  std::printf("running on %d shard(s)\n", session.value()->num_shards());

  GeneratorConfig gen;
  gen.seed = 2026;
  gen.events_per_minute = 3000;
  gen.duration_minutes = 1;
  gen.num_groups = 2;
  gen.burstiness = 0.9;

  std::printf("live results (printed as each window closes):\n");
  std::unique_ptr<EventCursor> cursor = generator.Stream(gen);
  Event e;
  Timestamp next_status = 15 * kMillisPerSecond;
  bool cancel_rate_added = false;
  while (cursor->Next(&e)) {
    HAMLET_CHECK(session.value()->Push(e).ok());
    if (!cancel_rate_added && e.time >= 20 * kMillisPerSecond) {
      // Register a query on the live session: it compiles against the
      // running schema and starts emitting at the next pane boundary.
      Result<Query> q = ParseQuery(
          "RETURN COUNT(*) PATTERN SEQ(Request, Travel+, Cancel) "
          "GROUPBY district WITHIN 10 s");
      HAMLET_CHECK(q.ok());
      Query named = q.value();
      named.name = "cancel_rate";
      Result<Timestamp> at = session.value()->AddQuery(named);
      HAMLET_CHECK(at.ok());
      std::printf("  ** cancel_rate registered at t=%llds, live from %llds\n",
                  static_cast<long long>(e.time / kMillisPerSecond),
                  static_cast<long long>(at.value() / kMillisPerSecond));
      cancel_rate_added = true;
    }
    if (e.time >= next_status) {
      RunMetrics now = session.value()->MetricsSnapshot();
      std::printf(
          "  -- t=%llds: %lld events in, %lld/%lld bursts shared, "
          "%lld sharing decisions --\n",
          static_cast<long long>(e.time / kMillisPerSecond),
          static_cast<long long>(now.events),
          static_cast<long long>(now.hamlet.bursts_shared),
          static_cast<long long>(now.hamlet.bursts_total),
          static_cast<long long>(now.decisions));
      next_status += 15 * kMillisPerSecond;
    }
  }
  // The feed is drained; a watermark closes the final windows without
  // waiting for another event.
  HAMLET_CHECK(session.value()->AdvanceTo(gen.duration_minutes *
                                          kMillisPerMinute).ok());
  // Snapshot the online optimizer's decision log before Close tears the
  // session down.
  const std::vector<ReoptDecision> decisions = session.value()->reopt_log();
  RunMetrics m = session.value()->Close().value();
  std::printf(
      "\ndone: %lld events, %lld emissions, %lld/%lld bursts shared, "
      "engine throughput %.0f events/s\n",
      static_cast<long long>(m.events), static_cast<long long>(m.emissions),
      static_cast<long long>(m.hamlet.bursts_shared),
      static_cast<long long>(m.hamlet.bursts_total), m.throughput_eps);
  std::printf("re-optimization decisions (%lld checks, %lld swaps):\n",
              static_cast<long long>(m.reopt_checks),
              static_cast<long long>(m.reopt_swaps));
  for (const ReoptDecision& d : decisions) {
    std::printf("  pane %3llds: observed cost %.0f, best %.0f -> %s (%s)\n",
                static_cast<long long>(d.boundary / kMillisPerSecond),
                d.observed_cost, d.best_cost, d.swapped ? "SWAP" : "keep",
                d.detail.c_str());
  }
  return 0;
}
