// Google-benchmark micro-kernels for the hot paths: expression algebra,
// snapshot store access, GRETA per-event propagation, HAMLET shared
// propagation, the row-vs-columnar predicate pipeline, and 1-row vs
// maximal-run engine propagation. These are the constants behind the
// paper's cost model terms; the row/columnar and row/run pairs are the CI
// guard for the columnar layer's speedup claims (see docs/BENCHMARKS.md).
//
// Flags: `--json` is shorthand for --benchmark_format=json (the CI
// artifact); all other arguments pass through to google-benchmark.
#include <benchmark/benchmark.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/greta/greta_engine.h"
#include "src/hamlet/batch_eval.h"
#include "src/optimizer/policies.h"
#include "src/plan/workload_plan.h"
#include "src/query/columnar_predicate.h"
#include "src/query/parser.h"
#include "src/stream/event_batch.h"
#include "src/stream/stream_builder.h"

namespace hamlet {
namespace {

void BM_ExprAddExpr(benchmark::State& state) {
  SnapshotStore store;
  Expr running;
  std::vector<SnapshotId> vars;
  for (int i = 0; i < state.range(0); ++i) vars.push_back(store.Create());
  for (SnapshotId v : vars) running.AddVar(v, 1.0);
  for (auto _ : state) {
    Expr node = Expr::Var(vars[0]);
    node.AddExpr(running);
    benchmark::DoNotOptimize(node.num_terms());
  }
}
BENCHMARK(BM_ExprAddExpr)->Arg(2)->Arg(8)->Arg(32);

void BM_ExprEval(benchmark::State& state) {
  SnapshotStore store;
  Expr e;
  for (int i = 0; i < state.range(0); ++i) {
    SnapshotId v = store.Create();
    store.Set(v, 0, LinAgg{.count = 1.0, .sum = 2.0, .count_e = 3.0});
    e.AddVar(v, 1.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Eval(store, 0).count);
  }
}
BENCHMARK(BM_ExprEval)->Arg(2)->Arg(8)->Arg(32);

struct EngineSetup {
  Schema schema;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<WorkloadPlan> plan;
  EventVector events;

  explicit EngineSetup(int num_events) {
    workload = std::make_unique<Workload>(&schema);
    for (const char* text :
         {"RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 1 min",
          "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 1 min"}) {
      HAMLET_CHECK(workload->Add(ParseQuery(text).value()).ok());
    }
    plan = std::make_unique<WorkloadPlan>(
        AnalyzeWorkload(*workload).value());
    StreamBuilder sb(&schema);
    for (int i = 0; i < num_events / 10; ++i) {
      sb.Add("A").Add("C").AddRun(8, "B");
    }
    events = sb.Take();
  }
};

void BM_GretaGraphWindow(benchmark::State& state) {
  EngineSetup setup(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    GretaEngine engine(setup.plan->exec_queries[0], GretaMode::kGraph);
    for (const Event& e : setup.events) engine.OnEvent(e);
    benchmark::DoNotOptimize(engine.Value());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(setup.events.size()));
}
BENCHMARK(BM_GretaGraphWindow)->Arg(100)->Arg(1000);

void BM_GretaPrefixWindow(benchmark::State& state) {
  EngineSetup setup(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    GretaEngine engine(setup.plan->exec_queries[0], GretaMode::kPrefixSum);
    for (const Event& e : setup.events) engine.OnEvent(e);
    benchmark::DoNotOptimize(engine.Value());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(setup.events.size()));
}
BENCHMARK(BM_GretaPrefixWindow)->Arg(100)->Arg(1000);

void BM_HamletSharedWindow(benchmark::State& state) {
  EngineSetup setup(static_cast<int>(state.range(0)));
  AlwaysSharePolicy policy;
  for (auto _ : state) {
    BatchResult r = EvalHamletBatch(*setup.plan, setup.events, &policy);
    benchmark::DoNotOptimize(r.exec_values[0]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(setup.events.size()));
}
BENCHMARK(BM_HamletSharedWindow)->Arg(100)->Arg(1000);

// --------------------------------------------------------------------------
// Row vs columnar predicate pipeline. Same predicated workload, same rows;
// the row path evaluates PassesEventPredicates per event per query, the
// columnar path runs PredicateProgram::EvalBatch (one kernel pass per
// predicate over contiguous columns). CI asserts the ratio of these two
// series stays >= 2x (docs/BENCHMARKS.md).
struct PredicateSetup {
  Schema schema;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<WorkloadPlan> plan;
  EventVector rows;
  EventBatch batch;
  PredicateProgram program;

  explicit PredicateSetup(int num_events) {
    workload = std::make_unique<Workload>(&schema);
    for (const char* text :
         {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.x > 2 WITHIN 1 min",
          "RETURN SUM(B.x) PATTERN SEQ(C, B+) WHERE B.x <= 7 WITHIN 1 min"}) {
      HAMLET_CHECK(workload->Add(ParseQuery(text).value()).ok());
    }
    plan =
        std::make_unique<WorkloadPlan>(AnalyzeWorkload(*workload).value());
    StreamBuilder sb(&schema);
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> x(0.0, 10.0);
    for (int i = 0; i < num_events / 10; ++i) {
      sb.Add("A", {x(rng)}).Add("C", {x(rng)});
      for (int k = 0; k < 8; ++k) sb.Add("B", {x(rng)});
    }
    rows = sb.Take();
    batch = EventBatch::FromRows(rows, schema.num_attrs());
    program = CompilePredicateProgram(*plan).value();
  }
};

void BM_PredicateRowPath(benchmark::State& state) {
  PredicateSetup setup(static_cast<int>(state.range(0)));
  int64_t selected = 0;
  for (auto _ : state) {
    for (const Event& e : setup.rows) {
      for (const ExecQuery& q : setup.plan->exec_queries) {
        selected += PassesEventPredicates(q.event_predicates, e) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(selected);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(setup.rows.size()));
}
BENCHMARK(BM_PredicateRowPath)->Arg(1000)->Arg(10000);

void BM_PredicateColumnarKernel(benchmark::State& state) {
  PredicateSetup setup(static_cast<int>(state.range(0)));
  BatchSelection selection;
  int64_t selected = 0;
  for (auto _ : state) {
    setup.program.EvalBatch(setup.batch, &selection);
    for (const SelectionMask& m : selection.masks)
      selected += m.CountSelected();
    benchmark::DoNotOptimize(selected);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(setup.rows.size()));
}
BENCHMARK(BM_PredicateColumnarKernel)->Arg(1000)->Arg(10000);

// Masked aggregation given the SAME precomputed 0/1 mask: the row path's
// branchy accumulate (data-dependent branch, mispredicts on a ~50% mask)
// vs the branchless MaskedLinAggKernel.
struct MaskedAggSetup {
  std::vector<double> col;
  std::vector<uint8_t> mask01;

  explicit MaskedAggSetup(int rows) {
    std::mt19937 rng(11);
    std::uniform_real_distribution<double> x(0.0, 10.0);
    col.reserve(static_cast<size_t>(rows));
    mask01.reserve(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i) {
      double v = x(rng);
      col.push_back(v);
      mask01.push_back(v > 5.0 ? 1 : 0);
    }
  }
};

void BM_MaskedAggRowPath(benchmark::State& state) {
  MaskedAggSetup setup(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    double count = 0.0, sum = 0.0;
    for (size_t i = 0; i < setup.col.size(); ++i) {
      if (setup.mask01[i]) {
        count += 1.0;
        sum += setup.col[i];
      }
    }
    benchmark::DoNotOptimize(count);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(setup.col.size()));
}
BENCHMARK(BM_MaskedAggRowPath)->Arg(1000)->Arg(10000);

// Row vs run propagation into the HAMLET engine: the same pre-filtered
// bursty stream, fed through OnRunFiltered as 1-row runs (what per-event
// Push dispatches — one lane transition, negation check and graphlet append
// per row) vs as maximal runs (transitions hoisted to the run head,
// node-free fast appends for the tail). CI asserts run >= row on this pair;
// the stream's 8-long B bursts are the shape the run path is built for.
struct PropagationSetup : EngineSetup {
  EventBatch batch;
  std::vector<RunSpan> runs;
  std::vector<RunSpan> row_runs;
  QuerySet all;

  explicit PropagationSetup(int num_events) : EngineSetup(num_events) {
    batch = EventBatch::FromRows(events, schema.num_attrs());
    all = QuerySet::FirstN(plan->num_exec());
    SegmentRuns(batch, batch.size(), /*pane_size=*/0, all,
                /*predicated_queries=*/{}, /*masks=*/{}, &runs);
    for (int i = 0; i < batch.size(); ++i) {
      RunSpan& row = row_runs.emplace_back();
      row.type = batch.types()[static_cast<size_t>(i)];
      row.row_begin = i;
      row.row_end = i + 1;
      row.passes = all;
    }
  }
};

template <typename FeedFn>
void RunPropagationBench(benchmark::State& state, PropagationSetup& setup,
                         FeedFn&& feed) {
  AlwaysSharePolicy policy;
  const Timestamp start = setup.events.front().time;
  const Timestamp end = setup.events.back().time + 1;
  for (auto _ : state) {
    HamletEngine engine(*setup.plan, setup.all, &policy);
    for (int e = 0; e < setup.plan->num_exec(); ++e)
      engine.OpenContext(e, start, end);
    engine.OnPaneStart(start);
    feed(engine);
    engine.OnPaneEnd();
    benchmark::DoNotOptimize(engine.stats().events);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(setup.events.size()));
}

void BM_RowPropagation(benchmark::State& state) {
  PropagationSetup setup(static_cast<int>(state.range(0)));
  RunPropagationBench(state, setup, [&](HamletEngine& engine) {
    for (const RunSpan& r : setup.row_runs)
      engine.OnRunFiltered(setup.batch, r);
  });
}
BENCHMARK(BM_RowPropagation)->Arg(1000)->Arg(10000);

void BM_RunPropagation(benchmark::State& state) {
  PropagationSetup setup(static_cast<int>(state.range(0)));
  RunPropagationBench(state, setup, [&](HamletEngine& engine) {
    for (const RunSpan& r : setup.runs) engine.OnRunFiltered(setup.batch, r);
  });
}
BENCHMARK(BM_RunPropagation)->Arg(1000)->Arg(10000);

void BM_MaskedAggColumnarKernel(benchmark::State& state) {
  MaskedAggSetup setup(static_cast<int>(state.range(0)));
  const int rows = static_cast<int>(setup.col.size());
  for (auto _ : state) {
    double count = 0.0, sum = 0.0;
    MaskedLinAggKernel(setup.col.data(), setup.mask01.data(), rows, &count,
                       &sum);
    benchmark::DoNotOptimize(count);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(setup.col.size()));
}
BENCHMARK(BM_MaskedAggColumnarKernel)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace hamlet

// Custom main: rewrite `--json` to google-benchmark's spelling, then
// delegate. Keeps the CI invocation consistent with the figure benches
// (which also take `--json`).
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string json_flag = "--benchmark_format=json";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      args.push_back(json_flag.data());
    } else {
      args.push_back(argv[i]);
    }
  }
  int fake_argc = static_cast<int>(args.size());
  benchmark::Initialize(&fake_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(fake_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
