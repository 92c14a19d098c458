#include "src/hamlet/batch_eval.h"

namespace hamlet {

namespace {

/// Epilogue: close contexts, compose query values, fold stats.
BatchResult FinishBatch(const WorkloadPlan& plan, HamletEngine& engine,
                        const std::vector<ContextId>& ctxs) {
  BatchResult out;
  out.memory_bytes = engine.MemoryBytes();
  out.exec_values.resize(static_cast<size_t>(plan.num_exec()));
  out.exec_aggs.resize(static_cast<size_t>(plan.num_exec()));
  for (int e = 0; e < plan.num_exec(); ++e) {
    ContextResult r = engine.CloseContext(ctxs[static_cast<size_t>(e)]);
    out.exec_values[static_cast<size_t>(e)] = r.value;
    out.exec_aggs[static_cast<size_t>(e)] = r.agg;
  }
  for (const CompositionRule& rule : plan.compositions) {
    std::vector<double> branch_values;
    for (int id : rule.exec_ids)
      branch_values.push_back(out.exec_values[static_cast<size_t>(id)]);
    out.query_values.push_back(ComposeQueryValue(rule, branch_values));
  }
  out.stats = engine.stats();
  return out;
}

}  // namespace

BatchResult EvalHamletBatch(const WorkloadPlan& plan,
                            const EventVector& events, SharingPolicy* policy) {
  Result<PredicateProgram> program = CompilePredicateProgram(plan);
  HAMLET_CHECK(program.ok());
  const PredicateProgram& prog = program.value();
  const EventBatch batch =
      EventBatch::FromRows(events, plan.workload->schema()->num_attrs());
  BatchSelection selection;
  prog.EvalBatch(batch, &selection);
  const QuerySet all = QuerySet::FirstN(plan.num_exec());

  HamletEngine engine(plan, all, policy);
  const Timestamp start = batch.empty() ? 0 : batch.time(0);
  const Timestamp end = batch.empty() ? 1 : batch.time(batch.size() - 1) + 1;
  std::vector<ContextId> ctxs;
  for (int e = 0; e < plan.num_exec(); ++e)
    ctxs.push_back(engine.OpenContext(e, start, end));
  engine.OnPaneStart(start);
  // Run-granular dispatch: segment the selection bitmaps + type column into
  // maximal same-type, same-pass-set runs (pane_size <= 0: single pane, no
  // pane splits) and feed each through the engine's run entry point — the
  // same code path Session's ingress uses.
  std::vector<RunSpan> runs;
  SegmentRuns(batch, batch.size(), /*pane_size=*/0, all,
              prog.predicated_queries(), selection.masks, &runs);
  // The run entry point leaves dropping irrelevant types to the dispatcher.
  const int num_types = plan.workload->schema()->num_types();
  std::vector<bool> relevant(static_cast<size_t>(num_types), false);
  for (const ExecQuery& eq : plan.exec_queries) {
    for (TypeId t : eq.tmpl.pattern.AllTypes())
      relevant[static_cast<size_t>(t)] = true;
  }
  for (const RunSpan& run : runs) {
    if (run.type < 0 || run.type >= num_types ||
        !relevant[static_cast<size_t>(run.type)])
      continue;
    engine.OnRunFiltered(batch, run);
  }
  engine.OnPaneEnd();
  return FinishBatch(plan, engine, ctxs);
}

}  // namespace hamlet
