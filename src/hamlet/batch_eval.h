// Single-window batch evaluation helper.
//
// Evaluates a full workload over one finite, pre-grouped event sequence:
// one pane, one window instance per exec query covering the whole stream.
// This is the unit tests and single-window benches operate on (the paper's
// evaluation axis is "events per window"); the streaming runtime in
// src/runtime adds panes, sliding windows and group-by partitioning.
#ifndef HAMLET_HAMLET_BATCH_EVAL_H_
#define HAMLET_HAMLET_BATCH_EVAL_H_

#include <vector>

#include "src/hamlet/hamlet_engine.h"
#include "src/query/columnar_predicate.h"
#include "src/stream/event_batch.h"

namespace hamlet {

/// Result of a batch evaluation.
struct BatchResult {
  /// Final value per exec query.
  std::vector<double> exec_values;
  /// Folded end-type payload per exec query.
  std::vector<AggValue> exec_aggs;
  /// Composed value per source query.
  std::vector<double> query_values;
  HamletStats stats;
  int64_t memory_bytes = 0;
};

/// Runs one HamletEngine over the whole stream (single pane & window) the
/// way the runtime does: stages the rows into an EventBatch, evaluates the
/// plan's event predicates batch-wide, segments the batch into runs and
/// feeds each through HamletEngine::OnRunFiltered. The plan's predicate
/// lists must compile (they do if Session::Open would accept the plan) —
/// CHECK-fails otherwise.
BatchResult EvalHamletBatch(const WorkloadPlan& plan, const EventVector& events,
                            SharingPolicy* policy);

}  // namespace hamlet

#endif  // HAMLET_HAMLET_BATCH_EVAL_H_
