// Per-(exec query, window instance) numeric state.
//
// All shared computation in the HAMLET engine is symbolic; everything
// numeric lives here, keyed by context: per-type running payload totals
// (the basis of graphlet-level snapshot values, Eq. 5), negation-guarded
// boundary accumulators, MIN/MAX folds, and the final end-type accumulation
// (Eq. 3).
#ifndef HAMLET_HAMLET_CONTEXT_STATE_H_
#define HAMLET_HAMLET_CONTEXT_STATE_H_

#include <limits>
#include <vector>

#include "src/hamlet/expr.h"
#include "src/stream/event.h"

namespace hamlet {

/// Order-payload fold (min/max are not linear; kept numeric per context).
struct MinMax {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Fold(const MinMax& o) {
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }
  void FoldValue(double v) {
    if (v < min) min = v;
    if (v > max) max = v;
  }
};

/// State of one open window instance of one exec query.
struct ContextState {
  ContextId id = -1;
  int exec_id = -1;
  Timestamp window_start = 0;
  Timestamp window_end = 0;  ///< exclusive
  bool open = false;
  /// Edge-predicate queries: the window's scan columns in the engine
  /// (HamletEngine::column_sets_); -1 otherwise.
  int32_t column_set = -1;

  /// Running payload totals per event type (sum of count(e) payloads of all
  /// folded events of that type within this window).
  std::vector<LinAgg> type_totals;
  std::vector<MinMax> type_mm;

  /// Chain-boundary accumulators per pattern position; reset when a
  /// boundary-negated event arrives (feeds snapshot values instead of
  /// type_totals for negated boundaries).
  std::vector<LinAgg> boundary_totals;
  std::vector<MinMax> boundary_mm;

  /// Folded end-type payload (reset by trailing negation).
  LinAgg final_lin;
  MinMax final_mm;

  void ResetFor(int exec, int num_types, int num_positions, Timestamp ws,
                Timestamp we) {
    exec_id = exec;
    window_start = ws;
    window_end = we;
    open = true;
    type_totals.assign(static_cast<size_t>(num_types), LinAgg());
    type_mm.assign(static_cast<size_t>(num_types), MinMax());
    boundary_totals.assign(static_cast<size_t>(num_positions), LinAgg());
    boundary_mm.assign(static_cast<size_t>(num_positions), MinMax());
    final_lin = LinAgg();
    final_mm = MinMax();
  }

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(
        sizeof(ContextState) + type_totals.capacity() * sizeof(LinAgg) +
        type_mm.capacity() * sizeof(MinMax) +
        boundary_totals.capacity() * sizeof(LinAgg) +
        boundary_mm.capacity() * sizeof(MinMax));
  }
};

}  // namespace hamlet

#endif  // HAMLET_HAMLET_CONTEXT_STATE_H_
