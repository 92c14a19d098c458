// Run segmentation: turning selection bitmaps + type columns into runs.
//
// A *run* is a maximal contiguous span of same-type rows within one pane
// whose predicated pass-sets are identical on every row (paper §4: a burst
// of same-type events inside a pane shares one snapshot, so trend counts
// propagate per run, not per event). The segmenter is the bridge between
// the columnar predicate layer (SelectionMask bitmaps over an EventBatch)
// and the run-granular engine entry point HamletEngine::OnRunFiltered:
//
//   EvalBatch bitmaps + type column + pane grid  ->  {type, [begin,end), passes}
//
// Boundaries are placed where (a) the type column changes, (b) any
// predicated query's selection bit flips (detected word-parallel via
// shifted-XOR over the packed mask words), or (c) the row crosses a pane
// boundary (runs never span panes — pane state transitions stay per-pane).
#ifndef HAMLET_QUERY_RUN_SEGMENTER_H_
#define HAMLET_QUERY_RUN_SEGMENTER_H_

#include <vector>

#include "src/common/query_set.h"
#include "src/query/columnar_predicate.h"
#include "src/stream/event_batch.h"

namespace hamlet {

/// One maximal same-type, same-pass-set, pane-confined span of batch rows.
struct RunSpan {
  TypeId type = Schema::kInvalidId;
  int row_begin = 0;
  int row_end = 0;  ///< exclusive
  /// Exec queries whose event predicates pass on EVERY row of the run
  /// (constant across the run by construction — a flip ends the run).
  QuerySet passes;
};

/// Segments rows [0, rows) of `batch` into runs, appending to `*out` (which
/// is cleared first; capacity is reused across calls — steady-state
/// allocation-free once warm).
///
/// `masks` / `predicated_queries` are PredicateProgram::EvalBatch output and
/// PredicateProgram::predicated_queries() (both may be empty for a trivial
/// program: every run then passes `all_execs`). Each run's `passes` is
/// `all_execs` minus the predicated queries whose mask is 0 on the run,
/// computed once per run.
///
/// `pane_size` > 0 splits runs at pane boundaries using the same integer
/// quotient the runtime's pane advance uses (`time / pane_size`);
/// `pane_size` <= 0 disables pane splitting (single-pane batch evaluation).
void SegmentRuns(const EventBatch& batch, int rows, Timestamp pane_size,
                 const QuerySet& all_execs,
                 const std::vector<int>& predicated_queries,
                 const std::vector<SelectionMask>& masks,
                 std::vector<RunSpan>* out);

}  // namespace hamlet

#endif  // HAMLET_QUERY_RUN_SEGMENTER_H_
