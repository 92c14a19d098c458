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
// shifted-XOR over the packed mask words), (c) the row crosses a pane
// boundary (runs never span panes — pane state transitions stay per-pane),
// or (d) the group key of a given group-by attribute changes (runs never
// span groups, so each run reaches one group runner per component).
//
// GroupMajorOrder is the staging step before segmentation: ordering a
// batch's rows by (pane, group key) makes each group's same-type rows of a
// pane contiguous, so interleaved groups still segment into long runs.
#ifndef HAMLET_QUERY_RUN_SEGMENTER_H_
#define HAMLET_QUERY_RUN_SEGMENTER_H_

#include <cstdint>
#include <span>
#include <unordered_map>
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
///
/// `key_attrs` splits runs where the group key of any listed attribute
/// changes, the key read as the runtime reads it (`llround` of the column
/// value; a column no row carried is key 0 throughout).
void SegmentRuns(const EventBatch& batch, int rows, Timestamp pane_size,
                 const QuerySet& all_execs,
                 const std::vector<int>& predicated_queries,
                 const std::vector<SelectionMask>& masks,
                 std::vector<RunSpan>* out,
                 std::span<const AttrId> key_attrs = {});

/// Group-major staging order for time-ordered rows: each pane's rows
/// grouped by the group key of one attribute, groups in order of first
/// appearance, each group's rows in arrival order (a stable counting sort
/// by (pane, key)). The key is read as a staged EventBatch column holds it
/// (0 on a row without the attribute) and rounded as SegmentRuns rounds
/// it. Scratch capacity is reused across calls.
class GroupMajorOrder {
 public:
  /// The order of `rows` as row indices (valid until the next call), or an
  /// empty span when `rows` already are in it.
  std::span<const int32_t> Of(std::span<const Event> rows,
                              Timestamp pane_size, AttrId attr);

 private:
  std::unordered_map<int64_t, int32_t> pane_ids_;  ///< key -> id, one pane
  std::vector<int32_t> ids_;     ///< per row: its group, ids by first row
  std::vector<int32_t> starts_;  ///< per id: row count, then first slot
  std::vector<int32_t> order_;
};

}  // namespace hamlet

#endif  // HAMLET_QUERY_RUN_SEGMENTER_H_
