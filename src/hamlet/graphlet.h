// Graphlets: the unit of HAMLET's sharing (paper Definitions 6/7).
//
// A graphlet is a maximal run of same-type events, closed when an event of a
// different relevant type arrives or the pane ends. Shared graphlets carry
// symbolic expressions over snapshot variables; solo (per-query) graphlets
// carry numeric per-context payloads.
#ifndef HAMLET_HAMLET_GRAPHLET_H_
#define HAMLET_HAMLET_GRAPHLET_H_

#include <cstddef>
#include <vector>

#include "src/common/query_set.h"
#include "src/hamlet/context_state.h"
#include "src/hamlet/ctx_map.h"
#include "src/hamlet/snapshot_store.h"
#include "src/plan/workload_plan.h"

namespace hamlet {

/// Numeric per-context payload of an event (LinAgg + guarded min/max).
struct NodeValue {
  LinAgg lin;
  MinMax mm;
};

/// An edge-predicate query's predecessors at one pattern position within one
/// window: a row per event the query appended there while the window was
/// open, in time order (Definition 9's event-level values, kept numeric). A
/// row holds only what a predecessor scan reads: the time (a boundary
/// negation blocks a prefix), the attributes the query's edge predicates
/// compare, and the event's payload in this window.
struct ScanColumn {
  std::vector<Timestamp> times;
  /// Row-major, one value per edge predicate.
  std::vector<double> attrs;
  std::vector<LinAgg> lin;
  /// Parallel to `lin` for MIN/MAX queries, empty otherwise.
  std::vector<MinMax> mm;

  size_t size() const { return times.size(); }

  /// Appends rows [begin, end) of `from`, whose rows hold `stride` attrs.
  void CopyRows(const ScanColumn& from, size_t begin, size_t end,
                size_t stride) {
    const auto b = static_cast<std::ptrdiff_t>(begin);
    const auto e = static_cast<std::ptrdiff_t>(end);
    const auto s = static_cast<std::ptrdiff_t>(stride);
    times.insert(times.end(), from.times.begin() + b, from.times.begin() + e);
    attrs.insert(attrs.end(), from.attrs.begin() + b * s,
                 from.attrs.begin() + e * s);
    lin.insert(lin.end(), from.lin.begin() + b, from.lin.begin() + e);
    if (!from.mm.empty())
      mm.insert(mm.end(), from.mm.begin() + b, from.mm.begin() + e);
  }

  /// Drops every row and keeps the capacities (recycled across windows).
  void Clear() {
    times.clear();
    attrs.clear();
    lin.clear();
    mm.clear();
  }

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(
        times.capacity() * sizeof(Timestamp) +
        attrs.capacity() * sizeof(double) + lin.capacity() * sizeof(LinAgg) +
        mm.capacity() * sizeof(MinMax));
  }
};

/// One event of a shared graphlet. Only shared-scan graphlets store their
/// nodes: their later events walk them symbolically.
struct GraphletNode {
  Event event;
  /// Queries this event is matched by (event predicates applied).
  QuerySet members;
  /// Symbolic payload. Zero-const invariant: start contributions go through
  /// the graphlet's start variable, so evaluating in a context that
  /// predates none of the referenced variables yields 0. Scans still bound
  /// themselves explicitly: a graphlet is confined to one pane and windows
  /// start on pane boundaries, so ScanPredecessors skips retained graphlets
  /// opened before the context's window start instead of visiting nodes
  /// that would evaluate to 0 there.
  Expr expr;

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(sizeof(GraphletNode)) + expr.MemoryBytes();
  }
};

/// One graphlet (active or closed-and-retained).
struct Graphlet {
  TypeId type = Schema::kInvalidId;
  /// Queries sharing this graphlet (>= 2 for shared, == 1 for solo).
  QuerySet sharers;
  bool shared = false;
  PropagationMode mode = PropagationMode::kFastSum;
  /// Whether in-graphlet events precede each other (Kleene self-loop).
  /// Always true for shared graphlets (only Kleene sub-patterns share).
  bool self_loop = true;

  /// Graphlet-level snapshot x (Definition 8) and the start variable u.
  /// u's value is 1 for contexts where the type starts trends (and no
  /// leading negation blocked it), 0 otherwise.
  SnapshotId entry_var = -1;
  SnapshotId start_var = -1;

  /// Sum of all node expressions (shared path): evaluates per context to the
  /// graphlet's payload contribution sum(G,q) of Eq. 5.
  Expr running_sum;

  /// Equality-partitioned shared scan (kSharedScan with equality-only edge
  /// predicates): per equality-key running sums and lazily created per-key
  /// entry variables (valued from the lane's cross-graphlet key totals).
  std::vector<std::pair<std::vector<double>, Expr>> key_running;
  std::vector<std::pair<std::vector<double>, SnapshotId>> key_entry;

  /// Numeric per-context running sums: the solo path's, and on a
  /// per-event-snapshot shared graphlet the plain (edge-predicate-free)
  /// sharers' R of count(e) = u + x + R.
  CtxMap<LinAgg> solo_sums;
  /// Numeric per-context start/entry values (solo path), fixed at open.
  CtxMap<LinAgg> solo_entry;
  CtxMap<double> solo_start;

  /// Min/max folds per context: entry (from predecessor totals, fixed at
  /// open) and running over node m-values.
  CtxMap<MinMax> entry_mm;
  CtxMap<MinMax> run_mm;

  /// Stored only in shared kSharedScan graphlets: every other append keeps
  /// its value in the running sums and, for an edge-predicate query, in the
  /// query's scan columns (ScanColumn).
  std::vector<GraphletNode> nodes;
  /// Events appended WITHOUT a stored node. num_events() must still count
  /// them — the burst-size averages and FoldGraphlet's empty guard depend
  /// on it.
  int extra_events = 0;
  Timestamp open_time = 0;
  /// MemoryBytes() of a closed history graphlet, cached when it is retained
  /// (it never changes after the close); -1 while open or free-listed.
  int64_t closed_bytes = -1;

  int num_events() const {
    return static_cast<int>(nodes.size()) + extra_events;
  }

  /// Resets logical state while KEEPING heap capacities (nodes vector, Expr
  /// spill, CtxMap spill) — the ObjectPool<Graphlet> recycling contract
  /// (src/common/arena.h): a graphlet released at a pane boundary is re-
  /// opened later without re-growing its buffers.
  void Recycle() {
    type = Schema::kInvalidId;
    sharers = QuerySet();
    shared = false;
    mode = PropagationMode::kFastSum;
    self_loop = true;
    entry_var = -1;
    start_var = -1;
    running_sum.Clear();
    key_running.clear();
    key_entry.clear();
    solo_sums.Clear();
    solo_entry.Clear();
    solo_start.Clear();
    entry_mm.Clear();
    run_mm.Clear();
    nodes.clear();
    extra_events = 0;
    open_time = 0;
    closed_bytes = -1;
  }

  /// Heap-held payload only. The Graphlet object itself lives in the
  /// engine's arena, whose BLOCK RESERVATION is charged separately
  /// (HamletEngine::MemoryBytes) — charging sizeof(Graphlet) here would
  /// double-count it against the arena blocks.
  int64_t MemoryBytes() const {
    int64_t bytes = running_sum.MemoryBytes() + solo_sums.MemoryBytes() +
                    solo_entry.MemoryBytes() + entry_mm.MemoryBytes() +
                    run_mm.MemoryBytes();
    for (const GraphletNode& n : nodes) bytes += n.MemoryBytes();
    for (const auto& [key, running] : key_running) {
      bytes += running.MemoryBytes() +
               static_cast<int64_t>(key.size() * sizeof(double));
    }
    return bytes;
  }
};

}  // namespace hamlet

#endif  // HAMLET_HAMLET_GRAPHLET_H_
