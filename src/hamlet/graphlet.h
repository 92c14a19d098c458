// Graphlets: the unit of HAMLET's sharing (paper Definitions 6/7).
//
// A graphlet is a maximal run of same-type events, closed when an event of a
// different relevant type arrives or the pane ends. Shared graphlets carry
// symbolic node expressions over snapshot variables; solo (per-query)
// graphlets carry numeric per-context payloads.
#ifndef HAMLET_HAMLET_GRAPHLET_H_
#define HAMLET_HAMLET_GRAPHLET_H_

#include <vector>

#include "src/common/query_set.h"
#include "src/hamlet/context_state.h"
#include "src/hamlet/ctx_map.h"
#include "src/hamlet/snapshot_store.h"
#include "src/plan/workload_plan.h"

namespace hamlet {

/// Numeric per-context payload of a solo node (LinAgg + guarded min/max).
struct NodeValue {
  LinAgg lin;
  MinMax mm;
};

/// One matched event inside a graphlet.
struct GraphletNode {
  Event event;
  /// Queries this event is matched by (event predicates applied).
  QuerySet members;
  /// Symbolic payload (shared graphlets). Zero-const invariant: start
  /// contributions go through the graphlet's start variable, so evaluating
  /// in a context that predates none of the referenced variables yields 0.
  /// Scans still bound themselves explicitly: a graphlet is confined to one
  /// pane and windows start on pane boundaries, so ScanPredecessors skips
  /// retained graphlets opened before the context's window start instead of
  /// visiting nodes that would evaluate to 0 there.
  Expr expr;
  /// Numeric payload per context (solo graphlets).
  CtxMap<NodeValue> values;
  bool numeric = false;

  LinAgg EvalLin(const SnapshotStore& store, ContextId ctx) const {
    if (numeric) return values.Get(ctx, NodeValue()).lin;
    return expr.Eval(store, ctx);
  }

  double EvalCount(const SnapshotStore& store, ContextId ctx) const {
    if (numeric) return values.Get(ctx, NodeValue()).lin.count;
    return expr.EvalCount(store, ctx);
  }

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(sizeof(GraphletNode)) + expr.MemoryBytes() +
           values.MemoryBytes();
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

  std::vector<GraphletNode> nodes;
  /// Events appended WITHOUT a stored node: node materialization is skipped
  /// when no scan can ever read the node — a solo graphlet of a query
  /// without edge predicates, or a kFastSum shared graphlet without min/max
  /// on a lane that keeps no history. num_events() must still count them
  /// — the burst-size averages and FoldGraphlet's empty guard depend on it.
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
