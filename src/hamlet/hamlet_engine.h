// The HAMLET shared online trend aggregation engine (paper §3.3, Algorithm 1,
// and the §4.2 split/merge mechanics).
//
// One engine instance serves one *component* of exec queries (queries
// connected through share groups) over one group-by partition of the stream.
// Within the component:
//   * events are organised into lanes, one per (type, share group) plus one
//     per (type, solo query);
//   * each lane maintains graphlets — maximal same-type runs, closed when an
//     event of a different relevant type arrives or the pane ends;
//   * shared graphlets propagate symbolic expressions over snapshot
//     variables (graphlet-entry x, start u, event-level z); per-(query,
//     window) values live in the snapshot store and context tables;
//   * at every burst start the engine consults a SharingPolicy, enabling the
//     dynamic split/merge behaviour of the paper's optimizer.
//
// Correctness contract (enforced by property tests): for every supported
// workload and stream, the per-context results equal GretaEngine's and the
// brute-force enumerator's.
#ifndef HAMLET_HAMLET_HAMLET_ENGINE_H_
#define HAMLET_HAMLET_HAMLET_ENGINE_H_

#include <memory>
#include <vector>

#include "src/common/arena.h"
#include "src/hamlet/graphlet.h"
#include "src/hamlet/sharing_policy.h"
#include "src/query/run_segmenter.h"

namespace hamlet {

/// Aggregated runtime counters (drives the paper's §6.2 diagnostics:
/// snapshot counts, shared-burst fraction, decision latency).
struct HamletStats {
  int64_t events = 0;
  int64_t bursts_total = 0;
  int64_t bursts_shared = 0;
  int64_t graphlets_opened = 0;
  int64_t graphlets_shared = 0;
  int64_t snapshots_created = 0;
  int64_t event_snapshots = 0;
  /// Events of shareable lanes that some lane member does not match (each
  /// would be an event-level snapshot in a graphlet shared by all), counted
  /// whether or not the lane shares.
  int64_t divergent_events = 0;
  int64_t splits = 0;
  int64_t merges = 0;
  int64_t ops = 0;  ///< node visits, expr term ops, snapshot creations
};

/// Result of a closed window instance.
struct ContextResult {
  int exec_id = -1;
  Timestamp window_start = 0;
  double value = 0.0;
  AggValue agg;
};

/// See file comment.
class HamletEngine {
 public:
  /// The immutable part of an engine for one component of one plan: each
  /// lane's type, members, propagation mode and cost-model inputs, plus the
  /// per-(query, type) tables. Built once per (plan epoch, component) and
  /// shared by every group engine of the component.
  struct Layout {
    /// One per (type, share group) and per (type, solo query).
    struct Lane {
      TypeId type = Schema::kInvalidId;
      QuerySet static_members;
      bool shareable = false;
      PropagationMode mode = PropagationMode::kFastSum;
      AggProfile profile;
      /// Types whose matched events close this lane's graphlets.
      std::vector<bool> relevant;
      /// Decision inputs that depend only on the members, so a burst
      /// decision is O(m): predecessor positions of this type (p) and
      /// pattern length (t).
      int p = 1;
      int t = 1;
      /// The cost model's n: sum of weight * window_events over these
      /// (predecessor lane, weight) pairs (WorkloadPlan::WindowTerms).
      std::vector<std::pair<int, double>> n_terms;
      std::vector<int> member_list;
      /// kSharedScan: whether any member has cross-type predecessors for
      /// this lane's type (they ride the per-event cross snapshot).
      bool scan_has_cross = false;
      /// kSharedScan: all edge predicates are equality -> partitioned
      /// running sums replace per-event stored-node scans (O(terms) per
      /// event).
      bool scan_all_equality = false;
      /// kSharedScan: the members' (identical) edge predicates.
      const std::vector<EdgePredicate>* shared_edge_preds = nullptr;
    };

    /// `plan` must outlive the layout. `members` selects the exec queries
    /// the engines evaluate (a component).
    static std::shared_ptr<const Layout> Build(const WorkloadPlan& plan,
                                               QuerySet members);

    const WorkloadPlan* plan = nullptr;
    QuerySet members;
    int num_types = 0;
    std::vector<Lane> lanes;
    /// lane index per (exec, type); -1 when unused.
    std::vector<std::vector<int>> lane_of;
    /// Exec ids having each type positive / negated.
    std::vector<QuerySet> positive_of_type;
    std::vector<QuerySet> negated_of_type;
    /// Union of member types (positive or negated).
    std::vector<bool> type_relevant;
    /// AggProfile::For of each member's aggregate, indexed by exec id.
    std::vector<AggProfile> profiles;
    /// Members with edge predicates: the only queries whose predecessor
    /// values need a scan, hence the only ones with scan columns.
    QuerySet edge_queries;
    Timestamp horizon = 0;  ///< max window span over members
  };

  /// An engine laid out by `layout`. `policy` must outlive the engine.
  HamletEngine(std::shared_ptr<const Layout> layout, SharingPolicy* policy);
  /// An engine with a layout of its own for `members` of `plan`, which
  /// must outlive it.
  HamletEngine(const WorkloadPlan& plan, QuerySet members,
               SharingPolicy* policy);

  /// Lays the engine out anew by `layout`, as the constructor does: every
  /// window, graphlet, snapshot, counter and lane statistic is dropped, so
  /// the engine is state-equal to a fresh one, but its graphlet pool (with
  /// the graphlets' capacities), context table and snapshot-store capacity
  /// stay allocated for reuse. The plan-epoch hand-off
  /// (src/runtime/shard_engine.h) re-lays engines after ExportQuery instead
  /// of building new ones.
  void Relay(std::shared_ptr<const Layout> layout, SharingPolicy* policy);

  /// Opens a window instance for `exec_id` at [ws, we). Call at pane
  /// boundaries before feeding the pane's events.
  ContextId OpenContext(int exec_id, Timestamp window_start,
                        Timestamp window_end);

  /// Closes a window instance and returns its final aggregate. Call after
  /// OnPaneEnd of the window's last pane.
  ContextResult CloseContext(ContextId ctx);

  /// Pane lifecycle. Events must arrive strictly increasing in time and
  /// within [pane start, pane end).
  void OnPaneStart(Timestamp pane_start);
  /// Per-event entry for engine unit tests and the worked-example bench:
  /// evaluates `e`'s event predicates itself and feeds it as a 1-row run
  /// (irrelevant types are dropped). The runtime dispatches through
  /// OnRunFiltered only.
  void OnEvent(const Event& e);
  /// Run-granular dispatch: feeds one segmented run (same type, same
  /// pass-set, one pane — see src/query/run_segmenter.h) in a single call.
  /// Event-predicate evaluation already happened batch-wide
  /// (src/query/columnar_predicate.h): `run.passes` holds every exec query
  /// whose predicates all rows satisfy (bits for queries outside this
  /// engine's members are ignored). Lane transitions (CloseForeignLanes /
  /// ApplyNegation / burst open + sharing decision) happen once per run,
  /// and write-only graphlets take hoisted snapshot-count propagation loops
  /// over the whole run. Emissions are bit-identical to feeding the span's
  /// rows as 1-row runs: both are the same ProcessRun body, and every
  /// hoist replays the per-row FP op sequence exactly.
  void OnRunFiltered(const EventBatch& batch, const RunSpan& run);
  void OnPaneEnd();

  /// One query's state at a pane boundary. Graphlets are pane-confined, so
  /// there it is numeric (paper §3.3 / Eq. 5): the open windows'
  /// ContextStates, an edge-predicate query's scan columns, and the
  /// query's negation timestamps.
  struct QueryState {
    std::vector<ContextState> contexts;
    /// Per context, its scan columns (edge-predicate queries only).
    std::vector<std::vector<ScanColumn>> columns;
    Timestamp last_leading = -1;
    std::vector<Timestamp> last_boundary_neg;
  };

  /// Moves `exec_id`'s state out, between OnPaneEnd and the next
  /// OnPaneStart (the plan-epoch hand-off). The query's windows are left
  /// hollow: the engine is fit only for Relay or destruction afterwards.
  QueryState ExportQuery(int exec_id);
  /// Continues a state ExportQuery took from another engine for the same
  /// query, as member `exec_id` here, before OnPaneStart. Returns the new
  /// context ids, parallel to state.contexts.
  std::vector<ContextId> ImportQuery(int exec_id, QueryState state);

  /// Logical memory footprint (paper's metric: stored events, snapshot
  /// expressions and values, per-context tables).
  int64_t MemoryBytes() const;

  /// Context slots held: open windows, closed ones waiting out the horizon
  /// and reusable ones (bounded by the windows a horizon can hold, not by
  /// the windows ever opened).
  size_t context_slots() const { return contexts_.size(); }

  const HamletStats& stats() const { return stats_; }
  const SnapshotStore& snapshot_store() const { return store_; }

  /// Re-points the engine at another session's policy when its group
  /// runner moves there (work stealing): policies carry per-session
  /// decision counters, and sharing decisions never change values.
  void set_policy(SharingPolicy* policy) { policy_ = policy; }

 private:
  /// A lane's dynamic state; its layout is `spec`.
  struct Lane {
    const Layout::Lane* spec = nullptr;
    /// Dynamic decision for the current burst round.
    QuerySet current_shared;
    /// Graphlets are pool-owned (graphlet_pool_); lanes hold raw pointers.
    /// Graphlets recycle at their close, except the shared graphlets of a
    /// kSharedScan lane: later scans walk their nodes, so they are retained
    /// in `history` until they age past the window horizon in OnPaneStart.
    Graphlet* shared_graphlet = nullptr;
    std::vector<std::pair<int, Graphlet*>> solo_graphlets;
    std::vector<Graphlet*> history;
    /// Events appended to this lane within the horizon, and per pane.
    int64_t window_events = 0;
    int64_t events_this_pane = 0;
    std::vector<std::pair<Timestamp, int64_t>> pane_events;
    /// Moving averages for the optimizer.
    double avg_burst = 4.0;
    double avg_graphlet = 4.0;
    double avg_sc = 0.0;
    double avg_sp = 1.0;
    std::vector<double> avg_sc_member;  ///< parallel to spec->member_list
    /// Cross-graphlet per-equality-key payload totals, per context.
    std::vector<std::pair<std::vector<double>, CtxMap<LinAgg>>> key_totals;
    /// Whether this lane currently has open graphlets (tracked in
    /// active_lanes_ so the per-event closure sweep touches only lanes with
    /// live graphlets instead of every lane).
    bool active = false;
  };

  // --- event path ---
  /// One filtered event through the full per-event pipeline (transition,
  /// negation, lane inserts): OnEvent's body, and OnRunFiltered's for a
  /// run's head row and its per-row fallback.
  void ProcessRun(const Event& e, const QuerySet& passes);
  /// Appends batch rows [begin, end) (the run's tail: the head row went
  /// through InsertIntoLane) to the lane's open graphlets. Write-only
  /// sub-targets are hoisted and read the batch columns directly — no
  /// per-row Event materialization; slow sub-targets replay row-major over
  /// MaterializedRows().
  void AppendRun(Lane& lane, const EventBatch& batch, int begin, int end,
                 const QuerySet& matched);
  /// Lazily materializes batch rows [begin, end) into run_scratch_ (at most
  /// once per OnRunFiltered call) and returns the rows, shifted so index 0
  /// is row `begin`.
  const Event* MaterializedRows(const EventBatch& batch, int begin, int end);
  void CloseForeignLanes(const Event& e, const QuerySet& touched);
  void ApplyNegation(const Event& e, const QuerySet& neg_matched);
  void InsertIntoLane(Lane& lane, const Event& e, const QuerySet& matched);
  void OpenGraphlets(Lane& lane, const Event& e);
  Graphlet* OpenSharedGraphlet(Lane& lane, const Event& e, QuerySet sharers);
  Graphlet* OpenSoloGraphlet(Lane& lane, const Event& e, int exec_id);
  void AppendShared(Lane& lane, Graphlet& g, const Event& e,
                    const QuerySet& matched);
  void AppendSolo(Lane& lane, Graphlet& g, const Event& e, int exec_id);
  void CloseLaneGraphlets(Lane& lane);
  void FoldGraphlet(Lane& lane, Graphlet& g);
  /// Counts `rows` events that matched `matched` into the lane's window
  /// events and its per-member snapshot attribution (Theorem 4.1: members
  /// that miss an event introduce its snapshot; in kPerEventSnapshot lanes
  /// the edge-predicate members introduce every event's), shared or not.
  void CountLaneEvents(Lane& lane, const QuerySet& matched, int rows);
  /// Creates a snapshot variable, counting it in snapshots_created and ops.
  SnapshotId CreateSnapshot();

  // --- evaluation helpers ---
  /// Entry payload for a new graphlet of `type` for (exec, ctx): the sum of
  /// predecessor-type totals with negation-guarded boundaries (Eq. 5).
  LinAgg EntryValue(int exec_id, TypeId type, const ContextState& ctx) const;
  MinMax EntryMinMax(int exec_id, TypeId type, const ContextState& ctx) const;
  double StartValue(int exec_id, TypeId type, const ContextState& ctx) const;
  /// Scan-based predecessor accumulation for an edge-predicate query
  /// `exec_id` (its per-event snapshots and its solo graphlets): the rows of
  /// ctx's scan columns, merged in time order with the nodes of the
  /// kSharedScan graphlets the query shared in. With `exclude_own_type`,
  /// same-type nodes are left out (the symbolic part of shared-scan
  /// propagation walks them once for every sharer).
  NodeValue ScanPredecessors(int exec_id, const Event& e,
                             const ContextState& ctx, const Lane& own_lane,
                             bool exclude_own_type = false);
  /// Appends `e`'s row, valued `v` in the column's window, to a scan column
  /// of edge-predicate query `exec_id`.
  void AppendRow(ScanColumn& col, int exec_id, const Event& e,
                 const NodeValue& v) const;
  /// A column set of `positions` empty columns, recycled when one is free.
  int32_t AcquireColumnSet(int positions);
  /// A context slot for a new window: a reusable closed one, or a new one.
  ContextId AcquireContextId();
  std::vector<ScanColumn>& Columns(const ContextState& ctx) {
    return column_sets_[static_cast<size_t>(ctx.column_set)];
  }
  /// Folds min/max of a new node for every (sharer, ctx) eagerly.
  void FoldNodeMinMax(Lane& lane, Graphlet& g, const GraphletNode& node,
                      const Event& e);
  void AddToContext(ContextState& ctx, int exec_id, TypeId type,
                    const LinAgg& lin, const MinMax& mm);

  const Lane* LaneOf(int exec_id, TypeId type) const;
  const ExecQuery& Exec(int exec_id) const {
    return layout_->plan->exec_queries[static_cast<size_t>(exec_id)];
  }
  const AggProfile& Profile(int exec_id) const {
    return layout_->profiles[static_cast<size_t>(exec_id)];
  }

  // --- members ---
  std::shared_ptr<const Layout> layout_;
  SharingPolicy* policy_ = nullptr;

  /// Arena-backed graphlet storage (see src/common/arena.h): steady-state
  /// opens recycle pool objects — with warmed vector capacities — instead of
  /// hitting the heap. Declared before lanes_ so the raw pointers in lanes
  /// never outlive the pool.
  ObjectPool<Graphlet> graphlet_pool_;
  /// Parallel to layout_->lanes.
  std::vector<Lane> lanes_;
  /// Indices of lanes with open graphlets (compacted lazily).
  std::vector<int> active_lanes_;

  SnapshotStore store_;
  /// Indexed by ContextId. A closed slot waits in closed_ctxs_, stamped
  /// with the last event time at its close, until OnPaneStart's horizon
  /// cutoff passes the stamp: a retained graphlet that could still name the
  /// id in a CtxMap opened at or before the stamp, so the cutoff has
  /// released it. Only then does the id move to free_ctxs_ for reuse, so
  /// the table stays bounded by the windows one horizon holds.
  std::vector<ContextState> contexts_;
  std::vector<std::pair<Timestamp, ContextId>> closed_ctxs_;
  std::vector<ContextId> free_ctxs_;
  /// Scan columns per pattern position of each edge-predicate window
  /// (ContextState::column_set). A closed window's set is emptied with its
  /// capacities kept and goes to free_column_sets_ for the next window, so
  /// steady-state appends do not allocate.
  std::vector<std::vector<ScanColumn>> column_sets_;
  std::vector<int32_t> free_column_sets_;
  std::vector<std::vector<ContextId>> open_ctxs_;  ///< per exec id

  /// Last arrival of a leading-negated event per exec (blocks starts for
  /// contexts whose window began before it).
  std::vector<Timestamp> last_leading_;
  /// Last arrival of a boundary-negated event per (exec, position).
  std::vector<std::vector<Timestamp>> last_boundary_neg_;

  Timestamp pane_start_ = 0;
  Timestamp last_time_ = -1;
  /// (pane start, first snapshot id created in it) for the panes inside
  /// the horizon, oldest first: OnPaneStart drops the store's ids of every
  /// pane before the horizon cutoff.
  std::vector<std::pair<Timestamp, SnapshotId>> pane_first_snapshot_;
  HamletStats stats_;
  /// OnRunFiltered's row materialization scratch (capacity reused); valid
  /// for the current run only when run_scratch_valid_ — reset per call so
  /// slow sub-targets across multiple lanes materialize at most once.
  std::vector<Event> run_scratch_;
  bool run_scratch_valid_ = false;
  /// The burst decision's inputs; every field is rewritten per decision,
  /// and sc_per_member keeps its capacity.
  BurstStats burst_stats_;
};

}  // namespace hamlet

#endif  // HAMLET_HAMLET_HAMLET_ENGINE_H_
