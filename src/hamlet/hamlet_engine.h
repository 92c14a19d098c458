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
#include <span>
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
  int64_t splits = 0;
  int64_t merges = 0;
  int64_t ops = 0;  ///< node visits + expr term ops (cost-model unit)
};

/// One lane's moving-average sharing statistics, exportable for the
/// sharded runtime's work-stealing hand-off: when a group migrates shards,
/// the thief's fresh engine seeds these instead of re-learning the burst
/// shape from the defaults. Sharing decisions never change emission
/// values, so the seed is purely a performance warm-start.
struct HamletLaneStats {
  TypeId type = Schema::kInvalidId;
  double avg_burst = 4.0;
  double avg_graphlet = 4.0;
  double avg_sc = 0.0;
  double avg_sp = 1.0;
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
  struct Options {
    /// Retain closed graphlets (needed for scan modes; the engine enables
    /// this automatically when any member has edge predicates).
    bool force_retain_history = false;
    /// Exponential moving-average factor for burst statistics.
    double stats_decay = 0.3;
  };

  /// `plan` and `policy` must outlive the engine. `members` selects the exec
  /// queries this engine evaluates (a component).
  HamletEngine(const WorkloadPlan& plan, QuerySet members,
               SharingPolicy* policy, Options options);
  HamletEngine(const WorkloadPlan& plan, QuerySet members,
               SharingPolicy* policy)
      : HamletEngine(plan, members, policy, Options()) {}

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

  /// Logical memory footprint (paper's metric: stored events, snapshot
  /// expressions and values, per-context tables).
  int64_t MemoryBytes() const;

  const HamletStats& stats() const { return stats_; }
  const SnapshotStore& snapshot_store() const { return store_; }

  /// Work-stealing hand-off: the per-lane sharing statistics, in the
  /// engine's deterministic lane order (BuildLanes is a pure function of
  /// plan + members, so two engines over the same component agree).
  std::vector<HamletLaneStats> ExportLaneStats() const;
  /// Seeds this engine's lanes from a sibling engine's ExportLaneStats.
  /// Lanes match by index; an entry whose type disagrees (layouts from
  /// different plans) is skipped rather than misapplied.
  void SeedLaneStats(std::span<const HamletLaneStats> stats);

 private:
  /// One per (type, share group) and per (type, solo query).
  struct Lane {
    TypeId type = Schema::kInvalidId;
    QuerySet static_members;
    bool shareable = false;
    PropagationMode mode = PropagationMode::kFastSum;
    AggProfile profile;
    /// Types whose matched events close this lane's graphlets.
    std::vector<bool> relevant;
    /// Dynamic decision for the current burst round.
    QuerySet current_shared;
    /// Graphlets are pool-owned (graphlet_pool_); lanes hold raw pointers.
    /// Non-retained graphlets recycle at burst/pane boundaries, retained
    /// ones when they age past the window horizon in OnPaneStart.
    Graphlet* shared_graphlet = nullptr;
    std::vector<std::pair<int, Graphlet*>> solo_graphlets;
    std::vector<Graphlet*> history;
    /// Moving averages for the optimizer.
    double avg_burst = 4.0;
    double avg_graphlet = 4.0;
    double avg_sc = 0.0;
    double avg_sp = 1.0;
    std::vector<double> avg_sc_member;  ///< parallel to member_list
    std::vector<int> member_list;
    bool retain_history = false;
    /// kSharedScan: whether any member has cross-type predecessors for this
    /// lane's type (they ride the per-event cross snapshot).
    bool scan_has_cross = false;
    /// kSharedScan: retained history contains solo-era numeric nodes.
    bool history_has_numeric = false;
    /// kSharedScan: all edge predicates are equality -> partitioned running
    /// sums replace per-event stored-node scans (O(terms) per event).
    bool scan_all_equality = false;
    /// Cross-graphlet per-equality-key payload totals, per context.
    std::vector<std::pair<std::vector<double>, CtxMap<LinAgg>>> key_totals;
    /// kSharedScan: the members' (identical) edge predicates.
    const std::vector<EdgePredicate>* shared_edge_preds = nullptr;
    /// Whether this lane currently has open graphlets (tracked in
    /// active_lanes_ so the per-event closure sweep touches only lanes with
    /// live graphlets instead of every lane).
    bool active = false;
  };

  // --- construction helpers ---
  void BuildLanes();

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

  // --- evaluation helpers ---
  /// Entry payload for a new graphlet of `type` for (exec, ctx): the sum of
  /// predecessor-type totals with negation-guarded boundaries (Eq. 5).
  LinAgg EntryValue(int exec_id, TypeId type, const ContextState& ctx) const;
  MinMax EntryMinMax(int exec_id, TypeId type, const ContextState& ctx) const;
  double StartValue(int exec_id, TypeId type, const ContextState& ctx) const;
  /// Scan-based predecessor accumulation for an edge-predicate query
  /// `exec_id` (its per-event snapshots and its solo graphlets). Retained
  /// graphlets opened before ctx's window start are skipped: their nodes
  /// evaluate to 0 for ctx. With `exclude_own_type`, only cross-type
  /// predecessors are folded (the per-query part of shared-scan
  /// propagation).
  NodeValue ScanPredecessors(int exec_id, const Event& e, ContextId ctx_id,
                             const ContextState& ctx, const Lane& own_lane,
                             bool exclude_own_type = false);
  /// Folds min/max of a new node for every (sharer, ctx) eagerly.
  void FoldNodeMinMax(Lane& lane, Graphlet& g, const GraphletNode& node,
                      const Event& e);
  void AddToContext(ContextState& ctx, int exec_id, TypeId type,
                    const LinAgg& lin, const MinMax& mm);

  const Lane* LaneOf(int exec_id, TypeId type) const;
  const ExecQuery& Exec(int exec_id) const {
    return plan_->exec_queries[static_cast<size_t>(exec_id)];
  }
  const AggProfile& Profile(int exec_id) const {
    return profiles_[static_cast<size_t>(exec_id)];
  }

  // --- members ---
  const WorkloadPlan* plan_;
  QuerySet members_;
  SharingPolicy* policy_;
  Options options_;
  int num_types_;
  /// AggProfile::For of each member's aggregate, indexed by exec id.
  std::vector<AggProfile> profiles_;
  /// Members with edge predicates: the only queries whose predecessor
  /// values need a stored-node scan, hence the only ones that force
  /// history retention.
  QuerySet edge_queries_;

  /// Arena-backed graphlet storage (see src/common/arena.h): steady-state
  /// opens recycle pool objects — with warmed vector capacities — instead of
  /// hitting the heap. Declared before lanes_ so the raw pointers in lanes
  /// never outlive the pool.
  ObjectPool<Graphlet> graphlet_pool_;
  std::vector<Lane> lanes_;
  /// Indices of lanes with open graphlets (compacted lazily).
  std::vector<int> active_lanes_;
  /// lane index per (exec, type); -1 when unused.
  std::vector<std::vector<int>> lane_of_;
  /// Exec ids having each type positive / negated.
  std::vector<QuerySet> positive_of_type_;
  std::vector<QuerySet> negated_of_type_;
  /// Union of member types (positive or negated).
  std::vector<bool> type_relevant_;

  SnapshotStore store_;
  std::vector<ContextState> contexts_;
  std::vector<std::vector<ContextId>> open_ctxs_;  ///< per exec id
  std::vector<ContextId> free_ctx_slots_;

  /// Last arrival of a leading-negated event per exec (blocks starts for
  /// contexts whose window began before it).
  std::vector<Timestamp> last_leading_;
  /// Last arrival of a boundary-negated event per (exec, position).
  std::vector<std::vector<Timestamp>> last_boundary_neg_;

  Timestamp pane_start_ = 0;
  Timestamp last_time_ = -1;
  Timestamp horizon_ = 0;  ///< max window span over members
  /// Events per recent pane within the horizon; feeds the benefit model's
  /// "events per window" factor n.
  std::vector<std::pair<Timestamp, int64_t>> pane_event_counts_;
  int64_t events_this_pane_ = 0;
  HamletStats stats_;
  /// OnRunFiltered's row materialization scratch (capacity reused); valid
  /// for the current run only when run_scratch_valid_ — reset per call so
  /// slow sub-targets across multiple lanes materialize at most once.
  std::vector<Event> run_scratch_;
  bool run_scratch_valid_ = false;

  double WindowEventsEstimate() const;
};

}  // namespace hamlet

#endif  // HAMLET_HAMLET_HAMLET_ENGINE_H_
