// The per-shard engine behind a Session (src/runtime/session.h). Internal:
// no example or public header includes it.
//
// A Session partitions each component's stream by its group-by attribute
// (paper §3.1) and gives every shard one ShardEngine over the events of the
// groups it owns: inline on the front thread at one shard, on a worker
// thread per shard otherwise. The engine owns all stream-time machinery
// (paper §3.1 pre-processing + §6.1 metrics): partitioning exec queries
// into components connected by share groups, pane-aligned window
// management (tumbling and sliding), dispatch to the selected engine (HAMLET
// dynamic/static/no-share, GRETA graph/prefix, two-step, SHARON), OR/AND
// branch composition, and the paper's latency / peak-memory accounting
// (its owner times its calls for throughput).
//
// It has no control plane and checks nothing: the Session front validated
// every event and watermark (ordering gate, group keys), and compiles every
// query churn op, plan swap and drained-query drop once, into a plan epoch
// (src/runtime/control_plane.h) that it hands to each engine through
// Schedule. When the pane clock reaches the epoch's activation boundary,
// the engine builds the epoch's runtime and hands every open window over:
// HAMLET state query by query through HamletEngine::ExportQuery/
// ImportQuery, per-window baseline engines whole. The old runtime's HAMLET
// engines are not freed but re-laid (HamletEngine::Relay) onto the new
// components' layouts for the group runners the new runtime needs; only
// the leftovers are freed. Every event is processed once, by the one
// runtime whose epoch covers it.
#ifndef HAMLET_RUNTIME_SHARD_ENGINE_H_
#define HAMLET_RUNTIME_SHARD_ENGINE_H_

#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "src/runtime/query_lifecycle.h"
#include "src/runtime/session.h"

namespace hamlet {

/// Adds `s`'s counters into `into` (MergeRunMetrics sums HAMLET statistics
/// the same way).
void AddStats(HamletStats& into, const HamletStats& s);

/// See file comment. Single-threaded: one thread at a time calls it.
class ShardEngine {
  struct GroupRunner;

 public:
  /// An engine running `opening`. `sink` (may be null) receives every
  /// emission during the call that closes its window.
  ShardEngine(QueryLifecycle::Epoch opening, const RunConfig& config,
              EmissionSink* sink);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Ingests non-empty `events` the front validated: strictly increasing
  /// in time and at or after every watermark. Hands off to a pending epoch
  /// at its boundary. `arrival` is the events' arrival wall time for
  /// latency (a lone Session::Push event passes its call's entry time); a
  /// negative value samples it once per run.
  void Push(std::span<const Event> events, double arrival);

  /// Closes every pane/window that ends at or before `watermark`, which
  /// the front checked does not regress.
  void AdvanceTo(Timestamp watermark);

  /// Has `next.epoch` take over at pane boundary `next.at`: pending until
  /// the pane clock reaches it, or at once while the runtime has not
  /// started (it holds no state). The boundary must lie ahead of the pane
  /// clock, on the grid of the last epoch scheduled and not before its
  /// boundary (checked); an epoch for the same boundary replaces it.
  void Schedule(QueryLifecycle::Scheduled next);

  /// A group key's runners taken out of an engine by DetachGroup, for
  /// AttachGroup on another engine over the same plan (work stealing): one
  /// slot per component in the deterministic component order, null where
  /// the engine held no runner for the key.
  struct DetachedGroup {
    DetachedGroup();
    DetachedGroup(DetachedGroup&&) noexcept;
    DetachedGroup& operator=(DetachedGroup&&) noexcept;
    ~DetachedGroup();
    std::vector<std::unique_ptr<GroupRunner>> runners;
  };

  /// Victim side of a pane-boundary group steal. The caller has pushed
  /// every event of the key before `boundary`. Advances panes to `boundary`
  /// (activating a pending epoch on the way, exactly as the thief does),
  /// then takes the key's runners out of every component: HAMLET engine,
  /// open windows and per-window engines move whole.
  DetachedGroup DetachGroup(int64_t group_key, Timestamp boundary);

  /// Thief side: advances panes to `boundary` and installs the runners a
  /// DetachGroup(group_key, boundary) on another engine returned. The key's
  /// events from `boundary` on then feed them here.
  void AttachGroup(int64_t group_key, Timestamp boundary,
                   DetachedGroup group);

  /// Flushes all remaining open windows and returns the final metrics.
  /// Called once; the engine takes no further input.
  RunMetrics Close();

  /// Metrics accumulated so far, without flushing open windows. The
  /// control-plane counters are the front's and stay 0 here, and so do
  /// elapsed_seconds and throughput_eps: the engine's owner (the front at
  /// one shard, the shard's worker otherwise) times the calls it makes.
  RunMetrics MetricsSnapshot() const;
  /// MetricsSnapshot().hamlet alone — what re-optimization reads — without
  /// the footprint walk the full snapshot makes.
  HamletStats AggregateHamletStats() const;

 private:
  struct Component;
  /// A compiled plan plus what derives from it alone (shard_engine.cc).
  struct PlanEpoch;
  struct WindowSlot;
  /// The running plan epoch: a compiled plan (PlanEpoch, shared with the
  /// per-window engines opened under it) plus the state that runs it —
  /// components with their group runners, columnar staging and the pane
  /// clock. An engine runs exactly one.
  struct Runtime;

  /// Builds components, masks and cohorts for `compiled`'s plan.
  std::unique_ptr<Runtime> BuildRuntime(QueryLifecycle::Epoch compiled);
  /// Replaces the runtime with one running `compiled`, at a pane boundary
  /// after the old one closed its expiring windows: every open window moves
  /// over (HAMLET contexts through HamletEngine::ExportQuery/ImportQuery,
  /// per-window engines whole). Each exported HAMLET engine is re-laid for
  /// a runner of the new runtime; engines are built only past the old
  /// count, and the rest of the old runtime is freed.
  void HandOff(QueryLifecycle::Epoch compiled);

  /// Run-granular dispatch: stages `events` into the runtime's SoA batch
  /// (group-major when every query groups by one attribute), runs the
  /// predicate kernels, segments the rows into runs and feeds each through
  /// the engines in one call. `arrival` is the rows' arrival wall time; a
  /// negative value samples it once per run.
  void DispatchRuns(std::span<const Event> events, double arrival);
  /// A runner for `key` in `comp` with no window open yet. Its HAMLET
  /// engine is one of `spare` (may be null) re-laid, or a new one when
  /// none is left.
  std::unique_ptr<GroupRunner> MakeRunner(
      Runtime& rt, Component& comp, int64_t key,
      std::vector<std::unique_ptr<HamletEngine>>* spare);
  /// Creates the runner for `key` in `comp`, opening every window instance
  /// covering the current pane.
  GroupRunner& NewGroupRunner(Runtime& rt, Component& comp, int64_t key);
  /// Advances the pane clock to the pane containing `time`. At every
  /// boundary crossed, windows ending there close, a pending epoch whose
  /// boundary it is takes over, and windows starting there open.
  void AdvancePaneTo(Timestamp time);
  /// AdvancePaneTo(boundary) for a steal, with the boundary committed as
  /// observed stream time first (DetachGroup / AttachGroup).
  void AdvanceToStealBoundary(Timestamp boundary);
  void CloseExpiredWindows(GroupRunner& runner, Timestamp now);
  void OpenDueWindows(Runtime& rt, GroupRunner& runner, Timestamp pane_start,
                      bool retroactive);
  void EmitExecValue(const PlanEpoch& epoch, int exec_id, int64_t group_key,
                     Timestamp window_start, Timestamp window_end,
                     double value, double arrival_wall);
  /// Drops pending composition entries whose window closed at or before
  /// `boundary` with a branch missing — they can never complete (see
  /// RunMetrics::evicted_compositions).
  void EvictDeadCompositions(Timestamp boundary);
  void FillMetrics(RunMetrics* m) const;
  int64_t CurrentMemory() const;

  RunConfig config_;
  EmissionSink* sink_;
  std::unique_ptr<Runtime> rt_;
  /// Scheduled epochs, in boundary order, each until the pane clock
  /// reaches its boundary: an op's and the drops after it, or on a shard
  /// the front's clock ran ahead of, several ops'.
  std::vector<QueryLifecycle::Scheduled> pending_;
  /// Branch values awaiting OR/AND composition, keyed by (lifecycle query
  /// id, group, window start); the value is (window end, branch values).
  std::map<std::tuple<int64_t, int64_t, Timestamp>,
           std::pair<Timestamp, std::vector<double>>>
      pending_compositions_;
  /// Accumulators for state that no longer exists: replaced runtimes' and
  /// evicted idle groups' engine stats and policy decisions.
  HamletStats retired_stats_;
  int64_t retired_decisions_ = 0;
  int64_t evicted_idle_groups_ = 0;
  int64_t evicted_compositions_ = 0;
  /// Latency samples per emission.
  double latency_sum_ = 0.0;
  double latency_max_ = 0.0;
  int64_t latency_count_ = 0;
  int64_t peak_memory_ = 0;
  int64_t dnf_windows_ = 0;
  int64_t events_ = 0;
  /// Run-shape counters behind RunMetrics::runs / run_len_hist.
  int64_t runs_ = 0;
  std::vector<int64_t> run_len_hist_;
  /// Stream time this engine observed (its events, watermarks and steal
  /// boundaries): the idle-eviction horizon.
  OrderingGate gate_;
};

}  // namespace hamlet

#endif  // HAMLET_RUNTIME_SHARD_ENGINE_H_
