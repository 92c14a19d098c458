// The control plane of a session: the one place that decides which plan
// runs.
//
// A Session's front owns one; its shard engines own none. It holds the
// query lifecycle (query_lifecycle.h), the union of the group-by
// attributes of every epoch it compiled, the online re-optimizer with its
// statistics collector and its pane cadence (online_optimizer.h), and the
// op counters. Every query add and removal,
// plan swap and drained-query drop is compiled here exactly once, into an
// immutable epoch; the front schedules that epoch at its pane boundary, on
// its inline engine or on every shard in one message.
//
// It reads stream time from the owner's OrderingGate. An op activates at
// the first pane boundary after everything the gate has seen (at once
// before anything was seen). Before the owner processes an event or a
// watermark at or after next_change(), it calls Advance: the pending
// epoch takes over once stream time reaches its boundary, and a drained
// query is dropped at the first pane boundary after its last window
// closed.
#ifndef HAMLET_RUNTIME_CONTROL_PLANE_H_
#define HAMLET_RUNTIME_CONTROL_PLANE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/optimizer/online_optimizer.h"
#include "src/runtime/query_lifecycle.h"
#include "src/runtime/session.h"

namespace hamlet {

class ControlPlane {
 public:
  using Scheduled = QueryLifecycle::Scheduled;

  /// Compiles the opening epoch of `plan`, which must outlive the control
  /// plane; fails when an event predicate does not resolve. `gate` is the
  /// owner's and must outlive it too.
  static Result<std::unique_ptr<ControlPlane>> Open(const WorkloadPlan& plan,
                                                    const RunConfig& config,
                                                    const OrderingGate& gate);

  /// The epoch running at the gate's stream time.
  const QueryLifecycle::Epoch& running() const { return running_; }
  /// The live (not draining) queries.
  std::vector<Query> queries() const { return lifecycle_.queries(); }
  /// Group-by attributes of every epoch compiled so far.
  const std::vector<AttrId>& group_by_attrs() const { return group_by_attrs_; }
  const std::vector<ReoptDecision>& reopt_log() const {
    return reoptimizer_.log();
  }

  /// The churn ops and the plan swap. A rejected op changes nothing.
  Result<Scheduled> AddQuery(const Query& query);
  Result<Scheduled> RemoveQuery(const std::string& name);
  Result<Scheduled> ApplySharingOverrides(
      std::span<const SharingOverride> overrides);

  /// The earliest stream time at which Advance has work.
  Timestamp next_change() const { return next_change_; }
  /// Stream time reaches `time` (>= next_change()). Returns the drops due
  /// by then, in boundary order; the owner schedules each before anything
  /// at or after its boundary.
  std::vector<Scheduled> Advance(Timestamp time);

  bool reoptimizing() const { return every_panes_ > 0; }
  void CountEvent(TypeId type) {
    if (reoptimizing()) collector_.CountEvent(type);
  }
  /// The cadence: a check is due every reoptimize_every_panes pane
  /// boundaries after the first pane seen since the plan last changed,
  /// and never while an epoch is pending. Returns the pane boundary of the
  /// gate's stream time when one is due now.
  std::optional<Timestamp> ReoptDue();
  /// Runs the check due at `boundary` on the owner's cumulative engine
  /// statistics; on drift, returns the plan swap to schedule (a swap that
  /// fails to compile keeps the running plan).
  std::optional<Scheduled> Reoptimize(Timestamp boundary,
                                      const HamletStats& stats);

  /// Sets the op and re-optimizer counters. Safe from any thread.
  void FillMetrics(RunMetrics* m) const;

 private:
  ControlPlane(const RunConfig& config, const OrderingGate& gate);

  /// Where an op activates: the first pane boundary strictly after the
  /// gate's stream time on the running grid; 0 before anything was seen.
  Timestamp NextBoundary() const;
  /// Adopts a compiled op for boundary `at`, counting it in `ops`: pending
  /// until the stream reaches the boundary, running at once before
  /// anything was seen.
  Result<Scheduled> Adopt(Result<QueryLifecycle::Epoch> compiled,
                          Timestamp at, std::atomic<int64_t>& ops);
  /// A new plan restarts the re-optimizer's baselines and cadence.
  void Rebind(const QueryLifecycle::CompiledEpoch& epoch);

  const OrderingGate& gate_;
  QueryLifecycle lifecycle_;
  std::vector<AttrId> group_by_attrs_;
  QueryLifecycle::Epoch running_;
  /// The last op's epoch until stream time reaches pending_at_ (null:
  /// none). Ops before that boundary compile into one epoch for it.
  QueryLifecycle::Epoch pending_;
  Timestamp pending_at_ = 0;
  Timestamp next_change_ = QueryLifecycle::Bounds::kNoEnd;
  int every_panes_ = 0;
  OnlineReoptimizerOptions reopt_options_;
  OnlineReoptimizer reoptimizer_;
  BurstStatsCollector collector_;
  /// The pane the cadence counts from; unset until the first pane seen
  /// after a rebind.
  std::optional<Timestamp> reopt_anchor_;
  /// Atomic so a monitor thread's MetricsSnapshot may read them mid-op.
  std::atomic<int64_t> queries_added_{0};
  std::atomic<int64_t> queries_removed_{0};
  std::atomic<int64_t> plan_swaps_{0};
};

}  // namespace hamlet

#endif  // HAMLET_RUNTIME_CONTROL_PLANE_H_
