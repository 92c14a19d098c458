// Online plan re-optimization: the paper's dynamic-vs-static experiment
// (§6, Fig. 12) promoted into the runtime.
//
// The engines' per-burst DynamicBenefitPolicy already adapts *within* the
// compiled sharing plan; this layer adapts the PLAN itself while a session
// runs. A BurstStatsCollector accumulates the live statistics the runtime
// already gathers — per-type arrival counts plus the engine's HamletStats
// counters (bursts, graphlet sizes, snapshot churn) — and every
// RunConfig::reoptimize_every_panes panes the OnlineReoptimizer:
//
//   1. rebuilds the cost-model inputs (Table 2's b, n, g, p, t, sc_q, and
//      kRuntime's mode, c and scanners) for each potential share group from
//      the observed deltas, with n and sc_q meaning what they mean at a
//      burst decision (HamletEngine::OpenGraphlets),
//   2. re-runs the existing PrunedPlanSearch (Theorems 4.1/4.2, O(m)), and
//   3. compares the observed cost of the RUNNING sharing plan (PlanCost)
//      against the best plan's cost: when the relative drift exceeds
//      RunConfig::reoptimize_threshold, it emits SharingOverrides that the
//      session applies as a pane-aligned hot swap (a fresh plan epoch —
//      merged template, PredicateProgram and cohort masks rebuilt — that
//      takes the old plan's open windows over at the boundary).
//
// Sharing decisions never change emission VALUES (the paper's correctness
// invariant; CTest-enforced by the equivalence suites), so a swap can only
// change throughput, never results. Every check is logged as a
// ReoptDecision for dashboards and the fig12 online bench.
#ifndef HAMLET_OPTIMIZER_ONLINE_OPTIMIZER_H_
#define HAMLET_OPTIMIZER_ONLINE_OPTIMIZER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/query_set.h"
#include "src/hamlet/hamlet_engine.h"
#include "src/optimizer/plan_search.h"
#include "src/plan/workload_plan.h"

namespace hamlet {

/// Accumulates per-type arrival counts between plan checks — the piece of
/// Table 2's inputs (n: events per window, per relevant type) that
/// HamletStats does not carry. Fed once per accepted event by the session's
/// control plane (NOT per epoch, so churn transitions never double-count).
class BurstStatsCollector {
 public:
  /// Resets all counts and sizes the per-type table for `num_types`.
  void Reset(int num_types);

  void CountEvent(TypeId type) {
    if (type >= 0 && type < static_cast<TypeId>(type_events_.size())) {
      ++type_events_[static_cast<size_t>(type)];
    }
    ++total_events_;
  }

  int64_t type_events(TypeId type) const {
    return type >= 0 && type < static_cast<TypeId>(type_events_.size())
               ? type_events_[static_cast<size_t>(type)]
               : 0;
  }
  int64_t total_events() const { return total_events_; }
  const std::vector<int64_t>& per_type() const { return type_events_; }

 private:
  std::vector<int64_t> type_events_;
  int64_t total_events_ = 0;
};

struct OnlineReoptimizerOptions {
  /// Relative cost drift that triggers a swap: swap when
  /// (observed - best) / observed > threshold. Must be > 0.
  double threshold = 0.2;
  CostModelVariant variant = CostModelVariant::kRuntime;
  /// The engine re-decides sharing per burst (kHamletDynamic): a running
  /// group costs the cheaper of sharing its plan's members and splitting,
  /// so a swap only pays where the plan keeps the bursts from sharing.
  bool per_burst = false;
  /// Evidence floor: checks observing fewer engine events than this since
  /// the previous check are skipped (not logged) — early panes would
  /// otherwise thrash the plan on noise.
  int64_t min_events = 256;
};

/// One logged re-optimization check (see examples/live_dashboard).
struct ReoptDecision {
  /// Pane boundary the check ran at (event time).
  Timestamp boundary = 0;
  /// Total cost of the running sharing plan under the live statistics.
  double observed_cost = 0.0;
  /// Total cost of the best plan PrunedPlanSearch found.
  double best_cost = 0.0;
  bool swapped = false;
  /// Human-readable per-group summary ("type 2: {0,1,2} -> {0,1}").
  std::string detail;
};

/// See file comment. Single-threaded; owned by a session's one control
/// plane (src/runtime/control_plane.h), on the Session front, never a
/// shard's, so every shard runs the plan it decides.
class OnlineReoptimizer {
 public:
  /// Binds to a (re)compiled plan. `potential_groups` are the UNRESTRICTED
  /// share groups AnalyzeWorkload built for this query set — the search
  /// space, which must survive restriction so a split group can re-merge
  /// when the statistics swing back. `applied` are the overrides currently
  /// in force (empty right after churn). Resets the statistics baselines.
  void Bind(const WorkloadPlan& plan,
            std::span<const ShareGroup> potential_groups,
            std::span<const SharingOverride> applied,
            const OnlineReoptimizerOptions& opts);

  struct Outcome {
    bool swap = false;
    /// One override per potential group when swapping (including unchanged
    /// groups, so the rebuilt plan reflects the full current decision).
    std::vector<SharingOverride> overrides;
  };

  /// Runs one check at pane boundary `boundary` given the session's
  /// cumulative engine statistics and arrival counts (the reoptimizer
  /// differences them against the previous check internally).
  Outcome Check(Timestamp boundary, const HamletStats& cumulative,
                const BurstStatsCollector& collector);

  const std::vector<ReoptDecision>& log() const { return log_; }
  /// Safe to read from any thread: Session::MetricsSnapshot reports
  /// these counters from monitor threads while the front is mid-check.
  int64_t checks() const { return checks_.load(std::memory_order_relaxed); }
  int64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }
  bool bound() const { return plan_ != nullptr; }

 private:
  struct GroupState {
    TypeId type = Schema::kInvalidId;
    QuerySet original_members;
    std::vector<int> member_ids;  ///< ascending exec ids; local index order
    QuerySet current_shared;      ///< exec-id space
    int p = 1;
    int t = 1;
    PropagationMode mode = PropagationMode::kFastSum;
    /// Open windows per member and group key (within / slide), averaged.
    double c = 1.0;
    int scanners = 0;
    bool min_max = false;
    /// Members that introduce snapshots (predicates/negations) — the ones
    /// Theorem 4.1 cannot keep shared for free.
    std::vector<bool> snapshotty;
    /// n = sum of weight * (arrivals of pred_type) / interval.
    std::vector<WorkloadPlan::WindowTerm> n_terms;
  };

  const WorkloadPlan* plan_ = nullptr;
  OnlineReoptimizerOptions opts_;
  std::vector<GroupState> groups_;
  /// Baselines from the previous check (deltas drive the inputs).
  HamletStats base_stats_;
  std::vector<int64_t> base_type_events_;
  bool have_baseline_ = false;
  Timestamp last_boundary_ = 0;
  std::vector<ReoptDecision> log_;
  /// Plain int64_t raced with MetricsSnapshot's cross-thread reads before
  /// the thread-safety pass; relaxed atomics — the counts are monotonic
  /// telemetry, no ordering is implied.
  std::atomic<int64_t> checks_{0};
  std::atomic<int64_t> swaps_{0};
};

}  // namespace hamlet

#endif  // HAMLET_OPTIMIZER_ONLINE_OPTIMIZER_H_
