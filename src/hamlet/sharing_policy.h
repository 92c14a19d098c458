// Sharing-policy interface consulted at every burst start (paper §4).
//
// When a lane is about to open a new graphlet, the engine reports the
// locally available stream statistics (the cost model's factors, see
// src/optimizer/cost_model.h) and the policy answers which member queries
// should share the graphlet. The concrete policies live in src/optimizer:
// DynamicBenefitPolicy (the paper's optimizer), AlwaysSharePolicy (the
// static optimizer of Figs. 12/13), NeverSharePolicy (non-shared
// execution). Under the default kRuntime model the policy prices the lane's
// PropagationMode with its open contexts, scanning members and divergence;
// Definitions 11/12 read only the paper's Table 2 factors.
#ifndef HAMLET_HAMLET_SHARING_POLICY_H_
#define HAMLET_HAMLET_SHARING_POLICY_H_

#include <vector>

#include "src/common/query_set.h"
#include "src/plan/workload_plan.h"
#include "src/stream/event.h"

namespace hamlet {

/// Locally observed statistics for one burst decision (Definition 12's
/// notation: b, n, g, k, p, sc, sp; kRuntime adds mode, c, scanners and
/// min_max).
struct BurstStats {
  /// Number of member queries of the lane (k).
  int k = 0;
  /// Estimated events in the upcoming burst (b): moving average of recent
  /// burst lengths of this lane.
  double b = 1.0;
  /// Events in the window (n): the events of a scanning member's
  /// predecessor lanes within its window, averaged over the lane's scanning
  /// members (over all members when none scans).
  double n = 1.0;
  /// Events per graphlet (g): moving average of recent graphlet sizes.
  double g = 1.0;
  /// Predecessor types per type per query (p).
  int p = 1;
  /// Types per query (t).
  int t = 1;
  /// Estimated snapshots created per burst, total (sc): 1 for the
  /// graphlet plus the members' recent snapshot attributions (events a
  /// member does not match), counted whether or not the lane shares.
  double sc = 1.0;
  /// Estimated snapshots propagated per intermediate count (sp).
  double sp = 1.0;
  /// Estimated snapshots created per burst attributable to each member
  /// (parallel to the member list the engine passes): drives the
  /// snapshot-driven pruning of Theorem 4.1.
  std::vector<double> sc_per_member;
  /// The lane's propagation mode.
  PropagationMode mode = PropagationMode::kFastSum;
  /// Open window contexts per member (c).
  double c = 1.0;
  /// Members with edge predicates: they scan stored nodes.
  int scanners = 0;
  /// The lane folds MIN/MAX.
  bool min_max = false;
};

/// The subset of the lane's members that should share the next graphlet;
/// everyone else is processed in per-query (split) graphlets.
struct SharingDecision {
  QuerySet shared;
};

/// Consulted once per burst (graphlet open). Implementations must be cheap:
/// the paper requires decisions in O(m) for m snapshot-introducing queries.
class SharingPolicy {
 public:
  virtual ~SharingPolicy() = default;

  /// `members` lists the lane's member exec ids (the QuerySet expansion of
  /// the candidate sharers); `stats.sc_per_member` is parallel to it.
  virtual SharingDecision Decide(const std::vector<int>& members,
                                 const BurstStats& stats) = 0;

  /// Policy name for reports.
  virtual const char* name() const = 0;
};

}  // namespace hamlet

#endif  // HAMLET_HAMLET_SHARING_POLICY_H_
