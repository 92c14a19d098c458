// The dynamic sharing benefit model (paper §4.1).
//
// Three variants price one burst of a lane shared (one graphlet for the
// sharers) against non-shared (one graphlet per query):
//  * kSimple, the form of the worked examples Eq. 9-11 (Definition 11):
//      Shared    = b*n*sp + sc*k*g*t
//      NonShared = k*b*n
//  * kRefined, the form with lookup costs (Definition 12 / Eq. 8):
//      Shared    = sc*k*g*p + b*(log2(g) + n*sp)
//      NonShared = k*b*(log2(g) + n)
//    Both are pinned by optimizer_test (CostModelTest.Equation9/10/11,
//    RefinedVariantAddsLookupCosts) and hamlet_paper_example_test.
//  * kRuntime (the default), one form per PropagationMode that counts the
//    work HamletEngine does, in nanoseconds (RuntimeCostTerms below). A
//    solo member pays c*(open + b*solo_append + fold); a shared graphlet
//    pays its two snapshots, b fast-sum appends (kFastSum) or b event
//    snapshots (kPerEventSnapshot) or one scan per event (kSharedScan),
//    then each sharer's open and fold with the running sum's evaluation,
//    and each divergent event an event-level snapshot valued for every
//    sharer context. The window term n appears only for members that scan
//    (edge predicates), on whichever side they run. optimizer_test's
//    RuntimeCostModelTest cases pin its shape.
// Benefit = NonShared - Shared; share when positive.
//
// Notation (Table 2): b events per burst, n events per window, g events per
// graphlet, k queries, p predecessor types per type per query, t types per
// query, sc snapshots created per burst, sp snapshots propagated (terms of
// the graphlet's running sum). kRuntime adds c, the open window contexts
// per member, and the lane's mode and scanning members; it derives the
// running sum's terms from b and sc instead of reading sp. For every
// variant, n is a member's predecessor-lane events in its window.
#ifndef HAMLET_OPTIMIZER_COST_MODEL_H_
#define HAMLET_OPTIMIZER_COST_MODEL_H_

#include "src/plan/workload_plan.h"

namespace hamlet {

enum class CostModelVariant {
  kSimple,   ///< Definition 11 (worked examples Eq. 9-11)
  kRefined,  ///< Definition 12 / Eq. 8
  kRuntime,  ///< per-PropagationMode form priced in measured nanoseconds
};

/// Per-operation costs of kRuntime in nanoseconds, measured once by part (4)
/// of bench/bench_optimizer_overhead.cc and never tuned per workload. The
/// values are one run's output, rounded (Release, GCC 12, one core of a
/// shared 4-vCPU x86-64 Xeon host, in a fast phase of the host):
///   solo_append 32.2, solo_graphlet 90.2, fast_append 19.7,
///   expr_term 6.3, snapshot 20.2, scan_node 25.3 (shared_member check
///   110.7 against the model's 102.6). Only their ratios steer decisions.
namespace runtime_cost {
/// One solo append for one open window context on the per-row path (the
/// gated workloads' runs average 1.2-2.1 rows).
inline constexpr double kSoloAppendNs = 32.0;
/// One solo graphlet's open and fold for one context; a sharer's own open
/// and fold do the same entry and total work, and so does the shared
/// graphlet's own bookkeeping.
inline constexpr double kSoloGraphletNs = 90.0;
/// One shared fast-sum append over a two-term running sum (u + x), on top
/// of the row dispatch both sides pay.
inline constexpr double kFastAppendNs = 20.0;
/// One Expr term evaluated against the snapshot store and merged.
inline constexpr double kExprTermNs = 6.3;
/// One snapshot variable created and one context value set in it.
inline constexpr double kSnapshotNs = 20.0;
/// One stored node visited by a predecessor scan.
inline constexpr double kScanNodeNs = 25.0;
}  // namespace runtime_cost

/// Cost-model inputs for one burst decision.
struct CostInputs {
  int k = 1;
  double b = 1.0;
  double n = 1.0;
  double g = 1.0;
  int p = 1;
  int t = 1;
  double sc = 1.0;
  double sp = 1.0;
  // kRuntime only.
  PropagationMode mode = PropagationMode::kFastSum;
  /// Open window contexts per member.
  double c = 1.0;
  /// Members with edge predicates, which scan stored nodes.
  int scanners = 0;
  /// The lane folds MIN/MAX: shared events keep nodes and every sharer
  /// context evaluates each one.
  bool min_max = false;
};

/// kRuntime's separable per-burst terms (ns). With e = sc - 1 divergent
/// events:
///   Shared(k)    = base + k*member_shared + e*per_snapshot + scanners*scan
///   NonShared(k) = k*member_solo + scanners*scan
/// A kSharedScan lane's scans live in base (one scan serves every sharer)
/// and member_solo (each solo member scans alone), so its `scan` is 0.
struct RuntimeTerms {
  double base = 0.0;           ///< the shared graphlet's own work
  double member_shared = 0.0;  ///< one member riding the shared graphlet
  double member_solo = 0.0;    ///< one member in its own graphlet
  double per_snapshot = 0.0;   ///< one divergent event's extra work
  double scan = 0.0;           ///< one scanning member's scans, either side
};

RuntimeTerms RuntimeCostTerms(const CostInputs& in);

/// Cost of processing the burst in one shared graphlet.
double SharedCost(const CostInputs& in, CostModelVariant variant);

/// Cost of processing the burst in k per-query graphlets.
double NonSharedCost(const CostInputs& in, CostModelVariant variant);

/// NonShared - Shared (Definition 12: share when > 0).
double SharingBenefit(const CostInputs& in, CostModelVariant variant);

/// Theorem 4.1/4.2 marginal test: keeping query q in the shared set trades
/// the additive factor sc_q*g*p (its snapshot maintenance) against
/// b*(log2(g)+n) (its re-computation). Under kRuntime the two factors are
/// member_shared + sc_q*per_snapshot and member_solo. Returns true when
/// sharing q wins.
bool MarginalShareWins(double sc_q, const CostInputs& in,
                       CostModelVariant variant);

}  // namespace hamlet

#endif  // HAMLET_OPTIMIZER_COST_MODEL_H_
