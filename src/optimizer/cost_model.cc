#include "src/optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

namespace hamlet {

namespace {
double Log2G(double g) { return std::log2(std::max(2.0, g)); }
}  // namespace

RuntimeTerms RuntimeCostTerms(const CostInputs& in) {
  using namespace runtime_cost;
  const double b = in.b;
  const double c = in.c;
  const double k = static_cast<double>(in.k);
  const double e = std::max(0.0, in.sc - 1.0);
  // The shared running sum starts at u + x and gains one term per event
  // snapshot: per divergent event, or per event in kPerEventSnapshot. `r` is
  // its size at the fold, `r_mean` over the burst.
  const double r =
      2.0 + (in.mode == PropagationMode::kPerEventSnapshot ? b : e);
  const double r_mean = (2.0 + r) / 2.0;
  // A fast-sum append folds u + x + R into R, so it grows with R's terms.
  const double fast = kFastAppendNs * r_mean / 2.0;
  RuntimeTerms t;
  // Both sides compute each context's entry and start values at the open
  // and add its total into the context at the fold; a solo member appends
  // once per event and context.
  t.member_solo = c * (kSoloGraphletNs + b * kSoloAppendNs);
  // A sharer keeps its values in the graphlet's snapshots (u, x) instead,
  // and evaluates the running sum at the fold.
  t.member_shared = c * (kSoloGraphletNs + r * kExprTermNs);
  t.scan = c * b * in.n * kScanNodeNs;
  // The shared graphlet's own open and fold, with its snapshots u and x.
  const double graphlet = kSoloGraphletNs + 2.0 * kSnapshotNs;
  switch (in.mode) {
    case PropagationMode::kFastSum:
      t.base = graphlet + b * fast;
      // A divergent event replaces its fast append by an event snapshot
      // valued for every sharer context from the running sum.
      t.per_snapshot =
          kSnapshotNs + k * c * (r_mean * kExprTermNs + kSnapshotNs) - fast;
      break;
    case PropagationMode::kPerEventSnapshot:
      // Every event is an event snapshot: each sharer context sets it and
      // updates its own running sum, whatever the divergence.
      t.base = graphlet + b * kSnapshotNs;
      t.member_shared += b * c * (kSnapshotNs + kSoloAppendNs);
      break;
    case PropagationMode::kSharedScan:
      // One scan per event serves every sharer; a solo member scans alone,
      // and a divergent event falls back to per-member scans.
      t.base = graphlet + b * in.n * (kScanNodeNs + kExprTermNs);
      t.member_solo += t.scan;
      t.per_snapshot = kSnapshotNs + k * c * (in.n * kScanNodeNs + kSnapshotNs);
      t.scan = 0.0;
      break;
  }
  if (in.min_max) {
    // MIN/MAX sharers materialize every event's node (an expression and a
    // snapshot-sized record), and each sharer context evaluates it and
    // folds it as a solo append would.
    t.base += b * (kFastAppendNs + kSnapshotNs + r_mean * kExprTermNs);
    t.member_shared += b * c * (kSoloAppendNs + r_mean * kExprTermNs);
  }
  return t;
}

double SharedCost(const CostInputs& in, CostModelVariant variant) {
  if (variant == CostModelVariant::kSimple) {
    return in.b * in.n * in.sp + in.sc * in.k * in.g * in.t;
  }
  if (variant == CostModelVariant::kRuntime) {
    const RuntimeTerms t = RuntimeCostTerms(in);
    return t.base + in.k * t.member_shared +
           std::max(0.0, in.sc - 1.0) * t.per_snapshot + in.scanners * t.scan;
  }
  return in.sc * in.k * in.g * in.p + in.b * (Log2G(in.g) + in.n * in.sp);
}

double NonSharedCost(const CostInputs& in, CostModelVariant variant) {
  if (variant == CostModelVariant::kSimple) {
    return static_cast<double>(in.k) * in.b * in.n;
  }
  if (variant == CostModelVariant::kRuntime) {
    const RuntimeTerms t = RuntimeCostTerms(in);
    return in.k * t.member_solo + in.scanners * t.scan;
  }
  return static_cast<double>(in.k) * in.b * (Log2G(in.g) + in.n);
}

double SharingBenefit(const CostInputs& in, CostModelVariant variant) {
  return NonSharedCost(in, variant) - SharedCost(in, variant);
}

bool MarginalShareWins(double sc_q, const CostInputs& in,
                       CostModelVariant variant) {
  if (variant == CostModelVariant::kSimple) {
    return sc_q * in.g * in.t <= in.b * in.n;
  }
  if (variant == CostModelVariant::kRuntime) {
    const RuntimeTerms t = RuntimeCostTerms(in);
    return t.member_shared + sc_q * t.per_snapshot <= t.member_solo;
  }
  return sc_q * in.g * in.p <= in.b * (Log2G(in.g) + in.n);
}

}  // namespace hamlet
