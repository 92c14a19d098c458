#include "src/optimizer/plan_search.h"

#include "src/common/check.h"

namespace hamlet {

double PlanCost(const PlanSearchInputs& in, const QuerySet& shared) {
  // Separable form of the Eq. 8 / Definition 11 cost, mirroring the
  // Theorem 4.1/4.2 proofs where moving one query between the shared and
  // solo sides changes the cost by exactly one additive factor per side
  // (sc_q*g*p when shared vs b*(log2(g)+n) when solo). The shared side pays
  // one base propagation term b*(log2(g)+n*sp) plus the graphlet-level
  // snapshot (sc = 1), and each member adds its own snapshot maintenance.
  const int k_total = static_cast<int>(in.sc_q.size());
  const int ks = shared.Count();
  const int kn = k_total - ks;
  double cost = 0.0;
  if (in.variant == CostModelVariant::kRuntime) {
    // The same separable terms the per-burst policy prices: the shared
    // graphlet once, each member on its side, and each sharer's divergent
    // snapshots. The scanners' scans cost every plan alike and are left
    // out, so the re-optimizer's drift compares what sharing changes.
    CostInputs base = in.base;
    base.k = ks;
    base.sc = 1.0;
    shared.ForEach(
        [&](QueryId q) { base.sc += in.sc_q[static_cast<size_t>(q)]; });
    const RuntimeTerms t = RuntimeCostTerms(base);
    if (ks > 0) {
      cost += t.base + ks * t.member_shared + (base.sc - 1.0) * t.per_snapshot;
    }
    return cost + kn * t.member_solo;
  }
  if (ks > 0) {
    CostInputs base = in.base;
    base.k = 1;
    base.sc = 1.0;
    cost += SharedCost(base, in.variant);
    const double per_snapshot = in.variant == CostModelVariant::kSimple
                                    ? in.base.g * in.base.t
                                    : in.base.g * in.base.p;
    shared.ForEach([&](QueryId q) {
      cost += in.sc_q[static_cast<size_t>(q)] * per_snapshot;
    });
  }
  if (kn > 0) {
    CostInputs n = in.base;
    n.k = kn;
    cost += NonSharedCost(n, in.variant);
  }
  return cost;
}

SharingPlan ExhaustivePlanSearch(const PlanSearchInputs& in, int k) {
  HAMLET_CHECK(k <= 16);
  SharingPlan best;
  best.cost = PlanCost(in, QuerySet());
  for (uint32_t mask = 0; mask < (1u << k); ++mask) {
    if (__builtin_popcount(mask) == 1) continue;  // a singleton shares nothing
    QuerySet shared;
    for (int q = 0; q < k; ++q) {
      if ((mask >> q) & 1) shared.Insert(q);
    }
    double cost = PlanCost(in, shared);
    if (cost < best.cost) {
      best.cost = cost;
      best.shared = shared;
    }
  }
  return best;
}

SharingPlan PrunedPlanSearch(const PlanSearchInputs& in, int k) {
  // Snapshot-driven pruning (Theorem 4.1): queries with sc_q == 0 are always
  // shared. Benefit-driven pruning (Theorem 4.2): each snapshot-introducing
  // query is shared iff its marginal share cost beats its solo cost. The
  // cost is separable per query, so the greedy selection is optimal; when
  // fewer than two queries pass, the only remaining candidates pad the
  // shared set with the cheapest failing queries (a shared set needs >= 2
  // members). O(m) plus the min-two scan.
  QuerySet shared;
  std::vector<int> failing;
  // The group's k, as DynamicBenefitPolicy passes it (kRuntime prices a
  // divergent snapshot for every sharer).
  CostInputs marginal = in.base;
  marginal.k = k;
  for (int q = 0; q < k; ++q) {
    const double sc_q = in.sc_q[static_cast<size_t>(q)];
    if (sc_q <= 0.0 || MarginalShareWins(sc_q, marginal, in.variant)) {
      shared.Insert(q);
    } else {
      failing.push_back(q);
    }
  }
  auto cheapest = [&](const QuerySet& exclude) {
    int best = -1;
    for (int q : failing) {
      if (exclude.Contains(q)) continue;
      if (best < 0 ||
          in.sc_q[static_cast<size_t>(q)] < in.sc_q[static_cast<size_t>(best)])
        best = q;
    }
    return best;
  };
  while (shared.Count() > 0 && shared.Count() < 2) {
    int q = cheapest(shared);
    if (q < 0) break;
    shared.Insert(q);
  }
  if (shared.Count() < 2 && static_cast<int>(failing.size()) >= 2) {
    int first = cheapest(QuerySet());
    shared.Insert(first);
    int second = cheapest(shared);
    shared.Insert(second);
  }
  SharingPlan plan;
  plan.shared = shared.Count() >= 2 ? shared : QuerySet();
  plan.cost = PlanCost(in, plan.shared);
  double solo_cost = PlanCost(in, QuerySet());
  if (solo_cost < plan.cost) {
    plan.shared = QuerySet();
    plan.cost = solo_cost;
  }
  return plan;
}

}  // namespace hamlet
