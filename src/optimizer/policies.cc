#include "src/optimizer/policies.h"

namespace hamlet {

SharingDecision NeverSharePolicy::Decide(const std::vector<int>& members,
                                         const BurstStats& stats) {
  (void)members;
  (void)stats;
  return {};
}

SharingDecision AlwaysSharePolicy::Decide(const std::vector<int>& members,
                                          const BurstStats& stats) {
  (void)stats;
  SharingDecision d;
  for (int q : members) d.shared.Insert(q);
  return d;
}

SharingDecision DynamicBenefitPolicy::Decide(const std::vector<int>& members,
                                             const BurstStats& stats) {
  ++decisions_;
  CostInputs in;
  in.k = stats.k;
  in.b = stats.b;
  in.n = stats.n;
  in.g = stats.g;
  in.p = stats.p;
  in.t = stats.t;
  in.sp = stats.sp;
  in.mode = stats.mode;
  in.c = stats.c;
  in.scanners = stats.scanners;
  in.min_max = stats.min_max;

  // Level-2 pruning: Theorem 4.1 keeps zero-snapshot queries shared;
  // Theorem 4.2's marginal test decides each snapshot-introducing query.
  SharingDecision d;
  double sc_shared = 1.0;  // the graphlet-level snapshot itself
  int shared_count = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    const double sc_q =
        i < stats.sc_per_member.size() ? stats.sc_per_member[i] : 0.0;
    if (sc_q <= 0.0 || MarginalShareWins(sc_q, in, variant_)) {
      d.shared.Insert(members[i]);
      sc_shared += sc_q;
      ++shared_count;
    }
  }
  if (shared_count < 2) return {};

  // Final Eq. 8 check of the chosen plan.
  CostInputs chosen = in;
  chosen.k = shared_count;
  chosen.sc = sc_shared;
  if (SharingBenefit(chosen, variant_) <= 0.0) return {};
  return d;
}

}  // namespace hamlet
