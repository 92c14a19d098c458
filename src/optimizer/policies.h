// The sharing policies (paper §4.2/§4.3 and the static baseline of §6.2).
//
//  * NeverSharePolicy  — non-shared execution: every query in its own
//                        graphlets (equivalent to GRETA per query).
//  * AlwaysSharePolicy — the *static* optimizer of Figures 12/13: decides at
//                        compile time to share everything, never revisits.
//  * DynamicBenefitPolicy — the HAMLET optimizer: per burst, applies the
//                        snapshot-driven pruning (Theorem 4.1: queries that
//                        introduce no snapshots always share), the
//                        benefit-driven pruning (Theorem 4.2: marginal test
//                        per snapshot-introducing query), and a final
//                        benefit check of the chosen plan, all under one
//                        CostModelVariant (src/optimizer/cost_model.h).
//                        Sessions pass RunConfig::cost_variant, kRuntime by
//                        default: it prices the lane's propagation mode
//                        from the BurstStats the engine fills, with the
//                        same terms the online re-optimizer's PlanCost uses.
//                        A default-constructed policy keeps Definition 12
//                        (kRefined), which optimizer_test's PolicyUnitTest
//                        cases pin; kSimple/kRefined themselves are pinned
//                        by CostModelTest and hamlet_paper_example_test.
#ifndef HAMLET_OPTIMIZER_POLICIES_H_
#define HAMLET_OPTIMIZER_POLICIES_H_

#include <cstdint>

#include "src/hamlet/sharing_policy.h"
#include "src/optimizer/cost_model.h"

namespace hamlet {

class NeverSharePolicy : public SharingPolicy {
 public:
  SharingDecision Decide(const std::vector<int>& members,
                         const BurstStats& stats) override;
  const char* name() const override { return "never_share"; }
};

class AlwaysSharePolicy : public SharingPolicy {
 public:
  SharingDecision Decide(const std::vector<int>& members,
                         const BurstStats& stats) override;
  const char* name() const override { return "always_share(static)"; }
};

class DynamicBenefitPolicy : public SharingPolicy {
 public:
  explicit DynamicBenefitPolicy(
      CostModelVariant variant = CostModelVariant::kRefined)
      : variant_(variant) {}

  SharingDecision Decide(const std::vector<int>& members,
                         const BurstStats& stats) override;
  const char* name() const override { return "dynamic_benefit"; }

  /// Number of decisions taken (the paper reports decision overhead).
  int64_t decisions() const { return decisions_; }

 private:
  CostModelVariant variant_;
  int64_t decisions_ = 0;
};

}  // namespace hamlet

#endif  // HAMLET_OPTIMIZER_POLICIES_H_
