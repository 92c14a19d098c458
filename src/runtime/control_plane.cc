#include "src/runtime/control_plane.h"

#include <utility>

namespace hamlet {

ControlPlane::ControlPlane(const RunConfig& config, const OrderingGate& gate)
    : gate_(gate), every_panes_(config.reoptimize_every_panes) {
  reopt_options_.threshold = config.reoptimize_threshold;
  reopt_options_.variant = config.cost_variant;
  reopt_options_.per_burst = config.kind == EngineKind::kHamletDynamic;
}

Result<std::unique_ptr<ControlPlane>> ControlPlane::Open(
    const WorkloadPlan& plan, const RunConfig& config,
    const OrderingGate& gate) {
  std::unique_ptr<ControlPlane> cp(new ControlPlane(config, gate));
  Result<QueryLifecycle::Epoch> opening = cp->lifecycle_.Init(plan);
  if (!opening.ok()) return opening.status();
  cp->running_ = std::move(opening).value();
  AddGroupByAttrs(plan, &cp->group_by_attrs_);
  if (cp->reoptimizing()) {
    cp->collector_.Reset(plan.workload->schema()->num_types());
  }
  cp->Rebind(*cp->running_);
  return cp;
}

void ControlPlane::Rebind(const QueryLifecycle::CompiledEpoch& epoch) {
  if (!reoptimizing()) return;
  reoptimizer_.Bind(*epoch.plan, epoch.potential_groups, epoch.applied,
                    reopt_options_);
  reopt_anchor_.reset();
}

Result<ControlPlane::Scheduled> ControlPlane::Adopt(
    Result<QueryLifecycle::Epoch> compiled, Timestamp at,
    std::atomic<int64_t>& ops) {
  if (!compiled.ok()) return compiled.status();
  ops.fetch_add(1, std::memory_order_relaxed);
  QueryLifecycle::Epoch epoch = std::move(compiled).value();
  AddGroupByAttrs(*epoch->plan, &group_by_attrs_);
  Rebind(*epoch);
  if (gate_.any_seen()) {
    pending_ = epoch;
    pending_at_ = at;
  } else {
    running_ = epoch;
  }
  next_change_ = pending_ != nullptr ? pending_at_ : running_->drop_at;
  return Scheduled{std::move(epoch), at};
}

Timestamp ControlPlane::NextBoundary() const {
  if (!gate_.any_seen()) return 0;
  const Timestamp pane = running_->plan->pane_size;
  return (gate_.max_seen() / pane + 1) * pane;
}

Result<ControlPlane::Scheduled> ControlPlane::AddQuery(const Query& query) {
  const Timestamp at = NextBoundary();
  return Adopt(lifecycle_.TryAdd(query, at), at, queries_added_);
}

Result<ControlPlane::Scheduled> ControlPlane::RemoveQuery(
    const std::string& name) {
  const Timestamp at = NextBoundary();
  return Adopt(lifecycle_.TryRemove(name, at), at, queries_removed_);
}

Result<ControlPlane::Scheduled> ControlPlane::ApplySharingOverrides(
    std::span<const SharingOverride> overrides) {
  const Timestamp at = NextBoundary();
  return Adopt(lifecycle_.Compile(overrides, at), at, plan_swaps_);
}

std::vector<ControlPlane::Scheduled> ControlPlane::Advance(Timestamp time) {
  if (pending_ != nullptr && time >= pending_at_) {
    running_ = std::exchange(pending_, nullptr);
  }
  // A pending epoch comes no later than the running one's drop (an op
  // activates at the first boundary after everything seen, and the drop
  // boundary was not seen yet), so only the running epoch drops.
  std::vector<Scheduled> drops;
  while (pending_ == nullptr && running_->drop_at <= time) {
    const Timestamp at = running_->drop_at;
    Result<QueryLifecycle::Epoch> next =
        QueryLifecycle::CompileWithoutDrained(*running_, at);
    // A subset of a query set that compiled compiles.
    HAMLET_CHECK(next.ok());
    running_ = std::move(next).value();
    Rebind(*running_);
    drops.push_back({running_, at});
  }
  next_change_ = pending_ != nullptr ? pending_at_ : running_->drop_at;
  return drops;
}

std::optional<Timestamp> ControlPlane::ReoptDue() {
  if (!reoptimizing() || pending_ != nullptr || !gate_.any_seen()) {
    return std::nullopt;
  }
  const Timestamp pane = running_->plan->pane_size;
  const Timestamp boundary = gate_.max_seen() / pane * pane;
  if (!reopt_anchor_.has_value()) {
    reopt_anchor_ = boundary;
    return std::nullopt;
  }
  if (boundary < *reopt_anchor_ + pane * every_panes_) return std::nullopt;
  reopt_anchor_ = boundary;
  return boundary;
}

std::optional<ControlPlane::Scheduled> ControlPlane::Reoptimize(
    Timestamp boundary, const HamletStats& stats) {
  OnlineReoptimizer::Outcome out =
      reoptimizer_.Check(boundary, stats, collector_);
  if (!out.swap) return std::nullopt;
  Result<Scheduled> swap = ApplySharingOverrides(out.overrides);
  if (!swap.ok()) return std::nullopt;
  return std::move(swap).value();
}

void ControlPlane::FillMetrics(RunMetrics* m) const {
  m->queries_added = queries_added_.load(std::memory_order_relaxed);
  m->queries_removed = queries_removed_.load(std::memory_order_relaxed);
  m->plan_swaps = plan_swaps_.load(std::memory_order_relaxed);
  m->reopt_checks = reoptimizer_.checks();
  m->reopt_swaps = reoptimizer_.swaps();
}

}  // namespace hamlet
