#include "src/runtime/query_lifecycle.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace hamlet {

Result<QueryLifecycle::Epoch> QueryLifecycle::Init(const WorkloadPlan& plan) {
  // Resolve every event predicate against the schema ONCE: an unresolved
  // type/attribute name fails Open with kInvalidArgument here instead of
  // tripping a per-event DCHECK (or reading a zero) deep inside an engine.
  Result<PredicateProgram> program = CompilePredicateProgram(plan);
  if (!program.ok()) return program.status();
  auto epoch = std::make_shared<CompiledEpoch>();
  // Non-owning: the caller's plan outlives the session.
  epoch->plan = std::shared_ptr<const WorkloadPlan>(
      std::shared_ptr<const WorkloadPlan>(), &plan);
  epoch->program = std::move(program).value();
  epoch->potential_groups = plan.share_groups;
  schema_ = plan.workload->schema();
  members_.clear();
  for (const Query& q : plan.workload->queries()) {
    epoch->query_ids.push_back(next_id_);
    epoch->bounds.emplace_back();
    members_.push_back({q, next_id_++, Bounds()});
  }
  return Epoch(std::move(epoch));
}

std::vector<Query> QueryLifecycle::queries() const {
  std::vector<Query> live;
  for (const Member& m : members_) {
    if (m.live()) live.push_back(m.query);
  }
  return live;
}

int QueryLifecycle::FindLive(const std::string& name) const {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].live() && members_[i].query.name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Status QueryLifecycle::ValidateAdd(const Query& q) const {
  if (schema_ == nullptr)
    return Status::FailedPrecondition("lifecycle not initialized");
  if (q.name.empty()) {
    return Status::InvalidArgument(
        "queries added to a live session must be named");
  }
  if (FindLive(q.name) >= 0)
    return Status::InvalidArgument("duplicate query name: " + q.name);
  // Resolve a copy WITHOUT registering missing names: validation must not
  // mutate the schema the running epoch (and sibling shards) read.
  Query probe = q;
  Status s = probe.Resolve(schema_, /*register_missing=*/false);
  if (!s.ok()) return s;
  return Status::Ok();
}

Status QueryLifecycle::ValidateRemove(const std::string& name) const {
  if (schema_ == nullptr)
    return Status::FailedPrecondition("lifecycle not initialized");
  if (FindLive(name) < 0)
    return Status::NotFound("unknown query name: " + name);
  const auto live = std::count_if(members_.begin(), members_.end(),
                                  [](const Member& m) { return m.live(); });
  if (live == 1) {
    return Status::InvalidArgument(
        "cannot remove the last query (an empty workload has no pane grid); "
        "Close() the session instead");
  }
  return Status::Ok();
}

Result<QueryLifecycle::Epoch> QueryLifecycle::TryAdd(const Query& q,
                                                     Timestamp activate) {
  Status s = ValidateAdd(q);
  if (!s.ok()) return s;
  members_.push_back({q, next_id_, Bounds{activate, Bounds::kNoEnd}});
  Result<Epoch> epoch = Compile({}, activate);
  if (epoch.ok()) {
    ++next_id_;
  } else {
    members_.pop_back();
  }
  return epoch;
}

Result<QueryLifecycle::Epoch> QueryLifecycle::TryRemove(
    const std::string& name, Timestamp activate) {
  Status s = ValidateRemove(name);
  if (!s.ok()) return s;
  const size_t i = static_cast<size_t>(FindLive(name));
  members_[i].bounds.open_until = activate;
  Result<Epoch> epoch = Compile({}, activate);
  if (!epoch.ok()) members_[i].bounds.open_until = Bounds::kNoEnd;
  return epoch;
}

std::vector<QueryLifecycle::Member> QueryLifecycle::Undrained(
    std::vector<Member> members, Timestamp at) {
  // A draining query's last window starts before open_until, so it has
  // closed once the pane clock reaches open_until + within.
  std::erase_if(members, [&](const Member& m) {
    return !m.live() &&
           (m.bounds.open_from >= m.bounds.open_until ||
            m.bounds.open_until + m.query.window.within <= at);
  });
  return members;
}

Result<QueryLifecycle::Epoch> QueryLifecycle::Build(
    Schema* schema, const std::vector<Member>& members,
    std::span<const SharingOverride> overrides, Timestamp grid) {
  auto epoch = std::make_shared<CompiledEpoch>();
  auto workload = std::make_shared<Workload>(schema);
  for (const Member& m : members) {
    // Re-resolving is a pure lookup here: every name was registered when
    // the query first entered the workload (or passed ValidateAdd).
    Result<QueryId> id = workload->Add(m.query);
    if (!id.ok()) return id.status();
    epoch->query_ids.push_back(m.id);
    epoch->bounds.push_back(m.bounds);
  }
  Result<WorkloadPlan> analyzed = AnalyzeWorkload(*workload);
  if (!analyzed.ok()) return analyzed.status();
  auto plan = std::make_shared<WorkloadPlan>(std::move(analyzed).value());
  epoch->potential_groups = plan->share_groups;
  RestrictShareGroups(*plan, overrides);
  epoch->applied.assign(overrides.begin(), overrides.end());
  plan->pane_size = std::gcd(plan->pane_size, grid);
  Result<PredicateProgram> program = CompilePredicateProgram(*plan);
  if (!program.ok()) return program.status();
  epoch->program = std::move(program).value();
  const Timestamp pane = plan->pane_size;
  for (const Member& m : members) {
    if (m.live()) continue;
    const Timestamp closed = m.bounds.open_until + m.query.window.within;
    epoch->drop_at = std::min(epoch->drop_at, (closed + pane - 1) / pane * pane);
  }
  epoch->plan = std::move(plan);
  epoch->workload = std::move(workload);
  return Epoch(std::move(epoch));
}

Result<QueryLifecycle::Epoch> QueryLifecycle::Compile(
    std::span<const SharingOverride> overrides, Timestamp activate) {
  if (schema_ == nullptr)
    return Status::FailedPrecondition("lifecycle not initialized");
  std::vector<Member> kept = Undrained(members_, activate);
  // Removing a query can coarsen the pane gcd; the epoch takes over at
  // `activate`, which lies on the running grid, so keep it on this one.
  Result<Epoch> epoch = Build(schema_, kept, overrides, activate);
  if (epoch.ok()) members_ = std::move(kept);
  return epoch;
}

Result<QueryLifecycle::Epoch> QueryLifecycle::CompileWithoutDrained(
    const CompiledEpoch& running, Timestamp at) {
  const WorkloadPlan& plan = *running.plan;
  std::vector<Member> members;
  for (QueryId q = 0; q < plan.workload->size(); ++q) {
    const size_t i = static_cast<size_t>(q);
    members.push_back(
        {plan.workload->query(q), running.query_ids[i], running.bounds[i]});
  }
  // The running pane divides every remaining window, so it stays the pane:
  // every boundary the control plane picks stays on this session's grid.
  return Build(plan.workload->schema(), Undrained(std::move(members), at),
               running.applied, plan.pane_size);
}

}  // namespace hamlet
