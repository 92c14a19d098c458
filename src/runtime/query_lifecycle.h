// Query lifecycle for live sessions (the paper assumes a FIXED workload,
// §2.1 — this subsystem lifts that assumption for the runtime).
//
// A QueryLifecycle tracks the query set of a running session and compiles
// it — plus any online-optimizer SharingOverrides — into a fresh plan
// "epoch" (workload copy + WorkloadPlan + per-query window bounds) that the
// session activates at a pane boundary B by handing every open window over
// to it (session.h):
//
//   AddQuery    -> the added query opens windows starting at or after B
//                  (earlier windows would miss events the session consumed
//                  before the add).
//   RemoveQuery -> the query stays in the plan as a DRAINING member that
//                  opens no window starting at or after B; its windows
//                  that started earlier run to completion and emit. At the
//                  first pane boundary after its last window closed (the
//                  epoch's drop_at) the control plane recompiles the
//                  running plan without it (CompileWithoutDrained); a
//                  compile at or after that boundary drops it too.
//   Plan swap   -> same mechanism with an unchanged query set but a
//                  restricted share-group structure (online_optimizer.h).
//
// Correctness: sharing never changes emission values, and every query only
// opens windows inside its bounds, so the session's emissions equal a fresh
// session per activation interval (tests/query_churn_test.cc proves this
// bit-identically for all engines).
//
// One lifecycle per session, owned by its control plane (control_plane.h):
// a Session front's, never a shard's. Each op
// validates, applies and compiles in one call, and a rejected op leaves
// the lifecycle as it was. The compiled epoch is immutable, so the front
// hands the same one to every shard.
#ifndef HAMLET_RUNTIME_QUERY_LIFECYCLE_H_
#define HAMLET_RUNTIME_QUERY_LIFECYCLE_H_

#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/plan/workload_plan.h"
#include "src/query/query.h"

namespace hamlet {

class QueryLifecycle {
 public:
  /// A query opens only windows starting in [open_from, open_until).
  struct Bounds {
    static constexpr Timestamp kNoEnd = std::numeric_limits<Timestamp>::max();
    Timestamp open_from = 0;
    Timestamp open_until = kNoEnd;

    bool Contains(Timestamp window_start) const {
      return window_start >= open_from && window_start < open_until;
    }
  };

  /// One compiled plan generation, immutable once built. `plan->workload`
  /// points at `workload`, which the epoch keeps alive (the opening epoch
  /// refers to the caller's plan and owns neither); `program` is the plan's
  /// predicate program; `potential_groups` is the UNRESTRICTED
  /// share-group search space captured before overrides were applied (the
  /// online reoptimizer needs it so split groups can re-merge).
  /// `query_ids` and `bounds` are indexed by the workload's QueryId: the
  /// lifecycle's stable id of each query (QueryIds shift between epochs)
  /// and its window bounds. `drop_at` is the first pane boundary at which a
  /// draining query's last window has closed (Bounds::kNoEnd: none drains).
  struct CompiledEpoch {
    std::shared_ptr<const Workload> workload;
    std::shared_ptr<const WorkloadPlan> plan;
    PredicateProgram program;
    std::vector<ShareGroup> potential_groups;
    std::vector<SharingOverride> applied;
    std::vector<int64_t> query_ids;
    std::vector<Bounds> bounds;
    Timestamp drop_at = Bounds::kNoEnd;
  };
  using Epoch = std::shared_ptr<const CompiledEpoch>;
  /// A compiled epoch and the pane boundary at which it takes over.
  struct Scheduled {
    Epoch epoch;
    Timestamp at = 0;
  };

  /// Seeds the query list from the plan the session opens with and returns
  /// that plan's epoch (all queries live; fails on an unresolved
  /// predicate). The stable id of each query is its QueryId there. The
  /// queries are copied; `plan` and its schema must outlive the lifecycle
  /// and every user of the epoch.
  Result<Epoch> Init(const WorkloadPlan& plan);

  /// The live (not draining) queries.
  std::vector<Query> queries() const;

  /// Validates (see ValidateAdd/ValidateRemove), applies the mutation for
  /// an epoch activating at `activate`, and compiles it with no sharing
  /// overrides (see Compile); a rejected op leaves the lifecycle exactly as
  /// it was.
  Result<Epoch> TryAdd(const Query& q, Timestamp activate);
  Result<Epoch> TryRemove(const std::string& name, Timestamp activate);

  /// Compiles the query set under `overrides` for an epoch activating at
  /// pane boundary `activate` (a plan hot swap when called directly).
  /// Draining queries whose last window closed by `activate` are dropped
  /// first. The pane size is refined, if needed, so that `activate` lies
  /// on the epoch's grid (dropping a query can coarsen the gcd).
  Result<Epoch> Compile(std::span<const SharingOverride> overrides,
                        Timestamp activate);

  /// `running` without its draining queries whose last window closed by
  /// pane boundary `at` (its drop_at), on the same pane grid and under the
  /// same overrides. The lifecycle's own members are left alone: its next
  /// Compile drops them as well.
  static Result<Epoch> CompileWithoutDrained(const CompiledEpoch& running,
                                             Timestamp at);

 private:
  struct Member {
    Query query;
    int64_t id = 0;
    Bounds bounds;

    bool live() const { return bounds.open_until == Bounds::kNoEnd; }
  };

  /// Rejects unnamed queries (mid-run auto-naming could collide), duplicate
  /// live names, and queries that do not resolve against the CURRENT
  /// schema (validation never registers new names — a rejected add must
  /// leave the schema untouched).
  Status ValidateAdd(const Query& q) const;
  /// Rejects unknown names and removing the last live query (an empty
  /// workload has no pane grid; close the session instead).
  Status ValidateRemove(const std::string& name) const;
  /// Index of the live member named `name` in members_, or -1.
  int FindLive(const std::string& name) const;
  /// `members` without the draining ones whose last window closed by `at`.
  static std::vector<Member> Undrained(std::vector<Member> members,
                                       Timestamp at);
  /// Compiles `members` in order under `overrides`, refining the pane size
  /// so that `grid` lies on it (0: the analyzed pane).
  static Result<Epoch> Build(Schema* schema,
                             const std::vector<Member>& members,
                             std::span<const SharingOverride> overrides,
                             Timestamp grid);

  Schema* schema_ = nullptr;
  /// Live and draining queries, in compile order.
  std::vector<Member> members_;
  int64_t next_id_ = 0;
};

}  // namespace hamlet

#endif  // HAMLET_RUNTIME_QUERY_LIFECYCLE_H_
