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
//                  first pane boundary after its last window closed the
//                  session recompiles the running plan without it
//                  (CompileWithoutDrained); a compile at or after that
//                  boundary drops it too.
//   Plan swap   -> same mechanism with an unchanged query set but a
//                  restricted share-group structure (online_optimizer.h).
//
// Correctness: sharing never changes emission values, and every query only
// opens windows inside its bounds, so the session's emissions equal a fresh
// session per activation interval (tests/query_churn_test.cc proves this
// bit-identically for all engines).
//
// Validation is two-phase so ShardedSession can pre-validate on the front
// thread and then apply infallibly on every shard worker: all mutations
// and compiles are deterministic in (op, boundary), so every copy of the
// lifecycle stays identical.
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

  /// One compiled plan generation. `plan->workload` points at `workload`,
  /// which the epoch keeps alive; `program` is the plan's predicate
  /// program; `potential_groups` is the UNRESTRICTED
  /// share-group search space captured before overrides were applied (the
  /// online reoptimizer needs it so split groups can re-merge).
  /// `query_ids` and `bounds` are indexed by the workload's QueryId: the
  /// lifecycle's stable id of each query (QueryIds shift between epochs)
  /// and its window bounds.
  struct CompiledEpoch {
    std::shared_ptr<const Workload> workload;
    std::unique_ptr<WorkloadPlan> plan;
    PredicateProgram program;
    std::vector<ShareGroup> potential_groups;
    std::vector<SharingOverride> applied;
    std::vector<int64_t> query_ids;
    std::vector<Bounds> bounds;
  };

  /// Seeds the query list from the session's opening workload; the stable
  /// id of each is its QueryId there. The queries are copied;
  /// `initial.schema()` must outlive the lifecycle.
  void Init(const Workload& initial);

  Schema* schema() const { return schema_; }
  /// The live (not draining) queries.
  std::vector<Query> queries() const;

  /// Rejects unnamed queries (mid-run auto-naming could collide), duplicate
  /// live names, and queries that do not resolve against the CURRENT
  /// schema (validation never registers new names — a rejected add must
  /// leave the schema untouched).
  Status ValidateAdd(const Query& q) const;
  /// Rejects unknown names and removing the last live query (an empty
  /// workload has no pane grid; close the session instead).
  Status ValidateRemove(const std::string& name) const;

  /// Validates, applies the mutation for an epoch activating at
  /// `activate`, and compiles (see Compile); a rejected op leaves the
  /// lifecycle exactly as it was.
  Result<CompiledEpoch> TryAdd(const Query& q,
                               std::span<const SharingOverride> overrides,
                               Timestamp activate);
  Result<CompiledEpoch> TryRemove(const std::string& name,
                                  std::span<const SharingOverride> overrides,
                                  Timestamp activate);

  /// Compiles the query set under `overrides` for an epoch activating at
  /// pane boundary `activate` (a plan hot swap when called directly).
  /// Draining queries whose last window closed by `activate` are dropped
  /// first. The pane size is refined, if needed, so that `activate` lies
  /// on the epoch's grid (dropping a query can coarsen the gcd).
  Result<CompiledEpoch> Compile(std::span<const SharingOverride> overrides,
                                Timestamp activate);

  /// `running` (whose plan is `plan`) without its draining queries whose
  /// last window closed by pane boundary `at`, on the same pane grid and
  /// under the same overrides. It depends on the running epoch alone, not
  /// on ops compiled since, so every shard of a ShardedSession drops at
  /// the same boundary whichever ops it has queued. The lifecycle's own
  /// members are left alone: its next Compile drops them as well.
  static Result<CompiledEpoch> CompileWithoutDrained(
      const WorkloadPlan& plan, const CompiledEpoch& running, Timestamp at);

  /// First pane boundary strictly after `max_seen` on the running epoch's
  /// pane grid — where a new epoch activates. 0 when the session has not
  /// seen any event or watermark yet (the new epoch then replaces the
  /// running one at once).
  static Timestamp ActivationBoundary(Timestamp pane_size, bool any_seen,
                                      Timestamp max_seen) {
    if (!any_seen || pane_size <= 0) return 0;
    return (max_seen / pane_size + 1) * pane_size;
  }

 private:
  struct Member {
    Query query;
    int64_t id = 0;
    Bounds bounds;

    bool live() const { return bounds.open_until == Bounds::kNoEnd; }
  };

  /// Index of the live member named `name` in members_, or -1.
  int FindLive(const std::string& name) const;
  /// `members` without the draining ones whose last window closed by `at`.
  static std::vector<Member> Undrained(std::vector<Member> members,
                                       Timestamp at);
  /// Compiles `members` in order under `overrides`.
  static Result<CompiledEpoch> Build(
      Schema* schema, const std::vector<Member>& members,
      std::span<const SharingOverride> overrides);

  Schema* schema_ = nullptr;
  /// Live and draining queries, in compile order.
  std::vector<Member> members_;
  int64_t next_id_ = 0;
};

}  // namespace hamlet

#endif  // HAMLET_RUNTIME_QUERY_LIFECYCLE_H_
