// Workload analysis (paper §3.1): compiles a Workload into the execution
// plan the engines consume.
//
// Steps, mirroring the paper's pre-processing:
//  (1) compile each query's pattern into linear branches ("exec queries");
//  (2) build the merged workload template;
//  (3) identify shareable Kleene sub-patterns and group exec queries into
//      share groups (Definitions 4/5: shared E+, compatible aggregates, same
//      group-by, overlapping = pane-aligned windows);
//  (4) compute the pane size as the gcd of all windows and slides.
#ifndef HAMLET_PLAN_WORKLOAD_PLAN_H_
#define HAMLET_PLAN_WORKLOAD_PLAN_H_

#include <span>
#include <string>
#include <vector>

#include "src/common/query_set.h"
#include "src/common/status.h"
#include "src/plan/merged_template.h"
#include "src/plan/template_info.h"
#include "src/query/columnar_predicate.h"
#include "src/query/query.h"

namespace hamlet {

/// How events of a shared graphlet are propagated for a share group
/// (see DESIGN.md §4). Decided statically per (type, group).
enum class PropagationMode {
  /// No edge predicates among members: snapshot compression with O(1)
  /// running sums per event. Negation is handled through per-query
  /// negation-guarded entry values; event-predicate divergence through
  /// inline event-level snapshots (Algorithm 1, lines 19-20).
  kFastSum,
  /// Identical edge predicates across members: same-type predecessor
  /// validity is query-agnostic, so ONE stored-node scan per event serves
  /// every sharer (symbolic sum of node expressions); per-query cross-type
  /// contributions ride a per-event snapshot variable. O(n) per event once,
  /// versus GRETA's O(n) per event per query — the Figure 9/11 win under
  /// the paper's workload-1 predicates.
  kSharedScan,
  /// Divergent edge predicates: predecessor validity is per-(query, event),
  /// so every event becomes an event-level snapshot valued per (query,
  /// window) — the Definition 9 fallback. Only sharers with edge predicates
  /// scan stored nodes for their values (from their window's start); plain
  /// sharers take the fast-sum recurrence u + x + R in O(1). The scans
  /// make it expensive; the dynamic optimizer usually splits such bursts.
  kPerEventSnapshot,
};

const char* PropagationModeName(PropagationMode mode);

/// One engine-level query: a (source query, branch) pair with resolved
/// template and clauses. QuerySet bits index exec queries.
struct ExecQuery {
  int exec_id = -1;
  QueryId source = -1;
  int branch = 0;
  TemplateInfo tmpl;
  AggregateSpec aggregate;
  std::vector<EventPredicate> event_predicates;
  std::vector<EdgePredicate> edge_predicates;
  AttrId group_by = Schema::kInvalidId;
  WindowSpec window;

  bool has_edge_predicates() const { return !edge_predicates.empty(); }
  bool has_negations() const { return !tmpl.pattern.negations.empty(); }
};

/// A set of exec queries that may share the propagation of graphlets of
/// `type` (the shareable Kleene sub-pattern E+).
struct ShareGroup {
  TypeId type = Schema::kInvalidId;
  QuerySet members;
  PropagationMode mode = PropagationMode::kFastSum;
};

/// How a source query's branch results combine into its final value.
struct CompositionRule {
  CompositionKind kind = CompositionKind::kSingle;
  std::vector<int> exec_ids;  ///< branch exec queries, in order
  bool branches_identical = false;
};

/// Complete compiled plan for a workload.
struct WorkloadPlan {
  const Workload* workload = nullptr;
  std::vector<ExecQuery> exec_queries;
  std::vector<CompositionRule> compositions;  ///< indexed by QueryId
  MergedTemplate merged;
  std::vector<ShareGroup> share_groups;
  /// gcd over all windows and slides; every window boundary falls on a pane
  /// boundary (paper §3.1's pane partitioning).
  Timestamp pane_size = 0;

  int num_exec() const { return static_cast<int>(exec_queries.size()); }

  /// All exec query ids as a QuerySet.
  QuerySet AllExec() const { return QuerySet::FirstN(num_exec()); }

  /// Exec queries whose patterns contain `type` positively.
  QuerySet QueriesWithType(TypeId type) const;
  /// Exec queries for which `type` occurs negated.
  QuerySet QueriesWithNegatedType(TypeId type) const;
  /// The share group for `type` containing `exec_id`, or nullptr.
  const ShareGroup* GroupOf(TypeId type, int exec_id) const;

  /// One term of the sharing cost model's window size n for the `type`
  /// events of `members` (src/optimizer/cost_model.h): n is the sum over
  /// terms of weight * (pred_type events per millisecond), the predecessor
  /// events a member's window holds, averaged over the members counted.
  /// Members with edge predicates are counted when any has them (they
  /// alone scan), all members otherwise.
  struct WindowTerm {
    int exec_id = -1;
    TypeId pred_type = Schema::kInvalidId;
    double weight = 0.0;  ///< window (ms) / members counted
  };
  std::vector<WindowTerm> WindowTerms(std::span<const int> members,
                                      TypeId type) const;

  /// Analysis summary for logs/examples.
  std::string Describe() const;
};

/// Runs the full workload analysis. The workload must outlive the plan.
Result<WorkloadPlan> AnalyzeWorkload(const Workload& workload);

/// One online-optimizer decision for one share group: keep only `shared`
/// of the group identified by (type, original_members) sharing; the rest
/// run solo. Applied by RestrictShareGroups when a session hot-swaps its
/// plan (src/optimizer/online_optimizer.h derives these from live burst
/// statistics).
struct SharingOverride {
  TypeId type = Schema::kInvalidId;
  /// The group as AnalyzeWorkload built it — identifies the group, since a
  /// type may partition into several groups (aggregate compatibility is
  /// not transitive).
  QuerySet original_members;
  /// The members that keep sharing; must be a subset of original_members.
  QuerySet shared;
};

/// Applies overrides to a freshly analyzed plan: each matched share group's
/// membership shrinks to override.shared (intersected with the original
/// members); groups left with < 2 members are removed, and their mode is
/// re-decided for the survivors. Unmatched overrides are ignored — the
/// query set may have churned between the decision and the swap.
void RestrictShareGroups(WorkloadPlan& plan,
                         std::span<const SharingOverride> overrides);

/// Combines branch values into the source query's value (paper §5's count
/// composition; branch_values parallels rule.exec_ids).
double ComposeQueryValue(const CompositionRule& rule,
                         const std::vector<double>& branch_values);

/// gcd helper exposed for tests.
Timestamp PaneGcd(const std::vector<WindowSpec>& windows);

/// Compiles the plan's per-exec-query event predicates into a columnar
/// PredicateProgram (src/query/columnar_predicate.h). Called at
/// Session::Open; fails with kInvalidArgument when a predicate's type or
/// attribute never resolved against the schema.
Result<PredicateProgram> CompilePredicateProgram(const WorkloadPlan& plan);

}  // namespace hamlet

#endif  // HAMLET_PLAN_WORKLOAD_PLAN_H_
