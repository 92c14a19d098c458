#include "src/plan/workload_plan.h"

#include <algorithm>
#include <numeric>

namespace hamlet {

const char* PropagationModeName(PropagationMode mode) {
  switch (mode) {
    case PropagationMode::kFastSum:
      return "fast_sum";
    case PropagationMode::kSharedScan:
      return "shared_scan";
    case PropagationMode::kPerEventSnapshot:
      return "per_event_snapshot";
  }
  return "?";
}

QuerySet WorkloadPlan::QueriesWithType(TypeId type) const {
  QuerySet out;
  for (const ExecQuery& eq : exec_queries) {
    if (eq.tmpl.pattern.PositionOf(type) >= 0) out.Insert(eq.exec_id);
  }
  return out;
}

QuerySet WorkloadPlan::QueriesWithNegatedType(TypeId type) const {
  QuerySet out;
  for (const ExecQuery& eq : exec_queries) {
    if (eq.tmpl.pattern.IsNegated(type)) out.Insert(eq.exec_id);
  }
  return out;
}

const ShareGroup* WorkloadPlan::GroupOf(TypeId type, int exec_id) const {
  for (const ShareGroup& g : share_groups) {
    if (g.type == type && g.members.Contains(exec_id)) return &g;
  }
  return nullptr;
}

std::vector<WorkloadPlan::WindowTerm> WorkloadPlan::WindowTerms(
    std::span<const int> members, TypeId type) const {
  auto scans = [&](int q) {
    return exec_queries[static_cast<size_t>(q)].has_edge_predicates();
  };
  const bool any_scans = std::any_of(members.begin(), members.end(), scans);
  std::vector<int> counted;
  for (int q : members) {
    if (!any_scans || scans(q)) counted.push_back(q);
  }
  std::vector<WindowTerm> terms;
  for (int q : counted) {
    const ExecQuery& eq = exec_queries[static_cast<size_t>(q)];
    const int pos = eq.tmpl.pattern.PositionOf(type);
    if (pos < 0) continue;
    const double weight = static_cast<double>(eq.window.within) /
                          static_cast<double>(counted.size());
    for (int pp : eq.tmpl.pred_positions[static_cast<size_t>(pos)]) {
      terms.push_back(
          {q, eq.tmpl.pattern.elements[static_cast<size_t>(pp)].type, weight});
    }
  }
  return terms;
}

std::string WorkloadPlan::Describe() const {
  const Schema& schema = *workload->schema();
  std::string out = "WorkloadPlan: " + std::to_string(num_exec()) +
                    " exec queries, pane=" + std::to_string(pane_size) +
                    "ms\n";
  for (const ExecQuery& eq : exec_queries) {
    out += "  e" + std::to_string(eq.exec_id) + " (" +
           workload->query(eq.source).name + "#" + std::to_string(eq.branch) +
           "): " + eq.tmpl.pattern.ToString(schema) + " " +
           eq.aggregate.ToString() + "\n";
  }
  for (const ShareGroup& g : share_groups) {
    out += "  share " + schema.TypeName(g.type) + "+ by " +
           g.members.ToString() + " mode=" + PropagationModeName(g.mode) +
           "\n";
  }
  return out;
}

double ComposeQueryValue(const CompositionRule& rule,
                         const std::vector<double>& branch_values) {
  switch (rule.kind) {
    case CompositionKind::kSingle:
      return branch_values[0];
    case CompositionKind::kOr:
      // COUNT(P1 v P2) = C1' + C2' + C12. Identical branches: C12 = C1;
      // disjoint type sets: C12 = 0 (both checked at compile time).
      if (rule.branches_identical) return branch_values[0];
      return branch_values[0] + branch_values[1];
    case CompositionKind::kAnd:
      if (rule.branches_identical) {
        // All trends shared: C(C12, 2) unordered distinct pairs.
        return branch_values[0] * (branch_values[0] - 1.0) / 2.0;
      }
      return branch_values[0] * branch_values[1];
  }
  return 0.0;
}

Timestamp PaneGcd(const std::vector<WindowSpec>& windows) {
  Timestamp g = 0;
  for (const WindowSpec& w : windows) {
    g = std::gcd(g, w.within);
    g = std::gcd(g, w.slide);
  }
  return g;
}

namespace {

// Pairwise sharability of two exec queries w.r.t. Kleene type `type`
// (Definition 5): both have E+ (checked by the caller), aggregates
// shareable, same group-by attribute. Window overlap is guaranteed by the
// pane alignment enforced in Query::Resolve.
bool PairShareable(const ExecQuery& a, const ExecQuery& b) {
  if (a.group_by != b.group_by) return false;
  if (!AggregatesShareable(a.aggregate, b.aggregate)) return false;
  return true;
}

PropagationMode DecideMode(const std::vector<ExecQuery>& eqs,
                           const QuerySet& members) {
  bool any_edge = false;
  bool edges_identical = true;
  const ExecQuery* first = nullptr;
  members.ForEach([&](QueryId id) {
    const ExecQuery& eq = eqs[static_cast<size_t>(id)];
    if (first == nullptr) first = &eq;
    any_edge |= eq.has_edge_predicates();
    if (!(eq.edge_predicates == first->edge_predicates))
      edges_identical = false;
  });
  if (!any_edge) return PropagationMode::kFastSum;
  if (edges_identical) return PropagationMode::kSharedScan;
  return PropagationMode::kPerEventSnapshot;
}

}  // namespace

Result<WorkloadPlan> AnalyzeWorkload(const Workload& workload) {
  WorkloadPlan plan;
  plan.workload = &workload;

  // (1) Compile every query into exec-query branches.
  for (QueryId qid = 0; qid < workload.size(); ++qid) {
    const Query& q = workload.query(qid);
    Result<CompiledPattern> compiled =
        CompilePattern(q.pattern, *workload.schema());
    if (!compiled.ok()) return compiled.status();
    if (compiled->composition != CompositionKind::kSingle &&
        q.aggregate.kind != AggKind::kCountTrends) {
      return Status::Unsupported(
          "OR/AND composition is only supported for COUNT(*) (paper §5 "
          "defines count composition)");
    }
    CompositionRule rule;
    rule.kind = compiled->composition;
    rule.branches_identical = compiled->branches_identical;
    for (size_t b = 0; b < compiled->branches.size(); ++b) {
      if (plan.num_exec() >= QuerySet::kMaxQueries)
        return Status::ResourceExhausted("too many exec queries");
      ExecQuery eq;
      eq.exec_id = plan.num_exec();
      eq.source = qid;
      eq.branch = static_cast<int>(b);
      eq.tmpl = BuildTemplate(compiled->branches[b]);
      eq.aggregate = q.aggregate;
      eq.event_predicates = q.event_predicates;
      eq.edge_predicates = q.edge_predicates;
      eq.group_by = q.group_by;
      eq.window = q.window;
      rule.exec_ids.push_back(eq.exec_id);
      // The aggregate's target type must appear in the branch, otherwise the
      // per-branch result is trivially empty for COUNT(E)-family aggregates;
      // allow it (disjoint OR branches legitimately hit one side only).
      plan.exec_queries.push_back(std::move(eq));
    }
    plan.compositions.push_back(std::move(rule));
  }

  // (2) Merged template.
  for (const ExecQuery& eq : plan.exec_queries)
    plan.merged.AddQuery(eq.exec_id, eq.tmpl);

  // (3) Share groups per shareable Kleene type: greedily partition the
  // Kleene queries of E into mutually shareable groups (aggregate
  // compatibility is not transitive, e.g. AVG(E.a)~COUNT(E)~AVG(E.b)).
  for (TypeId type : plan.merged.ShareableKleeneTypes()) {
    QuerySet kleene_queries = plan.merged.KleeneQueriesOf(type);
    std::vector<QuerySet> groups;
    kleene_queries.ForEach([&](QueryId id) {
      const ExecQuery& eq = plan.exec_queries[static_cast<size_t>(id)];
      for (QuerySet& g : groups) {
        bool compatible = true;
        g.ForEach([&](QueryId other) {
          if (!PairShareable(eq,
                             plan.exec_queries[static_cast<size_t>(other)]))
            compatible = false;
        });
        if (compatible) {
          g.Insert(id);
          return;
        }
      }
      groups.push_back(QuerySet::Single(id));
    });
    for (const QuerySet& g : groups) {
      if (g.Count() < 2) continue;  // nothing to share
      ShareGroup sg;
      sg.type = type;
      sg.members = g;
      sg.mode = DecideMode(plan.exec_queries, g);
      plan.share_groups.push_back(sg);
    }
  }

  // (4) Pane size.
  std::vector<WindowSpec> windows;
  for (const ExecQuery& eq : plan.exec_queries) windows.push_back(eq.window);
  plan.pane_size = PaneGcd(windows);
  if (plan.pane_size <= 0)
    return Status::InvalidArgument("workload is empty or has zero windows");
  return plan;
}

void RestrictShareGroups(WorkloadPlan& plan,
                         std::span<const SharingOverride> overrides) {
  for (const SharingOverride& ov : overrides) {
    for (size_t i = 0; i < plan.share_groups.size(); ++i) {
      ShareGroup& g = plan.share_groups[i];
      if (g.type != ov.type || g.members != ov.original_members) continue;
      const QuerySet kept = ov.shared.Intersect(g.members);
      if (kept.Count() < 2) {
        plan.share_groups.erase(plan.share_groups.begin() +
                                static_cast<std::ptrdiff_t>(i));
      } else {
        g.members = kept;
        g.mode = DecideMode(plan.exec_queries, kept);
      }
      break;
    }
  }
}

Result<PredicateProgram> CompilePredicateProgram(const WorkloadPlan& plan) {
  std::vector<PredicateList> lists;
  lists.reserve(plan.exec_queries.size());
  for (const ExecQuery& eq : plan.exec_queries) {
    PredicateList list;
    list.exec_id = eq.exec_id;
    list.preds = &eq.event_predicates;
    lists.push_back(list);
  }
  return PredicateProgram::Compile(*plan.workload->schema(), lists);
}

}  // namespace hamlet
