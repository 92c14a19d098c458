#include "src/optimizer/online_optimizer.h"

#include <algorithm>
#include <cmath>

namespace hamlet {

namespace {

/// Counter-wise cumulative-minus-baseline (both sides only ever grow).
HamletStats StatsDelta(const HamletStats& cum, const HamletStats& base) {
  HamletStats d;
  d.events = cum.events - base.events;
  d.bursts_total = cum.bursts_total - base.bursts_total;
  d.bursts_shared = cum.bursts_shared - base.bursts_shared;
  d.graphlets_opened = cum.graphlets_opened - base.graphlets_opened;
  d.graphlets_shared = cum.graphlets_shared - base.graphlets_shared;
  d.snapshots_created = cum.snapshots_created - base.snapshots_created;
  d.event_snapshots = cum.event_snapshots - base.event_snapshots;
  d.divergent_events = cum.divergent_events - base.divergent_events;
  d.splits = cum.splits - base.splits;
  d.merges = cum.merges - base.merges;
  d.ops = cum.ops - base.ops;
  return d;
}

}  // namespace

void BurstStatsCollector::Reset(int num_types) {
  type_events_.assign(num_types > 0 ? static_cast<size_t>(num_types) : 0, 0);
  total_events_ = 0;
}

void OnlineReoptimizer::Bind(const WorkloadPlan& plan,
                             std::span<const ShareGroup> potential_groups,
                             std::span<const SharingOverride> applied,
                             const OnlineReoptimizerOptions& opts) {
  plan_ = &plan;
  opts_ = opts;
  groups_.clear();
  const int num_types = plan.workload->schema()->num_types();
  for (const ShareGroup& g : potential_groups) {
    GroupState gs;
    gs.type = g.type;
    gs.original_members = g.members;
    g.members.ForEach([&](QueryId q) { gs.member_ids.push_back(q); });
    gs.current_shared = g.members;
    for (const SharingOverride& ov : applied) {
      if (ov.type == g.type && ov.original_members == g.members) {
        gs.current_shared = ov.shared.Intersect(g.members);
        if (gs.current_shared.Count() < 2) gs.current_shared = QuerySet();
      }
    }
    gs.mode = g.mode;
    AggProfile profile;
    double windows = 0.0;
    for (int q : gs.member_ids) {
      const ExecQuery& eq = plan.exec_queries[static_cast<size_t>(q)];
      // Mirror the engine's structural inputs (HamletEngine::BuildLanes):
      // p = predecessor positions of the Kleene type, t = pattern length.
      const int pos = eq.tmpl.pattern.PositionOf(g.type);
      if (pos >= 0) {
        gs.p = std::max(
            gs.p, static_cast<int>(
                      eq.tmpl.pred_positions[static_cast<size_t>(pos)].size()));
      }
      gs.t = std::max(gs.t, eq.tmpl.pattern.num_positions());
      gs.snapshotty.push_back(!eq.event_predicates.empty() ||
                              eq.has_negations() || eq.has_edge_predicates());
      if (eq.has_edge_predicates()) ++gs.scanners;
      profile.MergeWith(AggProfile::For(eq.aggregate));
      windows += std::ceil(static_cast<double>(eq.window.within) /
                           static_cast<double>(std::max<Timestamp>(
                               1, eq.window.slide)));
    }
    gs.c = windows / static_cast<double>(gs.member_ids.size());
    gs.min_max = profile.need_min || profile.need_max;
    gs.n_terms = plan.WindowTerms(gs.member_ids, g.type);
    groups_.push_back(std::move(gs));
  }
  base_stats_ = HamletStats{};
  base_type_events_.assign(static_cast<size_t>(num_types), 0);
  have_baseline_ = false;
  last_boundary_ = 0;
}

OnlineReoptimizer::Outcome OnlineReoptimizer::Check(
    Timestamp boundary, const HamletStats& cumulative,
    const BurstStatsCollector& collector) {
  Outcome out;
  if (plan_ == nullptr || groups_.empty()) return out;
  auto seed = [&] {
    base_stats_ = cumulative;
    base_type_events_ = collector.per_type();
    have_baseline_ = true;
    last_boundary_ = boundary;
  };
  // The first check after a (re)bind only seeds the baselines: the deltas
  // before it span an unknown mixture of plans/epochs.
  if (!have_baseline_) {
    seed();
    return out;
  }
  const HamletStats delta = StatsDelta(cumulative, base_stats_);
  const Timestamp span = boundary - last_boundary_;
  // Evidence floor: keep accumulating (baseline untouched) until the
  // interval carries enough engine events to estimate the cost factors.
  if (delta.events < opts_.min_events || span <= 0) return out;
  checks_.fetch_add(1, std::memory_order_relaxed);

  const double b =
      static_cast<double>(delta.events) /
      static_cast<double>(std::max<int64_t>(1, delta.bursts_total));
  const double g =
      static_cast<double>(delta.events) /
      static_cast<double>(std::max<int64_t>(1, delta.graphlets_opened));
  const double sp = 1.0 + static_cast<double>(delta.event_snapshots) /
                              static_cast<double>(
                                  std::max<int64_t>(1, delta.events));
  // Divergent events are counted whether or not a lane shares, so the
  // attribution does not vanish while the running plan splits.
  const double sc_burst =
      static_cast<double>(delta.divergent_events) /
      static_cast<double>(std::max<int64_t>(1, delta.bursts_total));

  double total_observed = 0.0;
  double total_best = 0.0;
  bool any_change = false;
  std::string detail;
  std::vector<SharingOverride> proposal;
  std::vector<QuerySet> proposal_local;
  for (GroupState& gs : groups_) {
    const int k = static_cast<int>(gs.member_ids.size());
    // n: a member's predecessor-type arrivals scaled from the observed
    // interval to its window.
    double n = 0.0;
    for (const WorkloadPlan::WindowTerm& term : gs.n_terms) {
      const size_t t = static_cast<size_t>(term.pred_type);
      const int64_t arrivals =
          collector.type_events(term.pred_type) -
          (t < base_type_events_.size() ? base_type_events_[t] : 0);
      n += term.weight * static_cast<double>(arrivals) /
           static_cast<double>(span);
    }
    n = std::max(1.0, n);

    PlanSearchInputs in;
    in.base.b = std::max(1.0, b);
    in.base.n = n;
    in.base.g = std::max(1.0, g);
    in.base.p = gs.p;
    in.base.t = gs.t;
    in.base.sp = std::max(1.0, sp);
    in.base.mode = gs.mode;
    in.base.c = gs.c;
    in.base.scanners = gs.scanners;
    in.base.min_max = gs.min_max;
    in.variant = opts_.variant;
    int snapshotters = 0;
    for (bool s : gs.snapshotty) snapshotters += s ? 1 : 0;
    in.sc_q.assign(static_cast<size_t>(k), 0.0);
    for (int i = 0; i < k; ++i) {
      if (gs.snapshotty[static_cast<size_t>(i)]) {
        in.sc_q[static_cast<size_t>(i)] =
            sc_burst / static_cast<double>(std::max(1, snapshotters));
      }
    }

    const SharingPlan best = PrunedPlanSearch(in, k);
    QuerySet current_local;
    for (int i = 0; i < k; ++i) {
      if (gs.current_shared.Contains(gs.member_ids[static_cast<size_t>(i)]))
        current_local.Insert(i);
    }
    if (current_local.Count() < 2) current_local = QuerySet();
    double observed = PlanCost(in, current_local);
    if (opts_.per_burst) {
      observed = std::min(observed, PlanCost(in, QuerySet()));
    }
    total_observed += observed;
    total_best += best.cost;

    QuerySet best_exec;
    best.shared.ForEach([&](QueryId i) {
      best_exec.Insert(gs.member_ids[static_cast<size_t>(i)]);
    });
    SharingOverride ov;
    ov.type = gs.type;
    ov.original_members = gs.original_members;
    ov.shared = best_exec;
    proposal.push_back(ov);
    proposal_local.push_back(best.shared);
    if (best.shared != current_local) {
      any_change = true;
      if (!detail.empty()) detail += "; ";
      detail += "type " + std::to_string(gs.type) + ": " +
                gs.current_shared.ToString() + " -> " + best_exec.ToString();
    }
  }

  const bool drift =
      total_observed - total_best >
      opts_.threshold * std::max(total_observed, 1e-12);
  ReoptDecision decision;
  decision.boundary = boundary;
  decision.observed_cost = total_observed;
  decision.best_cost = total_best;
  decision.swapped = any_change && drift;
  decision.detail = decision.swapped
                        ? detail
                        : (any_change ? "drift below threshold: " + detail
                                      : "plan optimal under observed stats");
  log_.push_back(std::move(decision));

  if (any_change && drift) {
    swaps_.fetch_add(1, std::memory_order_relaxed);
    out.swap = true;
    out.overrides = std::move(proposal);
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      QuerySet exec_shared;
      proposal_local[gi].ForEach([&](QueryId i) {
        exec_shared.Insert(groups_[gi].member_ids[static_cast<size_t>(i)]);
      });
      groups_[gi].current_shared = exec_shared;
    }
  }
  seed();
  return out;
}

}  // namespace hamlet
