#include "src/hamlet/hamlet_engine.h"

#include <algorithm>

namespace hamlet {

namespace {

/// Exponential moving-average factor for burst statistics.
constexpr double kStatsDecay = 0.3;

/// Visits `exec_id`'s predecessors of one lane in a window starting at `ws`,
/// in append order: row ranges [begin, end) of its scan column `rows`
/// through `on_rows`, and the nodes it appended to the shared-scan
/// graphlets of `history` and `live` (each of which it either shared whole
/// or not at all) through `on_node`.
template <typename OnRows, typename OnNode>
void ForEachPredecessor(const ScanColumn& rows,
                        const std::vector<Graphlet*>& history,
                        const Graphlet* live, int exec_id, Timestamp ws,
                        OnRows on_rows, OnNode on_node) {
  size_t r = 0;
  auto walk = [&](const Graphlet& g) {
    if (g.open_time < ws || !g.sharers.Contains(exec_id)) return;
    const size_t end = static_cast<size_t>(
        std::lower_bound(rows.times.begin() + static_cast<std::ptrdiff_t>(r),
                         rows.times.end(), g.open_time) -
        rows.times.begin());
    if (end > r) on_rows(r, end);
    r = end;
    for (const GraphletNode& n : g.nodes) {
      if (n.members.Contains(exec_id)) on_node(n);
    }
  };
  for (const Graphlet* g : history) walk(*g);
  if (live != nullptr) walk(*live);
  if (rows.size() > r) on_rows(r, rows.size());
}

template <typename Pass>
void FoldPassing(const ScanColumn& col, size_t begin, size_t end, Pass pass,
                 NodeValue* out) {
  const bool mm = !col.mm.empty();
  for (size_t r = begin; r < end; ++r) {
    if (!pass(r)) continue;
    out->lin.Add(col.lin[r]);
    if (mm) out->mm.Fold(col.mm[r]);
  }
}

template <CmpOp kOp>
void FoldOnePredicate(const ScanColumn& col, size_t begin, size_t end,
                      double next, NodeValue* out) {
  const double* a = col.attrs.data();
  FoldPassing(col, begin, end,
              [&](size_t r) { return EvalCmp(kOp, a[r], next); }, out);
}

/// FoldOnePredicate per CmpOp, in declaration order: a one-predicate scan
/// (the common case) picks its comparison once, not per row.
constexpr void (*kFoldOnePredicate[])(const ScanColumn&, size_t, size_t,
                                      double, NodeValue*) = {
    FoldOnePredicate<CmpOp::kLt>, FoldOnePredicate<CmpOp::kLe>,
    FoldOnePredicate<CmpOp::kGt>, FoldOnePredicate<CmpOp::kGe>,
    FoldOnePredicate<CmpOp::kEq>, FoldOnePredicate<CmpOp::kNe>};
static_assert(static_cast<int>(CmpOp::kNe) == 5);

/// Folds the rows in [begin, end) of `col` that `next` may follow under
/// `preds` (PassesEdgePredicates on the stored attributes) into `out`.
void FoldRows(const ScanColumn& col, size_t begin, size_t end,
              const std::vector<EdgePredicate>& preds, const Event& next,
              NodeValue* out) {
  const size_t k = preds.size();
  if (k == 1) {
    return kFoldOnePredicate[static_cast<int>(preds[0].op)](
        col, begin, end, next.attr(preds[0].attr), out);
  }
  FoldPassing(
      col, begin, end,
      [&](size_t r) {
        for (size_t i = 0; i < k; ++i) {
          if (!EvalCmp(preds[i].op, col.attrs[r * k + i],
                       next.attr(preds[i].attr)))
            return false;
        }
        return true;
      },
      out);
}

}  // namespace

std::shared_ptr<const HamletEngine::Layout> HamletEngine::Layout::Build(
    const WorkloadPlan& plan, QuerySet members) {
  auto layout = std::make_shared<Layout>();
  Layout& l = *layout;
  l.plan = &plan;
  l.members = members;
  l.num_types = plan.workload->schema()->num_types();
  const size_t num_types = static_cast<size_t>(l.num_types);
  const size_t num_exec = static_cast<size_t>(plan.num_exec());
  l.positive_of_type.resize(num_types);
  l.negated_of_type.resize(num_types);
  l.type_relevant.resize(num_types, false);
  l.lane_of.assign(num_exec, std::vector<int>(num_types, -1));
  l.profiles.resize(num_exec);
  auto exec = [&](int q) -> const ExecQuery& {
    return plan.exec_queries[static_cast<size_t>(q)];
  };
  members.ForEach([&](QueryId q) {
    const ExecQuery& eq = exec(q);
    l.profiles[static_cast<size_t>(q)] = AggProfile::For(eq.aggregate);
    if (eq.has_edge_predicates()) l.edge_queries.Insert(q);
    for (const SeqElement& el : eq.tmpl.pattern.elements) {
      l.positive_of_type[static_cast<size_t>(el.type)].Insert(q);
      l.type_relevant[static_cast<size_t>(el.type)] = true;
    }
    for (const NegationMark& n : eq.tmpl.pattern.negations) {
      l.negated_of_type[static_cast<size_t>(n.type)].Insert(q);
      l.type_relevant[static_cast<size_t>(n.type)] = true;
    }
    l.horizon = std::max(l.horizon, eq.window.within);
  });

  // Shared lanes from the plan's share groups (restricted to the members);
  // remaining (query, type) uses become solo lanes.
  std::vector<std::vector<bool>> covered(num_exec,
                                         std::vector<bool>(num_types, false));
  auto finish_lane = [&](Lane& lane) {
    lane.relevant.assign(num_types, false);
    lane.static_members.ForEach([&](QueryId q) {
      const ExecQuery& eq = exec(q);
      for (TypeId t : eq.tmpl.pattern.AllTypes())
        lane.relevant[static_cast<size_t>(t)] = true;
      lane.profile.MergeWith(l.profiles[static_cast<size_t>(q)]);
      lane.member_list.push_back(q);
      if (lane.shared_edge_preds == nullptr) {
        lane.shared_edge_preds = &eq.edge_predicates;
        lane.scan_all_equality = !eq.edge_predicates.empty();
        for (const EdgePredicate& p : eq.edge_predicates) {
          if (p.op != CmpOp::kEq) lane.scan_all_equality = false;
        }
      }
      const int pos = eq.tmpl.pattern.PositionOf(lane.type);
      if (pos >= 0) {
        const auto& preds = eq.tmpl.pred_positions[static_cast<size_t>(pos)];
        for (int pp : preds) {
          if (eq.tmpl.pattern.elements[static_cast<size_t>(pp)].type !=
              lane.type)
            lane.scan_has_cross = true;
        }
        lane.p = std::max(lane.p, static_cast<int>(preds.size()));
      }
      lane.t = std::max(lane.t, eq.tmpl.pattern.num_positions());
    });
  };

  for (const ShareGroup& group : plan.share_groups) {
    QuerySet local = group.members.Intersect(members);
    if (local.Count() < 2) continue;
    Lane lane;
    lane.type = group.type;
    lane.static_members = local;
    lane.shareable = true;
    lane.mode = group.mode;
    finish_lane(lane);
    // MIN/MAX cannot ride the per-event-snapshot LinAgg path; fall back to
    // solo processing for such groups (documented in DESIGN.md).
    if ((lane.profile.need_min || lane.profile.need_max) &&
        lane.mode != PropagationMode::kFastSum)
      continue;
    local.ForEach([&](QueryId q) {
      covered[static_cast<size_t>(q)][static_cast<size_t>(group.type)] = true;
      l.lane_of[static_cast<size_t>(q)][static_cast<size_t>(group.type)] =
          static_cast<int>(l.lanes.size());
    });
    l.lanes.push_back(std::move(lane));
  }

  members.ForEach([&](QueryId q) {
    const ExecQuery& eq = exec(q);
    for (const SeqElement& el : eq.tmpl.pattern.elements) {
      if (covered[static_cast<size_t>(q)][static_cast<size_t>(el.type)])
        continue;
      covered[static_cast<size_t>(q)][static_cast<size_t>(el.type)] = true;
      Lane lane;
      lane.type = el.type;
      lane.static_members = QuerySet::Single(q);
      lane.shareable = false;
      lane.mode = eq.has_edge_predicates()
                      ? PropagationMode::kPerEventSnapshot
                      : PropagationMode::kFastSum;
      finish_lane(lane);
      l.lane_of[static_cast<size_t>(q)][static_cast<size_t>(el.type)] =
          static_cast<int>(l.lanes.size());
      l.lanes.push_back(std::move(lane));
    }
  });

  // n's predecessor lanes, now that every (query, type) has its lane. A
  // lane counts the events of one horizon.
  for (Lane& lane : l.lanes) {
    for (const WorkloadPlan::WindowTerm& term :
         plan.WindowTerms(lane.member_list, lane.type)) {
      lane.n_terms.emplace_back(
          l.lane_of[static_cast<size_t>(term.exec_id)]
                   [static_cast<size_t>(term.pred_type)],
          term.weight / static_cast<double>(std::max<Timestamp>(1, l.horizon)));
    }
  }
  return layout;
}

HamletEngine::HamletEngine(std::shared_ptr<const Layout> layout,
                           SharingPolicy* policy) {
  Relay(std::move(layout), policy);
}

HamletEngine::HamletEngine(const WorkloadPlan& plan, QuerySet members,
                           SharingPolicy* policy)
    : HamletEngine(Layout::Build(plan, members), policy) {}

void HamletEngine::Relay(std::shared_ptr<const Layout> layout,
                         SharingPolicy* policy) {
  // Graphlets go back to the pool, keeping their capacities.
  for (Lane& lane : lanes_) {
    if (lane.shared_graphlet != nullptr)
      graphlet_pool_.Release(lane.shared_graphlet);
    for (auto& [id, g] : lane.solo_graphlets) graphlet_pool_.Release(g);
    for (Graphlet* g : lane.history) graphlet_pool_.Release(g);
  }
  layout_ = std::move(layout);
  policy_ = policy;
  const Layout& l = *layout_;
  lanes_.assign(l.lanes.size(), Lane());
  for (size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i].spec = &l.lanes[i];
    lanes_[i].avg_sc_member.assign(l.lanes[i].member_list.size(), 0.0);
  }
  active_lanes_.clear();
  store_.Clear();
  // Every context slot is free, lowest id first, so ids come out in a
  // fresh engine's order. Scan columns go: kept, each would hold the
  // largest window it ever served.
  free_ctxs_.clear();
  for (size_t c = contexts_.size(); c-- > 0;) {
    contexts_[c].open = false;
    contexts_[c].column_set = -1;
    free_ctxs_.push_back(static_cast<ContextId>(c));
  }
  closed_ctxs_.clear();
  column_sets_.clear();
  free_column_sets_.clear();
  const size_t num_exec = static_cast<size_t>(l.plan->num_exec());
  open_ctxs_.resize(num_exec);
  for (std::vector<ContextId>& open : open_ctxs_) open.clear();
  last_leading_.assign(num_exec, -1);
  last_boundary_neg_.resize(num_exec);
  for (std::vector<Timestamp>& neg : last_boundary_neg_) neg.clear();
  l.members.ForEach([&](QueryId q) {
    last_boundary_neg_[static_cast<size_t>(q)].assign(
        static_cast<size_t>(Exec(q).tmpl.pattern.num_positions()), -1);
  });
  pane_start_ = 0;
  last_time_ = -1;
  pane_first_snapshot_.clear();
  stats_ = HamletStats();
  run_scratch_valid_ = false;
}

const HamletEngine::Lane* HamletEngine::LaneOf(int exec_id,
                                               TypeId type) const {
  const int idx = layout_->lane_of[static_cast<size_t>(exec_id)]
                                  [static_cast<size_t>(type)];
  return idx < 0 ? nullptr : &lanes_[static_cast<size_t>(idx)];
}

ContextId HamletEngine::OpenContext(int exec_id, Timestamp window_start,
                                    Timestamp window_end) {
  HAMLET_CHECK(layout_->members.Contains(exec_id));
  const ContextId id = AcquireContextId();
  ContextState& ctx = contexts_[static_cast<size_t>(id)];
  const int positions = Exec(exec_id).tmpl.pattern.num_positions();
  ctx.ResetFor(exec_id, layout_->num_types, positions, window_start,
               window_end);
  if (layout_->edge_queries.Contains(exec_id))
    ctx.column_set = AcquireColumnSet(positions);
  open_ctxs_[static_cast<size_t>(exec_id)].push_back(id);
  return id;
}

ContextId HamletEngine::AcquireContextId() {
  if (free_ctxs_.empty()) {
    const ContextId id = static_cast<ContextId>(contexts_.size());
    contexts_.emplace_back().id = id;
    return id;
  }
  const ContextId id = free_ctxs_.back();
  free_ctxs_.pop_back();
  return id;
}

int32_t HamletEngine::AcquireColumnSet(int positions) {
  int32_t set = static_cast<int32_t>(column_sets_.size());
  if (free_column_sets_.empty()) {
    column_sets_.emplace_back();
  } else {
    set = free_column_sets_.back();
    free_column_sets_.pop_back();
  }
  column_sets_[static_cast<size_t>(set)].resize(
      static_cast<size_t>(positions));
  return set;
}

ContextResult HamletEngine::CloseContext(ContextId ctx_id) {
  ContextState& ctx = contexts_[static_cast<size_t>(ctx_id)];
  HAMLET_CHECK(ctx.open);
  const ExecQuery& eq = Exec(ctx.exec_id);
  ContextResult result;
  result.exec_id = ctx.exec_id;
  result.window_start = ctx.window_start;
  result.agg.count = ctx.final_lin.count;
  result.agg.sum = ctx.final_lin.sum;
  result.agg.count_e = ctx.final_lin.count_e;
  result.agg.min = ctx.final_mm.min;
  result.agg.max = ctx.final_mm.max;
  result.value = ExtractResult(result.agg, eq.aggregate.kind);
  ctx.open = false;
  auto& open = open_ctxs_[static_cast<size_t>(ctx.exec_id)];
  open.erase(std::remove(open.begin(), open.end(), ctx_id), open.end());
  store_.DropContext(ctx_id);
  for (Lane& lane : lanes_) {
    for (auto& [key, totals] : lane.key_totals) totals.Erase(ctx_id);
  }
  if (ctx.column_set >= 0) {
    for (ScanColumn& col : Columns(ctx)) col.Clear();
    free_column_sets_.push_back(ctx.column_set);
    ctx.column_set = -1;
  }
  // Release the per-context vectors eagerly. The slot waits out the horizon
  // before reuse (see closed_ctxs_), so stale per-context entries in
  // retained graphlets cannot alias a new window.
  closed_ctxs_.emplace_back(last_time_, ctx_id);
  ctx.type_totals.clear();
  ctx.type_totals.shrink_to_fit();
  ctx.type_mm.clear();
  ctx.type_mm.shrink_to_fit();
  ctx.boundary_totals.clear();
  ctx.boundary_totals.shrink_to_fit();
  ctx.boundary_mm.clear();
  ctx.boundary_mm.shrink_to_fit();
  return result;
}

HamletEngine::QueryState HamletEngine::ExportQuery(int exec_id) {
  HAMLET_DCHECK(active_lanes_.empty());
  const size_t q = static_cast<size_t>(exec_id);
  QueryState state;
  state.last_leading = last_leading_[q];
  state.last_boundary_neg = std::move(last_boundary_neg_[q]);
  for (ContextId c : open_ctxs_[q])
    state.contexts.push_back(std::move(contexts_[static_cast<size_t>(c)]));
  open_ctxs_[q].clear();
  if (!layout_->edge_queries.Contains(exec_id)) return state;
  for (const ContextState& ctx : state.contexts) {
    state.columns.push_back(
        std::move(column_sets_[static_cast<size_t>(ctx.column_set)]));
  }
  // The query's appends to shared-scan graphlets are nodes, not rows: value
  // them per window and merge them into the columns in time order.
  const ExecQuery& eq = Exec(exec_id);
  const size_t stride = eq.edge_predicates.size();
  for (int pos = 0; pos < eq.tmpl.pattern.num_positions(); ++pos) {
    const Lane& lane = *LaneOf(
        exec_id, eq.tmpl.pattern.elements[static_cast<size_t>(pos)].type);
    if (lane.history.empty()) continue;
    for (size_t i = 0; i < state.contexts.size(); ++i) {
      const ContextState& ctx = state.contexts[i];
      ScanColumn& rows = state.columns[i][static_cast<size_t>(pos)];
      ScanColumn merged;
      ForEachPredecessor(
          rows, lane.history, nullptr, exec_id, ctx.window_start,
          [&](size_t begin, size_t end) {
            merged.CopyRows(rows, begin, end, stride);
          },
          [&](const GraphletNode& n) {
            AppendRow(merged, exec_id, n.event,
                      NodeValue{n.expr.Eval(store_, ctx.id), MinMax()});
          });
      rows = std::move(merged);
    }
  }
  return state;
}

std::vector<ContextId> HamletEngine::ImportQuery(int exec_id,
                                                 QueryState state) {
  HAMLET_CHECK(layout_->members.Contains(exec_id));
  const size_t q = static_cast<size_t>(exec_id);
  last_leading_[q] = state.last_leading;
  last_boundary_neg_[q] = std::move(state.last_boundary_neg);
  std::vector<ContextId> ids;
  for (size_t i = 0; i < state.contexts.size(); ++i) {
    ContextState& ctx = state.contexts[i];
    const ContextId id = AcquireContextId();
    ctx.id = id;
    ctx.exec_id = exec_id;
    if (!state.columns.empty()) {
      ctx.column_set = AcquireColumnSet(0);
      Columns(ctx) = std::move(state.columns[i]);
    }
    contexts_[static_cast<size_t>(id)] = std::move(ctx);
    open_ctxs_[q].push_back(id);
    ids.push_back(id);
  }
  return ids;
}

void HamletEngine::OnPaneStart(Timestamp pane_start) {
  const Timestamp cutoff = pane_start - layout_->horizon;
  for (Lane& lane : lanes_) {
    if (lane.events_this_pane > 0) {
      lane.pane_events.emplace_back(pane_start_, lane.events_this_pane);
      lane.events_this_pane = 0;
    }
    size_t old = 0;
    while (old < lane.pane_events.size() &&
           lane.pane_events[old].first < cutoff) {
      lane.window_events -= lane.pane_events[old++].second;
    }
    lane.pane_events.erase(
        lane.pane_events.begin(),
        lane.pane_events.begin() + static_cast<std::ptrdiff_t>(old));
  }
  pane_start_ = pane_start;
  // Snapshots take values only for the contexts open when they are
  // created, so no context still open has a value in one created in a pane
  // before the cutoff: drop them. Shared-scan expressions fold in older
  // graphlets' terms and may still name them; they read zero, as the
  // emptied columns did.
  pane_first_snapshot_.emplace_back(pane_start, store_.next_id());
  size_t expired = 0;
  while (pane_first_snapshot_[expired].first < cutoff) ++expired;
  if (expired > 0) {
    store_.DropBefore(pane_first_snapshot_[expired].second);
    pane_first_snapshot_.erase(
        pane_first_snapshot_.begin(),
        pane_first_snapshot_.begin() + static_cast<std::ptrdiff_t>(expired));
  }
  for (Lane& lane : lanes_) {
    auto& h = lane.history;
    size_t keep = 0;
    for (Graphlet* g : h) {
      if (g->open_time < cutoff) {
        graphlet_pool_.Release(g);
      } else {
        h[keep++] = g;
      }
    }
    h.resize(keep);
  }
  // Every graphlet opened at or before a stamp below the cutoff is gone.
  size_t reusable = 0;
  while (reusable < closed_ctxs_.size() &&
         closed_ctxs_[reusable].first < cutoff) {
    free_ctxs_.push_back(closed_ctxs_[reusable++].second);
  }
  closed_ctxs_.erase(
      closed_ctxs_.begin(),
      closed_ctxs_.begin() + static_cast<std::ptrdiff_t>(reusable));
}

void HamletEngine::OnPaneEnd() {
  for (int idx : active_lanes_) {
    Lane& lane = lanes_[static_cast<size_t>(idx)];
    CloseLaneGraphlets(lane);
    lane.active = false;
  }
  active_lanes_.clear();
}

void HamletEngine::OnEvent(const Event& e) {
  // Evaluate this event's predicates here, then join the shared body that
  // OnRunFiltered feeds with batch-computed pass-sets.
  if (e.type < 0 || e.type >= layout_->num_types ||
      !layout_->type_relevant[static_cast<size_t>(e.type)]) {
    HAMLET_DCHECK(e.time > last_time_);
    last_time_ = e.time;
    return;
  }
  QuerySet passes;
  layout_->positive_of_type[static_cast<size_t>(e.type)]
      .Union(layout_->negated_of_type[static_cast<size_t>(e.type)])
      .ForEach([&](QueryId q) {
        if (PassesEventPredicates(Exec(q).event_predicates, e))
          passes.Insert(q);
      });
  ProcessRun(e, passes);
}

void HamletEngine::OnRunFiltered(const EventBatch& batch, const RunSpan& run) {
  const int n = run.row_end - run.row_begin;
  if (n <= 0) return;
  run_scratch_valid_ = false;
  Event e0;
  batch.CopyRow(run.row_begin, &e0);
  if (n == 1) {
    ProcessRun(e0, run.passes);
    return;
  }
  // Precondition: the run-granular dispatchers (run segmenter + Session's
  // component type gate, EvalHamletBatch's relevance filter) drop
  // irrelevant types before calling.
  HAMLET_DCHECK(e0.type >= 0 && e0.type < layout_->num_types &&
                layout_->type_relevant[static_cast<size_t>(e0.type)]);

  const QuerySet matched =
      layout_->positive_of_type[static_cast<size_t>(e0.type)].Intersect(
          run.passes);
  const QuerySet neg_matched =
      layout_->negated_of_type[static_cast<size_t>(e0.type)].Intersect(
          run.passes);
  if (!matched.Intersect(neg_matched).Empty()) {
    // Some query both matches this type positively and negates it: its
    // negation state interleaves with its own appends row by row, so the
    // run decomposition below would not be exact. Replay per row (checked
    // before any state is touched, so each row is counted once).
    const Event* rows = MaterializedRows(batch, run.row_begin, run.row_end);
    for (int i = 0; i < n; ++i) ProcessRun(rows[i], run.passes);
    return;
  }

  // Row 0 takes the per-row body: the run's one lane transition (after row
  // 0 no foreign lane can become active — only lanes of the run's type
  // activate — so the remaining rows' sweeps would be no-ops). Lane event
  // counts are read only at burst opens, which happen at row 0 alone.
  ProcessRun(e0, run.passes);
  last_time_ = batch.time(run.row_end - 1);
  stats_.events += n - 1;

  // matched and neg_matched are disjoint here, so negation writes (per
  // negated query) and appends (per matched query) touch disjoint state
  // and commute: applying the last row's negation stamp now leaves every
  // per-query timestamp and context clear exactly as the row-by-row
  // interleaving would.
  if (!neg_matched.Empty()) {
    Event e_last;
    batch.CopyRow(run.row_end - 1, &e_last);
    ApplyNegation(e_last, neg_matched);
  }
  if (!matched.Empty()) {
    for (Lane& lane : lanes_) {
      if (lane.spec->type != e0.type) continue;
      QuerySet m = lane.spec->static_members.Intersect(matched);
      if (m.Empty()) continue;
      AppendRun(lane, batch, run.row_begin + 1, run.row_end, m);
    }
  }
}

void HamletEngine::ProcessRun(const Event& e, const QuerySet& passes) {
  // Precondition: OnEvent and the run-granular dispatchers drop irrelevant
  // types before calling.
  HAMLET_DCHECK(e.type >= 0 && e.type < layout_->num_types &&
                layout_->type_relevant[static_cast<size_t>(e.type)]);

  QuerySet matched =
      layout_->positive_of_type[static_cast<size_t>(e.type)].Intersect(passes);
  QuerySet neg_matched =
      layout_->negated_of_type[static_cast<size_t>(e.type)].Intersect(passes);
  QuerySet touched = matched.Union(neg_matched);

  HAMLET_DCHECK(e.time > last_time_);
  last_time_ = e.time;
  ++stats_.events;
  if (touched.Empty()) return;

  CloseForeignLanes(e, touched);
  ApplyNegation(e, neg_matched);

  if (!matched.Empty()) {
    for (Lane& lane : lanes_) {
      if (lane.spec->type != e.type) continue;
      QuerySet m = lane.spec->static_members.Intersect(matched);
      if (m.Empty()) continue;
      InsertIntoLane(lane, e, m);
    }
  }
}

const Event* HamletEngine::MaterializedRows(const EventBatch& batch,
                                            int begin, int end) {
  if (!run_scratch_valid_) {
    run_scratch_.resize(static_cast<size_t>(end - begin));
    for (int i = begin; i < end; ++i)
      batch.CopyRow(i, &run_scratch_[static_cast<size_t>(i - begin)]);
    run_scratch_valid_ = true;
  }
  return run_scratch_.data();
}

void HamletEngine::AppendRun(Lane& lane, const EventBatch& batch, int begin,
                             int end, const QuerySet& matched) {
  const Layout::Lane& spec = *lane.spec;
  const int n = end - begin;
  // Row 0 already went through InsertIntoLane: the burst is open, the
  // sharing decision is made, and every graphlet this run appends to exists.
  // Classify each append sub-target as fast (write-only: provably never
  // scanned, no min/max, and for the shared graphlet not retained -> node
  // materialization and per-row dispatch overhead can be skipped) or slow
  // (replayed row-major below).
  const bool lane_mm = spec.profile.need_min || spec.profile.need_max;
  const bool is_target = spec.type == spec.profile.target_type;
  const AttrId target_attr = spec.profile.target_attr;

  Graphlet* shared = lane.shared_graphlet;
  bool shared_fast = false;
  if (shared != nullptr) {
    const bool divergent = matched.Intersect(shared->sharers) !=
                           shared->sharers;
    shared_fast =
        shared->mode == PropagationMode::kFastSum && !divergent && !lane_mm;
  }
  if (shared_fast) {
    const double* vals = (target_attr == Schema::kInvalidId || !is_target)
                             ? nullptr
                             : batch.column(target_attr).data();
    for (int i = begin; i < end; ++i) {
      const double val = vals == nullptr ? 0.0 : vals[i];
      stats_.ops += shared->running_sum.AppendFastSumEvent(
          shared->start_var, shared->entry_var, is_target, val,
          spec.profile.need_sum, spec.profile.need_count_e);
    }
    shared->extra_events += n;
  }

  QuerySet slow_solo;
  matched.Minus(lane.current_shared).ForEach([&](QueryId q) {
    const AggProfile& profile = Profile(q);
    if (layout_->edge_queries.Contains(q) || profile.need_min ||
        profile.need_max) {
      slow_solo.Insert(q);
      return;
    }
    Graphlet* g = nullptr;
    for (auto& [id, gl] : lane.solo_graphlets) {
      if (id == q) g = gl;
    }
    // Hoisted AppendSolo fast path: context-outer, run-inner, with the
    // per-context lookups lifted out of the row loop. The FP operation
    // sequence per row is identical to AppendSolo's, so the running sums
    // are bit-identical.
    const bool q_target = spec.type == profile.target_type;
    const double* vals = profile.target_attr == Schema::kInvalidId
                             ? nullptr
                             : batch.column(profile.target_attr).data();
    for (ContextId c : open_ctxs_[static_cast<size_t>(q)]) {
      const LinAgg entry = g->solo_entry.Get(c, LinAgg());
      const double start = g->solo_start.Get(c, 0.0);
      LinAgg running = g->solo_sums.Get(c, LinAgg());
      for (int i = begin; i < end; ++i) {
        LinAgg v = entry;
        if (g->self_loop) v.Add(running);
        v.count += start;
        if (q_target) {
          const double val = vals == nullptr ? 0.0 : vals[i];
          v.count_e += v.count;
          v.sum += val * v.count;
        }
        running.Add(v);
      }
      g->solo_sums.Mut(c) = running;
      stats_.ops += n;
    }
    g->extra_events += n;
  });

  // Slow sub-targets replay row-major, preserving per-row processing's
  // within-row order (shared append, then solos in id order): a scanning
  // append reads this lane's live graphlet nodes with no future-time
  // filter, so it must never observe rows later than its own.
  const bool shared_slow = shared != nullptr && !shared_fast;
  if (shared_slow || !slow_solo.Empty()) {
    const Event* rows = MaterializedRows(batch, begin, end);
    for (int i = 0; i < n; ++i) {
      const Event& e = rows[i];
      if (shared_slow) AppendShared(lane, *shared, e, matched);
      slow_solo.ForEach([&](QueryId q) {
        Graphlet* g = nullptr;
        for (auto& [id, gl] : lane.solo_graphlets) {
          if (id == q) g = gl;
        }
        AppendSolo(lane, *g, e, q);
      });
    }
  }
  CountLaneEvents(lane, matched, n);
}

void HamletEngine::CloseForeignLanes(const Event& e, const QuerySet& touched) {
  size_t keep = 0;
  for (size_t i = 0; i < active_lanes_.size(); ++i) {
    Lane& lane = lanes_[static_cast<size_t>(active_lanes_[i])];
    if (!lane.active) continue;  // compact stale entries
    if (lane.spec->type != e.type &&
        lane.spec->relevant[static_cast<size_t>(e.type)] &&
        !lane.spec->static_members.Intersect(touched).Empty()) {
      CloseLaneGraphlets(lane);
      lane.active = false;
      continue;
    }
    active_lanes_[keep++] = active_lanes_[i];
  }
  active_lanes_.resize(keep);
}

void HamletEngine::ApplyNegation(const Event& e, const QuerySet& neg_matched) {
  neg_matched.ForEach([&](QueryId q) {
    const TemplateInfo& tmpl = Exec(q).tmpl;
    for (TypeId t : tmpl.leading_negations) {
      if (t == e.type) last_leading_[static_cast<size_t>(q)] = e.time;
    }
    bool trailing = false;
    for (TypeId t : tmpl.trailing_negations) trailing |= t == e.type;
    for (int pos = 1; pos < tmpl.pattern.num_positions(); ++pos) {
      if (!tmpl.BoundaryBlockedBy(pos, e.type)) continue;
      last_boundary_neg_[static_cast<size_t>(q)][static_cast<size_t>(pos)] =
          e.time;
      for (ContextId c : open_ctxs_[static_cast<size_t>(q)]) {
        ContextState& ctx = contexts_[static_cast<size_t>(c)];
        ctx.boundary_totals[static_cast<size_t>(pos)] = LinAgg();
        ctx.boundary_mm[static_cast<size_t>(pos)] = MinMax();
      }
    }
    if (trailing) {
      for (ContextId c : open_ctxs_[static_cast<size_t>(q)]) {
        ContextState& ctx = contexts_[static_cast<size_t>(c)];
        ctx.final_lin = LinAgg();
        ctx.final_mm = MinMax();
      }
    }
  });
}

double HamletEngine::StartValue(int exec_id, TypeId type,
                                const ContextState& ctx) const {
  const ExecQuery& eq = Exec(exec_id);
  if (eq.tmpl.pattern.PositionOf(type) != 0) return 0.0;
  if (last_leading_[static_cast<size_t>(exec_id)] >= ctx.window_start)
    return 0.0;
  return 1.0;
}

LinAgg HamletEngine::EntryValue(int exec_id, TypeId type,
                                const ContextState& ctx) const {
  const ExecQuery& eq = Exec(exec_id);
  const int pos = eq.tmpl.pattern.PositionOf(type);
  LinAgg out;
  for (int pp : eq.tmpl.pred_positions[static_cast<size_t>(pos)]) {
    const TypeId ptype =
        eq.tmpl.pattern.elements[static_cast<size_t>(pp)].type;
    if (pp == pos - 1 &&
        !eq.tmpl.boundary_negations[static_cast<size_t>(pos)].empty()) {
      out.Add(ctx.boundary_totals[static_cast<size_t>(pos)]);
    } else {
      out.Add(ctx.type_totals[static_cast<size_t>(ptype)]);
    }
  }
  return out;
}

MinMax HamletEngine::EntryMinMax(int exec_id, TypeId type,
                                 const ContextState& ctx) const {
  const ExecQuery& eq = Exec(exec_id);
  const int pos = eq.tmpl.pattern.PositionOf(type);
  MinMax out;
  for (int pp : eq.tmpl.pred_positions[static_cast<size_t>(pos)]) {
    const TypeId ptype =
        eq.tmpl.pattern.elements[static_cast<size_t>(pp)].type;
    if (pp == pos - 1 &&
        !eq.tmpl.boundary_negations[static_cast<size_t>(pos)].empty()) {
      out.Fold(ctx.boundary_mm[static_cast<size_t>(pos)]);
    } else {
      out.Fold(ctx.type_mm[static_cast<size_t>(ptype)]);
    }
  }
  return out;
}

void HamletEngine::InsertIntoLane(Lane& lane, const Event& e,
                                  const QuerySet& matched) {
  const bool burst_start =
      lane.shared_graphlet == nullptr && lane.solo_graphlets.empty();
  if (burst_start) {
    // Graphlet-entry snapshots read predecessor running totals (Eq. 5), so
    // every feeder lane of any member must be folded before the open. An
    // event matched by only a subset of members does not close the other
    // members' lanes in CloseForeignLanes, hence the explicit sweep here.
    size_t keep = 0;
    for (size_t i = 0; i < active_lanes_.size(); ++i) {
      Lane& other = lanes_[static_cast<size_t>(active_lanes_[i])];
      if (!other.active) continue;
      if (other.spec->type != lane.spec->type &&
          !other.spec->static_members.Intersect(lane.spec->static_members)
               .Empty()) {
        CloseLaneGraphlets(other);
        other.active = false;
        continue;
      }
      active_lanes_[keep++] = active_lanes_[i];
    }
    active_lanes_.resize(keep);
    OpenGraphlets(lane, e);
  }

  if (lane.shared_graphlet != nullptr)
    AppendShared(lane, *lane.shared_graphlet, e, matched);

  QuerySet solo = matched.Minus(lane.current_shared);
  solo.ForEach([&](QueryId q) {
    Graphlet* g = nullptr;
    for (auto& [id, gl] : lane.solo_graphlets) {
      if (id == q) g = gl;
    }
    if (g == nullptr) g = OpenSoloGraphlet(lane, e, q);
    AppendSolo(lane, *g, e, q);
  });
  if (!lane.active &&
      (lane.shared_graphlet != nullptr || !lane.solo_graphlets.empty())) {
    lane.active = true;
    active_lanes_.push_back(
        static_cast<int>(&lane - lanes_.data()));
  }
  CountLaneEvents(lane, matched, 1);
}

void HamletEngine::CountLaneEvents(Lane& lane, const QuerySet& matched,
                                   int rows) {
  const Layout::Lane& spec = *lane.spec;
  lane.events_this_pane += rows;
  lane.window_events += rows;
  if (!spec.shareable) return;
  const bool divergent = matched != spec.static_members;
  if (divergent) stats_.divergent_events += rows;
  if (!divergent && spec.mode != PropagationMode::kPerEventSnapshot) return;
  for (size_t i = 0; i < spec.member_list.size(); ++i) {
    const int q = spec.member_list[i];
    if (divergent ? !matched.Contains(q) : layout_->edge_queries.Contains(q))
      lane.avg_sc_member[i] += rows;
  }
}

SnapshotId HamletEngine::CreateSnapshot() {
  ++stats_.snapshots_created;
  ++stats_.ops;
  return store_.Create();
}

void HamletEngine::OpenGraphlets(Lane& lane, const Event& e) {
  const Layout::Lane& spec = *lane.spec;
  QuerySet shared;
  if (spec.shareable) {
    ++stats_.bursts_total;
    BurstStats& bs = burst_stats_;
    bs.k = static_cast<int>(spec.member_list.size());
    bs.b = std::max(1.0, lane.avg_burst);
    double n = 0.0;
    for (const auto& [idx, weight] : spec.n_terms)
      n += weight *
           static_cast<double>(lanes_[static_cast<size_t>(idx)].window_events);
    bs.n = std::max(1.0, n);
    bs.g = std::max(1.0, lane.avg_graphlet);
    bs.sc = lane.avg_sc + 1.0;  // +1: the graphlet-level snapshot itself
    bs.sp = std::max(1.0, lane.avg_sp);
    bs.sc_per_member = lane.avg_sc_member;
    bs.p = spec.p;
    bs.t = spec.t;
    bs.mode = spec.mode;
    bs.scanners = spec.static_members.Intersect(layout_->edge_queries).Count();
    bs.min_max = spec.profile.need_min || spec.profile.need_max;
    size_t contexts = 0;
    for (int q : spec.member_list)
      contexts += open_ctxs_[static_cast<size_t>(q)].size();
    bs.c = static_cast<double>(contexts) / static_cast<double>(bs.k);
    SharingDecision decision = policy_->Decide(spec.member_list, bs);
    shared = decision.shared.Intersect(spec.static_members);
    if (shared.Count() < 2) shared = QuerySet();
  }
  if (spec.shareable) {
    const bool was_shared = !lane.current_shared.Empty();
    const bool now_shared = !shared.Empty();
    if (was_shared && !now_shared) ++stats_.splits;
    if (!was_shared && now_shared && stats_.bursts_total > 1) ++stats_.merges;
  }
  lane.current_shared = shared;
  if (!shared.Empty()) {
    ++stats_.bursts_shared;
    lane.shared_graphlet = OpenSharedGraphlet(lane, e, shared);
  }
}

Graphlet* HamletEngine::OpenSharedGraphlet(Lane& lane, const Event& e,
                                           QuerySet sharers) {
  const Layout::Lane& spec = *lane.spec;
  Graphlet* g = graphlet_pool_.Acquire();
  g->type = spec.type;
  g->sharers = sharers;
  g->shared = true;
  g->mode = spec.mode;
  g->self_loop = true;
  g->open_time = e.time;
  g->start_var = CreateSnapshot();
  // The entry snapshot x is read by every kFastSum sharer and otherwise by
  // the sharers without edge predicates (count(e) = u + x + R in a
  // per-event-snapshot graphlet); edge-predicate sharers scan instead.
  const bool fast = spec.mode == PropagationMode::kFastSum;
  const QuerySet entry_readers =
      fast ? sharers : sharers.Minus(layout_->edge_queries);
  if (!entry_readers.Empty()) {
    g->entry_var = CreateSnapshot();
  }
  const bool need_mm = spec.profile.need_min || spec.profile.need_max;
  sharers.ForEach([&](QueryId q) {
    const bool reads_entry = entry_readers.Contains(q);
    for (ContextId c : open_ctxs_[static_cast<size_t>(q)]) {
      const ContextState& ctx = contexts_[static_cast<size_t>(c)];
      LinAgg start;
      start.count = StartValue(q, spec.type, ctx);
      if (start.count != 0.0) store_.Set(g->start_var, c, start);
      if (reads_entry) {
        LinAgg entry = EntryValue(q, spec.type, ctx);
        if (!entry.IsZero()) store_.Set(g->entry_var, c, entry);
      }
      if (need_mm) g->entry_mm.Mut(c) = EntryMinMax(q, spec.type, ctx);
      ++stats_.ops;
    }
  });
  ++stats_.graphlets_opened;
  ++stats_.graphlets_shared;
  return g;
}

Graphlet* HamletEngine::OpenSoloGraphlet(Lane& lane, const Event& e,
                                         int exec_id) {
  const Layout::Lane& spec = *lane.spec;
  Graphlet* g = graphlet_pool_.Acquire();
  g->type = spec.type;
  g->sharers = QuerySet::Single(exec_id);
  g->shared = false;
  g->open_time = e.time;
  const ExecQuery& eq = Exec(exec_id);
  const int pos = eq.tmpl.pattern.PositionOf(spec.type);
  bool self = false;
  for (int pp : eq.tmpl.pred_positions[static_cast<size_t>(pos)])
    self |= pp == pos;
  g->self_loop = self;
  const AggProfile& profile = Profile(exec_id);
  const bool need_mm = profile.need_min || profile.need_max;
  for (ContextId c : open_ctxs_[static_cast<size_t>(exec_id)]) {
    const ContextState& ctx = contexts_[static_cast<size_t>(c)];
    g->solo_start.Mut(c) = StartValue(exec_id, spec.type, ctx);
    g->solo_entry.Mut(c) = EntryValue(exec_id, spec.type, ctx);
    if (need_mm) g->entry_mm.Mut(c) = EntryMinMax(exec_id, spec.type, ctx);
    ++stats_.ops;
  }
  ++stats_.graphlets_opened;
  lane.solo_graphlets.emplace_back(exec_id, g);
  return g;
}

NodeValue HamletEngine::ScanPredecessors(int exec_id, const Event& e,
                                         const ContextState& ctx,
                                         const Lane& own_lane,
                                         bool exclude_own_type) {
  const ExecQuery& eq = Exec(exec_id);
  const int pos = eq.tmpl.pattern.PositionOf(e.type);
  NodeValue out;
  for (int pp : eq.tmpl.pred_positions[static_cast<size_t>(pos)]) {
    const TypeId ptype =
        eq.tmpl.pattern.elements[static_cast<size_t>(pp)].type;
    const Timestamp blocked_after =
        (pp == pos - 1)
            ? last_boundary_neg_[static_cast<size_t>(exec_id)]
                                [static_cast<size_t>(pos)]
            : -1;
    // Rows are in time order, so a boundary negation blocks a prefix.
    const ScanColumn& rows = Columns(ctx)[static_cast<size_t>(pp)];
    const size_t first = static_cast<size_t>(
        std::upper_bound(rows.times.begin(), rows.times.end(),
                         blocked_after) -
        rows.times.begin());
    auto fold_rows = [&](size_t begin, size_t end) {
      begin = std::max(begin, first);
      if (begin >= end) return;
      stats_.ops += static_cast<int64_t>(end - begin);
      FoldRows(rows, begin, end, eq.edge_predicates, e, &out);
    };
    if (exclude_own_type && ptype == e.type) {
      fold_rows(0, rows.size());
      continue;
    }
    const Lane* lane = ptype == own_lane.spec->type ? &own_lane
                                              : LaneOf(exec_id, ptype);
    ForEachPredecessor(rows, lane->history, lane->shared_graphlet, exec_id,
                       ctx.window_start, fold_rows,
                       [&](const GraphletNode& n) {
                         ++stats_.ops;
                         if (n.event.time <= blocked_after ||
                             !PassesEdgePredicates(eq.edge_predicates,
                                                   n.event, e))
                           return;
                         out.lin.Add(n.expr.Eval(store_, ctx.id));
                       });
  }
  return out;
}

void HamletEngine::AppendRow(ScanColumn& col, int exec_id, const Event& e,
                             const NodeValue& v) const {
  col.times.push_back(e.time);
  for (const EdgePredicate& p : Exec(exec_id).edge_predicates)
    col.attrs.push_back(e.attr(p.attr));
  col.lin.push_back(v.lin);
  const AggProfile& profile = Profile(exec_id);
  if (profile.need_min || profile.need_max) col.mm.push_back(v.mm);
}

void HamletEngine::AppendShared(Lane& lane, Graphlet& g, const Event& e,
                                const QuerySet& matched) {
  const Layout::Lane& spec = *lane.spec;
  const QuerySet members = matched.Intersect(g.sharers);
  const bool need_mm = spec.profile.need_min || spec.profile.need_max;
  const bool divergent = members != g.sharers;
  const double val = spec.profile.target_attr == Schema::kInvalidId
                         ? 0.0
                         : (e.type == spec.profile.target_type
                                ? e.attr(spec.profile.target_attr)
                                : 0.0);
  const bool is_target = e.type == spec.profile.target_type;

  if (g.mode == PropagationMode::kFastSum && !divergent && !need_mm) {
    // Node-free append without a node expression (no min/max fold reads
    // it): fold count(e) = u + x + R straight into the running sum. The run
    // path (AppendRun) applies the same rule for rows past the head.
    stats_.ops += g.running_sum.AppendFastSumEvent(
        g.start_var, g.entry_var, is_target, val, spec.profile.need_sum,
        spec.profile.need_count_e);
    ++g.extra_events;
    return;
  }

  // Only a shared-scan graphlet's later events walk its nodes; every other
  // graphlet keeps the node expression in its running sum alone.
  const bool keep_node = g.mode == PropagationMode::kSharedScan;
  GraphletNode node;
  if (keep_node) node.event = e;
  node.members = members;

  if (g.mode == PropagationMode::kFastSum && !divergent) {
    // count(e) = u + x + R (Algorithm 1, Line 18 — shared propagation).
    node.expr.AddVar(g.start_var, 1.0);
    node.expr.AddVar(g.entry_var, 1.0);
    node.expr.AddExpr(g.running_sum);
    if (is_target)
      node.expr.ApplyTargetEvent(val, spec.profile.need_sum,
                                 spec.profile.need_count_e);
    stats_.ops += node.expr.num_terms();
  } else if (g.mode == PropagationMode::kSharedScan && !divergent) {
    // Shared scan: same-type predecessor validity is query-agnostic
    // (identical edge predicates), so ONE pass serves every sharer at once.
    // Cross-type predecessors and the sharers' own-type rows (appends from
    // solo bursts) stay per query and ride one event-level snapshot. With
    // equality-only predicates the same-type side uses per-key running
    // sums (O(terms) per event); otherwise it walks the stored nodes.
    node.expr.AddVar(g.start_var, 1.0);
    SnapshotId z = spec.scan_has_cross ? CreateSnapshot() : -1;
    g.sharers.Intersect(node.members).ForEach([&](QueryId q) {
      for (ContextId c : open_ctxs_[static_cast<size_t>(q)]) {
        const NodeValue scanned =
            ScanPredecessors(q, e, contexts_[static_cast<size_t>(c)], lane,
                             /*exclude_own_type=*/true);
        if (scanned.lin.IsZero()) continue;
        if (z < 0) z = CreateSnapshot();
        store_.Set(z, c, scanned.lin);
      }
    });
    if (z >= 0) {
      ++stats_.event_snapshots;
      node.expr.AddVar(z, 1.0);
    }
    if (spec.scan_all_equality) {
      // Equality partition key of this event.
      std::vector<double> key;
      key.reserve(spec.shared_edge_preds->size());
      for (const EdgePredicate& p : *spec.shared_edge_preds)
        key.push_back(e.attr(p.attr));
      // Lazy per-key entry variable covering closed graphlets' same-key
      // contributions (exact: equality is transitive).
      SnapshotId x_key = -1;
      for (const auto& [k, var] : g.key_entry) {
        if (k == key) x_key = var;
      }
      if (x_key < 0) {
        x_key = CreateSnapshot();
        g.key_entry.emplace_back(key, x_key);
        for (const auto& [k, totals] : lane.key_totals) {
          if (k != key) continue;
          for (const auto& [c, v] : totals) {
            if (!v.IsZero()) store_.Set(x_key, c, v);
            ++stats_.ops;
          }
        }
      }
      node.expr.AddVar(x_key, 1.0);
      Expr* running = nullptr;
      for (auto& [k, r] : g.key_running) {
        if (k == key) running = &r;
      }
      if (running == nullptr) {
        g.key_running.emplace_back(key, Expr());
        running = &g.key_running.back().second;
      }
      node.expr.AddExpr(*running);
      if (is_target)
        node.expr.ApplyTargetEvent(val, spec.profile.need_sum,
                                   spec.profile.need_count_e);
      running->AddExpr(node.expr);
      stats_.ops += node.expr.num_terms();
    } else {
      auto scan = [&](const Graphlet& gg) {
        for (const GraphletNode& n : gg.nodes) {
          ++stats_.ops;
          // Partial-membership nodes went through the event-snapshot path,
          // so their expressions already evaluate to 0 for non-member
          // contexts.
          if (!PassesEdgePredicates(*spec.shared_edge_preds, n.event, e))
            continue;
          node.expr.AddExpr(n.expr);
        }
      };
      for (const Graphlet* gg : lane.history) scan(*gg);
      scan(g);
      if (is_target)
        node.expr.ApplyTargetEvent(val, spec.profile.need_sum,
                                   spec.profile.need_count_e);
      stats_.ops += node.expr.num_terms();
    }
  } else {
    // Event-level snapshot (Algorithm 1, Lines 19-20 / Definition 9):
    // evaluate per (query, context) and publish as a fresh variable. Only
    // edge-predicate sharers scan, and outside a shared-scan graphlet they
    // also keep the value as a row of their scan column; a plain sharer of
    // a per-event-snapshot graphlet takes count(e) = u + x + R with R kept
    // per context in solo_sums, so its share of the snapshot is O(1).
    SnapshotId z = CreateSnapshot();
    ++stats_.event_snapshots;
    g.sharers.Intersect(node.members).ForEach([&](QueryId q) {
      const bool scans = layout_->edge_queries.Contains(q);
      const bool plain =
          g.mode == PropagationMode::kPerEventSnapshot && !scans;
      const size_t pos = static_cast<size_t>(
          Exec(q).tmpl.pattern.PositionOf(spec.type));
      for (ContextId c : open_ctxs_[static_cast<size_t>(q)]) {
        const ContextState& cs = contexts_[static_cast<size_t>(c)];
        LinAgg lin;
        if (g.mode == PropagationMode::kFastSum) {
          lin = store_.Get(g.start_var, c);
          lin.Add(store_.Get(g.entry_var, c));
          lin.Add(g.running_sum.Eval(store_, c));
          stats_.ops += g.running_sum.num_terms();
        } else if (plain) {
          lin = store_.Get(g.start_var, c);
          lin.Add(store_.Get(g.entry_var, c));
          lin.Add(g.solo_sums.Get(c, LinAgg()));
          ++stats_.ops;
        } else {
          lin = ScanPredecessors(q, e, cs, lane).lin;
          lin.count += StartValue(q, spec.type, cs);
        }
        if (is_target) {
          if (spec.profile.need_count_e) lin.count_e += lin.count;
          if (spec.profile.need_sum) lin.sum += val * lin.count;
        }
        store_.Set(z, c, lin);
        if (plain) g.solo_sums.Mut(c).Add(lin);
        if (scans && !keep_node)
          AppendRow(Columns(cs)[pos], q, e, NodeValue{lin, MinMax()});
      }
    });
    node.expr.AddVar(z, 1.0);
    // In equality-partitioned scan lanes, divergent nodes must still feed
    // their key's running sum so later same-key events see them.
    if (g.mode == PropagationMode::kSharedScan && spec.scan_all_equality) {
      std::vector<double> key;
      for (const EdgePredicate& p : *spec.shared_edge_preds)
        key.push_back(e.attr(p.attr));
      Expr* running = nullptr;
      for (auto& [k, r] : g.key_running) {
        if (k == key) running = &r;
      }
      if (running == nullptr) {
        g.key_running.emplace_back(key, Expr());
        running = &g.key_running.back().second;
      }
      running->AddExpr(node.expr);
    }
  }

  if (need_mm) FoldNodeMinMax(lane, g, node, e);
  g.running_sum.AddExpr(node.expr);
  if (keep_node) {
    g.nodes.push_back(std::move(node));
  } else {
    ++g.extra_events;
  }
}

void HamletEngine::FoldNodeMinMax(Lane& lane, Graphlet& g,
                                  const GraphletNode& node, const Event& e) {
  const Layout::Lane& spec = *lane.spec;
  const bool is_target = e.type == spec.profile.target_type;
  const double val = spec.profile.target_attr == Schema::kInvalidId
                         ? 0.0
                         : (is_target ? e.attr(spec.profile.target_attr)
                                      : 0.0);
  g.sharers.Intersect(node.members).ForEach([&](QueryId q) {
    for (ContextId c : open_ctxs_[static_cast<size_t>(q)]) {
      MinMax m = g.entry_mm.Get(c, MinMax());
      if (g.self_loop) m.Fold(g.run_mm.Get(c, MinMax()));
      if (is_target) {
        const double count = node.expr.EvalCount(store_, c);
        stats_.ops += node.expr.num_terms();
        if (count > 0.0) m.FoldValue(val);
      }
      g.run_mm.Mut(c).Fold(m);
    }
  });
}

void HamletEngine::AppendSolo(Lane& lane, Graphlet& g, const Event& e,
                              int exec_id) {
  const AggProfile& profile = Profile(exec_id);
  const bool scans = layout_->edge_queries.Contains(exec_id);
  const bool need_mm = profile.need_min || profile.need_max;
  const bool is_target = e.type == profile.target_type;
  const double val =
      profile.target_attr == Schema::kInvalidId
          ? 0.0
          : (is_target ? e.attr(profile.target_attr) : 0.0);

  if (!scans) {
    // A plain query's per-context values land in solo_sums (and run_mm)
    // only: no scan reads them. AppendRun's hoisted solo loop computes the
    // same FP sequence for the min/max-free case.
    for (ContextId c : open_ctxs_[static_cast<size_t>(exec_id)]) {
      LinAgg v = g.solo_entry.Get(c, LinAgg());
      if (g.self_loop) v.Add(g.solo_sums.Get(c, LinAgg()));
      ++stats_.ops;
      v.count += g.solo_start.Get(c, 0.0);
      if (is_target) {
        v.count_e += v.count;
        v.sum += val * v.count;
      }
      if (need_mm) {
        MinMax mm = g.entry_mm.Get(c, MinMax());
        if (g.self_loop) mm.Fold(g.run_mm.Get(c, MinMax()));
        if (is_target && v.count > 0.0) mm.FoldValue(val);
        g.run_mm.Mut(c).Fold(mm);
      }
      g.solo_sums.Mut(c).Add(v);
    }
    ++g.extra_events;
    return;
  }

  // A scanning append keeps its per-window value as a row of the query's
  // scan column, which later appends read instead of a stored node.
  const size_t pos = static_cast<size_t>(
      Exec(exec_id).tmpl.pattern.PositionOf(lane.spec->type));
  for (ContextId c : open_ctxs_[static_cast<size_t>(exec_id)]) {
    const ContextState& ctx = contexts_[static_cast<size_t>(c)];
    NodeValue v = ScanPredecessors(exec_id, e, ctx, lane);
    v.lin.count += g.solo_start.Get(c, 0.0);
    if (is_target) {
      v.lin.count_e += v.lin.count;
      v.lin.sum += val * v.lin.count;
    }
    if (need_mm) {
      if (is_target && v.lin.count > 0.0) v.mm.FoldValue(val);
      g.run_mm.Mut(c).Fold(v.mm);
    }
    g.solo_sums.Mut(c).Add(v.lin);
    AppendRow(Columns(ctx)[pos], exec_id, e, v);
  }
  ++g.extra_events;
}

void HamletEngine::AddToContext(ContextState& ctx, int exec_id, TypeId type,
                                const LinAgg& lin, const MinMax& mm) {
  const ExecQuery& eq = Exec(exec_id);
  ctx.type_totals[static_cast<size_t>(type)].Add(lin);
  ctx.type_mm[static_cast<size_t>(type)].Fold(mm);
  const int pos = eq.tmpl.pattern.PositionOf(type);
  const int next = pos + 1;
  if (next < eq.tmpl.pattern.num_positions() &&
      !eq.tmpl.boundary_negations[static_cast<size_t>(next)].empty()) {
    ctx.boundary_totals[static_cast<size_t>(next)].Add(lin);
    ctx.boundary_mm[static_cast<size_t>(next)].Fold(mm);
  }
  if (pos == eq.tmpl.end_position()) {
    ctx.final_lin.Add(lin);
    ctx.final_mm.Fold(mm);
  }
}

void HamletEngine::FoldGraphlet(Lane& lane, Graphlet& g) {
  // num_events(), not nodes.empty(): the run path's fast appends skip node
  // materialization, leaving their contribution only in the running sums.
  if (g.num_events() == 0) return;
  g.sharers.ForEach([&](QueryId q) {
    // A plain sharer of a per-event-snapshot graphlet already holds the
    // running sum's value, term by term in the same order, in solo_sums.
    const bool symbolic =
        g.shared && (g.mode != PropagationMode::kPerEventSnapshot ||
                     layout_->edge_queries.Contains(q));
    for (ContextId c : open_ctxs_[static_cast<size_t>(q)]) {
      ContextState& ctx = contexts_[static_cast<size_t>(c)];
      LinAgg v = symbolic ? g.running_sum.Eval(store_, c)
                          : g.solo_sums.Get(c, LinAgg());
      MinMax mm = g.run_mm.Get(c, MinMax());
      AddToContext(ctx, q, g.type, v, mm);
      stats_.ops += symbolic ? g.running_sum.num_terms() : 1;
      // Keyed cross-graphlet totals for the equality-partitioned scan.
      for (const auto& [key, running] : g.key_running) {
        CtxMap<LinAgg>* totals = nullptr;
        for (auto& [k, t] : lane.key_totals) {
          if (k == key) totals = &t;
        }
        if (totals == nullptr) {
          lane.key_totals.emplace_back(key, CtxMap<LinAgg>());
          totals = &lane.key_totals.back().second;
        }
        totals->Mut(c).Add(running.Eval(store_, c));
        stats_.ops += running.num_terms();
      }
    }
  });
  // Update the lane's moving averages feeding the optimizer.
  const double d = kStatsDecay;
  lane.avg_graphlet =
      (1 - d) * lane.avg_graphlet + d * static_cast<double>(g.num_events());
  lane.avg_burst = lane.avg_graphlet;
  lane.avg_sp = (1 - d) * lane.avg_sp +
                d * static_cast<double>(std::max(1, g.running_sum.num_terms()));
}

void HamletEngine::CloseLaneGraphlets(Lane& lane) {
  bool had_any = false;
  if (lane.shared_graphlet != nullptr) {
    had_any = true;
    FoldGraphlet(lane, *lane.shared_graphlet);
    // Only a shared-scan graphlet stores nodes that later scans walk.
    if (lane.shared_graphlet->mode == PropagationMode::kSharedScan) {
      lane.shared_graphlet->closed_bytes = lane.shared_graphlet->MemoryBytes();
      lane.history.push_back(lane.shared_graphlet);
    } else {
      graphlet_pool_.Release(lane.shared_graphlet);
    }
    lane.shared_graphlet = nullptr;
  }
  for (auto& [id, g] : lane.solo_graphlets) {
    (void)id;
    had_any = true;
    FoldGraphlet(lane, *g);
    graphlet_pool_.Release(g);
  }
  lane.solo_graphlets.clear();
  if (had_any) {
    // Decay the per-member snapshot attribution into a per-burst average.
    const double d = kStatsDecay;
    double sc_total = 0.0;
    for (double& v : lane.avg_sc_member) {
      sc_total += v;
      v *= (1 - d);
    }
    lane.avg_sc = (1 - d) * lane.avg_sc + d * sc_total;
  }
}

int64_t HamletEngine::MemoryBytes() const {
  // Graphlet objects live in the pool's arena: charge the BLOCK RESERVATION
  // (what the allocator actually holds) once, then each object's dynamic
  // payload — free-listed graphlets keep their warmed capacities, which are
  // real memory, so the sweep covers live and recycled objects alike.
  // Retained history graphlets are immutable, so their payload was cached
  // at the close instead of being re-swept node by node here.
  int64_t bytes = static_cast<int64_t>(sizeof(HamletEngine));
  bytes += graphlet_pool_.bytes_reserved();
  for (const Graphlet* g : graphlet_pool_.objects()) {
    HAMLET_DCHECK(g->closed_bytes < 0 || g->closed_bytes == g->MemoryBytes());
    bytes += g->closed_bytes >= 0 ? g->closed_bytes : g->MemoryBytes();
  }
  bytes += store_.MemoryBytes();
  // Column sets of closed windows keep their capacities: charge them too.
  for (const std::vector<ScanColumn>& set : column_sets_) {
    bytes += static_cast<int64_t>(set.capacity() * sizeof(ScanColumn));
    for (const ScanColumn& col : set) bytes += col.MemoryBytes();
  }
  // Closed slots keep no heap payload: visit the open ones only.
  for (const std::vector<ContextId>& open : open_ctxs_) {
    for (ContextId c : open)
      bytes += contexts_[static_cast<size_t>(c)].MemoryBytes();
  }
  return bytes;
}

}  // namespace hamlet
