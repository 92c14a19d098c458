#include "src/hamlet/hamlet_engine.h"

#include <algorithm>
#include <limits>

namespace hamlet {

HamletEngine::HamletEngine(const WorkloadPlan& plan, QuerySet members,
                           SharingPolicy* policy, Options options)
    : plan_(&plan),
      members_(members),
      policy_(policy),
      options_(options),
      num_types_(plan.workload->schema()->num_types()) {
  positive_of_type_.resize(static_cast<size_t>(num_types_));
  negated_of_type_.resize(static_cast<size_t>(num_types_));
  type_relevant_.resize(static_cast<size_t>(num_types_), false);
  lane_of_.assign(static_cast<size_t>(plan.num_exec()),
                  std::vector<int>(static_cast<size_t>(num_types_), -1));
  last_leading_.assign(static_cast<size_t>(plan.num_exec()), -1);
  last_boundary_neg_.resize(static_cast<size_t>(plan.num_exec()));
  open_ctxs_.resize(static_cast<size_t>(plan.num_exec()));
  profiles_.resize(static_cast<size_t>(plan.num_exec()));

  members_.ForEach([&](QueryId q) {
    const ExecQuery& eq = Exec(q);
    profiles_[static_cast<size_t>(q)] = AggProfile::For(eq.aggregate);
    if (eq.has_edge_predicates()) edge_queries_.Insert(q);
    for (const SeqElement& el : eq.tmpl.pattern.elements) {
      positive_of_type_[static_cast<size_t>(el.type)].Insert(q);
      type_relevant_[static_cast<size_t>(el.type)] = true;
    }
    for (const NegationMark& n : eq.tmpl.pattern.negations) {
      negated_of_type_[static_cast<size_t>(n.type)].Insert(q);
      type_relevant_[static_cast<size_t>(n.type)] = true;
    }
    last_boundary_neg_[static_cast<size_t>(q)].assign(
        static_cast<size_t>(eq.tmpl.pattern.num_positions()), -1);
    horizon_ = std::max(horizon_, eq.window.within);
  });
  BuildLanes();
}

void HamletEngine::BuildLanes() {
  // Shared lanes from the plan's share groups (restricted to this engine's
  // members); remaining (query, type) uses become solo lanes.
  std::vector<std::vector<bool>> covered(
      static_cast<size_t>(plan_->num_exec()),
      std::vector<bool>(static_cast<size_t>(num_types_), false));

  auto finish_lane = [&](Lane& lane) {
    lane.relevant.assign(static_cast<size_t>(num_types_), false);
    lane.static_members.ForEach([&](QueryId q) {
      const ExecQuery& eq = Exec(q);
      for (TypeId t : eq.tmpl.pattern.AllTypes())
        lane.relevant[static_cast<size_t>(t)] = true;
      lane.profile.MergeWith(Profile(q));
      lane.member_list.push_back(q);
      // Only a query with edge predicates scans stored nodes, and it scans
      // exactly its own lanes (LaneOf), so those alone retain closed
      // graphlets within the window horizon. kSharedScan members have edge
      // predicates by construction; plain members of a per-event-snapshot
      // group take the fast-sum recurrence (AppendShared) and read no node.
      if (edge_queries_.Contains(q)) lane.retain_history = true;
      if (lane.shared_edge_preds == nullptr) {
        lane.shared_edge_preds = &eq.edge_predicates;
        lane.scan_all_equality = !eq.edge_predicates.empty();
        for (const EdgePredicate& p : eq.edge_predicates) {
          if (p.op != CmpOp::kEq) lane.scan_all_equality = false;
        }
      }
      const int pos = eq.tmpl.pattern.PositionOf(lane.type);
      if (pos >= 0) {
        for (int pp : eq.tmpl.pred_positions[static_cast<size_t>(pos)]) {
          if (eq.tmpl.pattern.elements[static_cast<size_t>(pp)].type !=
              lane.type)
            lane.scan_has_cross = true;
        }
      }
    });
    lane.avg_sc_member.assign(lane.member_list.size(), 0.0);
  };

  for (const ShareGroup& group : plan_->share_groups) {
    QuerySet local = group.members.Intersect(members_);
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
      lane_of_[static_cast<size_t>(q)][static_cast<size_t>(group.type)] =
          static_cast<int>(lanes_.size());
    });
    lanes_.push_back(std::move(lane));
  }

  members_.ForEach([&](QueryId q) {
    const ExecQuery& eq = Exec(q);
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
      lane_of_[static_cast<size_t>(q)][static_cast<size_t>(el.type)] =
          static_cast<int>(lanes_.size());
      lanes_.push_back(std::move(lane));
    }
  });

  if (options_.force_retain_history) {
    for (Lane& lane : lanes_) lane.retain_history = true;
  }
}

const HamletEngine::Lane* HamletEngine::LaneOf(int exec_id,
                                               TypeId type) const {
  int idx = lane_of_[static_cast<size_t>(exec_id)][static_cast<size_t>(type)];
  return idx < 0 ? nullptr : &lanes_[static_cast<size_t>(idx)];
}

ContextId HamletEngine::OpenContext(int exec_id, Timestamp window_start,
                                    Timestamp window_end) {
  HAMLET_CHECK(members_.Contains(exec_id));
  ContextId id = static_cast<ContextId>(contexts_.size());
  contexts_.emplace_back();
  ContextState& ctx = contexts_.back();
  ctx.id = id;
  ctx.ResetFor(exec_id, num_types_, Exec(exec_id).tmpl.pattern.num_positions(),
               window_start, window_end);
  open_ctxs_[static_cast<size_t>(exec_id)].push_back(id);
  return id;
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
  // Release the per-context vectors eagerly; the slot itself stays (ids are
  // never reused, so stale CtxMap entries in retained nodes cannot alias).
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

HamletEngine::QueryState HamletEngine::ExportQuery(int exec_id) const {
  HAMLET_DCHECK(active_lanes_.empty());
  const size_t q = static_cast<size_t>(exec_id);
  QueryState state;
  state.last_leading = last_leading_[q];
  state.last_boundary_neg = last_boundary_neg_[q];
  Timestamp oldest = std::numeric_limits<Timestamp>::max();
  for (ContextId c : open_ctxs_[q]) {
    state.contexts.push_back(contexts_[static_cast<size_t>(c)]);
    oldest = std::min(oldest, state.contexts.back().window_start);
  }
  if (!edge_queries_.Contains(exec_id)) return state;
  // Only the query's own lanes are ever scanned for it (ScanPredecessors),
  // and only graphlets opened inside one of its windows.
  std::vector<int> scanned;
  for (const SeqElement& el : Exec(exec_id).tmpl.pattern.elements) {
    const int idx = lane_of_[q][static_cast<size_t>(el.type)];
    if (std::find(scanned.begin(), scanned.end(), idx) != scanned.end())
      continue;
    scanned.push_back(idx);
    for (const Graphlet* g : lanes_[static_cast<size_t>(idx)].history) {
      if (g->open_time < oldest) continue;
      QueryState::RetainedGraphlet out;
      out.type = g->type;
      out.open_time = g->open_time;
      for (const GraphletNode& n : g->nodes) {
        if (!n.members.Contains(exec_id)) continue;
        QueryState::Node node;
        node.event = n.event;
        for (ContextId c : open_ctxs_[q]) {
          NodeValue v;
          v.lin = n.EvalLin(store_, c);
          if (n.numeric) v.mm = n.values.Get(c, NodeValue()).mm;
          node.values.push_back(v);
        }
        out.nodes.push_back(std::move(node));
      }
      if (!out.nodes.empty()) state.history.push_back(std::move(out));
    }
  }
  return state;
}

std::vector<ContextId> HamletEngine::ImportQuery(int exec_id,
                                                 QueryState state) {
  HAMLET_CHECK(members_.Contains(exec_id));
  const size_t q = static_cast<size_t>(exec_id);
  last_leading_[q] = state.last_leading;
  last_boundary_neg_[q] = std::move(state.last_boundary_neg);
  std::vector<ContextId> ids;
  for (ContextState& ctx : state.contexts) {
    const ContextId id = static_cast<ContextId>(contexts_.size());
    ctx.id = id;
    ctx.exec_id = exec_id;
    contexts_.push_back(std::move(ctx));
    open_ctxs_[q].push_back(id);
    ids.push_back(id);
  }
  for (QueryState::RetainedGraphlet& rg : state.history) {
    Lane& lane = lanes_[static_cast<size_t>(
        lane_of_[q][static_cast<size_t>(rg.type)])];
    Graphlet* g = graphlet_pool_.Acquire();
    g->type = rg.type;
    g->sharers = QuerySet::Single(exec_id);
    g->open_time = rg.open_time;
    for (QueryState::Node& node : rg.nodes) {
      GraphletNode& n = g->nodes.emplace_back();
      n.event = node.event;
      n.members = QuerySet::Single(exec_id);
      n.numeric = true;
      for (size_t i = 0; i < ids.size(); ++i) {
        const ContextState& ctx = contexts_[static_cast<size_t>(ids[i])];
        if (ctx.window_start <= rg.open_time) {
          n.values.Mut(ids[i]) = node.values[i];
        }
      }
    }
    g->closed_bytes = g->MemoryBytes();
    lane.history.push_back(g);
    lane.history_has_numeric = true;
  }
  return ids;
}

void HamletEngine::OnPaneStart(Timestamp pane_start) {
  const Timestamp cutoff = pane_start - horizon_;
  if (pane_start != pane_start_ || events_this_pane_ > 0) {
    pane_event_counts_.emplace_back(pane_start_, events_this_pane_);
    events_this_pane_ = 0;
    while (!pane_event_counts_.empty() &&
           pane_event_counts_.front().first < cutoff) {
      pane_event_counts_.erase(pane_event_counts_.begin());
    }
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
  if (e.type < 0 || e.type >= num_types_ ||
      !type_relevant_[static_cast<size_t>(e.type)]) {
    HAMLET_DCHECK(e.time > last_time_);
    last_time_ = e.time;
    return;
  }
  QuerySet passes;
  positive_of_type_[static_cast<size_t>(e.type)]
      .Union(negated_of_type_[static_cast<size_t>(e.type)])
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
  HAMLET_DCHECK(e0.type >= 0 && e0.type < num_types_ &&
                type_relevant_[static_cast<size_t>(e0.type)]);

  const QuerySet matched =
      positive_of_type_[static_cast<size_t>(e0.type)].Intersect(run.passes);
  const QuerySet neg_matched =
      negated_of_type_[static_cast<size_t>(e0.type)].Intersect(run.passes);
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
  // activate — so the remaining rows' sweeps would be no-ops), and the pane
  // counter staged the way per-row processing observes it at the burst
  // open, its only mid-run reader (WindowEventsEstimate()).
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
      if (lane.type != e0.type) continue;
      QuerySet m = lane.static_members.Intersect(matched);
      if (m.Empty()) continue;
      AppendRun(lane, batch, run.row_begin + 1, run.row_end, m);
    }
  }
  events_this_pane_ += n - 1;
}

void HamletEngine::ProcessRun(const Event& e, const QuerySet& passes) {
  // Precondition: OnEvent and the run-granular dispatchers drop irrelevant
  // types before calling.
  HAMLET_DCHECK(e.type >= 0 && e.type < num_types_ &&
                type_relevant_[static_cast<size_t>(e.type)]);

  QuerySet matched =
      positive_of_type_[static_cast<size_t>(e.type)].Intersect(passes);
  QuerySet neg_matched =
      negated_of_type_[static_cast<size_t>(e.type)].Intersect(passes);
  QuerySet touched = matched.Union(neg_matched);

  HAMLET_DCHECK(e.time > last_time_);
  last_time_ = e.time;
  ++stats_.events;
  ++events_this_pane_;
  if (touched.Empty()) return;

  CloseForeignLanes(e, touched);
  ApplyNegation(e, neg_matched);

  if (!matched.Empty()) {
    for (Lane& lane : lanes_) {
      if (lane.type != e.type) continue;
      QuerySet m = lane.static_members.Intersect(matched);
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
  const int n = end - begin;
  // Row 0 already went through InsertIntoLane: the burst is open, the
  // sharing decision is made, and every graphlet this run appends to exists.
  // Classify each append sub-target as fast (write-only: provably never
  // scanned, no min/max, and for the shared graphlet not retained -> node
  // materialization and per-row dispatch overhead can be skipped) or slow
  // (replayed row-major below).
  const bool lane_mm = lane.profile.need_min || lane.profile.need_max;
  const bool is_target = lane.type == lane.profile.target_type;
  const AttrId target_attr = lane.profile.target_attr;

  Graphlet* shared = lane.shared_graphlet;
  bool shared_fast = false;
  if (shared != nullptr) {
    const bool divergent = matched.Intersect(shared->sharers) !=
                           shared->sharers;
    shared_fast = shared->mode == PropagationMode::kFastSum && !divergent &&
                  !lane_mm && !lane.retain_history;
  }
  if (shared_fast) {
    const double* vals = (target_attr == Schema::kInvalidId || !is_target)
                             ? nullptr
                             : batch.column(target_attr).data();
    for (int i = begin; i < end; ++i) {
      const double val = vals == nullptr ? 0.0 : vals[i];
      stats_.ops += shared->running_sum.AppendFastSumEvent(
          shared->start_var, shared->entry_var, is_target, val,
          lane.profile.need_sum, lane.profile.need_count_e);
    }
    shared->extra_events += n;
  }

  QuerySet slow_solo;
  matched.Minus(lane.current_shared).ForEach([&](QueryId q) {
    const AggProfile& profile = Profile(q);
    if (edge_queries_.Contains(q) || profile.need_min || profile.need_max) {
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
    const bool q_target = lane.type == profile.target_type;
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
}

void HamletEngine::CloseForeignLanes(const Event& e, const QuerySet& touched) {
  size_t keep = 0;
  for (size_t i = 0; i < active_lanes_.size(); ++i) {
    Lane& lane = lanes_[static_cast<size_t>(active_lanes_[i])];
    if (!lane.active) continue;  // compact stale entries
    if (lane.type != e.type &&
        lane.relevant[static_cast<size_t>(e.type)] &&
        !lane.static_members.Intersect(touched).Empty()) {
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
      if (other.type != lane.type &&
          !other.static_members.Intersect(lane.static_members).Empty()) {
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
}

void HamletEngine::OpenGraphlets(Lane& lane, const Event& e) {
  QuerySet shared;
  if (lane.shareable) {
    ++stats_.bursts_total;
    BurstStats bs;
    bs.k = lane.static_members.Count();
    bs.b = std::max(1.0, lane.avg_burst);
    bs.n = std::max(1.0, WindowEventsEstimate());
    bs.g = std::max(1.0, lane.avg_graphlet);
    bs.sc = lane.avg_sc + 1.0;  // +1: the graphlet-level snapshot itself
    bs.sp = std::max(1.0, lane.avg_sp);
    bs.sc_per_member = lane.avg_sc_member;
    int p = 1;
    int t = 1;
    lane.static_members.ForEach([&](QueryId q) {
      const ExecQuery& eq = Exec(q);
      int pos = eq.tmpl.pattern.PositionOf(lane.type);
      p = std::max(
          p, static_cast<int>(
                 eq.tmpl.pred_positions[static_cast<size_t>(pos)].size()));
      t = std::max(t, eq.tmpl.pattern.num_positions());
    });
    bs.p = p;
    bs.t = t;
    SharingDecision decision = policy_->Decide(lane.member_list, bs);
    shared = decision.shared.Intersect(lane.static_members);
    if (shared.Count() < 2) shared = QuerySet();
  }
  if (lane.shareable) {
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
  Graphlet* g = graphlet_pool_.Acquire();
  g->type = lane.type;
  g->sharers = sharers;
  g->shared = true;
  g->mode = lane.mode;
  g->self_loop = true;
  g->open_time = e.time;
  g->start_var = store_.Create();
  ++stats_.snapshots_created;
  // The entry snapshot x is read by every kFastSum sharer and otherwise by
  // the sharers without edge predicates (count(e) = u + x + R in a
  // per-event-snapshot graphlet); edge-predicate sharers scan instead.
  const bool fast = lane.mode == PropagationMode::kFastSum;
  const QuerySet entry_readers = fast ? sharers : sharers.Minus(edge_queries_);
  if (!entry_readers.Empty()) {
    g->entry_var = store_.Create();
    ++stats_.snapshots_created;
  }
  const bool need_mm = lane.profile.need_min || lane.profile.need_max;
  sharers.ForEach([&](QueryId q) {
    const bool reads_entry = entry_readers.Contains(q);
    for (ContextId c : open_ctxs_[static_cast<size_t>(q)]) {
      const ContextState& ctx = contexts_[static_cast<size_t>(c)];
      LinAgg start;
      start.count = StartValue(q, lane.type, ctx);
      if (start.count != 0.0) store_.Set(g->start_var, c, start);
      if (reads_entry) {
        LinAgg entry = EntryValue(q, lane.type, ctx);
        if (!entry.IsZero()) store_.Set(g->entry_var, c, entry);
      }
      if (need_mm) g->entry_mm.Mut(c) = EntryMinMax(q, lane.type, ctx);
      ++stats_.ops;
    }
  });
  ++stats_.graphlets_opened;
  ++stats_.graphlets_shared;
  return g;
}

Graphlet* HamletEngine::OpenSoloGraphlet(Lane& lane, const Event& e,
                                         int exec_id) {
  Graphlet* g = graphlet_pool_.Acquire();
  g->type = lane.type;
  g->sharers = QuerySet::Single(exec_id);
  g->shared = false;
  g->open_time = e.time;
  const ExecQuery& eq = Exec(exec_id);
  const int pos = eq.tmpl.pattern.PositionOf(lane.type);
  bool self = false;
  for (int pp : eq.tmpl.pred_positions[static_cast<size_t>(pos)])
    self |= pp == pos;
  g->self_loop = self;
  const AggProfile& profile = Profile(exec_id);
  const bool need_mm = profile.need_min || profile.need_max;
  for (ContextId c : open_ctxs_[static_cast<size_t>(exec_id)]) {
    const ContextState& ctx = contexts_[static_cast<size_t>(c)];
    g->solo_start.Mut(c) = StartValue(exec_id, lane.type, ctx);
    g->solo_entry.Mut(c) = EntryValue(exec_id, lane.type, ctx);
    if (need_mm) g->entry_mm.Mut(c) = EntryMinMax(exec_id, lane.type, ctx);
    ++stats_.ops;
  }
  ++stats_.graphlets_opened;
  lane.solo_graphlets.emplace_back(exec_id, g);
  return g;
}

NodeValue HamletEngine::ScanPredecessors(int exec_id, const Event& e,
                                         ContextId ctx_id,
                                         const ContextState& ctx,
                                         const Lane& own_lane,
                                         bool exclude_own_type) {
  const ExecQuery& eq = Exec(exec_id);
  const int pos = eq.tmpl.pattern.PositionOf(e.type);
  NodeValue out;
  auto scan_graphlet = [&](const Graphlet& g, Timestamp blocked_after) {
    for (const GraphletNode& n : g.nodes) {
      ++stats_.ops;
      if (!n.members.Contains(exec_id)) continue;
      if (n.event.time <= blocked_after) continue;
      if (!PassesEdgePredicates(eq.edge_predicates, n.event, e)) continue;
      out.lin.Add(n.EvalLin(store_, ctx_id));
      if (n.numeric) out.mm.Fold(n.values.Get(ctx_id, NodeValue()).mm);
    }
  };
  for (int pp : eq.tmpl.pred_positions[static_cast<size_t>(pos)]) {
    const TypeId ptype =
        eq.tmpl.pattern.elements[static_cast<size_t>(pp)].type;
    if (exclude_own_type && ptype == e.type) continue;
    const Timestamp blocked_after =
        (pp == pos - 1)
            ? last_boundary_neg_[static_cast<size_t>(exec_id)]
                                [static_cast<size_t>(pos)]
            : -1;
    const Lane* lane2 = ptype == own_lane.type ? &own_lane
                                               : LaneOf(exec_id, ptype);
    if (lane2 == nullptr) continue;
    for (const Graphlet* g : lane2->history) {
      if (g->open_time >= ctx.window_start) scan_graphlet(*g, blocked_after);
    }
    if (lane2->shared_graphlet)
      scan_graphlet(*lane2->shared_graphlet, blocked_after);
    for (const auto& [id, g] : lane2->solo_graphlets) {
      if (id == exec_id) scan_graphlet(*g, blocked_after);
    }
  }
  return out;
}

void HamletEngine::AppendShared(Lane& lane, Graphlet& g, const Event& e,
                                const QuerySet& matched) {
  const QuerySet members = matched.Intersect(g.sharers);
  const bool need_mm = lane.profile.need_min || lane.profile.need_max;
  const bool divergent = members != g.sharers;
  const double val = lane.profile.target_attr == Schema::kInvalidId
                         ? 0.0
                         : (e.type == lane.profile.target_type
                                ? e.attr(lane.profile.target_attr)
                                : 0.0);
  const bool is_target = e.type == lane.profile.target_type;

  if (g.mode == PropagationMode::kFastSum && !divergent && !need_mm &&
      !lane.retain_history) {
    // Node-free append: nothing will ever read this event's node (no
    // scanner reaches a !retain_history lane, no min/max fold), so fold its
    // count(e) = u + x + R straight into the running sum. Keeping the
    // per-event path node-free here is what makes engine memory a function
    // of burst structure alone, independent of ingestion chunking — the
    // run path (AppendRun) applies the same rule for rows past the head.
    stats_.ops += g.running_sum.AppendFastSumEvent(
        g.start_var, g.entry_var, is_target, val, lane.profile.need_sum,
        lane.profile.need_count_e);
    ++g.extra_events;
    return;
  }

  GraphletNode node;
  node.event = e;
  node.members = members;

  if (g.mode == PropagationMode::kFastSum && !divergent) {
    // count(e) = u + x + R (Algorithm 1, Line 18 — shared propagation).
    node.expr.AddVar(g.start_var, 1.0);
    node.expr.AddVar(g.entry_var, 1.0);
    node.expr.AddExpr(g.running_sum);
    if (is_target)
      node.expr.ApplyTargetEvent(val, lane.profile.need_sum,
                                 lane.profile.need_count_e);
    stats_.ops += node.expr.num_terms();
  } else if (g.mode == PropagationMode::kSharedScan && !divergent) {
    // Shared scan: same-type predecessor validity is query-agnostic
    // (identical edge predicates), so ONE pass serves every sharer at once.
    // Cross-type predecessors stay per query and ride one event-level
    // snapshot. With equality-only predicates the same-type side uses
    // per-key running sums (O(terms) per event); otherwise it scans the
    // stored nodes.
    node.expr.AddVar(g.start_var, 1.0);
    if (lane.scan_has_cross || lane.history_has_numeric) {
      SnapshotId z = store_.Create();
      ++stats_.snapshots_created;
      ++stats_.event_snapshots;
      g.sharers.Intersect(node.members).ForEach([&](QueryId q) {
        for (ContextId c : open_ctxs_[static_cast<size_t>(q)]) {
          const ContextState& cs = contexts_[static_cast<size_t>(c)];
          NodeValue scanned = ScanPredecessors(q, e, c, cs, lane,
                                               /*exclude_own_type=*/true);
          // Solo-era (numeric) own-type nodes are invisible to the symbolic
          // scan below; fold them into the per-query snapshot.
          if (lane.history_has_numeric) {
            for (const Graphlet* gg : lane.history) {
              if (gg->open_time < cs.window_start) continue;
              for (const GraphletNode& n : gg->nodes) {
                ++stats_.ops;
                if (!n.numeric || !n.members.Contains(q)) continue;
                if (!PassesEdgePredicates(Exec(q).edge_predicates, n.event,
                                          e))
                  continue;
                scanned.lin.Add(n.values.Get(c, NodeValue()).lin);
              }
            }
          }
          if (!scanned.lin.IsZero()) store_.Set(z, c, scanned.lin);
        }
      });
      node.expr.AddVar(z, 1.0);
    }
    if (lane.scan_all_equality) {
      // Equality partition key of this event.
      std::vector<double> key;
      key.reserve(lane.shared_edge_preds->size());
      for (const EdgePredicate& p : *lane.shared_edge_preds)
        key.push_back(e.attr(p.attr));
      // Lazy per-key entry variable covering closed graphlets' same-key
      // contributions (exact: equality is transitive).
      SnapshotId x_key = -1;
      for (const auto& [k, var] : g.key_entry) {
        if (k == key) x_key = var;
      }
      if (x_key < 0) {
        x_key = store_.Create();
        ++stats_.snapshots_created;
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
        node.expr.ApplyTargetEvent(val, lane.profile.need_sum,
                                   lane.profile.need_count_e);
      running->AddExpr(node.expr);
      stats_.ops += node.expr.num_terms();
    } else {
      auto scan = [&](const Graphlet& gg) {
        for (const GraphletNode& n : gg.nodes) {
          ++stats_.ops;
          if (n.numeric) continue;  // folded into the per-query snapshot
          // Partial-membership nodes went through the event-snapshot path,
          // so their expressions already evaluate to 0 for non-member
          // contexts.
          if (!PassesEdgePredicates(*lane.shared_edge_preds, n.event, e))
            continue;
          node.expr.AddExpr(n.expr);
        }
      };
      for (const Graphlet* gg : lane.history) scan(*gg);
      scan(g);
      if (is_target)
        node.expr.ApplyTargetEvent(val, lane.profile.need_sum,
                                   lane.profile.need_count_e);
      stats_.ops += node.expr.num_terms();
    }
  } else {
    // Event-level snapshot (Algorithm 1, Lines 19-20 / Definition 9):
    // evaluate per (query, context) and publish as a fresh variable. Only
    // edge-predicate sharers scan stored nodes; a plain sharer of a
    // per-event-snapshot graphlet takes count(e) = u + x + R with R kept
    // per context in solo_sums, so its share of the snapshot is O(1).
    SnapshotId z = store_.Create();
    ++stats_.snapshots_created;
    ++stats_.event_snapshots;
    g.sharers.Intersect(node.members).ForEach([&](QueryId q) {
      const bool plain = g.mode == PropagationMode::kPerEventSnapshot &&
                         !edge_queries_.Contains(q);
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
          NodeValue scanned = ScanPredecessors(q, e, c, cs, lane);
          lin = scanned.lin;
          lin.count += StartValue(q, lane.type, cs);
        }
        if (is_target) {
          if (lane.profile.need_count_e) lin.count_e += lin.count;
          if (lane.profile.need_sum) lin.sum += val * lin.count;
        }
        store_.Set(z, c, lin);
        if (plain) g.solo_sums.Mut(c).Add(lin);
      }
    });
    node.expr.AddVar(z, 1.0);
    // In equality-partitioned scan lanes, divergent nodes must still feed
    // their key's running sum so later same-key events see them.
    if (g.mode == PropagationMode::kSharedScan && lane.scan_all_equality) {
      std::vector<double> key;
      for (const EdgePredicate& p : *lane.shared_edge_preds)
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
  g.nodes.push_back(std::move(node));
  // Snapshot-attribution statistics for Theorem 4.1's pruning: queries on
  // the minority side of a divergence "introduce" the snapshot.
  if (divergent) {
    for (size_t i = 0; i < lane.member_list.size(); ++i) {
      int q = lane.member_list[i];
      if (!g.sharers.Contains(q)) continue;
      if (!node.members.Contains(q)) lane.avg_sc_member[i] += 1.0;
    }
  } else if (g.mode == PropagationMode::kPerEventSnapshot) {
    for (size_t i = 0; i < lane.member_list.size(); ++i) {
      int q = lane.member_list[i];
      if (g.sharers.Contains(q) && Exec(q).has_edge_predicates())
        lane.avg_sc_member[i] += 1.0;
    }
  }
}

void HamletEngine::FoldNodeMinMax(Lane& lane, Graphlet& g,
                                  const GraphletNode& node, const Event& e) {
  const bool is_target = e.type == lane.profile.target_type;
  const double val = lane.profile.target_attr == Schema::kInvalidId
                         ? 0.0
                         : (is_target ? e.attr(lane.profile.target_attr)
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
  const bool scans = edge_queries_.Contains(exec_id);
  const bool need_mm = profile.need_min || profile.need_max;
  const bool is_target = e.type == profile.target_type;
  const double val =
      profile.target_attr == Schema::kInvalidId
          ? 0.0
          : (is_target ? e.attr(profile.target_attr) : 0.0);

  if (!scans) {
    // Node-free append, mirroring AppendShared's fast branch: only an
    // edge-predicate query's scan reads solo nodes (its own), so a plain
    // query's per-context values land in solo_sums (and run_mm) only, on
    // retained lanes too. AppendRun's hoisted solo loop computes the same
    // FP sequence for the min/max-free case.
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

  GraphletNode node;
  node.event = e;
  node.members = QuerySet::Single(exec_id);
  node.numeric = true;
  for (ContextId c : open_ctxs_[static_cast<size_t>(exec_id)]) {
    const ContextState& ctx = contexts_[static_cast<size_t>(c)];
    NodeValue v = ScanPredecessors(exec_id, e, c, ctx, lane);
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
    node.values.Mut(c) = v;
  }
  g.nodes.push_back(std::move(node));
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
    for (ContextId c : open_ctxs_[static_cast<size_t>(q)]) {
      ContextState& ctx = contexts_[static_cast<size_t>(c)];
      LinAgg v = g.shared ? g.running_sum.Eval(store_, c)
                          : g.solo_sums.Get(c, LinAgg());
      MinMax mm = g.run_mm.Get(c, MinMax());
      AddToContext(ctx, q, g.type, v, mm);
      stats_.ops += g.shared ? g.running_sum.num_terms() : 1;
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
  const double d = options_.stats_decay;
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
    if (lane.retain_history) {
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
    if (lane.retain_history) {
      if (!g->nodes.empty()) lane.history_has_numeric = true;
      g->closed_bytes = g->MemoryBytes();
      lane.history.push_back(g);
    } else {
      graphlet_pool_.Release(g);
    }
  }
  lane.solo_graphlets.clear();
  if (had_any) {
    // Decay the per-member snapshot attribution into a per-burst average.
    const double d = options_.stats_decay;
    double sc_total = 0.0;
    for (double& v : lane.avg_sc_member) {
      sc_total += v;
      v *= (1 - d);
    }
    lane.avg_sc = (1 - d) * lane.avg_sc + d * sc_total;
  }
}

double HamletEngine::WindowEventsEstimate() const {
  double n = static_cast<double>(events_this_pane_);
  for (const auto& [start, count] : pane_event_counts_) {
    (void)start;
    n += static_cast<double>(count);
  }
  return n;
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
  for (const ContextState& ctx : contexts_) {
    if (ctx.open) bytes += ctx.MemoryBytes();
  }
  return bytes;
}

}  // namespace hamlet
