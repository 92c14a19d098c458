#include "src/runtime/shard_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <tuple>
#include <utility>

#include "src/baselines/sharon_engine.h"
#include "src/baselines/two_step_engine.h"
#include "src/greta/greta_engine.h"
#include "src/query/run_segmenter.h"

namespace hamlet {

void AddStats(HamletStats& into, const HamletStats& s) {
  into.events += s.events;
  into.bursts_total += s.bursts_total;
  into.bursts_shared += s.bursts_shared;
  into.graphlets_opened += s.graphlets_opened;
  into.graphlets_shared += s.graphlets_shared;
  into.snapshots_created += s.snapshots_created;
  into.event_snapshots += s.event_snapshots;
  into.divergent_events += s.divergent_events;
  into.splits += s.splits;
  into.merges += s.merges;
  into.ops += s.ops;
}

/// A compiled plan generation plus what derives from it alone, immutable
/// once built. The engine's runtime runs one; a per-window engine slot
/// keeps the one it was opened under alive across hand-offs.
struct ShardEngine::PlanEpoch {
  QueryLifecycle::Epoch compiled;
  const WorkloadPlan* plan = nullptr;
  /// Per exec query: which event types its pattern mentions. Drives latency
  /// attribution — only events a query can react to stamp its windows'
  /// arrival clocks.
  std::vector<std::vector<bool>> exec_type_masks;
  /// A component's exec queries with one window spec: two-step and SHARON
  /// run one engine per (cohort, window instance).
  struct Cohort {
    WindowSpec spec;
    QuerySet members;
    /// Union of the members' exec type masks.
    std::vector<bool> type_mask;
  };
  std::vector<Cohort> cohorts;

  /// Whether exec query `exec` opens the window starting at `ws`.
  bool Opens(int exec, Timestamp ws) const {
    const QueryId source = plan->exec_queries[static_cast<size_t>(exec)].source;
    return compiled->bounds[static_cast<size_t>(source)].Contains(ws);
  }
  /// The lifecycle's stable id of `exec`'s query.
  int64_t QueryIdOf(int exec) const {
    const QueryId source = plan->exec_queries[static_cast<size_t>(exec)].source;
    return compiled->query_ids[static_cast<size_t>(source)];
  }
};

/// One open window instance inside a group runner.
struct ShardEngine::WindowSlot {
  /// The epoch `owner` indexes: the runtime's for a HAMLET context (re-keyed
  /// at every hand-off), the one a per-window engine was built on otherwise.
  std::shared_ptr<const PlanEpoch> epoch;
  /// Exec id (HAMLET/GRETA kinds) or cohort index (two-step/SHARON).
  int owner = -1;
  Timestamp ws = 0;
  Timestamp we = 0;
  ContextId ctx = -1;
  double last_arrival_wall = 0.0;
  std::unique_ptr<GretaEngine> greta;
  std::unique_ptr<TwoStepEngine> two_step;
  std::unique_ptr<SharonEngine> sharon;

  bool cohort() const { return two_step != nullptr || sharon != nullptr; }
  /// Event types the window's queries react to.
  const std::vector<bool>& types() const {
    return cohort() ? epoch->cohorts[static_cast<size_t>(owner)].type_mask
                    : epoch->exec_type_masks[static_cast<size_t>(owner)];
  }
  /// Calls fn(exec) for every query this window emits for.
  template <typename Fn>
  void ForEachEmitter(Fn&& fn) const {
    if (!cohort()) {
      fn(owner);
      return;
    }
    epoch->cohorts[static_cast<size_t>(owner)].members.ForEach(
        [&](QueryId q) {
          if (epoch->Opens(q, ws)) fn(q);
        });
  }
};

struct ShardEngine::Component {
  QuerySet members;
  AttrId group_by = Schema::kInvalidId;
  /// Relevant event types: one of them creates a new group key's runner.
  std::vector<bool> type_mask;
  /// type_mask plus the types of per-window engines carried in from an
  /// older epoch whose queries now live in other components: runs of these
  /// types still reach the runners that hold them.
  std::vector<bool> dispatch_mask;
  /// Largest WITHIN of the members and carried windows — once a pane
  /// boundary passes a group's last event by this much, no window can still
  /// hold any of its events (drives RunConfig::evict_idle_groups).
  Timestamp max_within = 0;
  /// Indices into the epoch's cohorts.
  std::vector<int> cohorts;
  std::unique_ptr<SharingPolicy> policy;
  std::map<int64_t, std::unique_ptr<GroupRunner>> groups;
};

struct ShardEngine::GroupRunner {
  Component* comp = nullptr;
  int64_t group_key = 0;
  /// Time of the group's last relevant event (seeded by the creating
  /// event); idle eviction compares pane boundaries against it.
  Timestamp last_event_time = 0;
  /// The epoch `hamlet` reads its plan from (a stolen runner keeps its
  /// victim's copy, identical to the thief's).
  std::shared_ptr<const PlanEpoch> epoch;
  std::unique_ptr<HamletEngine> hamlet;
  std::vector<WindowSlot> windows;
};

/// The running epoch (see the declaration in shard_engine.h).
struct ShardEngine::Runtime {
  std::shared_ptr<const PlanEpoch> epoch;
  const WorkloadPlan* plan = nullptr;
  /// All exec query ids — the starting pass-set every row narrows down.
  QuerySet all_execs;
  /// Reused columnar staging (SoA batch + per-query selection bitmaps);
  /// capacities persist across pushes so staging allocates only while a
  /// batch is growing past all previous sizes.
  EventBatch batch_scratch;
  BatchSelection selection;
  /// Staged run list over batch_scratch; capacity reused across batches
  /// like the staging scratch above.
  std::vector<RunSpan> run_spans;
  /// The components' distinct group-by attributes: SegmentRuns cuts runs
  /// at each one's key changes, so every run reaches one runner per
  /// component.
  std::vector<AttrId> key_attrs;
  /// Every exec query groups by key_attrs[0]: batches are staged
  /// group-major (DispatchRuns) in the order this computes.
  bool group_major = false;
  GroupMajorOrder group_major_order;
  std::vector<std::unique_ptr<Component>> components;
  /// The component of each exec query.
  std::vector<Component*> component_of;
  Timestamp pane_start = 0;
  bool pane_started = false;
};

ShardEngine::ShardEngine(QueryLifecycle::Epoch opening,
                         const RunConfig& config, EmissionSink* sink)
    : config_(config), sink_(sink) {
  rt_ = BuildRuntime(std::move(opening));
}

std::unique_ptr<ShardEngine::Runtime> ShardEngine::BuildRuntime(
    QueryLifecycle::Epoch compiled) {
  const WorkloadPlan& plan = *compiled->plan;
  auto epoch = std::make_shared<PlanEpoch>();
  epoch->compiled = std::move(compiled);
  epoch->plan = &plan;
  auto rt = std::make_unique<Runtime>();
  rt->plan = &plan;
  // Connected components over share groups (union-find).
  const int n = plan.num_exec();
  std::vector<int> parent(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) parent[static_cast<size_t>(i)] = i;
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const ShareGroup& g : plan.share_groups) {
    int root = -1;
    g.members.ForEach([&](QueryId q) {
      if (root < 0) {
        root = find(q);
      } else {
        parent[static_cast<size_t>(find(q))] = root;
      }
    });
  }
  std::map<int, Component*> by_root;
  rt->component_of.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    int root = find(i);
    auto it = by_root.find(root);
    Component* comp;
    if (it == by_root.end()) {
      rt->components.push_back(std::make_unique<Component>());
      comp = rt->components.back().get();
      by_root[root] = comp;
    } else {
      comp = it->second;
    }
    comp->members.Insert(i);
    rt->component_of[static_cast<size_t>(i)] = comp;
  }
  rt->all_execs = QuerySet::FirstN(n);
  AddGroupByAttrs(plan, &rt->key_attrs);
  rt->group_major =
      rt->key_attrs.size() == 1 &&
      std::all_of(plan.exec_queries.begin(), plan.exec_queries.end(),
                  [](const ExecQuery& eq) {
                    return eq.group_by != Schema::kInvalidId;
                  });
  rt->batch_scratch.ResetSchema(plan.workload->schema()->num_attrs());
  const int num_types = plan.workload->schema()->num_types();
  auto& exec_masks = epoch->exec_type_masks;
  exec_masks.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    exec_masks[static_cast<size_t>(i)].assign(static_cast<size_t>(num_types),
                                              false);
    for (TypeId t :
         plan.exec_queries[static_cast<size_t>(i)].tmpl.pattern.AllTypes()) {
      exec_masks[static_cast<size_t>(i)][static_cast<size_t>(t)] = true;
    }
  }
  auto add_types = [](std::vector<bool>& into, const std::vector<bool>& from) {
    for (size_t t = 0; t < from.size(); ++t) {
      if (from[t]) into[t] = true;
    }
  };
  for (auto& comp : rt->components) {
    comp->type_mask.assign(static_cast<size_t>(num_types), false);
    comp->members.ForEach([&](QueryId q) {
      const ExecQuery& eq = plan.exec_queries[static_cast<size_t>(q)];
      // Members of a component share the group-by attribute (Definition 5).
      comp->group_by = eq.group_by;
      comp->max_within = std::max(comp->max_within, eq.window.within);
      const std::vector<bool>& qm = exec_masks[static_cast<size_t>(q)];
      add_types(comp->type_mask, qm);
      bool found = false;
      for (int c : comp->cohorts) {
        PlanEpoch::Cohort& cohort = epoch->cohorts[static_cast<size_t>(c)];
        if (cohort.spec == eq.window) {
          cohort.members.Insert(q);
          add_types(cohort.type_mask, qm);
          found = true;
        }
      }
      if (!found) {
        comp->cohorts.push_back(static_cast<int>(epoch->cohorts.size()));
        epoch->cohorts.push_back({eq.window, QuerySet::Single(q), qm});
      }
    });
    comp->dispatch_mask = comp->type_mask;
    switch (config_.kind) {
      case EngineKind::kHamletDynamic:
        comp->policy =
            std::make_unique<DynamicBenefitPolicy>(config_.cost_variant);
        break;
      case EngineKind::kHamletStatic:
        comp->policy = std::make_unique<AlwaysSharePolicy>();
        break;
      default:
        comp->policy = std::make_unique<NeverSharePolicy>();
        break;
    }
  }
  rt->epoch = std::move(epoch);
  return rt;
}

ShardEngine::~ShardEngine() = default;

void ShardEngine::OpenDueWindows(Runtime& rt, GroupRunner& runner,
                                 Timestamp pane_start, bool retroactive) {
  Component& comp = *runner.comp;
  const PlanEpoch& ep = *rt.epoch;
  const bool hamlet_kind = runner.hamlet != nullptr;
  const bool cohort_kind = config_.kind == EngineKind::kTwoStep ||
                           config_.kind == EngineKind::kSharon;
  auto open_one = [&](int owner, Timestamp ws, Timestamp within) {
    WindowSlot slot;
    if (cohort_kind) {
      // Only the members whose bounds hold ws run here: a query added later
      // or already draining must not weigh on the window's engine.
      QuerySet members;
      ep.cohorts[static_cast<size_t>(owner)].members.ForEach([&](QueryId q) {
        if (ep.Opens(q, ws)) members.Insert(q);
      });
      if (members.Empty()) return;
      if (config_.kind == EngineKind::kTwoStep) {
        slot.two_step = std::make_unique<TwoStepEngine>(
            *rt.plan, members, config_.two_step_budget);
      } else {
        slot.sharon = std::make_unique<SharonEngine>(
            *rt.plan, members, config_.sharon_max_length);
      }
    } else {
      if (!ep.Opens(owner, ws)) return;
      if (hamlet_kind) {
        slot.ctx = runner.hamlet->OpenContext(owner, ws, ws + within);
      } else {
        slot.greta = std::make_unique<GretaEngine>(
            rt.plan->exec_queries[static_cast<size_t>(owner)],
            config_.kind == EngineKind::kGretaPrefix ? GretaMode::kPrefixSum
                                                     : GretaMode::kGraph);
      }
    }
    slot.epoch = rt.epoch;
    slot.owner = owner;
    slot.ws = ws;
    slot.we = ws + within;
    slot.last_arrival_wall = ClockNow(config_.clock_override);
    runner.windows.push_back(std::move(slot));
  };
  auto open_for = [&](int owner, const WindowSpec& spec) {
    if (retroactive) {
      // New runner: open every slide-aligned instance covering this pane.
      // The group had no earlier events, so the retroactive spans are empty
      // and the counts exact.
      Timestamp first = (pane_start / spec.slide) * spec.slide;
      for (Timestamp ws = first; ws > pane_start - spec.within && ws >= 0;
           ws -= spec.slide) {
        open_one(owner, ws, spec.within);
      }
    } else if (pane_start % spec.slide == 0) {
      open_one(owner, pane_start, spec.within);
    }
  };
  if (cohort_kind) {
    for (int c : comp.cohorts)
      open_for(c, ep.cohorts[static_cast<size_t>(c)].spec);
  } else {
    comp.members.ForEach([&](QueryId q) {
      open_for(q, rt.plan->exec_queries[static_cast<size_t>(q)].window);
    });
  }
}

void ShardEngine::EmitExecValue(const PlanEpoch& ep, int exec_id,
                                int64_t group_key, Timestamp window_start,
                                Timestamp window_end, double value,
                                double arrival_wall) {
  // Belt-and-braces query bound: windows outside it are never opened, so
  // this only fires if that invariant breaks.
  if (!ep.Opens(exec_id, window_start)) return;
  const ExecQuery& eq = ep.plan->exec_queries[static_cast<size_t>(exec_id)];
  const CompositionRule& rule =
      ep.plan->compositions[static_cast<size_t>(eq.source)];
  double final_value = value;
  if (rule.kind != CompositionKind::kSingle) {
    // Keyed by the lifecycle's query id: the branches of one window may
    // close under different epochs, whose QueryIds differ.
    auto key = std::make_tuple(ep.QueryIdOf(exec_id), group_key, window_start);
    auto& [end, values] = pending_compositions_[key];
    end = window_end;
    values.resize(rule.exec_ids.size(),
                  std::numeric_limits<double>::quiet_NaN());
    values[static_cast<size_t>(eq.branch)] = value;
    for (double v : values) {
      if (std::isnan(v)) return;  // waiting for the other branch
    }
    final_value = ComposeQueryValue(rule, values);
    pending_compositions_.erase(key);
  }
  const double latency = ClockNow(config_.clock_override) - arrival_wall;
  latency_sum_ += latency;
  latency_max_ = std::max(latency_max_, latency);
  ++latency_count_;
  if (sink_ != nullptr) {
    Emission emission;
    emission.query = eq.source;
    emission.group_key = group_key;
    emission.window_start = window_start;
    emission.window_end = window_end;
    emission.value = final_value;
    emission.query_name = ep.plan->workload->query(eq.source).name;
    sink_->OnEmission(emission);
  }
}

void ShardEngine::CloseExpiredWindows(GroupRunner& runner, Timestamp now) {
  for (size_t i = 0; i < runner.windows.size();) {
    WindowSlot& w = runner.windows[i];
    if (w.we > now) {
      ++i;
      continue;
    }
    const PlanEpoch& ep = *w.epoch;
    if (runner.hamlet != nullptr) {
      ContextResult r = runner.hamlet->CloseContext(w.ctx);
      EmitExecValue(ep, w.owner, runner.group_key, w.ws, w.we, r.value,
                    w.last_arrival_wall);
    } else if (w.greta != nullptr) {
      EmitExecValue(ep, w.owner, runner.group_key, w.ws, w.we,
                    w.greta->Value(), w.last_arrival_wall);
    } else if (w.two_step != nullptr) {
      Status s = w.two_step->Finish();
      if (!s.ok()) {
        ++dnf_windows_;
      } else {
        w.ForEachEmitter([&](int q) {
          EmitExecValue(ep, q, runner.group_key, w.ws, w.we,
                        w.two_step->Value(q), w.last_arrival_wall);
        });
      }
    } else if (w.sharon != nullptr) {
      w.ForEachEmitter([&](int q) {
        if (!w.sharon->Supported(q)) return;
        EmitExecValue(ep, q, runner.group_key, w.ws, w.we, w.sharon->Value(q),
                      w.last_arrival_wall);
      });
    }
    runner.windows[i] = std::move(runner.windows.back());
    runner.windows.pop_back();
  }
}

void ShardEngine::EvictDeadCompositions(Timestamp boundary) {
  for (auto it = pending_compositions_.begin();
       it != pending_compositions_.end();) {
    // Once the entry's window closed (all branch engines emitted or gave up
    // at `boundary`), a still-pending entry has a branch that will never
    // arrive — DNF'd two-step windows and SHARON-unsupported queries emit
    // nothing.
    if (it->second.first <= boundary) {
      ++evicted_compositions_;
      it = pending_compositions_.erase(it);
    } else {
      ++it;
    }
  }
}

int64_t ShardEngine::CurrentMemory() const {
  int64_t bytes = 0;
  for (const auto& comp : rt_->components) {
    for (const auto& [key, runner] : comp->groups) {
      if (runner->hamlet) bytes += runner->hamlet->MemoryBytes();
      for (const WindowSlot& w : runner->windows) {
        if (w.greta) bytes += w.greta->MemoryBytes();
        if (w.two_step) bytes += w.two_step->MemoryBytes();
        if (w.sharon) bytes += w.sharon->MemoryBytes();
      }
    }
  }
  // Pending branch values awaiting OR/AND composition are runtime state
  // too; charging them here is what makes a composition leak visible in
  // peak_memory_bytes.
  for (const auto& [key, entry] : pending_compositions_) {
    bytes += static_cast<int64_t>(sizeof(key) + sizeof(entry) +
                                  entry.second.capacity() * sizeof(double));
  }
  return bytes;
}

void ShardEngine::AdvancePaneTo(Timestamp time) {
  for (;;) {
    Runtime& rt = *rt_;
    const Timestamp pane = rt.plan->pane_size;
    const Timestamp boundary =
        rt.pane_started ? rt.pane_start + pane : (time / pane) * pane;
    if (rt.pane_started && boundary > time) return;
    // Idle-group eviction applies only at boundaries supported by observed
    // event time (committed events/watermarks). The synthetic Close flush
    // sweeps past real time and must not evict: a shard whose flush horizon
    // is local would otherwise evict at different boundaries than the
    // single-threaded reference, changing which empty windows get dropped.
    const Timestamp evict_horizon =
        config_.evict_idle_groups && gate_.any_seen()
            ? (gate_.max_seen() / pane) * pane
            : Timestamp{-1};
    // Sample before closures so full windows count toward the peak.
    peak_memory_ = std::max(peak_memory_, CurrentMemory());
    for (auto& comp : rt.components) {
      for (auto it = comp->groups.begin(); it != comp->groups.end();) {
        GroupRunner& runner = *it->second;
        if (runner.hamlet && rt.pane_started) runner.hamlet->OnPaneEnd();
        CloseExpiredWindows(runner, boundary);
        // Evict BEFORE this boundary's windows open: every window that
        // could hold any of the group's events has closed above (boundary
        // >= last_event + max WITHIN), so all remaining and future state
        // could only produce empty-window results. A later event recreates
        // the runner with retroactive windows that provably contain no
        // evicted events (events are strictly increasing past the
        // boundary), so eviction timing is deterministic in event time.
        if (evict_horizon >= 0 && boundary <= evict_horizon &&
            boundary >= runner.last_event_time + comp->max_within) {
          if (runner.hamlet) AddStats(retired_stats_, runner.hamlet->stats());
          ++evicted_idle_groups_;
          it = comp->groups.erase(it);
          continue;
        }
        ++it;
      }
    }
    // All engines for windows ending at `boundary` have now emitted or
    // declined; whatever composition entries remain for them are dead.
    EvictDeadCompositions(boundary);
    // A new epoch takes over between the closes and the opens: every
    // graphlet is folded there, so the open windows' state is numeric.
    if (!pending_.empty() && pending_.front().at <= boundary) {
      QueryLifecycle::Epoch next = std::move(pending_.front().epoch);
      pending_.erase(pending_.begin());
      HandOff(std::move(next));
    }
    Runtime& cur = *rt_;
    for (auto& comp : cur.components) {
      for (auto& [key, runner] : comp->groups) {
        OpenDueWindows(cur, *runner, boundary, /*retroactive=*/false);
        if (runner->hamlet) runner->hamlet->OnPaneStart(boundary);
      }
    }
    cur.pane_start = boundary;
    cur.pane_started = true;
    peak_memory_ = std::max(peak_memory_, CurrentMemory());
  }
}

std::unique_ptr<ShardEngine::GroupRunner> ShardEngine::MakeRunner(
    Runtime& rt, Component& comp, int64_t key) {
  auto runner = std::make_unique<GroupRunner>();
  runner->comp = &comp;
  runner->group_key = key;
  if (config_.kind == EngineKind::kHamletDynamic ||
      config_.kind == EngineKind::kHamletStatic ||
      config_.kind == EngineKind::kHamletNoShare) {
    runner->epoch = rt.epoch;
    runner->hamlet = std::make_unique<HamletEngine>(*rt.plan, comp.members,
                                                    comp.policy.get());
  }
  return runner;
}

ShardEngine::GroupRunner& ShardEngine::NewGroupRunner(Runtime& rt,
                                                      Component& comp,
                                                      int64_t key) {
  std::unique_ptr<GroupRunner>& slot = comp.groups[key];
  slot = MakeRunner(rt, comp, key);
  GroupRunner& runner = *slot;
  OpenDueWindows(rt, runner, rt.pane_start, /*retroactive=*/true);
  if (runner.hamlet) runner.hamlet->OnPaneStart(rt.pane_start);
  return runner;
}

void ShardEngine::HandOff(QueryLifecycle::Epoch compiled) {
  std::unique_ptr<Runtime> next = BuildRuntime(std::move(compiled));
  const PlanEpoch& to = *next->epoch;
  std::map<int64_t, QueryId> query_in_next;
  for (size_t q = 0; q < to.compiled->query_ids.size(); ++q) {
    query_in_next[to.compiled->query_ids[q]] = static_cast<QueryId>(q);
  }
  // The next epoch's exec id for exec `exec` of `ep`; -1 once its query is
  // dropped (it had drained).
  auto exec_in_next = [&](const PlanEpoch& ep, int exec) {
    auto it = query_in_next.find(ep.QueryIdOf(exec));
    if (it == query_in_next.end()) return -1;
    const int branch = ep.plan->exec_queries[static_cast<size_t>(exec)].branch;
    return to.plan->compositions[static_cast<size_t>(it->second)]
        .exec_ids[static_cast<size_t>(branch)];
  };
  auto runner_in = [&](Component& comp, const GroupRunner& from)
      -> GroupRunner& {
    std::unique_ptr<GroupRunner>& runner = comp.groups[from.group_key];
    if (runner == nullptr) runner = MakeRunner(*next, comp, from.group_key);
    runner->last_event_time =
        std::max(runner->last_event_time, from.last_event_time);
    return *runner;
  };
  const Runtime& old = *rt_;
  for (const auto& comp : old.components) {
    for (const auto& [key, runner] : comp->groups) {
      // Every component holding one of this component's queries keeps the
      // group key running, so its next windows open as they would have.
      comp->members.ForEach([&](QueryId q) {
        const int nq = exec_in_next(*old.epoch, q);
        if (nq >= 0) runner_in(*next->component_of[static_cast<size_t>(nq)],
                               *runner);
      });
      if (runner->hamlet) {
        // Contexts move query by query through the engines' export/import;
        // a stolen runner's engine numbers exec queries like old.epoch.
        AddStats(retired_stats_, runner->hamlet->stats());
        comp->members.ForEach([&](QueryId q) {
          HamletEngine::QueryState state = runner->hamlet->ExportQuery(q);
          const int nq = exec_in_next(*old.epoch, q);
          if (nq < 0) {
            HAMLET_DCHECK(state.contexts.empty());
            return;
          }
          std::vector<ContextId> from_ids;
          for (const ContextState& ctx : state.contexts) {
            from_ids.push_back(ctx.id);
          }
          GroupRunner& dst =
              *next->component_of[static_cast<size_t>(nq)]->groups[key];
          const std::vector<ContextId> ids =
              dst.hamlet->ImportQuery(nq, std::move(state));
          for (WindowSlot& w : runner->windows) {
            if (w.owner != q) continue;
            // The moved-from slot keeps owner q, so no later query's pass
            // picks it up again.
            WindowSlot& moved = dst.windows.emplace_back(std::move(w));
            const auto i =
                std::find(from_ids.begin(), from_ids.end(), moved.ctx) -
                from_ids.begin();
            moved.epoch = next->epoch;
            moved.owner = nq;
            moved.ctx = ids[static_cast<size_t>(i)];
          }
        });
        continue;
      }
      // A per-window engine moves whole and keeps the epoch it was built
      // on. It lands in the component of one of its queries, which learns
      // the window's types so their runs keep reaching it.
      for (WindowSlot& w : runner->windows) {
        int nq = -1;
        w.ForEachEmitter([&](int q) {
          if (nq < 0) nq = exec_in_next(*w.epoch, q);
        });
        HAMLET_CHECK(nq >= 0);
        Component& dst = *next->component_of[static_cast<size_t>(nq)];
        const std::vector<bool>& types = w.types();
        for (size_t t = 0; t < types.size(); ++t) {
          if (types[t]) dst.dispatch_mask[t] = true;
        }
        dst.max_within = std::max(dst.max_within, w.we - w.ws);
        runner_in(dst, *runner).windows.push_back(std::move(w));
      }
    }
    if (config_.kind == EngineKind::kHamletDynamic) {
      retired_decisions_ +=
          static_cast<DynamicBenefitPolicy*>(comp->policy.get())->decisions();
    }
  }
  rt_ = std::move(next);
}

void ShardEngine::Push(std::span<const Event> events, double arrival) {
  gate_.CommitEvent(events.back().time);
  events_ += static_cast<int64_t>(events.size());
  std::span<const Event> rest = events;
  while (!pending_.empty()) {
    // Rows from a hand-off boundary on belong to the next epoch: dispatch
    // the rows before it, hand off, and stage the rest anew.
    const Timestamp at = pending_.front().at;
    const auto split = std::partition_point(
        rest.begin(), rest.end(), [&](const Event& e) { return e.time < at; });
    if (split == rest.end()) break;
    const size_t before = static_cast<size_t>(split - rest.begin());
    DispatchRuns(rest.first(before), arrival);
    AdvancePaneTo(at);
    rest = rest.subspan(before);
  }
  DispatchRuns(rest, arrival);
}

void ShardEngine::DispatchRuns(std::span<const Event> events, double arrival) {
  if (events.empty()) return;
  Runtime& rt = *rt_;
  const Timestamp pane = rt.plan->pane_size;
  // Stage group-major when every query groups by one attribute: each
  // group's rows of a pane become contiguous, in arrival order, so the runs
  // are the paper's per-group bursts. Groups share no state and close in
  // key order, so the emissions do not change. Otherwise (and for a lone
  // row) the rows keep arrival order.
  const std::span<const int32_t> order =
      rt.group_major && events.size() > 1
          ? rt.group_major_order.Of(events, pane, rt.key_attrs.front())
          : std::span<const int32_t>();
  // Transpose the rows into the SoA staging batch and run the predicate
  // kernels batch-wide up front.
  const PredicateProgram& program = rt.epoch->compiled->program;
  EventBatch& batch = rt.batch_scratch;
  batch.Assign(events, order);
  program.EvalBatch(batch, &rt.selection);
  SegmentRuns(batch, batch.size(), pane, rt.all_execs,
              program.predicated_queries(), rt.selection.masks, &rt.run_spans,
              rt.key_attrs);
  for (const RunSpan& run : rt.run_spans) {
    // Run-shape metrics: bucket i counts runs of length [2^i, 2^(i+1)).
    ++runs_;
    const int len = run.row_end - run.row_begin;
    const size_t bucket =
        static_cast<size_t>(std::bit_width(static_cast<uint64_t>(len)) - 1);
    if (run_len_hist_.size() <= bucket) run_len_hist_.resize(bucket + 1, 0);
    ++run_len_hist_[bucket];

    // One pane advance per run: runs are pane-confined, so the first row's
    // pane is every row's pane. Ingest keeps hand-off boundaries out of the
    // rows, so `rt` is still the running runtime after the advance.
    const Timestamp first_time = batch.time(run.row_begin);
    const Timestamp event_pane = (first_time / pane) * pane;
    if (!rt.pane_started || event_pane > rt.pane_start) {
      AdvancePaneTo(first_time);
      HAMLET_CHECK(rt_.get() == &rt);
    }
    // One arrival sample per run unless the caller passed one (latency
    // attribution is a wall-clock metric, not part of emission values).
    const double run_arrival =
        arrival >= 0 ? arrival : ClockNow(config_.clock_override);
    for (auto& compp : rt.components) {
      Component& comp = *compp;
      if (run.type < 0 ||
          run.type >= static_cast<TypeId>(comp.dispatch_mask.size()) ||
          !comp.dispatch_mask[static_cast<size_t>(run.type)])
        continue;
      // Runs are group-confined, so the first row's key is the run's.
      // Without a key column (no GROUPBY, or no row carried the attribute)
      // every row is group 0.
      const double* key_col = comp.group_by == Schema::kInvalidId
                                  ? nullptr
                                  : batch.column_data(comp.group_by);
      const int64_t key =
          key_col == nullptr
              ? 0
              : std::llround(key_col[static_cast<size_t>(run.row_begin)]);
      auto it = comp.groups.find(key);
      GroupRunner* runner = nullptr;
      if (it != comp.groups.end()) {
        runner = it->second.get();
      } else if (comp.type_mask[static_cast<size_t>(run.type)]) {
        runner = &NewGroupRunner(rt, comp, key);
      } else {
        continue;  // only a carried window reacts to this type
      }
      runner->last_event_time = batch.time(run.row_end - 1);
      // Latency attribution: an event resets the arrival clock only of
      // windows it can contribute to — it must fall inside the window
      // span and its type must appear in the owner query's (or cohort's)
      // pattern. Stamping every open slot would under-report the
      // emission latency of sibling queries and sliding instances the
      // event does not belong to.
      auto stamp_if_relevant = [&](WindowSlot& w, TypeId type) {
        if (w.types()[static_cast<size_t>(type)]) {
          w.last_arrival_wall = run_arrival;
        }
      };
      if (runner->hamlet) {
        // The latency-stamp window scan, hoisted to once per run: windows
        // are pane-aligned and the run is pane-confined, so a window
        // containing the first row contains every row.
        for (WindowSlot& w : runner->windows) {
          if (first_time < w.ws || first_time >= w.we) continue;
          stamp_if_relevant(w, run.type);
        }
        runner->hamlet->OnRunFiltered(batch, run);
      } else {
        // Non-HAMLET engines are per-window and consume rows one at a
        // time; the run still amortizes the pane advance, type gate and
        // group lookup across the span. One pass per row: stamp and
        // dispatch share the window-span check.
        for (int i = run.row_begin; i < run.row_end; ++i) {
          const Event& e = events[static_cast<size_t>(
              order.empty() ? i : order[static_cast<size_t>(i)])];
          for (WindowSlot& w : runner->windows) {
            if (e.time < w.ws || e.time >= w.we) continue;
            stamp_if_relevant(w, e.type);
            if (w.greta) w.greta->OnEvent(e);
            if (w.two_step) w.two_step->OnEvent(e);
            if (w.sharon) w.sharon->OnEvent(e);
          }
        }
      }
    }
  }
}

void ShardEngine::AdvanceTo(Timestamp watermark) {
  gate_.CommitWatermark(watermark);
  AdvancePaneTo(watermark);
}

void ShardEngine::Schedule(QueryLifecycle::Scheduled next) {
  const QueryLifecycle::CompiledEpoch& last =
      pending_.empty() ? *rt_->epoch->compiled : *pending_.back().epoch;
  HAMLET_CHECK((!rt_->pane_started || next.at > rt_->pane_start) &&
               next.at % last.plan->pane_size == 0 &&
               (pending_.empty() || next.at >= pending_.back().at));
  if (!rt_->pane_started) {
    HandOff(std::move(next.epoch));
    return;
  }
  // The control plane compiled the changes of an epoch pending for the
  // same boundary into this one.
  if (!pending_.empty() && pending_.back().at == next.at) pending_.pop_back();
  pending_.push_back(std::move(next));
}

ShardEngine::DetachedGroup::DetachedGroup() = default;
ShardEngine::DetachedGroup::DetachedGroup(DetachedGroup&&) noexcept = default;
ShardEngine::DetachedGroup& ShardEngine::DetachedGroup::operator=(
    DetachedGroup&&) noexcept = default;
ShardEngine::DetachedGroup::~DetachedGroup() = default;

ShardEngine::DetachedGroup ShardEngine::DetachGroup(int64_t group_key,
                                                    Timestamp boundary) {
  // Every event of the key before the boundary is already here, so the
  // runners leave with all their windows before it closed and all windows
  // starting at it open: exactly the state the thief's pane clock expects.
  // Both shards run the same epoch at the boundary (churn reaches them in
  // the same stream order), so their component lists match.
  AdvanceToStealBoundary(boundary);
  Runtime& rt = *rt_;
  HAMLET_DCHECK(rt.pane_start == boundary);
  DetachedGroup group;
  group.runners.resize(rt.components.size());
  for (size_t c = 0; c < rt.components.size(); ++c) {
    auto& groups = rt.components[c]->groups;
    auto it = groups.find(group_key);
    if (it == groups.end()) continue;
    group.runners[c] = std::move(it->second);
    groups.erase(it);
  }
  return group;
}

void ShardEngine::AttachGroup(int64_t group_key, Timestamp boundary,
                              DetachedGroup group) {
  // Pane advancement is deterministic in event time: doing it here only
  // moves work the key's next event would trigger anyway.
  AdvanceToStealBoundary(boundary);
  Runtime& rt = *rt_;
  HAMLET_DCHECK(rt.pane_start == boundary);
  HAMLET_CHECK(group.runners.size() == rt.components.size());
  for (size_t c = 0; c < rt.components.size(); ++c) {
    if (group.runners[c] == nullptr) continue;
    Component& comp = *rt.components[c];
    GroupRunner& runner = *group.runners[c];
    runner.comp = &comp;
    // The dynamic policy counts decisions per engine.
    if (runner.hamlet) runner.hamlet->set_policy(comp.policy.get());
    // The router sent the key elsewhere until this boundary.
    HAMLET_CHECK(comp.groups.emplace(group_key, std::move(group.runners[c]))
                     .second);
  }
}

void ShardEngine::AdvanceToStealBoundary(Timestamp boundary) {
  // The stream has reached the boundary (the front staged an event at or
  // past it, and every earlier event of this engine precedes it),
  // so it counts as observed: idle groups evict at it exactly as in a
  // single-threaded run. A later watermark may already cover it.
  if (gate_.CheckWatermark(boundary).ok()) gate_.CommitWatermark(boundary);
  AdvancePaneTo(boundary);
}

HamletStats ShardEngine::AggregateHamletStats() const {
  HamletStats s = retired_stats_;
  for (const auto& comp : rt_->components) {
    for (const auto& [key, runner] : comp->groups) {
      if (runner->hamlet) AddStats(s, runner->hamlet->stats());
    }
  }
  return s;
}

void ShardEngine::FillMetrics(RunMetrics* m) const {
  m->events = events_;
  m->emissions = latency_count_;
  m->avg_latency_seconds =
      latency_count_ == 0 ? 0.0 : latency_sum_ / latency_count_;
  m->max_latency_seconds = latency_max_;
  m->peak_memory_bytes = std::max(peak_memory_, CurrentMemory());
  m->current_memory_bytes = CurrentMemory();
  m->dnf_windows = dnf_windows_;
  m->evicted_compositions = evicted_compositions_;
  m->hamlet = AggregateHamletStats();
  m->decisions = retired_decisions_;
  if (config_.kind == EngineKind::kHamletDynamic) {
    for (const auto& comp : rt_->components) {
      auto* dyn = static_cast<DynamicBenefitPolicy*>(comp->policy.get());
      m->decisions += dyn->decisions();
    }
  }
  m->active_epochs = 1;
  m->evicted_idle_groups = evicted_idle_groups_;
  m->runs = runs_;
  m->run_len_hist = run_len_hist_;
}

RunMetrics ShardEngine::MetricsSnapshot() const {
  RunMetrics m;
  FillMetrics(&m);
  return m;
}

RunMetrics ShardEngine::Close() {
  // Flush to the last open window's end — a pending epoch activating on
  // the way takes the windows over.
  Timestamp flush_to = rt_->pane_started ? rt_->pane_start : 0;
  for (const auto& comp : rt_->components) {
    for (const auto& [key, runner] : comp->groups) {
      for (const WindowSlot& w : runner->windows)
        flush_to = std::max(flush_to, w.we);
    }
  }
  AdvancePaneTo(flush_to);
  return MetricsSnapshot();
}

}  // namespace hamlet
