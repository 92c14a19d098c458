#include "src/runtime/session.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <tuple>
#include <utility>

#include "src/query/run_segmenter.h"

namespace hamlet {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ClockNow(const std::function<double()>& override_fn) {
  return override_fn ? override_fn() : MonotonicSeconds();
}

namespace {

/// RAII accumulator for the session's busy-time metric.
class BusyScope {
 public:
  BusyScope(double* total, const std::function<double()>& clock)
      : total_(total), clock_(clock), start_(ClockNow(clock)) {}
  ~BusyScope() { *total_ += ClockNow(clock_) - start_; }

  double start() const { return start_; }

 private:
  double* total_;
  const std::function<double()>& clock_;
  double start_;
};

void AddStats(HamletStats& into, const HamletStats& s) {
  into.events += s.events;
  into.bursts_total += s.bursts_total;
  into.bursts_shared += s.bursts_shared;
  into.graphlets_opened += s.graphlets_opened;
  into.graphlets_shared += s.graphlets_shared;
  into.snapshots_created += s.snapshots_created;
  into.event_snapshots += s.event_snapshots;
  into.splits += s.splits;
  into.merges += s.merges;
  into.ops += s.ops;
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kHamletDynamic:
      return "hamlet";
    case EngineKind::kHamletStatic:
      return "hamlet_static";
    case EngineKind::kHamletNoShare:
      return "hamlet_noshare";
    case EngineKind::kGretaGraph:
      return "greta";
    case EngineKind::kGretaPrefix:
      return "greta_prefix";
    case EngineKind::kTwoStep:
      return "two_step(mcep)";
    case EngineKind::kSharon:
      return "sharon";
  }
  return "?";
}

Status ValidateRunConfig(const RunConfig& config) {
  if (config.sharon_max_length < 1) {
    return Status::InvalidArgument(
        "sharon_max_length must be >= 1, got " +
        std::to_string(config.sharon_max_length));
  }
  if (config.two_step_budget <= 0) {
    return Status::InvalidArgument(
        "two_step_budget must be > 0, got " +
        std::to_string(config.two_step_budget));
  }
  if (config.num_shards < 1 || config.num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "num_shards must be in [1, " + std::to_string(kMaxShards) +
        "], got " + std::to_string(config.num_shards));
  }
  if (config.shard_queue_capacity < 2) {
    return Status::InvalidArgument(
        "shard_queue_capacity must be >= 2, got " +
        std::to_string(config.shard_queue_capacity));
  }
  if (config.shard_batch_size < 1) {
    return Status::InvalidArgument(
        "shard_batch_size must be >= 1, got " +
        std::to_string(config.shard_batch_size));
  }
  // shard_queue_capacity counts MESSAGES; the event footprint a full queue
  // implies is capacity * batch_size, so two individually-sane knobs can
  // compound into gigabytes of buffered events. Relate them explicitly —
  // against the power-of-two capacity the ring actually allocates, not the
  // requested one, so the enforced cap matches the runtime footprint.
  const int64_t ring_capacity = static_cast<int64_t>(std::bit_ceil(
      static_cast<uint64_t>(std::max(config.shard_queue_capacity, 2))));
  const int64_t implied_events =
      ring_capacity * static_cast<int64_t>(config.shard_batch_size);
  if (implied_events > kMaxQueuedEventsPerShard) {
    return Status::InvalidArgument(
        "shard_queue_capacity is counted in messages, so shard_queue_capacity"
        " (" +
        std::to_string(config.shard_queue_capacity) + ", ring-rounded to " +
        std::to_string(ring_capacity) + ") * shard_batch_size (" +
        std::to_string(config.shard_batch_size) + ") = " +
        std::to_string(implied_events) +
        " buffered events per shard exceeds the " +
        std::to_string(kMaxQueuedEventsPerShard) +
        " cap; shrink one of the two knobs");
  }
  if (config.shard_rebalance_threshold < 0) {
    return Status::InvalidArgument(
        "shard_rebalance_threshold must be >= 0 (0 disables rebalancing), "
        "got " +
        std::to_string(config.shard_rebalance_threshold));
  }
  // ---- Lifecycle / re-optimization knob matrix (the single source of
  // truth; docs/API.md carries the prose version) ----
  // reoptimize_every_panes: 0 freezes the Open-time plan; > 0 additionally
  //   requires reoptimize_threshold > 0 and a HAMLET kind with a sharing
  //   plan the optimizer can act on (dynamic or static — no-share and the
  //   baselines have no share groups to re-plan, so reopt is Unsupported).
  //   Re-optimization IS supported at any shard count (only the
  //   ShardedSession front decides; shards mirror its swaps).
  // reoptimize_threshold: checked even while reopt is off, so flipping
  //   reoptimize_every_panes on later can never trip a latent bad value.
  // evict_idle_groups: engine-agnostic, no cross-checks; together with
  //   shard_rebalance_threshold > 0 it enables router-map draining
  //   (RunMetrics::rebalance_map_size).
  // work_stealing: requires steal_imbalance_ratio > 1.0 (checked even
  //   while off, mirroring reoptimize_threshold). Unsupported with
  //   evict_idle_groups — eviction erases the very runner state the steal
  //   fence/adopt hand-off reasons about, and a key evicted on the victim
  //   but live on the thief would re-route ambiguously — and with online
  //   re-optimization (reoptimize_every_panes > 0), whose epoch swaps
  //   would race the fence's single-epoch invariant. Query churn on a
  //   stealing ShardedSession is rejected per call, not here. Allowed at
  //   num_shards == 1, where it is inert (no second shard to steal to).
  // producer_queue_capacity: only the multi-producer sharded ingest reads
  //   it, but it is validated unconditionally so AddProducer can never
  //   trip a latent bad value.
  if (config.reoptimize_every_panes < 0) {
    return Status::InvalidArgument(
        "reoptimize_every_panes must be >= 0 (0 disables online "
        "re-optimization), got " +
        std::to_string(config.reoptimize_every_panes));
  }
  if (!(config.reoptimize_threshold > 0)) {
    return Status::InvalidArgument(
        "reoptimize_threshold must be > 0, got " +
        std::to_string(config.reoptimize_threshold));
  }
  if (config.reoptimize_every_panes > 0 &&
      config.kind != EngineKind::kHamletDynamic &&
      config.kind != EngineKind::kHamletStatic) {
    return Status::Unsupported(
        "online re-optimization requires a HAMLET engine with a sharing "
        "plan to act on (kHamletDynamic or kHamletStatic); " +
        std::string(EngineKindName(config.kind)) +
        " has no share groups to re-plan");
  }
  if (!(config.steal_imbalance_ratio > 1.0)) {
    return Status::InvalidArgument(
        "steal_imbalance_ratio must be > 1.0 (the hottest shard must lead "
        "the coldest by a real factor before stealing pays), got " +
        std::to_string(config.steal_imbalance_ratio));
  }
  if (config.producer_queue_capacity < 2) {
    return Status::InvalidArgument(
        "producer_queue_capacity must be >= 2, got " +
        std::to_string(config.producer_queue_capacity));
  }
  if (config.work_stealing && config.evict_idle_groups) {
    return Status::Unsupported(
        "work_stealing is incompatible with evict_idle_groups: eviction "
        "erases the runner state the steal fence/adopt hand-off migrates, "
        "and an evicted-then-reappearing key would re-route ambiguously");
  }
  if (config.work_stealing && config.reoptimize_every_panes > 0) {
    return Status::Unsupported(
        "work_stealing is incompatible with online re-optimization: plan "
        "epoch swaps would race the steal protocol's single-epoch "
        "fence/adopt invariant");
  }
  return Status::Ok();
}

Status OrderingGate::CheckEvent(Timestamp event_time) const {
  // The engines require strictly increasing event times; watermarks only
  // promise no event before them.
  if (has_event_ && event_time <= last_event_time_) {
    return Status::InvalidArgument(
        "out-of-order event at t=" + std::to_string(event_time) +
        " (last event at t=" + std::to_string(last_event_time_) + ")");
  }
  if (has_watermark_ && event_time < watermark_) {
    return Status::InvalidArgument(
        "out-of-order event at t=" + std::to_string(event_time) +
        " (watermark at t=" + std::to_string(watermark_) + ")");
  }
  return Status::Ok();
}

Status OrderingGate::CheckWatermark(Timestamp watermark) const {
  if ((has_event_ && watermark < last_event_time_) ||
      (has_watermark_ && watermark < watermark_)) {
    return Status::InvalidArgument(
        "watermark t=" + std::to_string(watermark) + " regresses behind t=" +
        std::to_string(has_watermark_
                           ? std::max(watermark_, last_event_time_)
                           : last_event_time_));
  }
  return Status::Ok();
}

void MergeRunMetrics(RunMetrics& into, const RunMetrics& from) {
  const int64_t emissions = into.emissions + from.emissions;
  if (emissions > 0) {
    into.avg_latency_seconds =
        (into.avg_latency_seconds * static_cast<double>(into.emissions) +
         from.avg_latency_seconds * static_cast<double>(from.emissions)) /
        static_cast<double>(emissions);
  }
  into.events += from.events;
  into.emissions = emissions;
  into.elapsed_seconds = std::max(into.elapsed_seconds, from.elapsed_seconds);
  into.max_latency_seconds =
      std::max(into.max_latency_seconds, from.max_latency_seconds);
  // Shards run concurrently over overlapping busy intervals: summing their
  // rates would report ~N x the real rate at N shards. Recompute the merged
  // rate from the merged totals instead.
  into.throughput_eps =
      into.elapsed_seconds <= 0
          ? 0.0
          : static_cast<double>(into.events) / into.elapsed_seconds;
  // Shards peak at different times: summing per-shard peaks overstates the
  // concurrent footprint the same way summing rates overstated throughput.
  // The max is the always-true lower bound; ShardedSession raises it with a
  // sampled concurrent high-water mark over the sum of live footprints.
  into.peak_memory_bytes =
      std::max(into.peak_memory_bytes, from.peak_memory_bytes);
  into.current_memory_bytes += from.current_memory_bytes;
  into.dnf_windows += from.dnf_windows;
  into.evicted_compositions += from.evicted_compositions;
  AddStats(into.hamlet, from.hamlet);
  into.decisions += from.decisions;
  into.runs += from.runs;
  if (into.run_len_hist.size() < from.run_len_hist.size()) {
    into.run_len_hist.resize(from.run_len_hist.size(), 0);
  }
  for (size_t i = 0; i < from.run_len_hist.size(); ++i) {
    into.run_len_hist[i] += from.run_len_hist[i];
  }
  if (into.shard_batch_hist.size() < from.shard_batch_hist.size()) {
    into.shard_batch_hist.resize(from.shard_batch_hist.size(), 0);
  }
  for (size_t i = 0; i < from.shard_batch_hist.size(); ++i) {
    into.shard_batch_hist[i] += from.shard_batch_hist[i];
  }
  into.rebalanced_keys += from.rebalanced_keys;
  into.max_queue_depth_msgs =
      std::max(into.max_queue_depth_msgs, from.max_queue_depth_msgs);
  into.shard_events.insert(into.shard_events.end(), from.shard_events.begin(),
                           from.shard_events.end());
  // Lifecycle counters are broadcast to and mirrored by every shard, so the
  // merged value is the max, not the sum (summing would multiply each churn
  // op by the shard count). Idle-group evictions are genuine per-shard
  // state and sum like the other per-shard counters.
  into.rebalance_map_size =
      std::max(into.rebalance_map_size, from.rebalance_map_size);
  into.queries_added = std::max(into.queries_added, from.queries_added);
  into.queries_removed = std::max(into.queries_removed, from.queries_removed);
  into.plan_swaps = std::max(into.plan_swaps, from.plan_swaps);
  into.reopt_checks = std::max(into.reopt_checks, from.reopt_checks);
  into.reopt_swaps = std::max(into.reopt_swaps, from.reopt_swaps);
  into.active_epochs = std::max(into.active_epochs, from.active_epochs);
  into.evicted_idle_groups += from.evicted_idle_groups;
  into.stolen_panes += from.stolen_panes;
  into.duplicated_events += from.duplicated_events;
}

std::vector<Emission> CollectingSink::Take() {
  std::sort(emissions_.begin(), emissions_.end(),
            [](const Emission& a, const Emission& b) {
              return std::tie(a.window_start, a.query, a.group_key) <
                     std::tie(b.window_start, b.query, b.group_key);
            });
  return std::move(emissions_);
}

CsvSink::CsvSink(std::FILE* out) : out_(out) {
  std::fprintf(out_, "query,name,group,window_start,window_end,value\n");
}

void CsvSink::OnEmission(const Emission& emission) {
  std::fprintf(out_, "%d,%s,%lld,%lld,%lld,%.17g\n", emission.query,
               emission.query_name.c_str(),
               static_cast<long long>(emission.group_key),
               static_cast<long long>(emission.window_start),
               static_cast<long long>(emission.window_end), emission.value);
  ++rows_written_;
}

/// One open window instance inside a group runner.
struct WindowSlot {
  /// Exec id (HAMLET/GRETA kinds) or cohort index (two-step/SHARON).
  int owner = -1;
  Timestamp ws = 0;
  Timestamp we = 0;
  ContextId ctx = -1;
  double last_arrival_wall = 0.0;
  std::unique_ptr<GretaEngine> greta;
  std::unique_ptr<TwoStepEngine> two_step;
  std::unique_ptr<SharonEngine> sharon;
};

struct Session::Component {
  QuerySet members;
  AttrId group_by = Schema::kInvalidId;
  std::vector<bool> type_mask;  ///< relevant event types
  /// Largest member WITHIN — once a pane boundary passes a group's last
  /// event by this much, no window can still hold any of its events
  /// (drives RunConfig::evict_idle_groups).
  Timestamp max_within = 0;
  /// Unique window specs with the members using each; two-step/SHARON run
  /// one engine per (cohort, window instance).
  std::vector<std::pair<WindowSpec, QuerySet>> cohorts;
  /// Union of the member exec queries' type masks, per cohort — the
  /// cohort-kind analogue of Runtime::exec_type_masks.
  std::vector<std::vector<bool>> cohort_type_masks;
  std::unique_ptr<SharingPolicy> policy;
  std::map<int64_t, std::unique_ptr<GroupRunner>> groups;
};

struct Session::GroupRunner {
  Component* comp = nullptr;
  int64_t group_key = 0;
  /// Time of the group's last relevant event (seeded by the creating
  /// event); idle eviction compares pane boundaries against it.
  Timestamp last_event_time = 0;
  /// Work-stealing emission bounds (the per-RUNNER analogue of
  /// Runtime::emit_from/emit_until): the runner only OPENS windows with ws
  /// in [emit_from, emit_until). A stolen key's victim runner fences at
  /// the steal boundary, the thief's adopted runner starts there, so each
  /// window belongs to exactly one shard. Defaults cover everything.
  Timestamp emit_from = 0;
  Timestamp emit_until = std::numeric_limits<Timestamp>::max();
  /// Pane boundary at which a fenced runner's windows have provably all
  /// closed; AdvancePaneTo then folds its stats and erases it.
  Timestamp drop_after = std::numeric_limits<Timestamp>::max();
  std::unique_ptr<HamletEngine> hamlet;
  std::vector<WindowSlot> windows;
};

/// One plan epoch (see the declaration in session.h). Epoch 0 borrows the
/// caller's plan (owned_plan null); churn/swap epochs own plan + workload.
struct Session::Runtime {
  std::shared_ptr<const Workload> workload_keepalive;
  std::unique_ptr<WorkloadPlan> owned_plan;
  const WorkloadPlan* plan = nullptr;
  /// Schema-resolved predicate kernels, compiled once per epoch (compile-time
  /// validation is how unresolved names surface early).
  PredicateProgram pred_program;
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
  std::vector<std::unique_ptr<Component>> components;
  /// Per exec query: which event types its pattern mentions. Drives latency
  /// attribution — only events a query can react to stamp its windows'
  /// arrival clocks.
  std::vector<std::vector<bool>> exec_type_masks;
  /// Branch values awaiting composition: (query, group, window) -> values.
  std::map<std::tuple<QueryId, int64_t, Timestamp>, std::vector<double>>
      pending_compositions;
  /// The UNRESTRICTED share groups for this epoch's query set (the online
  /// reoptimizer's search space) and the overrides currently applied.
  std::vector<ShareGroup> potential_groups;
  std::vector<SharingOverride> applied;
  Timestamp pane_start = 0;
  bool pane_started = false;
  /// The epoch emits exactly the windows with ws in [emit_from,
  /// emit_until). A window starting at/after the activation boundary only
  /// holds events at/after it, so the bounds make epoch handover exact.
  Timestamp emit_from = 0;
  Timestamp emit_until = std::numeric_limits<Timestamp>::max();
  /// Set when a newer epoch activated; the runtime drains, then retires.
  bool superseded = false;
};

Result<std::unique_ptr<Session>> Session::Open(const WorkloadPlan& plan,
                                               const RunConfig& config,
                                               EmissionSink* sink) {
  Status valid = ValidateRunConfig(config);
  if (!valid.ok()) return valid;
  // Resolve every event predicate against the schema ONCE: an unresolved
  // type/attribute name fails Open with kInvalidArgument here instead of
  // tripping a per-event DCHECK (or reading a zero) deep inside an engine.
  Result<PredicateProgram> program = CompilePredicateProgram(plan);
  if (!program.ok()) return program.status();
  auto session = std::unique_ptr<Session>(new Session(plan, config, sink));
  session->runtimes_.back()->pred_program = std::move(program).value();
  return session;
}

Session::Session(const WorkloadPlan& plan, const RunConfig& config,
                 EmissionSink* sink)
    : config_(config), sink_(sink) {
  lifecycle_.Init(*plan.workload);
  auto rt = std::make_unique<Runtime>();
  rt->plan = &plan;
  rt->potential_groups = plan.share_groups;
  InitRuntime(*rt);
  runtimes_.push_back(std::move(rt));
  reopt_enabled_ = config_.reoptimize_every_panes > 0;
  if (reopt_enabled_) {
    collector_.Reset(plan.workload->schema()->num_types());
  }
}

void Session::InitRuntime(Runtime& rt) {
  const WorkloadPlan& plan = *rt.plan;
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
  for (int i = 0; i < n; ++i) {
    int root = find(i);
    auto it = by_root.find(root);
    Component* comp;
    if (it == by_root.end()) {
      rt.components.push_back(std::make_unique<Component>());
      comp = rt.components.back().get();
      by_root[root] = comp;
    } else {
      comp = it->second;
    }
    comp->members.Insert(i);
  }
  rt.all_execs = QuerySet::FirstN(n);
  rt.batch_scratch.ResetSchema(plan.workload->schema()->num_attrs());
  const int num_types = plan.workload->schema()->num_types();
  rt.exec_type_masks.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rt.exec_type_masks[static_cast<size_t>(i)].assign(
        static_cast<size_t>(num_types), false);
    for (TypeId t :
         plan.exec_queries[static_cast<size_t>(i)].tmpl.pattern.AllTypes()) {
      rt.exec_type_masks[static_cast<size_t>(i)][static_cast<size_t>(t)] =
          true;
    }
  }
  for (auto& comp : rt.components) {
    comp->type_mask.assign(static_cast<size_t>(num_types), false);
    comp->members.ForEach([&](QueryId q) {
      const ExecQuery& eq = plan.exec_queries[static_cast<size_t>(q)];
      // Members of a component share the group-by attribute (Definition 5).
      comp->group_by = eq.group_by;
      comp->max_within = std::max(comp->max_within, eq.window.within);
      const std::vector<bool>& qm =
          rt.exec_type_masks[static_cast<size_t>(q)];
      for (size_t t = 0; t < qm.size(); ++t) {
        if (qm[t]) comp->type_mask[t] = true;
      }
      bool found = false;
      for (auto& [spec, set] : comp->cohorts) {
        if (spec == eq.window) {
          set.Insert(q);
          found = true;
        }
      }
      if (!found) comp->cohorts.push_back({eq.window, QuerySet::Single(q)});
    });
    comp->cohort_type_masks.resize(comp->cohorts.size());
    for (size_t c = 0; c < comp->cohorts.size(); ++c) {
      std::vector<bool>& mask = comp->cohort_type_masks[c];
      mask.assign(static_cast<size_t>(num_types), false);
      comp->cohorts[c].second.ForEach([&](QueryId q) {
        const std::vector<bool>& qm =
            rt.exec_type_masks[static_cast<size_t>(q)];
        for (size_t t = 0; t < qm.size(); ++t) {
          if (qm[t]) mask[t] = true;
        }
      });
    }
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
}

Session::~Session() = default;

void Session::OpenDueWindows(Runtime& rt, GroupRunner& runner,
                             Timestamp pane_start, bool retroactive) {
  Component& comp = *runner.comp;
  const bool hamlet_kind = runner.hamlet != nullptr;
  const bool cohort_kind = config_.kind == EngineKind::kTwoStep ||
                           config_.kind == EngineKind::kSharon;
  auto open_one = [&](int owner, Timestamp ws, Timestamp within) {
    // Epoch emission bounds: windows starting outside [emit_from,
    // emit_until) belong to another epoch — the handover invariant.
    if (ws < rt.emit_from || ws >= rt.emit_until) return;
    // Runner emission bounds: windows outside a stolen key's ownership
    // interval belong to the other shard (see GroupRunner::emit_from).
    if (ws < runner.emit_from || ws >= runner.emit_until) return;
    WindowSlot slot;
    slot.owner = owner;
    slot.ws = ws;
    slot.we = ws + within;
    slot.last_arrival_wall = ClockNow(config_.clock_override);
    if (cohort_kind) {
      const QuerySet& cohort_members =
          comp.cohorts[static_cast<size_t>(owner)].second;
      if (config_.kind == EngineKind::kTwoStep) {
        slot.two_step = std::make_unique<TwoStepEngine>(
            *rt.plan, cohort_members, config_.two_step_budget);
      } else {
        slot.sharon = std::make_unique<SharonEngine>(
            *rt.plan, cohort_members, config_.sharon_max_length);
      }
    } else if (hamlet_kind) {
      slot.ctx = runner.hamlet->OpenContext(owner, ws, slot.we);
    } else {
      slot.greta = std::make_unique<GretaEngine>(
          rt.plan->exec_queries[static_cast<size_t>(owner)],
          config_.kind == EngineKind::kGretaPrefix ? GretaMode::kPrefixSum
                                                   : GretaMode::kGraph);
    }
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
    for (size_t c = 0; c < comp.cohorts.size(); ++c)
      open_for(static_cast<int>(c), comp.cohorts[c].first);
  } else {
    comp.members.ForEach([&](QueryId q) {
      open_for(q, rt.plan->exec_queries[static_cast<size_t>(q)].window);
    });
  }
}

void Session::EmitExecValue(Runtime& rt, int exec_id, int64_t group_key,
                            Timestamp window_start, Timestamp window_end,
                            double value, double arrival_wall) {
  // Belt-and-braces epoch bound: windows outside the emission range are
  // never opened, so this only fires if that invariant breaks.
  if (window_start < rt.emit_from || window_start >= rt.emit_until) return;
  const ExecQuery& eq = rt.plan->exec_queries[static_cast<size_t>(exec_id)];
  const CompositionRule& rule =
      rt.plan->compositions[static_cast<size_t>(eq.source)];
  double final_value = value;
  if (rule.kind != CompositionKind::kSingle) {
    auto key = std::make_tuple(eq.source, group_key, window_start);
    auto& values = rt.pending_compositions[key];
    values.resize(rule.exec_ids.size(),
                  std::numeric_limits<double>::quiet_NaN());
    for (size_t b = 0; b < rule.exec_ids.size(); ++b) {
      if (rule.exec_ids[b] == exec_id) values[b] = value;
    }
    for (double v : values) {
      if (std::isnan(v)) return;  // waiting for the other branch
    }
    final_value = ComposeQueryValue(rule, values);
    rt.pending_compositions.erase(key);
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
    emission.query_name = rt.plan->workload->query(eq.source).name;
    sink_->OnEmission(emission);
  }
}

void Session::CloseExpiredWindows(Runtime& rt, GroupRunner& runner,
                                  Timestamp now) {
  Component& comp = *runner.comp;
  for (size_t i = 0; i < runner.windows.size();) {
    WindowSlot& w = runner.windows[i];
    if (w.we > now) {
      ++i;
      continue;
    }
    if (runner.hamlet != nullptr) {
      ContextResult r = runner.hamlet->CloseContext(w.ctx);
      EmitExecValue(rt, w.owner, runner.group_key, w.ws, w.we, r.value,
                    w.last_arrival_wall);
    } else if (w.greta != nullptr) {
      EmitExecValue(rt, w.owner, runner.group_key, w.ws, w.we,
                    w.greta->Value(), w.last_arrival_wall);
    } else if (w.two_step != nullptr) {
      Status s = w.two_step->Finish();
      if (!s.ok()) {
        ++dnf_windows_;
      } else {
        comp.cohorts[static_cast<size_t>(w.owner)].second.ForEach(
            [&](QueryId q) {
              EmitExecValue(rt, q, runner.group_key, w.ws, w.we,
                            w.two_step->Value(q), w.last_arrival_wall);
            });
      }
    } else if (w.sharon != nullptr) {
      comp.cohorts[static_cast<size_t>(w.owner)].second.ForEach(
          [&](QueryId q) {
            if (!w.sharon->Supported(q)) return;
            EmitExecValue(rt, q, runner.group_key, w.ws, w.we,
                          w.sharon->Value(q), w.last_arrival_wall);
          });
    }
    runner.windows[i] = std::move(runner.windows.back());
    runner.windows.pop_back();
  }
}

void Session::EvictDeadCompositions(Runtime& rt, Timestamp boundary) {
  for (auto it = rt.pending_compositions.begin();
       it != rt.pending_compositions.end();) {
    // Every branch of a source query shares its window spec, so the entry's
    // window is [ws, ws + within). Once that window closed (all branch
    // engines emitted or gave up at `boundary`), a still-pending entry has a
    // branch that will never arrive — DNF'd two-step windows and
    // SHARON-unsupported queries emit nothing.
    const QueryId source = std::get<0>(it->first);
    const Timestamp ws = std::get<2>(it->first);
    const Timestamp within =
        rt.plan->workload->query(source).window.within;
    if (ws + within <= boundary) {
      ++evicted_compositions_;
      it = rt.pending_compositions.erase(it);
    } else {
      ++it;
    }
  }
}

int64_t Session::CurrentMemory() const {
  int64_t bytes = 0;
  for (const auto& rtp : runtimes_) {
    for (const auto& comp : rtp->components) {
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
    for (const auto& [key, values] : rtp->pending_compositions) {
      bytes += static_cast<int64_t>(sizeof(key) + sizeof(values) +
                                    values.capacity() * sizeof(double));
    }
  }
  return bytes;
}

void Session::AdvancePaneTo(Runtime& rt, Timestamp new_pane_start) {
  const Timestamp pane = rt.plan->pane_size;
  // Idle-group eviction applies only at boundaries supported by observed
  // event time (committed events/watermarks). The synthetic Close flush
  // sweeps past real time and must not evict: a shard whose flush horizon
  // is local would otherwise evict at different boundaries than the
  // single-threaded reference, changing which empty windows get dropped.
  const Timestamp evict_horizon =
      config_.evict_idle_groups && gate_.any_seen()
          ? (gate_.max_seen() / pane) * pane
          : Timestamp{-1};
  while (!rt.pane_started || rt.pane_start < new_pane_start) {
    const Timestamp boundary =
        rt.pane_started ? rt.pane_start + pane : new_pane_start;
    // Sample before closures so full windows count toward the peak.
    peak_memory_ = std::max(peak_memory_, CurrentMemory());
    for (auto& comp : rt.components) {
      for (auto it = comp->groups.begin(); it != comp->groups.end();) {
        GroupRunner& runner = *it->second;
        if (runner.hamlet && rt.pane_started) runner.hamlet->OnPaneEnd();
        CloseExpiredWindows(rt, runner, boundary);
        // Evict BEFORE opening this boundary's windows: every window that
        // could hold any of the group's events has closed above (boundary
        // >= last_event + max member WITHIN), so all remaining and future
        // state could only produce empty-window results. A later event
        // recreates the runner with retroactive windows that provably
        // contain no evicted events (events are strictly increasing past
        // the boundary), so eviction timing is deterministic in event time.
        if (evict_horizon >= 0 && boundary <= evict_horizon &&
            boundary >= runner.last_event_time + comp->max_within) {
          if (runner.hamlet) AddStats(retired_stats_, runner.hamlet->stats());
          ++evicted_idle_groups_;
          it = comp->groups.erase(it);
          continue;
        }
        // A steal-fenced runner whose last possible window end has passed:
        // everything it owned emitted above, so fold its stats and erase.
        // Unlike idle eviction this is driven purely by the steal
        // protocol's boundaries, hence deterministic in event time.
        if (runner.drop_after <= boundary) {
          HAMLET_DCHECK(runner.windows.empty());
          if (runner.hamlet) AddStats(retired_stats_, runner.hamlet->stats());
          it = comp->groups.erase(it);
          continue;
        }
        OpenDueWindows(rt, runner, boundary, /*retroactive=*/false);
        if (runner.hamlet) runner.hamlet->OnPaneStart(boundary);
        ++it;
      }
    }
    // All engines for windows ending at `boundary` have now emitted or
    // declined; whatever composition entries remain for them are dead.
    EvictDeadCompositions(rt, boundary);
    // Steal fences whose duplication interval has fully passed: the key's
    // events now arrive on the thief only, so a future steal BACK may
    // create a fresh runner here.
    if (!group_bounds_.empty()) {
      std::erase_if(group_bounds_,
                    [&](const auto& kv) { return kv.second <= boundary; });
    }
    rt.pane_start = boundary;
    rt.pane_started = true;
    peak_memory_ = std::max(peak_memory_, CurrentMemory());
  }
}

Session::GroupRunner& Session::NewGroupRunner(
    Runtime& rt, Component& comp, int64_t key, Timestamp emit_from,
    std::span<const HamletLaneStats> lane_stats) {
  auto created = std::make_unique<GroupRunner>();
  created->comp = &comp;
  created->group_key = key;
  created->last_event_time = emit_from;
  created->emit_from = emit_from;
  if (config_.kind == EngineKind::kHamletDynamic ||
      config_.kind == EngineKind::kHamletStatic ||
      config_.kind == EngineKind::kHamletNoShare) {
    created->hamlet = std::make_unique<HamletEngine>(*rt.plan, comp.members,
                                                     comp.policy.get());
    created->hamlet->SeedLaneStats(lane_stats);
  }
  GroupRunner& runner = *created;
  comp.groups[key] = std::move(created);
  OpenDueWindows(rt, runner, rt.pane_start, /*retroactive=*/true);
  if (runner.hamlet) runner.hamlet->OnPaneStart(rt.pane_start);
  return runner;
}

Status Session::Push(const Event& event) {
  if (closed_) {
    return Status::FailedPrecondition("Push on a closed session");
  }
  return Ingest(std::span<const Event>(&event, 1), /*per_event=*/true);
}

Status Session::PushBatch(std::span<const Event> events) {
  if (closed_) {
    return Status::FailedPrecondition("PushBatch on a closed session");
  }
  if (events.empty()) return Status::Ok();
  return Ingest(events, /*per_event=*/false);
}

Status Session::Ingest(std::span<const Event> events, bool per_event) {
  // Rejected calls accrue no busy time: they do no engine work, and
  // charging them would deflate the reported throughput of a caller that
  // retries after errors. A mid-batch rejection keeps the time already
  // spent on the valid prefix (that work was real and its effects stand).
  Status result = gate_.CheckEvent(events.front().time);
  if (!result.ok()) return result;
  BusyScope busy(&busy_seconds_, config_.clock_override);
  // Transpose the events into each epoch's SoA staging batch and run its
  // predicate kernels batch-wide up front. A mid-batch ordering violation
  // stops dispatch at the valid prefix — kernels touched the invalid suffix
  // but no engine does.
  for (auto& rtp : runtimes_) {
    Runtime& rt = *rtp;
    rt.batch_scratch.Assign(events);
    rt.pred_program.EvalBatch(rt.batch_scratch, &rt.selection);
  }
  // Ordering-gate pre-pass: commit the valid prefix before dispatch. The
  // final gate state, counters and engine-visible events are identical to
  // a per-event interleaving (engines never see the invalid suffix; the
  // only mid-batch gate reader is the idle-eviction horizon, whose
  // event-triggered checks are insensitive to it).
  int valid = 0;
  for (const Event& e : events) {
    if (valid > 0) {
      result = gate_.CheckEvent(e.time);
      if (!result.ok()) break;
    }
    gate_.CommitEvent(e.time);
    ++events_;
    if (reopt_enabled_) collector_.CountEvent(e.type);
    ++valid;
  }
  // A per-event Push is a 1-row run whose arrival time is the scope-entry
  // wall, keeping that hot path at two clock reads total.
  const double arrival = per_event ? busy.start() : -1.0;
  for (auto& rtp : runtimes_) DispatchRuns(*rtp, events, valid, arrival);
  ReapRuntimes();
  MaybeReoptimize();
  return result;
}

void Session::DispatchRuns(Runtime& rt, std::span<const Event> events,
                           int rows, double arrival) {
  if (rows <= 0) return;
  SegmentRuns(rt.batch_scratch, rows, rt.plan->pane_size, rt.all_execs,
              rt.pred_program.predicated_queries(), rt.selection.masks,
              &rt.run_spans);
  const Timestamp pane = rt.plan->pane_size;
  const bool cohort_kind = config_.kind == EngineKind::kTwoStep ||
                           config_.kind == EngineKind::kSharon;
  for (const RunSpan& run : rt.run_spans) {
    // Run-shape metrics: bucket i counts runs of length [2^i, 2^(i+1)).
    ++runs_;
    const int len = run.row_end - run.row_begin;
    const size_t bucket =
        static_cast<size_t>(std::bit_width(static_cast<uint64_t>(len)) - 1);
    if (run_len_hist_.size() <= bucket) run_len_hist_.resize(bucket + 1, 0);
    ++run_len_hist_[bucket];

    // One pane advance per run: runs are pane-confined, so the first row's
    // pane is every row's pane.
    const Event& first = events[static_cast<size_t>(run.row_begin)];
    const Timestamp event_pane = (first.time / pane) * pane;
    if (!rt.pane_started || event_pane > rt.pane_start) {
      AdvancePaneTo(rt, event_pane);
    }
    // One arrival sample per run unless the caller passed one (latency
    // attribution is a wall-clock metric, not part of emission values).
    const double run_arrival =
        arrival >= 0 ? arrival : ClockNow(config_.clock_override);
    for (auto& compp : rt.components) {
      Component& comp = *compp;
      if (run.type < 0 ||
          run.type >= static_cast<TypeId>(comp.type_mask.size()) ||
          !comp.type_mask[static_cast<size_t>(run.type)])
        continue;
      // Sub-split at group-key changes: runs are segmented globally, group
      // partitioning is per component (group-by attrs differ), so the
      // per-group spans are carved here, straight off the key column.
      // Without a key column (no GROUPBY, or no row carried the
      // attribute) every row is group 0.
      const double* key_col = comp.group_by == Schema::kInvalidId
                                  ? nullptr
                                  : rt.batch_scratch.column_data(comp.group_by);
      auto key_at = [&](int row) {
        return static_cast<int64_t>(
            std::llround(key_col[static_cast<size_t>(row)]));
      };
      int sub = run.row_begin;
      while (sub < run.row_end) {
        const int64_t key = key_col == nullptr ? 0 : key_at(sub);
        int sub_end = key_col == nullptr ? run.row_end : sub + 1;
        while (sub_end < run.row_end && key_at(sub_end) == key) ++sub_end;
        const Event& e0 = events[static_cast<size_t>(sub)];
        auto it = comp.groups.find(key);
        GroupRunner* runner = nullptr;
        if (it == comp.groups.end()) {
          // Steal-fenced key (victim side): boundary events duplicated to
          // this shard feed only runners that already exist — a fresh
          // runner would open retroactive windows the thief already owns.
          if (!group_bounds_.empty() &&
              group_bounds_.find(key) != group_bounds_.end()) {
            sub = sub_end;
            continue;
          }
          runner = &NewGroupRunner(rt, comp, key, /*emit_from=*/0, {});
        } else {
          runner = it->second.get();
        }
        runner->last_event_time = events[static_cast<size_t>(sub_end - 1)].time;
        // Latency attribution: an event resets the arrival clock only of
        // windows it can contribute to — it must fall inside the window
        // span and its type must appear in the owner query's (or cohort's)
        // pattern. Stamping every open slot would under-report the
        // emission latency of sibling queries and sliding instances the
        // event does not belong to.
        auto stamp_if_relevant = [&](WindowSlot& w, TypeId type) {
          const std::vector<bool>& owner_mask =
              cohort_kind
                  ? comp.cohort_type_masks[static_cast<size_t>(w.owner)]
                  : rt.exec_type_masks[static_cast<size_t>(w.owner)];
          if (owner_mask[static_cast<size_t>(type)]) {
            w.last_arrival_wall = run_arrival;
          }
        };
        if (runner->hamlet) {
          // The latency-stamp window scan, hoisted to once per run: windows
          // are pane-aligned and the run is pane-confined, so a window
          // containing the first row contains every row.
          for (WindowSlot& w : runner->windows) {
            if (e0.time < w.ws || e0.time >= w.we) continue;
            stamp_if_relevant(w, run.type);
          }
          RunSpan group_run;
          group_run.type = run.type;
          group_run.row_begin = sub;
          group_run.row_end = sub_end;
          group_run.passes = run.passes;
          runner->hamlet->OnRunFiltered(rt.batch_scratch, group_run);
        } else {
          // Non-HAMLET engines are per-window and consume rows one at a
          // time; the run still amortizes the pane advance, type gate and
          // group lookup across the span. One pass per row: stamp and
          // dispatch share the window-span check.
          for (int i = sub; i < sub_end; ++i) {
            const Event& e = events[static_cast<size_t>(i)];
            for (WindowSlot& w : runner->windows) {
              if (e.time < w.ws || e.time >= w.we) continue;
              stamp_if_relevant(w, e.type);
              if (w.greta) w.greta->OnEvent(e);
              if (w.two_step) w.two_step->OnEvent(e);
              if (w.sharon) w.sharon->OnEvent(e);
            }
          }
        }
        sub = sub_end;
      }
    }
  }
}

Status Session::AdvanceTo(Timestamp watermark) {
  if (closed_) {
    return Status::FailedPrecondition("AdvanceTo on a closed session");
  }
  Status ordered = gate_.CheckWatermark(watermark);
  if (!ordered.ok()) return ordered;
  BusyScope busy(&busy_seconds_, config_.clock_override);
  gate_.CommitWatermark(watermark);
  for (auto& rtp : runtimes_) {
    Runtime& rt = *rtp;
    const Timestamp pane = rt.plan->pane_size;
    const Timestamp target = (watermark / pane) * pane;
    if (!rt.pane_started || target > rt.pane_start) AdvancePaneTo(rt, target);
  }
  ReapRuntimes();
  MaybeReoptimize();
  return Status::Ok();
}

Result<Timestamp> Session::Swap(QueryLifecycle::CompiledEpoch epoch,
                                Timestamp activate_at) {
  Result<PredicateProgram> program = CompilePredicateProgram(*epoch.plan);
  if (!program.ok()) return program.status();
  Timestamp activate = activate_at;
  if (activate < 0) {
    // Next boundary on the CURRENT lead epoch's grid strictly after
    // everything seen. Adding a query can only shrink the pane gcd, and
    // removing can only grow it to a multiple, so every boundary of the
    // outgoing grid is also a boundary of the incoming one.
    activate = QueryLifecycle::ActivationBoundary(
        runtimes_.back()->plan->pane_size, gate_.any_seen(),
        gate_.max_seen());
  }
  auto rt = std::make_unique<Runtime>();
  rt->workload_keepalive = epoch.workload;
  rt->owned_plan = std::move(epoch.plan);
  rt->plan = rt->owned_plan.get();
  rt->pred_program = std::move(program).value();
  rt->potential_groups = std::move(epoch.potential_groups);
  rt->applied = std::move(epoch.applied);
  rt->emit_from = activate;
  InitRuntime(*rt);
  for (auto& old : runtimes_) {
    old->superseded = true;
    if (old->emit_until > activate) old->emit_until = activate;
  }
  runtimes_.push_back(std::move(rt));
  // Epochs whose emission range collapsed (double churn inside one pane)
  // or that never started retire immediately.
  ReapRuntimes();
  if (reopt_enabled_) {
    Runtime& lead = *runtimes_.back();
    OnlineReoptimizerOptions opts;
    opts.threshold = config_.reoptimize_threshold;
    opts.variant = config_.cost_variant;
    reoptimizer_.Bind(*lead.plan, lead.potential_groups, lead.applied, opts);
    reopt_pane_seen_ = false;
  }
  return activate;
}

void Session::RetireRuntime(size_t index) {
  Runtime& rt = *runtimes_[index];
  for (auto& comp : rt.components) {
    for (auto& [key, runner] : comp->groups) {
      if (runner->hamlet) AddStats(retired_stats_, runner->hamlet->stats());
    }
    if (config_.kind == EngineKind::kHamletDynamic) {
      retired_decisions_ +=
          static_cast<DynamicBenefitPolicy*>(comp->policy.get())->decisions();
    }
  }
  // In-range windows all closed before retirement, so leftovers here are
  // entries whose sibling branch never arrived.
  evicted_compositions_ +=
      static_cast<int64_t>(rt.pending_compositions.size());
  runtimes_.erase(runtimes_.begin() + static_cast<std::ptrdiff_t>(index));
}

void Session::ReapRuntimes() {
  for (size_t i = 0; i < runtimes_.size();) {
    Runtime& rt = *runtimes_[i];
    bool dead = false;
    if (rt.superseded) {
      if (!rt.pane_started) {
        dead = true;  // never saw an event/watermark: nothing to drain
      } else if (rt.emit_from >= rt.emit_until) {
        dead = true;  // emission range collapsed: can never emit
      } else if (rt.pane_start >= rt.emit_until) {
        bool open_windows = false;
        for (const auto& comp : rt.components) {
          for (const auto& [key, runner] : comp->groups) {
            if (!runner->windows.empty()) open_windows = true;
          }
        }
        dead = !open_windows;  // past the cutoff and fully drained
      }
    }
    if (dead) {
      RetireRuntime(i);
    } else {
      ++i;
    }
  }
}

Result<Timestamp> Session::AddQuery(const Query& query,
                                    Timestamp activate_at) {
  if (closed_) {
    return Status::FailedPrecondition("AddQuery on a closed session");
  }
  if (activate_at < 0 &&
      live_epochs() >= QueryLifecycle::kMaxLiveEpochs) {
    return Status::ResourceExhausted(
        "too many plan epochs still draining (max " +
        std::to_string(QueryLifecycle::kMaxLiveEpochs) +
        "); advance the stream before further churn");
  }
  BusyScope busy(&busy_seconds_, config_.clock_override);
  std::vector<Query> prev = lifecycle_.queries();
  Result<QueryLifecycle::CompiledEpoch> epoch = lifecycle_.TryAdd(query, {});
  if (!epoch.ok()) return epoch.status();
  Result<Timestamp> activated = Swap(std::move(epoch).value(), activate_at);
  if (!activated.ok()) {
    lifecycle_.Reset(std::move(prev));
    return activated;
  }
  ++queries_added_;
  return activated;
}

Result<Timestamp> Session::RemoveQuery(const std::string& name,
                                       Timestamp activate_at) {
  if (closed_) {
    return Status::FailedPrecondition("RemoveQuery on a closed session");
  }
  if (activate_at < 0 &&
      live_epochs() >= QueryLifecycle::kMaxLiveEpochs) {
    return Status::ResourceExhausted(
        "too many plan epochs still draining (max " +
        std::to_string(QueryLifecycle::kMaxLiveEpochs) +
        "); advance the stream before further churn");
  }
  BusyScope busy(&busy_seconds_, config_.clock_override);
  std::vector<Query> prev = lifecycle_.queries();
  Result<QueryLifecycle::CompiledEpoch> epoch =
      lifecycle_.TryRemove(name, {});
  if (!epoch.ok()) return epoch.status();
  Result<Timestamp> activated = Swap(std::move(epoch).value(), activate_at);
  if (!activated.ok()) {
    lifecycle_.Reset(std::move(prev));
    return activated;
  }
  ++queries_removed_;
  return activated;
}

Result<Timestamp> Session::ApplySharingOverrides(
    std::span<const SharingOverride> overrides, Timestamp activate_at) {
  if (closed_) {
    return Status::FailedPrecondition(
        "ApplySharingOverrides on a closed session");
  }
  BusyScope busy(&busy_seconds_, config_.clock_override);
  Result<QueryLifecycle::CompiledEpoch> epoch = lifecycle_.Compile(overrides);
  if (!epoch.ok()) return epoch.status();
  Result<Timestamp> activated = Swap(std::move(epoch).value(), activate_at);
  if (activated.ok()) ++plan_swaps_;
  return activated;
}

Session::GroupMigration Session::FenceGroup(int64_t group_key,
                                            Timestamp emit_until,
                                            Timestamp drop_after) {
  // Stealing excludes query churn and re-optimization, so exactly one plan
  // epoch can be live — the fence/adopt hand-off reasons about one
  // component list on both shards.
  HAMLET_CHECK(runtimes_.size() == 1);
  Runtime& rt = *runtimes_.back();
  GroupMigration migration;
  migration.components.resize(rt.components.size());
  for (size_t c = 0; c < rt.components.size(); ++c) {
    Component& comp = *rt.components[c];
    auto it = comp.groups.find(group_key);
    if (it == comp.groups.end()) continue;
    GroupRunner& runner = *it->second;
    migration.components[c].runner_exists = true;
    if (runner.hamlet != nullptr) {
      migration.components[c].lane_stats = runner.hamlet->ExportLaneStats();
    }
    runner.emit_until = std::min(runner.emit_until, emit_until);
    runner.drop_after = std::min(runner.drop_after, drop_after);
    // Cancel windows already open at/after the fence, unemitted: the
    // victim has processed nothing at or past the boundary (a watermark
    // may merely have opened them early), so they hold no events, and the
    // thief opens its own instances — emitting here would double them.
    for (size_t i = 0; i < runner.windows.size();) {
      WindowSlot& w = runner.windows[i];
      if (w.ws < emit_until) {
        ++i;
        continue;
      }
      if (runner.hamlet != nullptr) runner.hamlet->CloseContext(w.ctx);
      runner.windows[i] = std::move(runner.windows.back());
      runner.windows.pop_back();
    }
  }
  group_bounds_[group_key] = drop_after;
  return migration;
}

void Session::AdoptGroup(int64_t group_key, Timestamp emit_from,
                         const GroupMigration& migration) {
  HAMLET_CHECK(runtimes_.size() == 1);
  Runtime& rt = *runtimes_.back();
  // Advance to the handover boundary BEFORE creating the adopted runners:
  // every window this shard previously owned is then already open or
  // closed (boundaries in between are visited while any old fenced
  // incarnation of the key is still bounded, so no window leaks open in
  // the gap), and that incarnation — whose drop_after provably precedes a
  // re-steal boundary — has dropped. Pane advancement is deterministic in
  // event time, so doing it at the adopt point just moves work the next
  // event would trigger anyway.
  if (!rt.pane_started || rt.pane_start < emit_from) {
    AdvancePaneTo(rt, emit_from);
  }
  HAMLET_DCHECK(rt.pane_start == emit_from);
  group_bounds_.erase(group_key);
  const size_t n =
      std::min(rt.components.size(), migration.components.size());
  for (size_t c = 0; c < n; ++c) {
    if (!migration.components[c].runner_exists) continue;
    Component& comp = *rt.components[c];
    // The router owned the key elsewhere until this boundary, so no live
    // runner can exist here (a fenced leftover dropped during the advance
    // above).
    HAMLET_CHECK(comp.groups.find(group_key) == comp.groups.end());
    NewGroupRunner(rt, comp, group_key, emit_from,
                   migration.components[c].lane_stats);
  }
}

HamletStats Session::AggregateHamletStats() const {
  HamletStats s = retired_stats_;
  for (const auto& rtp : runtimes_) {
    for (const auto& comp : rtp->components) {
      for (const auto& [key, runner] : comp->groups) {
        if (runner->hamlet) AddStats(s, runner->hamlet->stats());
      }
    }
  }
  return s;
}

void Session::MaybeReoptimize() {
  if (!reopt_enabled_ || closed_) return;
  // Only in steady state: while a churn epoch drains, the statistics mix
  // two plans and a swap would stack a third.
  if (runtimes_.size() != 1) return;
  Runtime& lead = *runtimes_.back();
  if (!lead.pane_started) return;
  const Timestamp every =
      lead.plan->pane_size *
      static_cast<Timestamp>(config_.reoptimize_every_panes);
  if (!reopt_pane_seen_) {
    // First boundary observation after (re)bind anchors the cadence.
    last_reopt_pane_ = lead.pane_start;
    reopt_pane_seen_ = true;
    return;
  }
  if (lead.pane_start < last_reopt_pane_ + every) return;
  last_reopt_pane_ = lead.pane_start;
  if (!reoptimizer_.bound()) {
    OnlineReoptimizerOptions opts;
    opts.threshold = config_.reoptimize_threshold;
    opts.variant = config_.cost_variant;
    reoptimizer_.Bind(*lead.plan, lead.potential_groups, lead.applied, opts);
  }
  OnlineReoptimizer::Outcome out =
      reoptimizer_.Check(lead.pane_start, AggregateHamletStats(), collector_);
  if (!out.swap) return;
  Result<QueryLifecycle::CompiledEpoch> epoch =
      lifecycle_.Compile(out.overrides);
  if (!epoch.ok()) return;  // keep the running plan
  Result<Timestamp> activated = Swap(std::move(epoch).value(), -1);
  if (activated.ok()) ++plan_swaps_;
}

void Session::FillMetrics(RunMetrics* m) const {
  m->events = events_;
  m->elapsed_seconds = busy_seconds_;
  m->emissions = latency_count_;
  m->avg_latency_seconds =
      latency_count_ == 0 ? 0.0 : latency_sum_ / latency_count_;
  m->max_latency_seconds = latency_max_;
  m->throughput_eps = m->elapsed_seconds <= 0
                          ? 0
                          : static_cast<double>(events_) / m->elapsed_seconds;
  m->peak_memory_bytes = std::max(peak_memory_, CurrentMemory());
  m->current_memory_bytes = CurrentMemory();
  m->dnf_windows = dnf_windows_;
  m->evicted_compositions = evicted_compositions_;
  m->hamlet = AggregateHamletStats();
  m->decisions = retired_decisions_;
  if (config_.kind == EngineKind::kHamletDynamic) {
    for (const auto& rtp : runtimes_) {
      for (const auto& comp : rtp->components) {
        auto* dyn = static_cast<DynamicBenefitPolicy*>(comp->policy.get());
        m->decisions += dyn->decisions();
      }
    }
  }
  m->queries_added = queries_added_;
  m->queries_removed = queries_removed_;
  m->plan_swaps = plan_swaps_;
  m->reopt_checks = reoptimizer_.checks();
  m->reopt_swaps = reoptimizer_.swaps();
  m->active_epochs = static_cast<int64_t>(runtimes_.size());
  m->evicted_idle_groups = evicted_idle_groups_;
  m->runs = runs_;
  m->run_len_hist = run_len_hist_;
}

RunMetrics Session::MetricsSnapshot() const {
  if (closed_) return final_metrics_;
  RunMetrics m;
  FillMetrics(&m);
  return m;
}

Result<RunMetrics> Session::Close() {
  if (closed_) {
    return Status::FailedPrecondition(
        "Close on a closed session (first Close already returned the final "
        "metrics; use MetricsSnapshot to re-read them)");
  }
  {
    BusyScope busy(&busy_seconds_, config_.clock_override);
    // Flush every epoch (draining ones included) to its last window end —
    // window ends are pane-aligned on the epoch's own grid.
    for (auto& rtp : runtimes_) {
      Runtime& rt = *rtp;
      Timestamp flush_to = rt.pane_started ? rt.pane_start : 0;
      for (const auto& comp : rt.components) {
        for (const auto& [key, runner] : comp->groups) {
          for (const WindowSlot& w : runner->windows)
            flush_to = std::max(flush_to, w.we);
        }
      }
      AdvancePaneTo(rt, flush_to);
    }
  }
  closed_ = true;
  FillMetrics(&final_metrics_);
  return final_metrics_;
}

}  // namespace hamlet
