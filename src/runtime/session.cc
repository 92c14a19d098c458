#include "src/runtime/session.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "src/query/run_segmenter.h"
#include "src/runtime/control_plane.h"

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
  into.divergent_events += s.divergent_events;
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
  //   Re-optimization IS supported at any shard count (the ShardedSession
  //   front's control plane decides and hands each swap to every shard).
  // reoptimize_threshold: checked even while reopt is off, so flipping
  //   reoptimize_every_panes on later can never trip a latent bad value.
  // evict_idle_groups: engine-agnostic, no cross-checks; on a sharded
  //   session it also enables router-map draining of placed and stolen
  //   keys (RunMetrics::rebalance_map_size).
  // work_stealing: requires steal_imbalance_ratio > 1.0 (checked even
  //   while off, mirroring reoptimize_threshold). Combines with every
  //   other knob: query churn and re-optimization (every shard runs one
  //   plan epoch and switches it at the same boundary) and
  //   evict_idle_groups (a key evicted before its steal moves nothing and
  //   recreates fresh on the thief). Inert at num_shards == 1 (no second
  //   shard to steal to).
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

void AddGroupByAttrs(const WorkloadPlan& plan, std::vector<AttrId>* attrs) {
  for (const ExecQuery& eq : plan.exec_queries) {
    if (eq.group_by != Schema::kInvalidId &&
        std::find(attrs->begin(), attrs->end(), eq.group_by) == attrs->end()) {
      attrs->push_back(eq.group_by);
    }
  }
}

Status CheckGroupKeys(const Event& event, std::span<const AttrId> key_attrs,
                      const Schema& schema) {
  for (AttrId a : key_attrs) {
    // An event without the attribute is group 0.
    if (a >= event.num_attrs) continue;
    const double v = event.attr(a);
    // std::llround is defined only inside int64; NaN fails both tests.
    if (v >= -0x1p63 && v < 0x1p63) continue;
    char value[32];
    std::snprintf(value, sizeof(value), "%g", v);
    return Status::InvalidArgument(
        "invalid group-by value at t=" + std::to_string(event.time) +
        ": attribute '" + schema.AttrName(a) + "' is " + value +
        " (must be finite and within int64)");
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
  // Control-plane counters are counted once, by the one control plane: a
  // shard reports 0, and the ShardedSession front fills them in after the
  // merge. Idle-group evictions are genuine per-shard state and sum like
  // the other per-shard counters.
  into.rebalance_map_size =
      std::max(into.rebalance_map_size, from.rebalance_map_size);
  into.queries_added += from.queries_added;
  into.queries_removed += from.queries_removed;
  into.plan_swaps += from.plan_swaps;
  into.reopt_checks += from.reopt_checks;
  into.reopt_swaps += from.reopt_swaps;
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

/// A compiled plan generation plus what derives from it alone, immutable
/// once built. The session's runtime runs one; a per-window engine slot
/// keeps the one it was opened under alive across hand-offs.
struct Session::PlanEpoch {
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
struct Session::WindowSlot {
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

struct Session::Component {
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

struct Session::GroupRunner {
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

/// The running epoch (see the declaration in session.h).
struct Session::Runtime {
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
  std::vector<std::unique_ptr<Component>> components;
  /// The component of each exec query.
  std::vector<Component*> component_of;
  Timestamp pane_start = 0;
  bool pane_started = false;
};

Result<std::unique_ptr<Session>> Session::Open(const WorkloadPlan& plan,
                                               const RunConfig& config,
                                               EmissionSink* sink) {
  Status valid = ValidateRunConfig(config);
  if (!valid.ok()) return valid;
  auto session = std::unique_ptr<Session>(new Session(config, sink));
  Result<std::unique_ptr<ControlPlane>> control =
      ControlPlane::Open(plan, config, session->gate_);
  if (!control.ok()) return control.status();
  session->control_ = std::move(control).value();
  session->rt_ = session->BuildRuntime(session->control_->running());
  return session;
}

std::unique_ptr<Session> Session::OpenShard(QueryLifecycle::Epoch opening,
                                            const RunConfig& config,
                                            EmissionSink* sink) {
  auto session = std::unique_ptr<Session>(new Session(config, sink));
  session->rt_ = session->BuildRuntime(std::move(opening));
  return session;
}

Session::Session(const RunConfig& config, EmissionSink* sink)
    : config_(config), sink_(sink) {}

std::unique_ptr<Session::Runtime> Session::BuildRuntime(
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

Session::~Session() = default;

void Session::OpenDueWindows(Runtime& rt, GroupRunner& runner,
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

void Session::EmitExecValue(const PlanEpoch& ep, int exec_id,
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

void Session::CloseExpiredWindows(GroupRunner& runner, Timestamp now) {
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

void Session::EvictDeadCompositions(Timestamp boundary) {
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

int64_t Session::CurrentMemory() const {
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

void Session::AdvancePaneTo(Timestamp time) {
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

std::unique_ptr<Session::GroupRunner> Session::MakeRunner(Runtime& rt,
                                                          Component& comp,
                                                          int64_t key) {
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

Session::GroupRunner& Session::NewGroupRunner(Runtime& rt, Component& comp,
                                              int64_t key) {
  std::unique_ptr<GroupRunner>& slot = comp.groups[key];
  slot = MakeRunner(rt, comp, key);
  GroupRunner& runner = *slot;
  OpenDueWindows(rt, runner, rt.pane_start, /*retroactive=*/true);
  if (runner.hamlet) runner.hamlet->OnPaneStart(rt.pane_start);
  return runner;
}

void Session::HandOff(QueryLifecycle::Epoch compiled) {
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

Status Session::CheckEvent(const Event& event) const {
  Status ordered = gate_.CheckEvent(event.time);
  // A shard's front has checked the group keys.
  if (!ordered.ok() || control_ == nullptr) return ordered;
  return CheckGroupKeys(event, control_->group_by_attrs(),
                        *rt_->plan->workload->schema());
}

Status Session::Ingest(std::span<const Event> events, bool per_event) {
  // Rejected calls accrue no busy time: they do no engine work, and
  // charging them would deflate the reported throughput of a caller that
  // retries after errors. A mid-batch rejection keeps the time already
  // spent on the valid prefix (that work was real and its effects stand).
  Status result = CheckEvent(events.front());
  if (!result.ok()) return result;
  BusyScope busy(&busy_seconds_, config_.clock_override);
  // Ordering-gate pre-pass: commit the valid prefix before dispatch. The
  // final gate state, counters and engine-visible events are identical to
  // a per-event interleaving (engines never see the invalid suffix; the
  // only mid-batch gate reader is the idle-eviction horizon, whose
  // event-triggered checks are insensitive to it).
  ControlPlane* const control = control_.get();
  size_t valid = 0;
  for (const Event& e : events) {
    if (valid > 0) {
      result = CheckEvent(e);
      if (!result.ok()) break;
    }
    gate_.CommitEvent(e.time);
    ++events_;
    if (control != nullptr) control->CountEvent(e.type);
    ++valid;
  }
  SyncControl(gate_.max_seen());
  // A per-event Push is a 1-row run whose arrival time is the scope-entry
  // wall, keeping that hot path at two clock reads total.
  const double arrival = per_event ? busy.start() : -1.0;
  std::span<const Event> rest = events.first(valid);
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
  MaybeReoptimize();
  return result;
}

void Session::DispatchRuns(std::span<const Event> events, double arrival) {
  if (events.empty()) return;
  Runtime& rt = *rt_;
  // Transpose the rows into the SoA staging batch and run the predicate
  // kernels batch-wide up front.
  const PredicateProgram& program = rt.epoch->compiled->program;
  rt.batch_scratch.Assign(events);
  program.EvalBatch(rt.batch_scratch, &rt.selection);
  SegmentRuns(rt.batch_scratch, static_cast<int>(events.size()),
              rt.plan->pane_size, rt.all_execs, program.predicated_queries(),
              rt.selection.masks, &rt.run_spans);
  const Timestamp pane = rt.plan->pane_size;
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
    const Event& first = events[static_cast<size_t>(run.row_begin)];
    const Timestamp event_pane = (first.time / pane) * pane;
    if (!rt.pane_started || event_pane > rt.pane_start) {
      AdvancePaneTo(first.time);
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
      const bool creates = comp.type_mask[static_cast<size_t>(run.type)];
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
        if (it != comp.groups.end()) {
          runner = it->second.get();
        } else if (creates) {
          runner = &NewGroupRunner(rt, comp, key);
        } else {
          sub = sub_end;  // only a carried window reacts to this type
          continue;
        }
        runner->last_event_time = events[static_cast<size_t>(sub_end - 1)].time;
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
  SyncControl(watermark);
  AdvancePaneTo(watermark);
  MaybeReoptimize();
  return Status::Ok();
}

void Session::Schedule(QueryLifecycle::Scheduled next) {
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

void Session::SyncControl(Timestamp time) {
  if (control_ == nullptr || time < control_->next_change()) return;
  for (QueryLifecycle::Scheduled& drop : control_->Advance(time)) {
    Schedule(std::move(drop));
  }
}

Result<Timestamp> Session::Apply(Result<QueryLifecycle::Scheduled> op) {
  if (!op.ok()) return op.status();
  const Timestamp at = op.value().at;
  Schedule(std::move(op).value());
  return at;
}

Result<Timestamp> Session::AddQuery(const Query& query) {
  if (closed_) {
    return Status::FailedPrecondition("AddQuery on a closed session");
  }
  BusyScope busy(&busy_seconds_, config_.clock_override);
  return Apply(control_->AddQuery(query));
}

Result<Timestamp> Session::RemoveQuery(const std::string& name) {
  if (closed_) {
    return Status::FailedPrecondition("RemoveQuery on a closed session");
  }
  BusyScope busy(&busy_seconds_, config_.clock_override);
  return Apply(control_->RemoveQuery(name));
}

Result<Timestamp> Session::ApplySharingOverrides(
    std::span<const SharingOverride> overrides) {
  if (closed_) {
    return Status::FailedPrecondition(
        "ApplySharingOverrides on a closed session");
  }
  BusyScope busy(&busy_seconds_, config_.clock_override);
  return Apply(control_->ApplySharingOverrides(overrides));
}

const std::vector<ReoptDecision>& Session::reopt_log() const {
  return control_->reopt_log();
}

std::vector<Query> Session::queries() const { return control_->queries(); }

Session::DetachedGroup::DetachedGroup() = default;
Session::DetachedGroup::DetachedGroup(DetachedGroup&&) noexcept = default;
Session::DetachedGroup& Session::DetachedGroup::operator=(
    DetachedGroup&&) noexcept = default;
Session::DetachedGroup::~DetachedGroup() = default;

Session::DetachedGroup Session::DetachGroup(int64_t group_key,
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

void Session::AttachGroup(int64_t group_key, Timestamp boundary,
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
    // The dynamic policy counts decisions per session.
    if (runner.hamlet) runner.hamlet->set_policy(comp.policy.get());
    // The router sent the key elsewhere until this boundary.
    HAMLET_CHECK(comp.groups.emplace(group_key, std::move(group.runners[c]))
                     .second);
  }
}

void Session::AdvanceToStealBoundary(Timestamp boundary) {
  // The stream has reached the boundary (the sharded front staged an event
  // at or past it, and every earlier event of this session precedes it),
  // so it counts as observed: idle groups evict at it exactly as in a
  // single-threaded run. A later watermark may already cover it.
  if (gate_.CheckWatermark(boundary).ok()) gate_.CommitWatermark(boundary);
  AdvancePaneTo(boundary);
}

HamletStats Session::AggregateHamletStats() const {
  HamletStats s = retired_stats_;
  for (const auto& comp : rt_->components) {
    for (const auto& [key, runner] : comp->groups) {
      if (runner->hamlet) AddStats(s, runner->hamlet->stats());
    }
  }
  return s;
}

void Session::MaybeReoptimize() {
  if (control_ == nullptr) return;
  const std::optional<Timestamp> due = control_->ReoptDue();
  if (!due.has_value()) return;
  std::optional<QueryLifecycle::Scheduled> swap =
      control_->Reoptimize(*due, AggregateHamletStats());
  if (swap.has_value()) Schedule(std::move(swap).value());
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
    for (const auto& comp : rt_->components) {
      auto* dyn = static_cast<DynamicBenefitPolicy*>(comp->policy.get());
      m->decisions += dyn->decisions();
    }
  }
  if (control_ != nullptr) control_->FillMetrics(m);
  m->active_epochs = 1;
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
  }
  closed_ = true;
  FillMetrics(&final_metrics_);
  return final_metrics_;
}

}  // namespace hamlet
