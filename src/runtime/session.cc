#include "src/runtime/session.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>  // std::this_thread only; threads spawn via common/thread.h
#include <tuple>
#include <utility>

#include "src/common/spsc_queue.h"
#include "src/runtime/control_plane.h"
#include "src/runtime/shard_engine.h"

namespace hamlet {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ClockNow(const std::function<double()>& override_fn) {
  return override_fn ? override_fn() : MonotonicSeconds();
}


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
  if (config.shard_queue_capacity < 2 ||
      config.shard_queue_capacity > kMaxQueuedEventsPerShard) {
    return Status::InvalidArgument(
        "shard_queue_capacity must be in [2, " +
        std::to_string(kMaxQueuedEventsPerShard) + "] events, got " +
        std::to_string(config.shard_queue_capacity));
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
  //   Re-optimization IS supported at any shard count (the front's control
  //   plane decides and hands each swap to every shard).
  // reoptimize_threshold: checked even while reopt is off, so flipping
  //   reoptimize_every_panes on later can never trip a latent bad value.
  // evict_idle_groups: engine-agnostic, no cross-checks; on the front it
  //   also enables router-map draining of placed and stolen
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
  // The max is the always-true lower bound; the front raises it with a
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
  // shard reports 0, and the front fills them in after the merge.
  // Idle-group evictions are genuine per-shard state and sum like the
  // other per-shard counters.
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

namespace {

/// One steal's runner hand-off: the victim fills it when it reaches the
/// detach, the thief blocks at the attach until it is full. The thief is
/// the idlest shard by construction, so it is where waiting is cheap; the
/// front never waits (see ExecuteSteal).
struct StealCell {
  Mutex mu;
  CondVar filled_cv;
  bool filled HAMLET_GUARDED_BY(mu) = false;
  ShardEngine::DetachedGroup moved HAMLET_GUARDED_BY(mu);
};

/// One control message of a shard: a watermark, a plan epoch, a steal, or
/// the stop signal. Events travel on the shard's event ring instead; each
/// message carries the count of events pushed to the shard before it, and
/// the worker runs exactly those events before applying it.
struct ShardMsg {
  enum class Kind : uint8_t {
    kWatermark,
    kStop,
    kEpoch,
    kStealDetach,
    kStealAttach
  };
  Kind kind = Kind::kWatermark;
  /// Events pushed to the shard's ring before this message (see
  /// Shard::Send).
  uint64_t events_before = 0;
  Timestamp watermark = 0;
  /// kEpoch: the front's control plane compiled it once; every shard runs
  /// the same immutable epoch from `boundary` on.
  QueryLifecycle::Epoch epoch;
  /// The pane boundary of an epoch hand-off or of a steal. The front picks
  /// it — its gate has seen every event — so all shards act on the
  /// identical boundary regardless of what subset of the stream each saw.
  Timestamp boundary = 0;
  /// Steal payload (kStealDetach/kStealAttach): the key's runners move
  /// from the victim to the thief through the steal's one hand-off cell,
  /// which both messages share.
  int64_t steal_key = 0;
  std::shared_ptr<StealCell> steal_cell;
};

/// Capacity of a shard's control ring. Control messages are rare next to
/// events (a watermark per AdvanceTo, an epoch per op, two per steal), and
/// a full ring only makes the front wait like a full event ring does.
constexpr size_t kControlQueueCapacity = 256;

/// How many processed events between worker snapshot refreshes; idle
/// workers refresh immediately, so this only bounds snapshot staleness
/// under sustained load.
constexpr int kSnapshotEveryEvents = 4096;
/// Consumer-side spin budget before parking on the condition variable.
constexpr int kIdleSpins = 64;
/// Parked workers re-poll at this interval even without a wake-up, which
/// bounds the cost of any missed notify to one period.
constexpr auto kParkInterval = std::chrono::microseconds(500);

/// Engine-call histogram buckets: bucket i counts worker engine calls of
/// [2^i, 2^(i+1)) events; the last bucket absorbs everything larger.
constexpr size_t kBatchHistBuckets = 16;

/// Concurrent-footprint sampling cadence, in front calls that wrote to a
/// shard (see WakeShards).
constexpr int kMemSampleEveryCalls = 16;

/// Backpressure: a front that finds a shard ring full sleeps, starting at
/// the first interval and doubling to the last, until half of the ring is
/// free again; a producer handle on a full hub ring sleeps the same way
/// until a slot is free. Sleeping rather than yielding keeps a writer that
/// outruns its reader off the CPU, and waiting for half a shard ring makes
/// each wake-up worth a large write instead of a single slot.
constexpr std::chrono::microseconds kBackpressureFirstSleep(20);
constexpr std::chrono::microseconds kBackpressureLastSleep(1000);

/// The most merged producer events one inline engine call (one shard), or
/// one wake-up of the workers (more shards), waits for.
constexpr size_t kMaxReleasedRun = 128;

/// Placement-window half-length, in staged events: windowed load = the
/// current half plus the whole previous half, so every load estimate covers
/// between one and two halves of recent traffic.
constexpr int64_t kLoadHalfWindow = 2048;
/// Work stealing only triggers when the max-loaded shard exceeds
/// ratio * min + this floor: tiny absolute imbalances (a few events) never
/// justify moving a group.
constexpr int64_t kStealLoadFloor = 64;
/// Migrations per pane boundary are capped; persistent imbalance re-fires
/// at the next crossing.
constexpr int kMaxStealsPerBoundary = 8;
/// Sequencer idle backoff: after this many empty merge rounds, sleep
/// instead of yielding (bounds wake-up latency to ~the sleep length).
constexpr int kSequencerIdleSpins = 64;
constexpr auto kSequencerIdleSleep = std::chrono::microseconds(50);

/// The session whose sequencer runs on this thread (nullptr elsewhere): an
/// AddProducer from a sink's OnEmission admits its handle inline instead
/// of waiting for the thread it is running on.
thread_local const Session* sequencing_session = nullptr;

/// Times calls into an engine for its busy-time metric
/// (RunMetrics::elapsed_seconds): each engine call on a shard's worker, and
/// at one shard the front's whole call, from the gate commit through the
/// re-optimization check. Each total has one writing thread, so a relaxed
/// load and store add to it while monitor threads read it. A null total
/// (a front with shard workers) reads no clock. Emission delivery is not
/// busy time: Stop() ends the scope before the front drains, so a sink that
/// pushes from OnEmission is not timed twice.
class BusyScope {
 public:
  BusyScope(std::atomic<double>* total, const std::function<double()>& clock)
      : total_(total),
        clock_(clock),
        start_(total != nullptr ? ClockNow(clock) : -1.0) {}
  ~BusyScope() { Stop(); }
  BusyScope(const BusyScope&) = delete;
  BusyScope& operator=(const BusyScope&) = delete;

  /// Entry wall time; negative when not timing.
  double start() const { return start_; }

  void Stop() {
    if (total_ == nullptr) return;
    total_->store(total_->load(std::memory_order_relaxed) +
                      (ClockNow(clock_) - start_),
                  std::memory_order_relaxed);
    total_ = nullptr;
  }

 private:
  std::atomic<double>* total_;
  const std::function<double()>& clock_;
  double start_;
};

/// Folds one shard's metrics into the session's.
void AddShardMetrics(RunMetrics& merged, const RunMetrics& shard) {
  MergeRunMetrics(merged, shard);
  merged.shard_events.push_back(shard.events);
}

size_t BatchHistBucket(size_t batch_size) {
  const size_t b = static_cast<size_t>(std::bit_width(batch_size)) - 1;
  return b < kBatchHistBuckets ? b : kBatchHistBuckets - 1;
}

}  // namespace

/// An engine's emission buffer, touched only by the thread running the
/// engine: a worker publishes it to its shard's outbox at message
/// boundaries (Shard::PublishEmissions); the inline engine's is drained by
/// the front once the engine call returns (DrainEmissions).
struct Session::BufferingSink : public EmissionSink {
  void OnEmission(const Emission& emission) override {
    buffered.push_back(emission);
  }

  std::vector<Emission> buffered;
};

struct Session::Shard {
  explicit Shard(size_t ring_capacity)
      : events(ring_capacity), control(kControlQueueCapacity) {}

  /// The shard's events in stream order: the front writes each event
  /// routed here straight into a slot, and the worker hands its engine
  /// every ready one in place (see WorkerLoop).
  SpscQueue<Event> events;
  /// Watermarks, epochs, steals and stop, each stamped with the number of
  /// events pushed before it (see Send).
  SpscQueue<ShardMsg> control;
  /// Histogram of this shard's engine-call sizes (the worker writes after
  /// each call, a monitor thread may read through MetricsSnapshot — hence
  /// relaxed atomics).
  std::array<std::atomic<int64_t>, kBatchHistBuckets> batch_hist{};
  /// Deepest the event ring has been, in events (front-observed at the end
  /// of its calls).
  std::atomic<int64_t> max_queue_depth{0};
  /// Worker-published current engine footprint, refreshed with the metrics
  /// snapshot; the front sums these to sample the concurrent footprint.
  std::atomic<int64_t> current_memory{0};
  /// The shard's engine; touched only by `worker` after the thread starts
  /// (a thread-start/join hand-off TSA cannot express; the worker is the
  /// only caller by construction).
  std::unique_ptr<ShardEngine> engine;
  std::unique_ptr<BufferingSink> sink;
  Thread worker;
  /// The session's RunConfig::clock_override, and the engine's busy time,
  /// which the worker accumulates around each engine call.
  const std::function<double()>* clock = nullptr;
  std::atomic<double> busy_seconds{0.0};

  /// Idle-parking handshake: the worker sets `parked` (then re-checks both
  /// rings) before a timed wait; the front notifies when it observes it.
  /// wake_mu guards no data — it exists to order the notify against the
  /// parked-store / ring-recheck (see Wake and WorkerLoop). `parked` is 1
  /// while the worker may be waiting; both sides touch it with seq_cst
  /// read-modify-writes (see Wake).
  Mutex wake_mu;
  CondVar wake_cv;
  std::atomic<int> parked{0};

  /// Worker-maintained copy of engine->MetricsSnapshot(), refreshed when
  /// idle, every kSnapshotEveryEvents events, and at every watermark.
  mutable Mutex snapshot_mu;
  RunMetrics snapshot HAMLET_GUARDED_BY(snapshot_mu);
  /// Last watermark the worker has fully applied (after refreshing the
  /// snapshot) — the re-optimizing front's checkpoint acknowledgement.
  std::atomic<Timestamp> watermark_applied{-1};
  /// Written by the worker on stop, read by the front after Join() — the
  /// join IS the synchronization, which TSA cannot model; unannotated.
  RunMetrics final_metrics;

  /// Emission fan-in hand-off: the worker appends under outbox_mu, the
  /// front swaps the vector out under the same mutex. Contention is
  /// worker-vs-front within one shard only — shards never share a lock —
  /// and both sides take it once per engine call or control message, not
  /// per emission.
  Mutex outbox_mu;
  std::vector<Emission> outbox HAMLET_GUARDED_BY(outbox_mu);
  /// Cheap "anything to drain?" hint so the front skips the lock when the
  /// outbox is empty (the common case on the per-push drain).
  std::atomic<bool> outbox_ready{false};
  /// Session-wide drain hint (Session::any_outbox_ready_): set after
  /// outbox_ready so the front's single load covers all shards.
  std::atomic<bool>* any_outbox_ready = nullptr;

  /// Front side: writes `v` into `ring`. A full ring wakes the worker, and
  /// the front sleeps, with the doubling backpressure interval, until half
  /// of the ring is free.
  template <typename T, typename V>
  void PushWaiting(SpscQueue<T>& ring, V&& v) {
    while (!ring.TryPush(std::forward<V>(v))) {
      Wake();
      for (auto sleep = kBackpressureFirstSleep;
           ring.ApproxSize() > ring.capacity() / 2;
           sleep = std::min(2 * sleep, kBackpressureLastSleep)) {
        std::this_thread::sleep_for(sleep);
      }
    }
  }

  /// Front side: queues a control message behind every event pushed so
  /// far, then wakes the worker.
  void Send(ShardMsg msg) {
    msg.events_before = events.pushed();
    PushWaiting(control, std::move(msg));
    Wake();
  }

  /// Front side: wakes the worker if it parked. Call after publishing
  /// events or a message.
  void Wake() {
    // Dekker: the push before this call stores a ring's tail and then this
    // side reads `parked`; the worker stores `parked` and then reads the
    // tails. A store followed by a load of another location is not ordered
    // on either side (the store may still sit in its core's store buffer),
    // so this side could read 0 while the worker reads empty rings, and the
    // worker would then sleep a whole kParkInterval with work waiting. Both
    // sides therefore access `parked` with a seq_cst read-modify-write,
    // which acts as a full fence between their store and load: the two
    // RMWs are totally ordered, so either ours comes first and the worker's
    // exchange synchronizes with it (its re-check sees the work), or the
    // worker's comes first and this one reads 1 and notifies. RMWs rather
    // than std::atomic_thread_fence, which ThreadSanitizer does not model
    // (GCC rejects it under -fsanitize=thread with -Werror).
    if (parked.fetch_or(0, std::memory_order_seq_cst) != 0) {
      // Taking wake_mu orders this notify against the worker's parked-store
      // / ring-recheck, so the worker sees either the work or the wake.
      MutexLock lock(wake_mu);
      wake_cv.NotifyOne();
    }
  }

  /// Worker side: true when neither ring holds anything.
  bool Idle() const { return !events.Peek() && !control.Peek(); }

  /// Worker side: moves the locally buffered emissions into the outbox.
  void PublishEmissions() {
    if (sink == nullptr || sink->buffered.empty()) return;
    std::vector<Emission>& local = sink->buffered;
    MutexLock lock(outbox_mu);
    if (outbox.empty()) {
      outbox.swap(local);
    } else {
      outbox.insert(outbox.end(), std::make_move_iterator(local.begin()),
                    std::make_move_iterator(local.end()));
      local.clear();
    }
    outbox_ready.store(true, std::memory_order_release);
    any_outbox_ready->store(true, std::memory_order_release);
  }
};

Result<ShardRouter> Session::RouterFor(const WorkloadPlan& plan,
                                              int num_shards) {
  if (num_shards < 1 || num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "num_shards must be in [1, " + std::to_string(kMaxShards) +
        "], got " + std::to_string(num_shards));
  }
  // A consistent event->shard route needs one partition attribute: with
  // mixed group-by attributes, the same event would belong to different
  // groups (hence shards) per component.
  AttrId partition_attr = Schema::kInvalidId;
  bool have_attr = false;
  for (const ExecQuery& eq : plan.exec_queries) {
    if (!have_attr) {
      partition_attr = eq.group_by;
      have_attr = true;
    } else if (eq.group_by != partition_attr && num_shards > 1) {
      return Status::Unsupported(
          "Session with num_shards > 1 requires all queries to share "
          "one group-by attribute; plan mixes attr " +
          std::to_string(partition_attr) + " and attr " +
          std::to_string(eq.group_by));
    }
  }
  return ShardRouter(partition_attr, num_shards);
}

Result<std::unique_ptr<Session>> Session::Open(
    const WorkloadPlan& plan, const RunConfig& config, EmissionSink* sink) {
  Status valid = ValidateRunConfig(config);
  if (!valid.ok()) return valid;
  Result<ShardRouter> router = RouterFor(plan, config.num_shards);
  if (!router.ok()) return router.status();
  std::unique_ptr<Session> s(new Session());
  // The opening thread is the front until Open returns: workers spawned
  // below only ever see their own Shard*, and no producer/sequencer can
  // exist yet, so holding the front role here is sound.
  ThreadRoleGuard role(s->front_role_);
  s->plan_ = &plan;
  s->config_ = config;
  s->sink_ = sink;
  s->router_ = router.value();
  if (config.num_shards > 1) {
    s->rebalance_threshold_ = config.shard_rebalance_threshold;
    s->stealing_ = config.work_stealing;
  }
  s->load_cur_.assign(static_cast<size_t>(config.num_shards), 0);
  s->load_prev_.assign(static_cast<size_t>(config.num_shards), 0);
  Result<std::unique_ptr<ControlPlane>> control =
      ControlPlane::Open(plan, config, s->gate_);
  if (!control.ok()) return control.status();
  s->control_ = std::move(control).value();
  for (const ExecQuery& eq : plan.exec_queries) {
    s->within_high_water_ = std::max(s->within_high_water_, eq.window.within);
  }
  if (config.num_shards == 1) {
    if (sink != nullptr) s->inline_sink_ = std::make_unique<BufferingSink>();
    s->engine_ = std::make_unique<ShardEngine>(s->control_->running(), config,
                                               s->inline_sink_.get());
    return s;
  }
  s->shards_.reserve(static_cast<size_t>(config.num_shards));
  for (int i = 0; i < config.num_shards; ++i) {
    auto shard = std::make_unique<Shard>(
        static_cast<size_t>(config.shard_queue_capacity));
    shard->any_outbox_ready = &s->any_outbox_ready_;
    shard->clock = &s->config_.clock_override;
    EmissionSink* shard_sink = nullptr;
    if (sink != nullptr) {
      shard->sink = std::make_unique<BufferingSink>();
      shard_sink = shard->sink.get();
    }
    shard->engine = std::make_unique<ShardEngine>(s->control_->running(),
                                                  config, shard_sink);
    {
      // Monitors reading before the worker's first refresh see the idle
      // engine's metrics, not a zero-initialized struct.
      MutexLock lock(shard->snapshot_mu);
      shard->snapshot = shard->engine->MetricsSnapshot();
    }
    s->shards_.push_back(std::move(shard));
  }
  for (auto& shard : s->shards_) {
    shard->worker = Thread(&Session::WorkerLoop, shard.get());
  }
  return s;
}

Session::~Session() {
  // A session whose Open failed before its control plane existed has
  // nothing to close.
  if (closed_.load(std::memory_order_acquire) || control_ == nullptr) return;
  // A destructor cannot fail, so tear down even if producer handles are
  // still open (using them afterwards is the caller's bug — Close() is the
  // API that enforces handle closure). The sequencer drains what was
  // already pushed, then the normal close path runs.
  StopSequencer();
  mp_mode_.store(false, std::memory_order_relaxed);
  (void)Close();  // metrics discarded by documented contract
}

void Session::WorkerLoop(Shard* shard) {
  auto refresh_snapshot = [shard] {
    RunMetrics m = shard->engine->MetricsSnapshot();
    m.elapsed_seconds = shard->busy_seconds.load(std::memory_order_relaxed);
    // Published for the front's concurrent-footprint sampling, outside the
    // snapshot mutex (the front reads it when it samples and must not
    // contend with a monitor thread holding snapshot_mu).
    shard->current_memory.store(m.current_memory_bytes,
                                std::memory_order_relaxed);
    MutexLock lock(shard->snapshot_mu);
    shard->snapshot = m;
  };
  int since_snapshot = 0;
  for (;;) {
    // What the last engine call or control message emitted goes out first.
    shard->PublishEmissions();
    if (since_snapshot >= kSnapshotEveryEvents) {
      refresh_snapshot();
      since_snapshot = 0;
    }
    // Read the event ring before peeking the next control message: a
    // message pushed before any readable event is then visible too, so one
    // still invisible is stamped behind every readable event. A visible
    // one sets the run to exactly the events stamped before it, which its
    // acquiring Peek made visible even when the first read saw fewer (the
    // front may push events and the message between the two loads).
    std::array<std::span<Event>, 2> ready = shard->events.Readable(SIZE_MAX);
    const ShardMsg* next = shard->control.Peek();
    if (next != nullptr) {
      ready = shard->events.Readable(next->events_before -
                                     shard->events.popped());
    }
    const size_t n = ready[0].size() + ready[1].size();
    if (n > 0) {
      // The front already validated ordering, and a subsequence of a
      // strictly increasing stream is strictly increasing. The engine
      // reads the events in place; Consume then frees their slots.
      {
        BusyScope busy(&shard->busy_seconds, *shard->clock);
        for (std::span<Event> span : ready) {
          if (span.empty()) continue;
          shard->engine->Push(span, /*arrival=*/-1.0);
          shard->batch_hist[BatchHistBucket(span.size())].fetch_add(
              1, std::memory_order_relaxed);
        }
      }
      shard->events.Consume(n);
      since_snapshot += static_cast<int>(n);
      continue;
    }
    if (next == nullptr) {
      // Refresh once when the rings drain, not on every idle poll — a
      // quiescent shard must not recompute identical metrics 2000x/s.
      if (since_snapshot > 0) {
        refresh_snapshot();
        since_snapshot = 0;
      }
      bool idle = true;
      for (int i = 0; i < kIdleSpins && idle; ++i) {
        std::this_thread::yield();
        idle = shard->Idle();
      }
      if (idle) {
        MutexLock lock(shard->wake_mu);
        // Re-check after publishing `parked`: a push that raced the
        // exchange either sees the flag (and notifies) or lands in this
        // poll (see the Dekker note in Wake).
        shard->parked.exchange(1, std::memory_order_seq_cst);
        if (shard->Idle()) shard->wake_cv.WaitFor(lock, kParkInterval);
        shard->parked.store(0, std::memory_order_relaxed);
      }
      continue;
    }
    // Every event stamped before `next` has run. Pop exactly the message
    // peeked above: one queued since could be stamped behind events that
    // have not run yet.
    ShardMsg msg;
    shard->control.TryPop(&msg);
    switch (msg.kind) {
      case ShardMsg::Kind::kWatermark: {
        {
          BusyScope busy(&shard->busy_seconds, *shard->clock);
          shard->engine->AdvanceTo(msg.watermark);
        }
        // A watermark is a checkpoint: publish fresh metrics BEFORE
        // acknowledging it, so a front that waits on the acknowledgement
        // (online re-optimization) reads statistics covering every event
        // logically before the watermark.
        refresh_snapshot();
        since_snapshot = 0;
        shard->watermark_applied.store(msg.watermark,
                                       std::memory_order_release);
        break;
      }
      case ShardMsg::Kind::kEpoch: {
        shard->engine->Schedule({std::move(msg.epoch), msg.boundary});
        ++since_snapshot;
        break;
      }
      case ShardMsg::Kind::kStealDetach: {
        // Victim side of a migration: fill the steal's cell with the key's
        // runners, advanced to the boundary.
        ShardEngine::DetachedGroup moved =
            shard->engine->DetachGroup(msg.steal_key, msg.boundary);
        // Publish the smaller footprint before the thief can attach the
        // runners, so the front's concurrent-memory sample never counts
        // them on both shards.
        refresh_snapshot();
        since_snapshot = 0;
        StealCell& cell = *msg.steal_cell;
        {
          MutexLock lock(cell.mu);
          cell.moved = std::move(moved);
          cell.filled = true;
        }
        cell.filled_cv.NotifyOne();
        break;
      }
      case ShardMsg::Kind::kStealAttach: {
        // Thief side: wait for the victim's detach. It was queued before
        // this attach, and any attach the victim meets first belongs to an
        // earlier steal, so chains of waits shrink in steal order and never
        // close into a cycle.
        ShardEngine::DetachedGroup moved;
        {
          StealCell& cell = *msg.steal_cell;
          MutexLock lock(cell.mu);
          while (!cell.filled) cell.filled_cv.Wait(lock);
          moved = std::move(cell.moved);
        }
        shard->engine->AttachGroup(msg.steal_key, msg.boundary,
                                   std::move(moved));
        ++since_snapshot;
        break;
      }
      case ShardMsg::Kind::kStop: {
        {
          BusyScope busy(&shard->busy_seconds, *shard->clock);
          shard->final_metrics = shard->engine->Close();
        }
        shard->final_metrics.elapsed_seconds =
            shard->busy_seconds.load(std::memory_order_relaxed);
        shard->PublishEmissions();
        shard->current_memory.store(shard->final_metrics.current_memory_bytes,
                                    std::memory_order_relaxed);
        MutexLock lock(shard->snapshot_mu);
        shard->snapshot = shard->final_metrics;
        return;
      }
    }
  }
}

void Session::SyncControl(Timestamp time) {
  if (time < control_->next_change()) return;
  for (const QueryLifecycle::Scheduled& drop : control_->Advance(time)) {
    Broadcast(drop);
  }
}

Session::Shard& Session::StageEvent(const Event& event) {
  SyncControl(event.time);
  const int64_t key = router_.GroupKeyOf(event);
  size_t target;
  if (rebalance_threshold_ == 0 && !stealing_) {
    target = router_.ShardOfKey(key);
  } else {
    if (stealing_) {
      // Order matters for determinism: pane crossings evaluate steal
      // triggers BEFORE this event is routed, so the triggering event
      // itself already lands on the thief — every decision is a pure
      // function of the event stream prefix.
      const Timestamp pane = PaneSize();
      const Timestamp event_pane = (event.time / pane) * pane;
      if (staged_any_ && event_pane > last_staged_pane_) {
        MaybeSteal(event_pane);
      }
      last_staged_pane_ = event_pane;
      staged_any_ = true;
    }
    if (rebalance_threshold_ > 0) {
      bool first_sight = false;
      target = router_.RouteSticky(key, event.time, &first_sight);
      if (first_sight) target = PlaceNewKey(key, target, event.time);
    } else {
      target = router_.RouteKey(key, event.time);
    }
    ++load_cur_[target];
    if (stealing_) ++key_load_[key].cur;
    if (++in_window_ >= kLoadHalfWindow) RollLoadWindow();
  }
  Shard& shard = *shards_[target];
  shard.PushWaiting(shard.events, event);
  return shard;
}

size_t Session::PlaceNewKey(int64_t key, size_t hash_shard,
                                   Timestamp time) {
  PublishMapSize();
  size_t least = 0;
  int64_t least_load = load_prev_[0] + load_cur_[0];
  for (size_t s = 1; s < load_cur_.size(); ++s) {
    const int64_t load = load_prev_[s] + load_cur_[s];
    if (load < least_load) {
      least = s;
      least_load = load;
    }
  }
  const int64_t hash_load = load_prev_[hash_shard] + load_cur_[hash_shard];
  if (hash_load - least_load <= rebalance_threshold_) return hash_shard;
  router_.Assign(key, least, time);
  rebalanced_keys_.fetch_add(1, std::memory_order_relaxed);
  return least;
}

void Session::PublishMapSize() {
  route_map_size_.store(router_.map_size(), std::memory_order_relaxed);
}

void Session::RollLoadWindow() {
  in_window_ = 0;
  std::swap(load_prev_, load_cur_);
  std::fill(load_cur_.begin(), load_cur_.end(), 0);
  for (auto it = key_load_.begin(); it != key_load_.end();) {
    if (it->second.cur == 0 && it->second.prev == 0) {
      it = key_load_.erase(it);
      continue;
    }
    it->second.prev = it->second.cur;
    it->second.cur = 0;
    ++it;
  }
}

void Session::MaybeSteal(Timestamp boundary) {
  for (int round = 0; round < kMaxStealsPerBoundary; ++round) {
    size_t victim = 0;
    size_t thief = 0;
    int64_t max_load = -1;
    int64_t min_load = std::numeric_limits<int64_t>::max();
    for (size_t s = 0; s < shards_.size(); ++s) {
      const int64_t load = load_prev_[s] + load_cur_[s];
      if (load > max_load) {
        max_load = load;
        victim = s;
      }
      if (load < min_load) {
        min_load = load;
        thief = s;
      }
    }
    if (victim == thief ||
        static_cast<double>(max_load) <=
            config_.steal_imbalance_ratio * static_cast<double>(min_load) +
                static_cast<double>(kStealLoadFloor)) {
      return;
    }
    // Candidate: the victim's heaviest key that actually improves the
    // balance (moving it must leave the thief below the victim's old
    // load, or keys ping-pong). Scanned with an explicit best-key rule —
    // heaviest, then smallest key — because unordered_map iteration order
    // must not leak into the (deterministic) decision.
    int64_t best_key = 0;
    int64_t best_load = -1;
    bool found = false;
    for (const auto& [key, kl] : key_load_) {
      const int64_t c = kl.cur + kl.prev;
      if (c <= 0 || min_load + c >= max_load) continue;
      if (router_.AssignedShardOfKey(key) != victim) continue;
      if (c > best_load || (c == best_load && key < best_key)) {
        best_key = key;
        best_load = c;
        found = true;
      }
    }
    if (!found) return;
    ExecuteSteal(best_key, victim, thief, boundary);
  }
}

void Session::ExecuteSteal(int64_t key, size_t victim, size_t thief,
                                  Timestamp boundary) {
  Shard& v = *shards_[victim];
  Shard& t = *shards_[thief];
  // From here on the key's events route to the thief. Without rebalancing
  // only off-hash placements need an override, so a key stolen back home
  // leaves the map; with it, every seen key stays (first-sight stickiness).
  if (rebalance_threshold_ == 0 && thief == router_.ShardOfKey(key)) {
    router_.Unassign(key);
  } else {
    router_.Assign(key, thief, boundary);
  }
  PublishMapSize();
  // The detach/attach pair is a barrier in stream order on both shards:
  // the events pushed so far (all before the boundary) run before it. Both
  // messages go out back to back; the runners travel shard to shard
  // through their cell, so the front never waits for the victim.
  ShardMsg detach;
  detach.kind = ShardMsg::Kind::kStealDetach;
  detach.steal_key = key;
  detach.boundary = boundary;
  detach.steal_cell = std::make_shared<StealCell>();
  ShardMsg attach = detach;
  attach.kind = ShardMsg::Kind::kStealAttach;
  v.Send(std::move(detach));
  t.Send(std::move(attach));
  // The key's window counts move with it so the next trigger evaluates
  // the post-steal balance (clamped: a key that migrated mid-window may
  // have contributed to more than one shard's buckets).
  KeyLoad& kl = key_load_[key];
  const int64_t move_cur = std::min(kl.cur, load_cur_[victim]);
  const int64_t move_prev = std::min(kl.prev, load_prev_[victim]);
  load_cur_[victim] -= move_cur;
  load_cur_[thief] += move_cur;
  load_prev_[victim] -= move_prev;
  load_prev_[thief] += move_prev;
  stolen_panes_.fetch_add(1, std::memory_order_relaxed);
}

void Session::WakeShards(Shard* only) {
  auto wake = [](Shard& shard) {
    shard.max_queue_depth.store(
        std::max(shard.max_queue_depth.load(std::memory_order_relaxed),
                 static_cast<int64_t>(shard.events.ApproxSize())),
        std::memory_order_relaxed);
    shard.Wake();
  };
  if (only != nullptr) {
    wake(*only);
  } else {
    for (auto& shard : shards_) wake(*shard);
  }
  // Sample the concurrent footprint every few calls: an O(num_shards) scan
  // on every per-event Push would tax exactly the path it should not, and
  // the peak is documented as sampled, so coarser sampling loses nothing.
  if (++calls_since_mem_sample_ >= kMemSampleEveryCalls) {
    calls_since_mem_sample_ = 0;
    SampleConcurrentMemory();
  }
}

void Session::SampleConcurrentMemory() {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->current_memory.load(std::memory_order_relaxed);
  }
  if (total > mem_high_water_.load(std::memory_order_relaxed)) {
    mem_high_water_.store(total, std::memory_order_relaxed);
  }
}

void Session::DrainEmissions() {
  if (sink_ == nullptr) return;
  // Sinks run on this thread, so a feedback-style sink may legally call
  // Push/AdvanceTo from OnEmission — which recurses into this function
  // while drain_scratch_ is mid-iteration. The guard turns the nested
  // drain into a no-op; whatever it would have delivered goes out with the
  // enclosing drain (its next round or next shard) or the next call.
  if (engine_ != nullptr) {
    if (draining_) return;
    draining_ = true;
    while (!inline_sink_->buffered.empty()) {
      drain_scratch_.clear();
      drain_scratch_.swap(inline_sink_->buffered);
      for (const Emission& emission : drain_scratch_) {
        sink_->OnEmission(emission);
      }
    }
    draining_ = false;
    return;
  }
  // One load covers all shards in the common nothing-to-drain case, so a
  // per-event Push ingest does not pay num_shards flag reads per event.
  // Clearing before the scan cannot lose a publication: any per-shard flag
  // set before the clear is still observed by the scan below, and one set
  // after it re-raises this hint for the next drain (Close drains
  // unconditionally).
  if (!any_outbox_ready_.load(std::memory_order_acquire)) return;
  if (draining_) return;
  draining_ = true;
  any_outbox_ready_.store(false, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    if (!shard->outbox_ready.load(std::memory_order_acquire)) continue;
    drain_scratch_.clear();
    {
      MutexLock lock(shard->outbox_mu);
      drain_scratch_.swap(shard->outbox);
      shard->outbox_ready.store(false, std::memory_order_relaxed);
    }
    // Deliver outside the lock: a slow sink must not stall the worker.
    for (const Emission& emission : drain_scratch_) {
      sink_->OnEmission(emission);
    }
  }
  draining_ = false;
}

Status Session::FrontGuard(const char* op) const {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(std::string(op) + " on a closed session");
  }
  // Session-level ingest and churn from the caller thread would race the
  // sequencer's front state in multi-producer mode.
  if (mp_mode_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "session-level " + std::string(op) +
        " on a multi-producer session; ingest through the Producer handles "
        "(the session watermark is their merged frontier), and churn only "
        "before AddProducer");
  }
  return Status::Ok();
}

void Session::RunInline(std::span<const Event> events, double arrival) {
  if (events.empty()) return;
  // The engine splits the events at the boundaries of the drops this
  // schedules.
  SyncControl(gate_.max_seen());
  MutexLock lock(engine_mu_);
  engine_->Push(events, arrival);
}

Status Session::Push(const Event& event) {
  if (Status guard = FrontGuard("Push"); !guard.ok()) return guard;
  // Single-producer mode: the calling thread is the front (see the
  // threading contract in the header).
  ThreadRoleGuard role(front_role_);
  Status valid = CheckEvent(event);
  if (!valid.ok()) return valid;
  // Rejected calls accrue no busy time: they do no engine work, and
  // charging them would deflate the reported throughput of a caller that
  // retries after errors.
  BusyScope busy(InlineBusy(), config_.clock_override);
  gate_.CommitEvent(event.time);
  control_->CountEvent(event.type);
  if (engine_ != nullptr) {
    // A lone event's arrival time is the scope-entry wall, keeping this
    // hot path at two clock reads total.
    RunInline(std::span<const Event>(&event, 1), busy.start());
  } else {
    // Only the shard just staged to is woken, so a push stays O(1) in the
    // shard count.
    WakeShards(&StageEvent(event));
  }
  MaybeReoptimize();
  busy.Stop();
  DrainEmissions();
  return Status::Ok();
}

Status Session::CheckEvent(const Event& event) const {
  Status ordered = gate_.CheckEvent(event.time);
  if (!ordered.ok()) return ordered;
  return CheckGroupKeys(event, control_->group_by_attrs(), schema());
}

Status Session::PushBatch(std::span<const Event> events) {
  if (Status guard = FrontGuard("PushBatch"); !guard.ok()) return guard;
  ThreadRoleGuard role(front_role_);
  // A batch rejected at its first event accrues no busy time (see Push);
  // the events before a later invalid one are committed and go out as
  // usual, and the time spent on them counts.
  Status valid = events.empty() ? Status::Ok() : CheckEvent(events.front());
  if (!valid.ok()) return valid;
  BusyScope busy(InlineBusy(), config_.clock_override);
  size_t committed = 0;
  for (const Event& e : events) {
    if (committed > 0) {
      valid = CheckEvent(e);
      if (!valid.ok()) break;
    }
    gate_.CommitEvent(e.time);
    control_->CountEvent(e.type);
    if (engine_ == nullptr) StageEvent(e);
    ++committed;
  }
  if (engine_ != nullptr) {
    RunInline(events.first(committed), /*arrival=*/-1.0);
  } else {
    WakeShards(/*only=*/nullptr);
  }
  MaybeReoptimize();
  busy.Stop();
  DrainEmissions();
  return valid;
}

Status Session::AdvanceTo(Timestamp watermark) {
  if (Status guard = FrontGuard("AdvanceTo"); !guard.ok()) return guard;
  ThreadRoleGuard role(front_role_);
  return AdvanceToInternal(watermark);
}

Status Session::AdvanceToInternal(Timestamp watermark) {
  Status ordered = gate_.CheckWatermark(watermark);
  if (!ordered.ok()) return ordered;
  BusyScope busy(InlineBusy(), config_.clock_override);
  gate_.CommitWatermark(watermark);
  SyncControl(watermark);
  if (engine_ != nullptr) {
    MutexLock lock(engine_mu_);
    engine_->AdvanceTo(watermark);
  }
  // The watermark is a barrier: every shard runs the events pushed to it
  // before applying it.
  for (auto& shard : shards_) {
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kWatermark;
    msg.watermark = watermark;
    shard->Send(std::move(msg));
  }
  if (control_->reoptimizing()) {
    // With online re-optimization, an explicit watermark is the drift
    // check's synchronization point: wait until every shard acknowledged
    // it (publishing fresh metrics first), so the check below — and every
    // later one — reads statistics that cover the whole stream before the
    // watermark instead of snapshots lagging by a queue depth. Emissions
    // are drained while waiting so worker outboxes keep moving. Only the
    // re-optimizing front pays this barrier, and only at watermarks.
    for (auto& shard : shards_) {
      while (shard->watermark_applied.load(std::memory_order_acquire) <
             watermark) {
        DrainEmissions();
        std::this_thread::yield();
      }
    }
  }
  MaybeDrainRouter();
  MaybeReoptimize();
  busy.Stop();
  DrainEmissions();
  return Status::Ok();
}

Result<std::unique_ptr<Session::Producer>>
Session::AddProducer() {
  // Once Close stopped the sequencer's loop, a handle (say, from a sink
  // during the final drain) could push events nobody merges.
  if (closed_.load(std::memory_order_acquire) ||
      seq_stop_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("AddProducer on a closed session");
  }
  int slot = -1;
  {
    MutexLock lock(producer_mu_);
    if (!poison_status_.ok()) return poison_status_;
    if (!mp_mode_.load(std::memory_order_relaxed)) {
      // First producer: the session switches to multi-producer mode for
      // good. The sequencer does not exist yet, no session-level push can
      // run concurrently (threading contract), and once mp_mode_ is set
      // this branch never re-runs — so the calling thread still IS the
      // front: it checks the gate and admits the first handle itself,
      // before the sequencer starts.
      ThreadRoleGuard role(front_role_);
      if (gate_.any_seen()) {
        return Status::FailedPrecondition(
            "AddProducer after session-level Push/AdvanceTo: a session uses "
            "ONE ingest mode — open the producers first");
      }
      hub_ = std::make_unique<MpscIngestHub<Event>>(
          static_cast<size_t>(config_.producer_queue_capacity));
      slot = hub_->Request();
      AdmitRequested();
      sequencer_ = Thread(&Session::SequencerLoop, this);
      mp_mode_.store(true, std::memory_order_release);
    } else {
      slot = hub_->Request();
    }
  }
  if (slot < 0) {
    return Status::ResourceExhausted(
        "all " + std::to_string(MpscIngestHub<Event>::kMaxProducers) +
        " producer slots are held by open or undrained handles");
  }
  if (sequencing_session == this) {
    // A sink on the sequencer thread: no merge scan is running (the sink
    // is called between releases), so the handle is admitted right here.
    ThreadRoleGuard role(front_role_);
    AdmitRequested();
  }
  std::unique_ptr<Producer> producer(new Producer(this, slot));
  // Seed the handle's gate with the admission bound so a late joiner
  // pushing below the merged horizon gets a synchronous kInvalidArgument
  // from its own handle instead of poisoning the session.
  const Timestamp bound = hub_->AwaitAdmission(slot);
  if (bound > MpscIngestHub<Event>::kTimeMin) {
    producer->gate_.CommitWatermark(bound);
  }
  return producer;
}

void Session::AdmitRequested() {
  // The gate's max_seen() is the larger of the last merged event and the
  // last broadcast watermark; the hub raises it to its largest released
  // time + 1.
  hub_->AdmitRequested(gate_.any_seen() ? gate_.max_seen()
                                        : MpscIngestHub<Event>::kTimeMin);
}

Session::Producer::~Producer() {
  // Dtor close is best-effort by documented contract; close explicitly to
  // observe the status.
  if (!closed_) (void)Close();
}

Status Session::Producer::Push(const Event& event) {
  if (closed_) {
    return Status::FailedPrecondition("Push on a closed producer handle");
  }
  if (owner_->poisoned_.load(std::memory_order_acquire)) {
    return owner_->PoisonStatus();
  }
  Status ordered = gate_.CheckEvent(event.time);
  if (!ordered.ok()) return ordered;
  Status keys = CheckGroupKeys(event, owner_->control_->group_by_attrs(),
                               owner_->schema());
  if (!keys.ok()) return keys;
  gate_.CommitEvent(event.time);
  Event copy = event;
  // Bounded-ring backpressure: the sequencer is behind. Sleep, with the
  // doubling interval of a full shard ring, until it frees a slot. A
  // poisoned session aborts the wait (the sequencer keeps draining, but
  // delivering this event is pointless).
  for (auto sleep = kBackpressureFirstSleep;
       !owner_->hub_->TryPush(slot_, std::move(copy));
       sleep = std::min(2 * sleep, kBackpressureLastSleep)) {
    if (owner_->poisoned_.load(std::memory_order_acquire)) {
      return owner_->PoisonStatus();
    }
    std::this_thread::sleep_for(sleep);
  }
  return Status::Ok();
}

Status Session::Producer::PushBatch(std::span<const Event> events) {
  for (const Event& event : events) {
    Status st = Push(event);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Status Session::Producer::AdvanceTo(Timestamp watermark) {
  if (closed_) {
    return Status::FailedPrecondition(
        "AdvanceTo on a closed producer handle");
  }
  if (owner_->poisoned_.load(std::memory_order_acquire)) {
    return owner_->PoisonStatus();
  }
  Status ordered = gate_.CheckWatermark(watermark);
  if (!ordered.ok()) return ordered;
  gate_.CommitWatermark(watermark);
  owner_->hub_->PublishBound(slot_, watermark);
  return Status::Ok();
}

Status Session::Producer::Close() {
  if (closed_) {
    return Status::FailedPrecondition("producer handle already closed");
  }
  closed_ = true;
  owner_->hub_->CloseSlot(slot_);
  return Status::Ok();
}

void Session::SequencerLoop() {
  // In multi-producer mode the sequencer IS the front: it owns the gate,
  // shard rings, steal bookkeeping, and emission fan-in until it exits (the
  // join in StopSequencer hands the role back to the closing thread).
  ThreadRoleGuard role(front_role_);
  sequencing_session = this;
  int idle = 0;
  Event event;
  for (;;) {
    // Joiners enter the roster between merge rounds, never mid-scan.
    AdmitRequested();
    // Close() guarantees every producer handle is closed before setting
    // the stop flag, so a round that starts after it empties the hub
    // completely (a closed, drained slot leaves the roster and blocks
    // nothing). The frontier then rests at the hub's floor (the max final
    // producer bound), and the round's broadcast sends it, so the
    // producers' last watermarks reach the shards DETERMINISTICALLY rather
    // than only when the idle loop happened to poll between the last
    // AdvanceTo and the close.
    const bool last_round = seq_stop_.load(std::memory_order_acquire);
    bool did_work = false;
    for (size_t run = 1; hub_->TryNext(&event); ++run) {
      did_work = true;
      IngestReleased(event);
      if (run % kMaxReleasedRun == 0) RunReleased();
    }
    if (did_work) RunReleased();
    // Broadcast only after draining until stuck: the frontier then bounds
    // every released timestamp, so it is a legal watermark.
    MaybeBroadcastFrontier();
    if (last_round) return;
    if (did_work) {
      idle = 0;
      continue;
    }
    DrainEmissions();
    if (++idle < kSequencerIdleSpins) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(kSequencerIdleSleep);
    }
  }
}

void Session::IngestReleased(const Event& event) {
  // A poisoned session still drains the hub — abandoning it would leave
  // producers spinning on full rings — but discards the events.
  if (poisoned_.load(std::memory_order_relaxed)) return;
  Status ordered = gate_.CheckEvent(event.time);
  if (!ordered.ok()) {
    // A cross-producer violation the per-producer gates could not see
    // (e.g. two producers pushing the same timestamp). The session
    // poisons — a sticky error every producer observes — instead of
    // feeding the engines a misordered stream.
    Poison(std::move(ordered));
    return;
  }
  gate_.CommitEvent(event.time);
  control_->CountEvent(event.type);
  if (engine_ != nullptr) {
    // One engine call per run of the merge, as PushBatch makes one per
    // batch.
    released_.push_back(event);
    return;
  }
  StageEvent(event);
  MaybeReoptimize();
  DrainEmissions();
}

void Session::RunReleased() {
  if (engine_ == nullptr) {
    WakeShards(/*only=*/nullptr);
    return;
  }
  if (released_.empty()) return;
  BusyScope busy(InlineBusy(), config_.clock_override);
  RunInline(released_, /*arrival=*/-1.0);
  released_.clear();
  MaybeReoptimize();
  busy.Stop();
  DrainEmissions();
}

void Session::MaybeBroadcastFrontier() {
  if (poisoned_.load(std::memory_order_relaxed)) return;
  const Timestamp frontier = hub_->Frontier();
  // With every producer closed and drained the frontier rests at the
  // hub's floor (max final bound), so departed producers' last watermarks
  // still broadcast. <= 0 covers the pre-first-bound state.
  if (frontier <= 0) return;
  const Timestamp pane = PaneSize();
  const Timestamp fpane = (frontier / pane) * pane;
  // Broadcast one LESS than the frontier pane (floored at the largest
  // released/committed time, which the gate requires). The raw frontier
  // must not go out: a push of event t publishes bound t+1, so a frontier
  // landing exactly on a pane boundary would open a pane the event stream
  // never reached — and whether that broadcast won the race against the
  // producer closing would decide the emission set. Both max_seen and
  // fpane-1 only ever advance panes a processed event or explicit
  // watermark already reached, so the broadcast is emission-neutral no
  // matter how the polling races; producer watermarks simply propagate
  // with up to one pane of lag (the shutdown broadcast and Close's flush
  // finish the tail).
  Timestamp watermark = fpane - 1;
  if (gate_.any_seen() && gate_.max_seen() > watermark) {
    watermark = gate_.max_seen();
  }
  if (watermark <= 0) return;
  // Throttle on the pane boundary the broadcast would ADVANCE TO (not the
  // raw frontier pane): watermarks sharing a boundary open and close the
  // same windows, so re-announcing one is pure per-shard queue overhead —
  // while a skipped boundary would change the emission set with timing.
  const Timestamp boundary = (watermark / pane) * pane;
  if (boundary <= last_frontier_pane_) return;
  last_frontier_pane_ = boundary;
  Status st = AdvanceToInternal(watermark);
  // The value is >= every committed event and watermark by construction,
  // so the gate can never reject it.
  HAMLET_CHECK(st.ok());
}

void Session::StopSequencer() {
  if (!sequencer_.Joinable()) return;
  seq_stop_.store(true, std::memory_order_release);
  sequencer_.Join();
}

void Session::Poison(Status status) {
  {
    MutexLock lock(producer_mu_);
    if (poison_status_.ok()) poison_status_ = std::move(status);
  }
  poisoned_.store(true, std::memory_order_release);
}

Status Session::PoisonStatus() {
  MutexLock lock(producer_mu_);
  return poison_status_;
}

Result<Timestamp> Session::AddQuery(const Query& query) {
  if (Status guard = FrontGuard("AddQuery"); !guard.ok()) return guard;
  // FrontGuard rejected multi-producer mode above, so the caller is the
  // front.
  ThreadRoleGuard role(front_role_);
  // Busy time covers Apply's drain too, which has nothing to deliver at
  // one shard: scheduling an epoch closes no window.
  BusyScope busy(InlineBusy(), config_.clock_override);
  return Apply(control_->AddQuery(query));
}

Result<Timestamp> Session::RemoveQuery(const std::string& name) {
  if (Status guard = FrontGuard("RemoveQuery"); !guard.ok()) return guard;
  ThreadRoleGuard role(front_role_);
  BusyScope busy(InlineBusy(), config_.clock_override);
  return Apply(control_->RemoveQuery(name));
}

Result<Timestamp> Session::ApplySharingOverrides(
    std::span<const SharingOverride> overrides) {
  if (Status guard = FrontGuard("ApplySharingOverrides"); !guard.ok()) {
    return guard;
  }
  ThreadRoleGuard role(front_role_);
  BusyScope busy(InlineBusy(), config_.clock_override);
  return Apply(control_->ApplySharingOverrides(overrides));
}

const std::vector<ReoptDecision>& Session::reopt_log() const {
  return control_->reopt_log();
}

std::vector<Query> Session::queries() const { return control_->queries(); }

Timestamp Session::PaneSize() const {
  return control_->running()->plan->pane_size;
}

Result<Timestamp> Session::Apply(
    const Result<QueryLifecycle::Scheduled>& op) {
  if (!op.ok()) return op.status();
  Broadcast(op.value());
  DrainEmissions();
  return op.value().at;
}

void Session::Broadcast(const QueryLifecycle::Scheduled& next) {
  if (engine_ != nullptr) {
    MutexLock lock(engine_mu_);
    engine_->Schedule(next);
  }
  // The epoch is a barrier in stream order: every shard runs the events
  // pushed to it before taking the epoch.
  for (auto& shard : shards_) {
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kEpoch;
    msg.epoch = next.epoch;
    msg.boundary = next.at;
    shard->Send(std::move(msg));
  }
  for (const ExecQuery& eq : next.epoch->plan->exec_queries) {
    within_high_water_ = std::max(within_high_water_, eq.window.within);
  }
}

void Session::MaybeReoptimize() {
  const std::optional<Timestamp> due = control_->ReoptDue();
  if (!due.has_value()) return;
  // Exact at one shard. Worker snapshots lag by at most
  // kSnapshotEveryEvents events per shard; stale statistics only delay a
  // swap by one check interval (both the baseline and the cumulative
  // reading come from the same snapshots, so the deltas stay consistent).
  HamletStats stats;
  if (engine_ != nullptr) {
    MutexLock lock(engine_mu_);
    stats = engine_->AggregateHamletStats();
  } else {
    stats = MetricsSnapshot().hamlet;
  }
  const std::optional<QueryLifecycle::Scheduled> swap =
      control_->Reoptimize(*due, stats);
  if (swap.has_value()) Broadcast(*swap);
}

void Session::MaybeDrainRouter() {
  if (!config_.evict_idle_groups || router_.map_size() == 0) return;
  // A diverted or stolen key last seen at E <= boundary - W_max has every
  // window that could contain its events closed AND (via evict_idle_groups)
  // its engine state evicted from its shard by that boundary, so if the key
  // re-appears, re-routing it elsewhere can neither split live state nor
  // duplicate a (window, query, group) emission: the old shard's windows
  // all ended before any window the new shard will open.
  const Timestamp boundary = (gate_.max_seen() / PaneSize()) * PaneSize();
  router_.DrainStale(boundary - within_high_water_);
  PublishMapSize();
}

Result<RunMetrics> Session::Close() {
  if (closed_) {
    return Status::FailedPrecondition(
        "Close on a closed session (first Close already returned the final "
        "metrics; use MetricsSnapshot to re-read them)");
  }
  if (mp_mode_.load(std::memory_order_acquire)) {
    if (const int open = hub_->open_producers(); open > 0) {
      return Status::FailedPrecondition(
          "Close with " + std::to_string(open) +
          " producer handle(s) still open; close every producer first");
    }
    // All handles closed: the sequencer's final drain empties the hub,
    // merges the tail, and the join makes its front state (gate_, rings,
    // steal bookkeeping) visible to this thread for the close path below.
    StopSequencer();
  }
  // The sequencer (if one ever ran) has exited above, so the closing
  // thread is the front again for the final sweep.
  ThreadRoleGuard role(front_role_);
  RunMetrics merged;
  if (engine_ != nullptr) {
    MutexLock lock(engine_mu_);
    RunMetrics m;
    {
      BusyScope busy(InlineBusy(), config_.clock_override);
      m = engine_->Close();
    }
    m.elapsed_seconds = inline_busy_seconds_.load(std::memory_order_relaxed);
    AddShardMetrics(merged, m);
  }
  // Each shard saw only a subset of the stream, so its own max seen time
  // can trail the front's. Broadcasting the front's max as a final
  // watermark (never a regression: max_seen includes every watermark)
  // brings every shard to the same final pane before the Close flush
  // sweep: a shard with no event in that pane still opens its windows,
  // and idle-group eviction horizons align with the single-threaded
  // reference, so emissions match it at any shard count.
  if (gate_.any_seen()) {
    for (auto& shard : shards_) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kWatermark;
      msg.watermark = gate_.max_seen();
      shard->Send(std::move(msg));
    }
  }
  for (auto& shard : shards_) {
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kStop;
    shard->Send(std::move(msg));
  }
  for (auto& shard : shards_) {
    shard->worker.Join();
    AddShardMetrics(merged, shard->final_metrics);
  }
  FillIngressMetrics(merged);
  final_metrics_ = merged;
  closed_.store(true, std::memory_order_release);
  // The inline engine and the workers buffered every remaining emission; this
  // final fan-in empties those buffers into the sink. It runs after the session
  // is marked closed, so a feedback sink pushing from OnEmission gets
  // kFailedPrecondition instead of staging events no engine will ever process.
  // It must NOT share DrainEmissions' guard/scratch: a sink may call Close from
  // OnEmission mid-drain, and a guarded no-op here would silently lose the
  // stop-flushed emissions of shards the interrupted drain already passed
  // (nothing drains after Close). A local buffer keeps the interrupted drain's
  // scratch intact.
  if (sink_ != nullptr) {
    std::vector<Emission> remaining;
    if (inline_sink_ != nullptr) remaining.swap(inline_sink_->buffered);
    for (const Emission& emission : remaining) sink_->OnEmission(emission);
    for (auto& shard : shards_) {
      remaining.clear();
      {
        MutexLock lock(shard->outbox_mu);
        remaining.swap(shard->outbox);
        shard->outbox_ready.store(false, std::memory_order_relaxed);
      }
      for (const Emission& emission : remaining) {
        sink_->OnEmission(emission);
      }
    }
  }
  // A poisoned session shut down cleanly but its answer is incomplete:
  // the poison, not the metrics, is the result (MetricsSnapshot keeps the
  // final metrics readable).
  if (poisoned_.load(std::memory_order_acquire)) return PoisonStatus();
  return merged;
}

void Session::FillIngressMetrics(RunMetrics& merged) const {
  merged.shard_batch_hist.assign(kBatchHistBuckets, 0);
  int64_t max_depth = 0;
  for (const auto& shard : shards_) {
    for (size_t b = 0; b < kBatchHistBuckets; ++b) {
      merged.shard_batch_hist[b] +=
          shard->batch_hist[b].load(std::memory_order_relaxed);
    }
    max_depth = std::max(
        max_depth, shard->max_queue_depth.load(std::memory_order_relaxed));
  }
  // Drop empty tail buckets so small-batch runs print compactly.
  while (!merged.shard_batch_hist.empty() &&
         merged.shard_batch_hist.back() == 0) {
    merged.shard_batch_hist.pop_back();
  }
  merged.max_queue_depth_msgs = max_depth;
  merged.rebalanced_keys = rebalanced_keys_.load(std::memory_order_relaxed);
  merged.rebalance_map_size =
      route_map_size_.load(std::memory_order_relaxed);
  // Shards never steal on their own; migrations execute on the front.
  merged.stolen_panes += stolen_panes_.load(std::memory_order_relaxed);
  // Shards have no control plane; the front's counts every op once.
  control_->FillMetrics(&merged);
  // The merge left peak at max(per-shard peaks) — the always-true floor;
  // the sampled concurrent sum can only raise it toward the true
  // simultaneous footprint (and never past the sum of peaks).
  merged.peak_memory_bytes = std::max(
      merged.peak_memory_bytes, mem_high_water_.load(std::memory_order_relaxed));
}

RunMetrics Session::MetricsSnapshot() const {
  if (closed_.load(std::memory_order_acquire)) return final_metrics_;
  RunMetrics merged;
  if (engine_ != nullptr) {
    MutexLock lock(engine_mu_);
    RunMetrics m = engine_->MetricsSnapshot();
    m.elapsed_seconds = inline_busy_seconds_.load(std::memory_order_relaxed);
    AddShardMetrics(merged, m);
  }
  for (const auto& shard : shards_) {
    RunMetrics m;
    {
      MutexLock lock(shard->snapshot_mu);
      m = shard->snapshot;
    }
    AddShardMetrics(merged, m);
  }
  FillIngressMetrics(merged);
  return merged;
}

}  // namespace hamlet
