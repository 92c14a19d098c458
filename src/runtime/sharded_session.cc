#include "src/runtime/sharded_session.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <string>
#include <thread>  // std::this_thread only; threads spawn via common/thread.h
#include <utility>

#include "src/common/mutex.h"
#include "src/common/spsc_queue.h"
#include "src/common/thread.h"

namespace hamlet {

namespace {

/// One steal's runner hand-off: the victim fills it when it reaches the
/// detach, the thief blocks at the attach until it is full. The thief is
/// the idlest shard by construction, so it is where waiting is cheap; the
/// front never waits (see ExecuteSteal).
struct StealCell {
  Mutex mu;
  CondVar filled_cv;
  bool filled HAMLET_GUARDED_BY(mu) = false;
  Session::DetachedGroup moved HAMLET_GUARDED_BY(mu);
};

/// One ingress-queue entry: a batch of events, a watermark, a plan epoch,
/// a steal, or the stop signal. Batch-granular hand-off is the point — one
/// queue slot (and one wake-up check) per RunConfig::shard_batch_size
/// events instead of per event.
struct ShardMsg {
  enum class Kind : uint8_t {
    kBatch,
    kWatermark,
    kStop,
    kEpoch,
    kStealDetach,
    kStealAttach
  };
  Kind kind = Kind::kBatch;
  EventVector batch;
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

/// Worker-local emission buffer. Only the shard's worker thread touches it
/// (via its Session); the worker publishes the contents to the shard's
/// outbox at message boundaries — see Shard::PublishEmissions.
class BufferingSink : public EmissionSink {
 public:
  void OnEmission(const Emission& emission) override {
    buffered_.push_back(emission);
  }

  std::vector<Emission>& buffered() { return buffered_; }

 private:
  std::vector<Emission> buffered_;
};

/// How many processed events between worker snapshot refreshes; idle
/// workers refresh immediately, so this only bounds snapshot staleness
/// under sustained load.
constexpr int kSnapshotEveryEvents = 4096;
/// Consumer-side spin budget before parking on the condition variable.
constexpr int kIdleSpins = 64;
/// Parked workers re-poll at this interval even without a wake-up, which
/// bounds the cost of any missed notify to one period.
constexpr auto kParkInterval = std::chrono::microseconds(500);

/// Batch-size histogram buckets: bucket i counts flushed batches of size in
/// [2^i, 2^(i+1)); the last bucket absorbs everything larger.
constexpr size_t kBatchHistBuckets = 16;

/// Concurrent-footprint sampling cadence, in staging flushes (see
/// FlushShard).
constexpr int kMemSampleEveryFlushes = 16;

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
thread_local const ShardedSession* sequencing_session = nullptr;

size_t BatchHistBucket(size_t batch_size) {
  const size_t b = static_cast<size_t>(std::bit_width(batch_size)) - 1;
  return b < kBatchHistBuckets ? b : kBatchHistBuckets - 1;
}

}  // namespace

struct ShardedSession::Shard {
  explicit Shard(size_t queue_capacity)
      : queue(queue_capacity), recycle(queue_capacity) {}

  SpscQueue<ShardMsg> queue;
  /// Worker -> producer return path for consumed batch buffers: the
  /// producer reuses their capacity for the next staging flush, so
  /// steady-state ingest allocates nothing. Best-effort — a full recycle
  /// ring just lets the buffer deallocate.
  SpscQueue<EventVector> recycle;
  /// Producer-side staging buffer (front thread only): events accumulate
  /// here until a full batch, an idle queue or a barrier flushes them as one
  /// message (see FlushIfIdle).
  EventVector staging;
  /// Histogram of this shard's flushed batch sizes (front thread writes at
  /// flush, a monitor thread may read through MetricsSnapshot — hence
  /// relaxed atomics).
  std::array<std::atomic<int64_t>, kBatchHistBuckets> batch_hist{};
  /// Deepest the ingress queue has been, in messages (producer-observed
  /// after each Send).
  std::atomic<int64_t> max_queue_depth{0};
  /// Worker-published current engine footprint, refreshed with the metrics
  /// snapshot; the front sums these to sample the concurrent footprint.
  std::atomic<int64_t> current_memory{0};
  /// The unmodified single-threaded machinery; touched only by `worker`
  /// after the thread starts (a thread-start/join hand-off TSA cannot
  /// express; the worker is the only caller by construction).
  std::unique_ptr<Session> session;
  std::unique_ptr<BufferingSink> sink;
  Thread worker;

  /// Idle-parking handshake: the worker sets `parked` (then re-checks the
  /// queue) before a timed wait; the producer notifies when it observes it.
  /// wake_mu guards no data — it exists to order the notify against the
  /// parked-store / queue-recheck (see Send and WorkerLoop).
  Mutex wake_mu;
  CondVar wake_cv;
  std::atomic<bool> parked{false};

  /// Worker-maintained copy of session->MetricsSnapshot(), refreshed when
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
  /// and both sides take it once per *message*, not per emission.
  Mutex outbox_mu;
  std::vector<Emission> outbox HAMLET_GUARDED_BY(outbox_mu);
  /// Cheap "anything to drain?" hint so the front skips the lock when the
  /// outbox is empty (the common case on the per-push drain).
  std::atomic<bool> outbox_ready{false};
  /// Session-wide drain hint (ShardedSession::any_outbox_ready_): set after
  /// outbox_ready so the front's single load covers all shards.
  std::atomic<bool>* any_outbox_ready = nullptr;

  /// Producer-side enqueue with backpressure and parked-consumer wake-up.
  void Send(ShardMsg msg) {
    if (!queue.TryPush(std::move(msg))) {
      // Bounded-queue backpressure: the shard is saturated; yield the
      // producer until the worker frees a slot.
      max_queue_depth.store(static_cast<int64_t>(queue.capacity()),
                            std::memory_order_relaxed);
      do {
        std::this_thread::yield();
      } while (!queue.TryPush(std::move(msg)));
    }
    const int64_t depth = static_cast<int64_t>(queue.ApproxSize());
    if (depth > max_queue_depth.load(std::memory_order_relaxed)) {
      max_queue_depth.store(depth, std::memory_order_relaxed);
    }
    if (parked.load(std::memory_order_seq_cst)) {
      // Taking wake_mu orders this notify against the worker's parked-store
      // / queue-recheck, so the worker sees either the message or the wake.
      MutexLock lock(wake_mu);
      wake_cv.NotifyOne();
    }
  }

  /// Worker side: moves the locally buffered emissions into the outbox.
  void PublishEmissions() {
    if (sink == nullptr || sink->buffered().empty()) return;
    std::vector<Emission>& local = sink->buffered();
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

Result<ShardRouter> ShardedSession::RouterFor(const WorkloadPlan& plan,
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
          "ShardedSession with num_shards > 1 requires all queries to share "
          "one group-by attribute; plan mixes attr " +
          std::to_string(partition_attr) + " and attr " +
          std::to_string(eq.group_by));
    }
  }
  return ShardRouter(partition_attr, num_shards);
}

Result<std::unique_ptr<ShardedSession>> ShardedSession::Open(
    const WorkloadPlan& plan, const RunConfig& config, EmissionSink* sink) {
  Status valid = ValidateRunConfig(config);
  if (!valid.ok()) return valid;
  Result<ShardRouter> router = RouterFor(plan, config.num_shards);
  if (!router.ok()) return router.status();
  std::unique_ptr<ShardedSession> s(new ShardedSession());
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
  s->shards_.reserve(static_cast<size_t>(config.num_shards));
  for (int i = 0; i < config.num_shards; ++i) {
    auto shard = std::make_unique<Shard>(
        static_cast<size_t>(config.shard_queue_capacity));
    shard->staging.reserve(static_cast<size_t>(config.shard_batch_size));
    shard->any_outbox_ready = &s->any_outbox_ready_;
    EmissionSink* shard_sink = nullptr;
    if (sink != nullptr) {
      shard->sink = std::make_unique<BufferingSink>();
      shard_sink = shard->sink.get();
    }
    shard->session =
        Session::OpenShard(s->control_->running(), config, shard_sink);
    {
      // Monitors reading before the worker's first refresh see the idle
      // session's metrics, not a zero-initialized struct.
      MutexLock lock(shard->snapshot_mu);
      shard->snapshot = shard->session->MetricsSnapshot();
    }
    s->shards_.push_back(std::move(shard));
  }
  for (auto& shard : s->shards_) {
    shard->worker = Thread(&ShardedSession::WorkerLoop, shard.get());
  }
  return s;
}

ShardedSession::~ShardedSession() {
  if (closed_.load(std::memory_order_acquire)) return;
  // A destructor cannot fail, so tear down even if producer handles are
  // still open (using them afterwards is the caller's bug — Close() is the
  // API that enforces handle closure). The sequencer drains what was
  // already pushed, then the normal close path runs.
  StopSequencer();
  mp_mode_.store(false, std::memory_order_relaxed);
  (void)Close();  // metrics discarded by documented contract
}

void ShardedSession::WorkerLoop(Shard* shard) {
  auto refresh_snapshot = [shard] {
    RunMetrics m = shard->session->MetricsSnapshot();
    // Published for the front's concurrent-footprint sampling, outside the
    // snapshot mutex (the front reads it on the flush path and must not
    // contend with a monitor thread holding snapshot_mu).
    shard->current_memory.store(m.current_memory_bytes,
                                std::memory_order_relaxed);
    MutexLock lock(shard->snapshot_mu);
    shard->snapshot = m;
  };
  int since_snapshot = 0;
  for (;;) {
    ShardMsg msg;
    if (!shard->queue.TryPop(&msg)) {
      // Refresh once when the queue drains, not on every idle poll — a
      // quiescent shard must not recompute identical metrics 2000x/s.
      if (since_snapshot > 0) {
        refresh_snapshot();
        since_snapshot = 0;
      }
      bool got = false;
      for (int i = 0; i < kIdleSpins && !got; ++i) {
        std::this_thread::yield();
        got = shard->queue.TryPop(&msg);
      }
      if (!got) {
        MutexLock lock(shard->wake_mu);
        shard->parked.store(true, std::memory_order_seq_cst);
        // Re-check after publishing `parked`: a push that raced the store
        // either sees the flag (and notifies) or lands in this poll.
        if (shard->queue.Empty()) shard->wake_cv.WaitFor(lock, kParkInterval);
        shard->parked.store(false, std::memory_order_relaxed);
        continue;
      }
    }
    switch (msg.kind) {
      case ShardMsg::Kind::kBatch: {
        // The front already validated ordering, and a subsequence of a
        // strictly increasing stream is strictly increasing.
        Status st = shard->session->PushBatch(msg.batch);
        HAMLET_CHECK(st.ok());
        since_snapshot += static_cast<int>(msg.batch.size());
        msg.batch.clear();
        // Return the buffer's capacity to the producer (best-effort).
        shard->recycle.TryPush(std::move(msg.batch));
        break;
      }
      case ShardMsg::Kind::kWatermark: {
        Status st = shard->session->AdvanceTo(msg.watermark);
        HAMLET_CHECK(st.ok());
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
        shard->session->Schedule({std::move(msg.epoch), msg.boundary});
        ++since_snapshot;
        break;
      }
      case ShardMsg::Kind::kStealDetach: {
        // Victim side of a migration: fill the steal's cell with the key's
        // runners, advanced to the boundary.
        Session::DetachedGroup moved =
            shard->session->DetachGroup(msg.steal_key, msg.boundary);
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
        Session::DetachedGroup moved;
        {
          StealCell& cell = *msg.steal_cell;
          MutexLock lock(cell.mu);
          while (!cell.filled) cell.filled_cv.Wait(lock);
          moved = std::move(cell.moved);
        }
        shard->session->AttachGroup(msg.steal_key, msg.boundary,
                                    std::move(moved));
        ++since_snapshot;
        break;
      }
      case ShardMsg::Kind::kStop: {
        Result<RunMetrics> final = shard->session->Close();
        HAMLET_CHECK(final.ok());
        shard->PublishEmissions();
        shard->final_metrics = final.value();
        shard->current_memory.store(final.value().current_memory_bytes,
                                    std::memory_order_relaxed);
        MutexLock lock(shard->snapshot_mu);
        shard->snapshot = shard->final_metrics;
        return;
      }
    }
    shard->PublishEmissions();
    if (since_snapshot >= kSnapshotEveryEvents) {
      refresh_snapshot();
      since_snapshot = 0;
    }
  }
}

void ShardedSession::SyncControl(Timestamp time) {
  if (time < control_->next_change()) return;
  for (const QueryLifecycle::Scheduled& drop : control_->Advance(time)) {
    Broadcast(drop);
  }
}

ShardedSession::Shard& ShardedSession::StageEvent(const Event& event) {
  SyncControl(event.time);
  const int64_t key = router_.GroupKeyOf(event);
  if (rebalance_threshold_ == 0 && !stealing_) {
    Shard& shard = *shards_[router_.ShardOfKey(key)];
    StageTo(shard, event);
    return shard;
  }
  if (stealing_) {
    // Order matters for determinism: pane crossings evaluate steal
    // triggers BEFORE this event is routed, so the triggering event itself
    // already lands on the thief — every decision is a pure function of
    // the event stream prefix.
    const Timestamp pane = PaneSize();
    const Timestamp event_pane = (event.time / pane) * pane;
    if (staged_any_ && event_pane > last_staged_pane_) MaybeSteal(event_pane);
    last_staged_pane_ = event_pane;
    staged_any_ = true;
  }
  size_t target;
  if (rebalance_threshold_ > 0) {
    bool first_sight = false;
    target = router_.RouteSticky(key, event.time, &first_sight);
    if (first_sight) target = PlaceNewKey(key, target, event.time);
  } else {
    target = router_.RouteKey(key, event.time);
  }
  Shard& shard = *shards_[target];
  StageTo(shard, event);
  ++load_cur_[target];
  if (stealing_) ++key_load_[key].cur;
  if (++in_window_ >= kLoadHalfWindow) RollLoadWindow();
  return shard;
}

size_t ShardedSession::PlaceNewKey(int64_t key, size_t hash_shard,
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

void ShardedSession::PublishMapSize() {
  route_map_size_.store(router_.map_size(), std::memory_order_relaxed);
}

void ShardedSession::RollLoadWindow() {
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

void ShardedSession::MaybeSteal(Timestamp boundary) {
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

void ShardedSession::ExecuteSteal(int64_t key, size_t victim, size_t thief,
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
  // staged events (all before the boundary) logically precede it. Both
  // messages go out back to back; the runners travel shard to shard
  // through their cell, so the front never waits for the victim.
  FlushShard(v);
  FlushShard(t);
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

void ShardedSession::StageTo(Shard& shard, const Event& event) {
  shard.staging.push_back(event);
  if (shard.staging.size() >= static_cast<size_t>(config_.shard_batch_size)) {
    FlushShard(shard);
  }
}

void ShardedSession::FlushIfIdle(Shard& shard) {
  // ApproxSize is exact on the producer side, so 0 means the worker has
  // taken every message: it is idle or about to be, and holding events back
  // would only delay them. A busy queue keeps staging, so under load the
  // batch grows with the backlog up to shard_batch_size.
  if (!shard.staging.empty() && shard.queue.ApproxSize() == 0) {
    FlushShard(shard);
  }
}

void ShardedSession::FlushIdleShards() {
  for (auto& shard : shards_) FlushIfIdle(*shard);
}

void ShardedSession::FlushShard(Shard& shard) {
  if (shard.staging.empty()) return;
  const size_t bucket = BatchHistBucket(shard.staging.size());
  shard.batch_hist[bucket].fetch_add(1, std::memory_order_relaxed);
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kBatch;
  // Reuse a worker-returned buffer's capacity when one is available.
  if (shard.recycle.TryPop(&msg.batch)) msg.batch.clear();
  msg.batch.swap(shard.staging);
  shard.Send(std::move(msg));
  // Sample the concurrent footprint at flush boundaries, throttled: with
  // batch size 1 (hand-off baseline, or an idle worker fed event by event)
  // a flush happens per event, and an O(num_shards) scan there would tax
  // exactly the per-event path batching is measured against. The peak is
  // documented as sampled, so coarser sampling loses nothing.
  if (++flushes_since_mem_sample_ >= kMemSampleEveryFlushes) {
    flushes_since_mem_sample_ = 0;
    SampleConcurrentMemory();
  }
}

void ShardedSession::SampleConcurrentMemory() {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->current_memory.load(std::memory_order_relaxed);
  }
  if (total > mem_high_water_.load(std::memory_order_relaxed)) {
    mem_high_water_.store(total, std::memory_order_relaxed);
  }
}

void ShardedSession::FlushAllShards() {
  for (auto& shard : shards_) FlushShard(*shard);
}

void ShardedSession::DrainEmissions() {
  if (sink_ == nullptr) return;
  // One load covers all shards in the common nothing-to-drain case, so a
  // per-event Push ingest does not pay num_shards flag reads per event.
  // Clearing before the scan cannot lose a publication: any per-shard flag
  // set before the clear is still observed by the scan below, and one set
  // after it re-raises this hint for the next drain (Close drains
  // unconditionally).
  if (!any_outbox_ready_.load(std::memory_order_acquire)) return;
  // Sinks run on this thread, so a feedback-style sink may legally call
  // Push/AdvanceTo from OnEmission — which recurses into this function
  // while drain_scratch_ is mid-iteration. The guard turns the nested
  // drain into a no-op; whatever it would have delivered goes out with the
  // enclosing drain's next shard or the next call.
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

Status ShardedSession::Push(const Event& event) {
  if (closed_) {
    return Status::FailedPrecondition("Push on a closed session");
  }
  if (mp_mode_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "session-level Push on a multi-producer session; push through the "
        "Producer handles (AddProducer)");
  }
  // Single-producer mode: the calling thread is the front (see the
  // threading contract in the header).
  ThreadRoleGuard role(front_role_);
  Status valid = CheckEvent(event);
  if (!valid.ok()) return valid;
  gate_.CommitEvent(event.time);
  control_->CountEvent(event.type);
  // Only the shard just staged to is checked, so a push stays O(1) in the
  // shard count.
  FlushIfIdle(StageEvent(event));
  MaybeReoptimize();
  DrainEmissions();
  return Status::Ok();
}

Status ShardedSession::CheckEvent(const Event& event) const {
  Status ordered = gate_.CheckEvent(event.time);
  if (!ordered.ok()) return ordered;
  return CheckGroupKeys(event, control_->group_by_attrs(), schema());
}

Status ShardedSession::PushBatch(std::span<const Event> events) {
  if (closed_) {
    return Status::FailedPrecondition("PushBatch on a closed session");
  }
  if (mp_mode_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "session-level PushBatch on a multi-producer session; push through "
        "the Producer handles (AddProducer)");
  }
  ThreadRoleGuard role(front_role_);
  Status valid = Status::Ok();
  for (const Event& e : events) {
    valid = CheckEvent(e);
    if (!valid.ok()) break;
    gate_.CommitEvent(e.time);
    control_->CountEvent(e.type);
    StageEvent(e);
  }
  // The events staged before an invalid one are committed: they go out
  // under the same rule.
  FlushIdleShards();
  if (!valid.ok()) return valid;
  MaybeReoptimize();
  DrainEmissions();
  return Status::Ok();
}

Status ShardedSession::AdvanceTo(Timestamp watermark) {
  if (closed_) {
    return Status::FailedPrecondition("AdvanceTo on a closed session");
  }
  if (mp_mode_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "session-level AdvanceTo on a multi-producer session; use "
        "Producer::AdvanceTo (the session watermark is the merged "
        "frontier)");
  }
  ThreadRoleGuard role(front_role_);
  return AdvanceToInternal(watermark);
}

Status ShardedSession::AdvanceToInternal(Timestamp watermark) {
  Status ordered = gate_.CheckWatermark(watermark);
  if (!ordered.ok()) return ordered;
  gate_.CommitWatermark(watermark);
  SyncControl(watermark);
  // The watermark is a barrier: staged events logically precede it, so
  // they must reach their shards first.
  FlushAllShards();
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
  DrainEmissions();
  return Status::Ok();
}

Result<std::unique_ptr<ShardedSession::Producer>>
ShardedSession::AddProducer() {
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
      sequencer_ = Thread(&ShardedSession::SequencerLoop, this);
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

void ShardedSession::AdmitRequested() {
  // The gate's max_seen() is the larger of the last merged event and the
  // last broadcast watermark; the hub raises it to its largest released
  // time + 1.
  hub_->AdmitRequested(gate_.any_seen() ? gate_.max_seen()
                                        : MpscIngestHub<Event>::kTimeMin);
}

ShardedSession::Producer::~Producer() {
  // Dtor close is best-effort by documented contract; close explicitly to
  // observe the status.
  if (!closed_) (void)Close();
}

Status ShardedSession::Producer::Push(const Event& event) {
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
  while (!owner_->hub_->TryPush(slot_, std::move(copy))) {
    // Bounded-ring backpressure: the sequencer is behind; yield until it
    // frees a slot. A poisoned session aborts the wait (the sequencer
    // keeps draining, but delivering this event is pointless).
    if (owner_->poisoned_.load(std::memory_order_acquire)) {
      return owner_->PoisonStatus();
    }
    std::this_thread::yield();
  }
  return Status::Ok();
}

Status ShardedSession::Producer::PushBatch(std::span<const Event> events) {
  for (const Event& event : events) {
    Status st = Push(event);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Status ShardedSession::Producer::AdvanceTo(Timestamp watermark) {
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

Status ShardedSession::Producer::Close() {
  if (closed_) {
    return Status::FailedPrecondition("producer handle already closed");
  }
  closed_ = true;
  owner_->hub_->CloseSlot(slot_);
  return Status::Ok();
}

void ShardedSession::SequencerLoop() {
  // In multi-producer mode the sequencer IS the front: it owns the gate,
  // staging, steal bookkeeping, and emission fan-in until it exits (the
  // join in StopSequencer hands the role back to the closing thread).
  ThreadRoleGuard role(front_role_);
  sequencing_session = this;
  int idle = 0;
  Event event;
  for (;;) {
    // Joiners enter the roster between merge rounds, never mid-scan.
    AdmitRequested();
    bool did_work = false;
    while (hub_->TryNext(&event)) {
      did_work = true;
      IngestReleased(event);
    }
    // The merge is stuck, so the front has run out of input: idle shards
    // get what is staged for them. Idle rounds check too, so a shard whose
    // queue was busy when the input stopped gets its tail once it drains.
    FlushIdleShards();
    // Broadcast only after draining until stuck: the frontier then bounds
    // every released timestamp, so it is a legal watermark.
    MaybeBroadcastFrontier();
    if (seq_stop_.load(std::memory_order_acquire)) {
      // Close() guarantees every producer handle is closed before setting
      // the stop flag, so this final drain empties the hub completely (a
      // closed, drained slot leaves the roster and blocks nothing). The
      // frontier then rests at the hub's floor (the max final producer
      // bound) — broadcast it, so the producers' last watermarks reach the
      // shards DETERMINISTICALLY rather than only when the idle loop
      // happened to poll between the last AdvanceTo and the close.
      while (hub_->TryNext(&event)) IngestReleased(event);
      MaybeBroadcastFrontier();
      return;
    }
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

void ShardedSession::IngestReleased(const Event& event) {
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
  StageEvent(event);
  MaybeReoptimize();
  DrainEmissions();
}

void ShardedSession::MaybeBroadcastFrontier() {
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

void ShardedSession::StopSequencer() {
  if (!sequencer_.Joinable()) return;
  seq_stop_.store(true, std::memory_order_release);
  sequencer_.Join();
}

void ShardedSession::Poison(Status status) {
  {
    MutexLock lock(producer_mu_);
    if (poison_status_.ok()) poison_status_ = std::move(status);
  }
  poisoned_.store(true, std::memory_order_release);
}

Status ShardedSession::PoisonStatus() {
  MutexLock lock(producer_mu_);
  return poison_status_;
}

Result<Timestamp> ShardedSession::AddQuery(const Query& query) {
  if (Status guard = ChurnGuard("AddQuery"); !guard.ok()) return guard;
  // ChurnGuard rejected multi-producer mode above, so the caller is the
  // front.
  ThreadRoleGuard role(front_role_);
  return Apply(control_->AddQuery(query));
}

Result<Timestamp> ShardedSession::RemoveQuery(const std::string& name) {
  if (Status guard = ChurnGuard("RemoveQuery"); !guard.ok()) return guard;
  ThreadRoleGuard role(front_role_);
  return Apply(control_->RemoveQuery(name));
}

Result<Timestamp> ShardedSession::ApplySharingOverrides(
    std::span<const SharingOverride> overrides) {
  if (Status guard = ChurnGuard("ApplySharingOverrides"); !guard.ok()) {
    return guard;
  }
  ThreadRoleGuard role(front_role_);
  return Apply(control_->ApplySharingOverrides(overrides));
}

Status ShardedSession::ChurnGuard(const char* op) const {
  if (closed_) {
    return Status::FailedPrecondition(std::string(op) +
                                      " on a closed session");
  }
  // Query churn from the caller thread would race the sequencer's front
  // state in multi-producer mode.
  if (mp_mode_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        std::string(op) + " on a multi-producer session (query churn is "
        "front-thread only; close the producer handles first)");
  }
  return Status::Ok();
}

Result<Timestamp> ShardedSession::Apply(
    const Result<QueryLifecycle::Scheduled>& op) {
  if (!op.ok()) return op.status();
  Broadcast(op.value());
  DrainEmissions();
  return op.value().at;
}

void ShardedSession::Broadcast(const QueryLifecycle::Scheduled& next) {
  // The epoch is a barrier in stream order: staged events precede it.
  FlushAllShards();
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

void ShardedSession::MaybeReoptimize() {
  const std::optional<Timestamp> due = control_->ReoptDue();
  if (!due.has_value()) return;
  // Worker snapshots lag by at most kSnapshotEveryEvents events per shard;
  // stale statistics only delay a swap by one check interval (both the
  // baseline and the cumulative reading come from the same snapshots, so
  // the deltas stay consistent).
  const std::optional<QueryLifecycle::Scheduled> swap =
      control_->Reoptimize(*due, MetricsSnapshot().hamlet);
  if (swap.has_value()) Broadcast(*swap);
}

void ShardedSession::MaybeDrainRouter() {
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

Result<RunMetrics> ShardedSession::Close() {
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
    // merges the tail, and the join makes its front state (gate_, staging,
    // steal bookkeeping) visible to this thread for the close path below.
    StopSequencer();
  }
  // The sequencer (if one ever ran) has exited above, so the closing
  // thread is the front again for the final sweep.
  ThreadRoleGuard role(front_role_);
  FlushAllShards();
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
  RunMetrics merged;
  for (auto& shard : shards_) {
    shard->worker.Join();
    MergeRunMetrics(merged, shard->final_metrics);
    merged.shard_events.push_back(shard->final_metrics.events);
  }
  FillIngressMetrics(merged);
  final_metrics_ = merged;
  closed_.store(true, std::memory_order_release);
  // Workers published every remaining emission before exiting; this final
  // fan-in empties all outboxes into the sink. It runs after the session
  // is marked closed, so a feedback sink pushing from OnEmission gets
  // kFailedPrecondition instead of staging events no worker will ever
  // process. It must NOT share DrainEmissions' guard/scratch: a sink may
  // call Close from OnEmission mid-drain, and a guarded no-op here would
  // silently lose the stop-flushed emissions of shards the interrupted
  // drain already passed (nothing drains after Close). A local buffer
  // keeps the interrupted drain's scratch intact.
  if (sink_ != nullptr) {
    for (auto& shard : shards_) {
      std::vector<Emission> remaining;
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

void ShardedSession::FillIngressMetrics(RunMetrics& merged) const {
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

RunMetrics ShardedSession::MetricsSnapshot() const {
  if (closed_.load(std::memory_order_acquire)) return final_metrics_;
  RunMetrics merged;
  for (const auto& shard : shards_) {
    RunMetrics m;
    {
      MutexLock lock(shard->snapshot_mu);
      m = shard->snapshot;
    }
    MergeRunMetrics(merged, m);
    merged.shard_events.push_back(m.events);
  }
  FillIngressMetrics(merged);
  return merged;
}

}  // namespace hamlet
