// Deterministic event -> shard routing, shared by the sharded runtime and
// the shard-aware stream sources.
//
// The paper's pre-processing (§3.1) partitions each component's stream by
// its group-by attribute because groups never interact. ShardRouter is that
// partition function made explicit: a copyable value object mapping an
// event's group-by key to one of N shards via a SplitMix64 mix (adjacent
// group keys must not land on adjacent shards, or workloads with few groups
// would pile onto a shard prefix). Optionally the hash is overlaid with
// skew-aware rebalancing (EnableRebalancing): new group keys whose hash
// shard is overloaded are diverted to the least-loaded shard — the fix for
// a hot group pinning one shard at 100% while its hash-neighbors idle.
// Assignments are sticky, so a group's whole stream still lands on exactly
// one shard and per-group window order is preserved.
//
// Exposing the route as a value lets work move off the ingest hot path:
//  * ShardedSession (src/runtime/sharded_session.h) routes internally with
//    the same object it returns from router(), and
//  * PartitionedBatchCursor / PartitionBatches below pre-partition a stream
//    into per-shard sub-batches *at generation time*, so the ingest thread
//    hands ready-made batches to the shard queues without hashing a single
//    event (ShardedSession::PushPrePartitioned).
#ifndef HAMLET_STREAM_SHARD_ROUTER_H_
#define HAMLET_STREAM_SHARD_ROUTER_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/stream/event.h"
#include "src/stream/generator.h"
#include "src/stream/schema.h"

namespace hamlet {

/// Event->shard map: hash(group-by key) % num_shards, optionally overlaid
/// with skew-aware rebalancing (EnableRebalancing). Copyable and cheap;
/// without rebalancing, identical inputs route identically on every
/// platform. Copies of a rebalancing router SHARE the rebalance state (it
/// sits behind a shared_ptr), so a PartitionedBatchCursor built from
/// ShardedSession::router() stays consistent with the session's own
/// routing. All routing calls (Route) must come from one thread at a time —
/// the single-producer ingest contract the sharded runtime already imposes.
class ShardRouter {
 public:
  /// Identity router: everything to shard 0.
  ShardRouter() = default;

  /// `partition_attr` is the group-by attribute shared by all exec queries
  /// (Schema::kInvalidId when the workload has no GROUPBY — every event
  /// then routes to shard 0). `num_shards` must be >= 1.
  ShardRouter(AttrId partition_attr, int num_shards)
      : partition_attr_(partition_attr), num_shards_(num_shards) {}

  /// The pure hash route, ignoring any rebalance overrides. Stateless.
  size_t ShardOf(const Event& event) const {
    if (num_shards_ == 1) return 0;
    return static_cast<size_t>(
        SplitMix64Mix(static_cast<uint64_t>(KeyOf(event))) %
        static_cast<uint64_t>(num_shards_));
  }

  /// The group-by key the route is derived from — public so the sharded
  /// runtime's steal controller can track per-key loads and record
  /// reassignments without duplicating the attribute extraction.
  int64_t GroupKeyOf(const Event& event) const { return KeyOf(event); }

  /// The pure hash route of a bare key (ShardOf without an Event).
  size_t ShardOfKey(int64_t key) const {
    if (num_shards_ == 1) return 0;
    return static_cast<size_t>(SplitMix64Mix(static_cast<uint64_t>(key)) %
                               static_cast<uint64_t>(num_shards_));
  }

  /// The shard a bare key is (or would be) routed to — AssignedShard
  /// without an Event.
  size_t AssignedShardOfKey(int64_t key) const {
    if (state_ != nullptr) {
      auto it = state_->assignment.find(key);
      if (it != state_->assignment.end()) return it->second.shard;
    }
    return ShardOfKey(key);
  }

  /// Turns on sticky key->shard assignment tracking WITHOUT skew-aware
  /// placement of new keys: new keys take their hash shard, but Reassign
  /// may later move them. The work-stealing front needs the assignment
  /// map even when shard_rebalance_threshold is 0; with rebalancing
  /// already enabled this is a no-op. Call before routing.
  void EnableReassignment();

  /// Moves an EXISTING key's sticky assignment to `shard` — the
  /// work-stealing migration primitive. Unlike Route's first-sight
  /// placement this deliberately changes where an established group lands;
  /// the caller (ShardedSession's steal protocol) moves the group's state
  /// with it, which keeps per-group window order intact across the move.
  /// Requires reassignment/rebalancing state (CHECK) and binds the key if
  /// it was somehow unseen. `last_seen` refreshes the DrainStale clock.
  void Reassign(int64_t key, size_t shard, Timestamp last_seen);

  /// Turns on skew-aware routing: a group key seen for the FIRST time whose
  /// hash shard leads the least-loaded shard by more than `threshold_events`
  /// staged events (over a sliding window of recent routes) is assigned to
  /// the least-loaded shard instead. Keys already seen never move — a
  /// group's whole stream stays on one shard, so per-group window order is
  /// untouched; only where NEW groups land adapts to the observed skew.
  /// threshold_events <= 0 leaves the router pure. Call before routing.
  void EnableRebalancing(int64_t threshold_events);

  bool rebalancing() const { return state_ != nullptr; }

  /// The stateful route: returns the key's assigned shard, deciding the
  /// assignment on first sight (hash, or least-loaded when the hash shard
  /// is overloaded — see EnableRebalancing) and recording the event in the
  /// sliding load window. Without rebalancing this is exactly ShardOf.
  /// Single-threaded; const because copies share the state object.
  size_t Route(const Event& event) const;

  /// The shard `event` is (or would be) routed to, without recording it:
  /// the key's existing assignment if rebalancing knows one, else the hash.
  size_t AssignedShard(const Event& event) const;

  /// Records the externally-chosen placements of one pre-partitioned chunk
  /// (sub-batch i = shard i) — the PushPrePartitioned path, where the
  /// CALLER partitioned the events. Atomic: first validates every event
  /// (a key already bound to a different shard, or one chunk placing the
  /// same new key on two shards, would split a group), THEN binds all new
  /// keys permanently. Returns -1 on success, else the index of the first
  /// offending sub-batch with NO state mutated. No-op (-1) without
  /// rebalancing, where the pure hash makes every router agree. Does not
  /// feed the load window — pre-partitioned traffic was either counted at
  /// build time (PartitionedBatchCursor routes through Route) or bypasses
  /// the rebalancer by design.
  int BindChunk(const std::vector<EventVector>& batches) const;

  /// Group keys diverted off their hash shard so far (0 when pure).
  int64_t rebalanced_keys() const {
    return state_ == nullptr
               ? 0
               : state_->rebalanced_keys.load(std::memory_order_relaxed);
  }

  /// Live sticky-assignment entries (0 when pure). The unbounded-growth
  /// surface DrainStale bounds: without draining, every group key ever
  /// routed stays resident for the session's lifetime.
  int64_t map_size() const {
    return state_ == nullptr
               ? 0
               : state_->map_size.load(std::memory_order_relaxed);
  }

  /// Forgets sticky assignments of keys whose last routed event time is
  /// <= `last_seen_cutoff`, returning how many entries were dropped. Safe
  /// ONLY once every window a dropped key's events could fall into has
  /// closed AND the owning shard evicted the group's runner
  /// (RunConfig::evict_idle_groups) — a reappearing key then re-routes
  /// fresh on BOTH sides, exactly like a never-seen key, so emissions stay
  /// identical to a single-threaded run. ShardedSession calls this at pane
  /// boundaries with cutoff = boundary - max(within); see
  /// docs/API.md ("Knob matrix"). Single-threaded like Route.
  int64_t DrainStale(Timestamp last_seen_cutoff) const;

  int num_shards() const { return num_shards_; }
  AttrId partition_attr() const { return partition_attr_; }

  /// Sliding-window half-length, in routed events: windowed load = the
  /// current half plus the whole previous half, so every load estimate
  /// covers between one and two halves of recent traffic.
  static constexpr int64_t kRebalanceHalfWindow = 2048;

 private:
  /// One sticky key assignment: the shard plus the key's newest event time,
  /// which DrainStale compares against its cutoff.
  struct Assignment {
    uint32_t shard = 0;
    Timestamp last_seen = 0;
  };

  struct RebalanceState {
    int64_t threshold = 0;
    /// Every key ever routed, with its sticky shard assignment — bounded
    /// under key churn only by periodic DrainStale calls.
    std::unordered_map<int64_t, Assignment> assignment;
    /// Two-bucket sliding window of per-shard staged-event counts.
    std::vector<int64_t> current;
    std::vector<int64_t> previous;
    int64_t in_window = 0;
    /// Atomic so a metrics reader may poll it while the ingest thread
    /// routes; everything else in here is ingest-thread-only.
    std::atomic<int64_t> rebalanced_keys{0};
    /// assignment.size() mirrored for lock-free metrics reads.
    std::atomic<int64_t> map_size{0};
  };

  int64_t KeyOf(const Event& event) const {
    if (partition_attr_ != Schema::kInvalidId &&
        partition_attr_ < static_cast<AttrId>(event.num_attrs)) {
      return static_cast<int64_t>(std::llround(event.attr(partition_attr_)));
    }
    return 0;
  }

  AttrId partition_attr_ = Schema::kInvalidId;
  int num_shards_ = 1;
  std::shared_ptr<RebalanceState> state_;
};

/// One pre-partitioned ingest unit: per_shard[i] holds, in stream order, the
/// chunk's events routed to shard i. Within a chunk each per-shard
/// subsequence is strictly time-increasing; subsequences of *different*
/// shards may interleave arbitrarily (only per-shard order matters to the
/// sharded runtime).
using PartitionedBatch = std::vector<EventVector>;

/// Shard-aware cursor adapter: drains an EventCursor in chunks of
/// `batch_events` events, routing each into its shard's sub-batch. The
/// bench harness uses this so shard-scaling runs measure engine work, not
/// front-thread hashing.
class PartitionedBatchCursor {
 public:
  /// `cursor` must outlive this object and yield strictly time-increasing
  /// events. `batch_events` (>= 1) is the total chunk size across shards.
  PartitionedBatchCursor(EventCursor* cursor, const ShardRouter& router,
                         size_t batch_events);

  /// Fills `*out` (resized to router.num_shards()) with the next chunk's
  /// per-shard sub-batches; returns false when the stream is exhausted.
  bool NextBatch(PartitionedBatch* out);

  const ShardRouter& router() const { return router_; }

 private:
  EventCursor* cursor_;
  ShardRouter router_;
  size_t batch_events_;
};

/// Materializes a whole stream as pre-partitioned chunks of `batch_events`
/// events each (the benchmark-side helper: build outside the timed region,
/// then feed chunks to ShardedSession::PushPrePartitioned).
std::vector<PartitionedBatch> PartitionBatches(std::span<const Event> events,
                                               const ShardRouter& router,
                                               size_t batch_events);

}  // namespace hamlet

#endif  // HAMLET_STREAM_SHARD_ROUTER_H_
