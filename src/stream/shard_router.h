// Deterministic event -> shard routing for the sharded runtime.
//
// The paper's pre-processing (§3.1) partitions each component's stream by
// its group-by attribute because groups never interact. ShardRouter is that
// partition function made explicit: a copyable value mapping an event's
// group-by key to one of N shards via a SplitMix64 mix (adjacent group keys
// must not land on adjacent shards, or workloads with few groups would pile
// onto a shard prefix), overlaid with a plain key->shard override map.
//
// The router holds no placement policy. Session (src/runtime/session.h)
// owns one: its front keeps a sliding per-shard load window and writes
// an override for each key a pane-boundary steal moved off its hash shard
// (RunConfig::work_stealing, on by default at more than one shard).
// Without overrides the route is the pure hash, identical on every
// platform.
#ifndef HAMLET_STREAM_SHARD_ROUTER_H_
#define HAMLET_STREAM_SHARD_ROUTER_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/stream/event.h"
#include "src/stream/schema.h"

namespace hamlet {

/// Event->shard map: hash(group-by key) % num_shards, unless the key has an
/// override. Copyable; copies are independent. Not thread-safe — the
/// sharded runtime mutates its router on the front thread only.
class ShardRouter {
 public:
  /// Identity router: everything to shard 0.
  ShardRouter() = default;

  /// `partition_attr` is the group-by attribute shared by all exec queries
  /// (Schema::kInvalidId when the workload has no GROUPBY — every event
  /// then routes to shard 0). `num_shards` must be >= 1.
  ShardRouter(AttrId partition_attr, int num_shards)
      : partition_attr_(partition_attr), num_shards_(num_shards) {}

  /// The group-by key the route is derived from.
  int64_t GroupKeyOf(const Event& event) const {
    if (partition_attr_ != Schema::kInvalidId &&
        partition_attr_ < static_cast<AttrId>(event.num_attrs)) {
      return static_cast<int64_t>(std::llround(event.attr(partition_attr_)));
    }
    return 0;
  }

  /// The pure hash route of a key, ignoring overrides. Stateless.
  size_t ShardOfKey(int64_t key) const {
    if (num_shards_ == 1) return 0;
    return static_cast<size_t>(SplitMix64Mix(static_cast<uint64_t>(key)) %
                               static_cast<uint64_t>(num_shards_));
  }

  /// The shard a key routes to: its override if it has one, else its hash.
  size_t AssignedShardOfKey(int64_t key) const {
    if (!overrides_.empty()) {
      auto it = overrides_.find(key);
      if (it != overrides_.end()) return it->second.shard;
    }
    return ShardOfKey(key);
  }

  /// AssignedShardOfKey for a key routed at `time`: also refreshes an
  /// override's last-seen time (the DrainStale clock), so a stolen key's
  /// override drains only once the key went idle.
  size_t RouteKey(int64_t key, Timestamp time) {
    auto it = overrides_.empty() ? overrides_.end() : overrides_.find(key);
    if (it == overrides_.end()) return ShardOfKey(key);
    it->second.last_seen = time;
    return it->second.shard;
  }

  /// The shard `event` routes to (AssignedShardOfKey of its group key).
  size_t Route(const Event& event) const {
    return AssignedShardOfKey(GroupKeyOf(event));
  }

  /// Overrides the key's route to `shard`; `last_seen` only ever raises
  /// the entry's DrainStale clock.
  void Assign(int64_t key, size_t shard, Timestamp last_seen);

  /// Drops the key's override: it routes by hash again.
  void Unassign(int64_t key) { overrides_.erase(key); }

  /// Forgets overrides whose last-seen time is <= `last_seen_cutoff`. Safe
  /// ONLY once every window a dropped key's events could fall into has
  /// closed AND the owning shard evicted the group's runner
  /// (RunConfig::evict_idle_groups) — a reappearing key then re-routes
  /// fresh on BOTH sides, exactly like a never-seen key, so emissions stay
  /// identical to a single-threaded run.
  void DrainStale(Timestamp last_seen_cutoff);

  /// Live override entries.
  int64_t map_size() const { return static_cast<int64_t>(overrides_.size()); }

  int num_shards() const { return num_shards_; }
  AttrId partition_attr() const { return partition_attr_; }

 private:
  /// One override: the shard plus the key's newest routed event time,
  /// which DrainStale compares against its cutoff.
  struct Assignment {
    uint32_t shard = 0;
    Timestamp last_seen = 0;
  };

  AttrId partition_attr_ = Schema::kInvalidId;
  int num_shards_ = 1;
  std::unordered_map<int64_t, Assignment> overrides_;
};

}  // namespace hamlet

#endif  // HAMLET_STREAM_SHARD_ROUTER_H_
