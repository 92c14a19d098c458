#include "src/stream/shard_router.h"

#include <algorithm>

#include "src/common/check.h"

namespace hamlet {

void ShardRouter::Assign(int64_t key, size_t shard, Timestamp last_seen) {
  HAMLET_CHECK(shard < static_cast<size_t>(num_shards_));
  Assignment& a = overrides_[key];
  a.shard = static_cast<uint32_t>(shard);
  a.last_seen = std::max(a.last_seen, last_seen);
}

void ShardRouter::DrainStale(Timestamp last_seen_cutoff) {
  std::erase_if(overrides_, [last_seen_cutoff](const auto& entry) {
    return entry.second.last_seen <= last_seen_cutoff;
  });
}

}  // namespace hamlet
