// Snapshot table (paper §3.3, data structure (3)): maps a snapshot variable
// and an evaluation context to its value.
//
// The paper stores value(x, q) per query; we key by ContextId = one open
// (exec query, window instance), which generalises the same idea to sliding
// and per-query windows. Values are LinAgg payloads (count/sum/count_e).
#ifndef HAMLET_HAMLET_SNAPSHOT_STORE_H_
#define HAMLET_HAMLET_SNAPSHOT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/hamlet/expr.h"

namespace hamlet {

/// Per-variable, per-context value storage with small flat maps. Ids grow
/// forever; DropBefore releases a prefix of them, so the store holds only
/// the variables its owner can still read.
class SnapshotStore {
 public:
  /// Allocates a fresh snapshot variable.
  SnapshotId Create() {
    values_.emplace_back();
    return next_id() - 1;
  }

  /// The id the next Create returns.
  SnapshotId next_id() const {
    return base_ + static_cast<SnapshotId>(values_.size());
  }

  /// Releases every variable with an id below `id`. The caller guarantees
  /// no open context holds a value in them, so they read as zero; writing
  /// one is a bug.
  void DropBefore(SnapshotId id) {
    HAMLET_DCHECK(id >= base_ && id <= next_id());
    values_.erase(values_.begin(),
                  values_.begin() + static_cast<std::ptrdiff_t>(id - base_));
    base_ = id;
  }

  /// Sets the value of `var` for `ctx` (inserts or overwrites).
  void Set(SnapshotId var, ContextId ctx, const LinAgg& value) {
    HAMLET_DCHECK(var >= base_ && var < next_id());
    auto& column = values_[static_cast<size_t>(var - base_)];
    for (auto& [c, v] : column) {
      if (c == ctx) {
        v = value;
        return;
      }
    }
    column.emplace_back(ctx, value);
  }

  /// Value of `var` in `ctx`; zero when never set (e.g. a membership
  /// snapshot for a query the event is invisible to) or released.
  LinAgg Get(SnapshotId var, ContextId ctx) const {
    HAMLET_DCHECK(var < next_id());
    if (var < base_) return LinAgg();
    const auto& column = values_[static_cast<size_t>(var - base_)];
    for (const auto& [c, v] : column) {
      if (c == ctx) return v;
    }
    return LinAgg();
  }

  /// Drops all values of a closed context.
  void DropContext(ContextId ctx) {
    for (auto& column : values_) {
      for (size_t i = 0; i < column.size();) {
        if (column[i].first == ctx) {
          column[i] = column.back();
          column.pop_back();
        } else {
          ++i;
        }
      }
    }
  }

  /// Number of variables ever created (the paper's snapshot-count metric).
  int64_t total_created() const { return next_id(); }

  /// Current (variable, context) value entries.
  int64_t num_entries() const {
    int64_t n = 0;
    for (const auto& column : values_) n += static_cast<int64_t>(column.size());
    return n;
  }

  int64_t MemoryBytes() const {
    int64_t bytes = static_cast<int64_t>(values_.capacity()) *
                    static_cast<int64_t>(sizeof(values_[0]));
    for (const auto& column : values_) {
      bytes += static_cast<int64_t>(column.capacity()) *
               static_cast<int64_t>(sizeof(column[0]));
    }
    return bytes;
  }

 private:
  /// values_[i] holds variable base_ + i.
  std::vector<std::vector<std::pair<ContextId, LinAgg>>> values_;
  SnapshotId base_ = 0;
};

}  // namespace hamlet

#endif  // HAMLET_HAMLET_SNAPSHOT_STORE_H_
