// Structure-of-arrays event batches: the columnar unit of work.
//
// The row Event (src/stream/event.h) stays the interchange struct; an
// EventBatch transposes a time-ordered run of rows into per-field columns so
// predicate evaluation becomes tight loops over contiguous `double` arrays
// (src/query/columnar_predicate.h) instead of per-event struct probing.
// Attribute columns are rectangular — every column spans every row — with
// absent attributes stored as 0.0; the per-row attribute count is kept in
// its own column, so CopyRow() reconstructs each Event bit-identically
// (padding included, since Event zero-initializes its attrs array).
#ifndef HAMLET_STREAM_EVENT_BATCH_H_
#define HAMLET_STREAM_EVENT_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/stream/event.h"

namespace hamlet {

/// See file comment. Append-only between Clear() calls; Clear() keeps every
/// column's capacity, so a reused staging batch allocates only until the
/// steady-state batch size has been seen once.
class EventBatch {
 public:
  EventBatch() = default;
  /// `num_attr_columns` is typically Schema::num_attrs(); Append() widens
  /// on demand when a row carries more attributes than the schema declared
  /// (hand-built test streams do this), zero-padding earlier rows.
  explicit EventBatch(int num_attr_columns) { ResetSchema(num_attr_columns); }

  /// Drops all rows and re-shapes to `num_attr_columns` columns.
  void ResetSchema(int num_attr_columns);

  /// Drops all rows, keeps column count and capacities.
  void Clear();

  void Append(const Event& e);

  /// Appends every row of `rows` (convenience over a caller-side loop).
  void AppendRows(std::span<const Event> rows);

  /// Replaces the contents with `rows`: Clear() + AppendRows(rows), but
  /// overwriting rows in place, so re-staging a batch of the previous
  /// size (a per-event Push stages one row every call) moves no column
  /// ends. A non-empty `order` takes batch row i from rows[order[i]]: a
  /// reordered staging gathers each row once, straight into the columns.
  void Assign(std::span<const Event> rows,
              std::span<const int32_t> order = {});

  int size() const { return static_cast<int>(times_.size()); }
  bool empty() const { return times_.empty(); }
  int num_attr_columns() const { return static_cast<int>(cols_.size()); }

  Timestamp time(int i) const { return times_[static_cast<size_t>(i)]; }
  TypeId type(int i) const { return types_[static_cast<size_t>(i)]; }
  int num_attrs(int i) const {
    return static_cast<int>(num_attrs_[static_cast<size_t>(i)]);
  }

  std::span<const Timestamp> times() const { return times_; }
  std::span<const TypeId> types() const { return types_; }

  /// Contiguous run-span views over [begin, end): what a RunSpan indexes
  /// into. Same storage as the whole-batch spans, just sliced — the
  /// run-granular engine path reads these instead of CopyRow'ing per row.
  std::span<const Timestamp> times(int begin, int end) const {
    return std::span<const Timestamp>(times_).subspan(
        static_cast<size_t>(begin), static_cast<size_t>(end - begin));
  }
  std::span<const TypeId> types(int begin, int end) const {
    return std::span<const TypeId>(types_).subspan(
        static_cast<size_t>(begin), static_cast<size_t>(end - begin));
  }
  std::span<const double> column(AttrId a, int begin, int end) const {
    return std::span<const double>(cols_[static_cast<size_t>(a)])
        .subspan(static_cast<size_t>(begin),
                 static_cast<size_t>(end - begin));
  }

  /// Column for attribute `a`; one double per row, 0.0 where the row lacked
  /// the attribute (matching Event's zero-initialized attrs array).
  std::span<const double> column(AttrId a) const {
    return cols_[static_cast<size_t>(a)];
  }

  /// Raw column pointer, or nullptr when no row ever carried attribute `a`
  /// (column id beyond num_attr_columns). Kernel-facing.
  const double* column_data(AttrId a) const {
    return (a >= 0 && a < num_attr_columns())
               ? cols_[static_cast<size_t>(a)].data()
               : nullptr;
  }

  /// Reconstructs row `i` into `*out`, bit-identical to the appended Event.
  void CopyRow(int i, Event* out) const;

  /// Builds a batch from rows (tests/benches; the runtime reuses a staging
  /// batch instead).
  static EventBatch FromRows(std::span<const Event> rows,
                             int num_attr_columns);

  /// Column capacities in bytes (memory metering).
  int64_t MemoryBytes() const;

 private:
  void WidenTo(int want);
  /// Resizes to `at + rows.size()` rows and writes `rows` from row `at` on,
  /// in `order` when it is non-empty (widening first if a row carries more
  /// attributes than the columns).
  void WriteRows(size_t at, std::span<const Event> rows,
                 std::span<const int32_t> order = {});

  std::vector<Timestamp> times_;
  std::vector<TypeId> types_;
  std::vector<int32_t> num_attrs_;
  std::vector<std::vector<double>> cols_;  ///< [attr][row]
};

}  // namespace hamlet

#endif  // HAMLET_STREAM_EVENT_BATCH_H_
