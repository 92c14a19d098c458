#include "src/stream/event_batch.h"

#include <algorithm>

namespace hamlet {

void EventBatch::ResetSchema(int num_attr_columns) {
  HAMLET_CHECK(num_attr_columns >= 0 &&
               num_attr_columns <= Event::kMaxAttrs);
  Clear();
  cols_.resize(static_cast<size_t>(num_attr_columns));
}

void EventBatch::Clear() {
  times_.clear();
  types_.clear();
  num_attrs_.clear();
  for (auto& col : cols_) col.clear();
}

void EventBatch::WidenTo(int want) {
  const size_t rows = times_.size();
  while (num_attr_columns() < want) {
    cols_.emplace_back();
    cols_.back().assign(rows, 0.0);
  }
}

void EventBatch::Append(const Event& e) {
  WriteRows(times_.size(), std::span<const Event>(&e, 1));
}

void EventBatch::AppendRows(std::span<const Event> rows) {
  WriteRows(times_.size(), rows);
}

void EventBatch::Assign(std::span<const Event> rows,
                        std::span<const int32_t> order) {
  WriteRows(0, rows, order);
}

void EventBatch::WriteRows(size_t at, std::span<const Event> rows,
                           std::span<const int32_t> order) {
  const size_t n = at + rows.size();
  times_.resize(n);
  types_.resize(n);
  num_attrs_.resize(n);
  for (const Event& e : rows) {
    if (e.num_attrs > num_attr_columns()) WidenTo(e.num_attrs);
  }
  for (auto& col : cols_) col.resize(n);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Event& e =
        order.empty() ? rows[i] : rows[static_cast<size_t>(order[i])];
    times_[at + i] = e.time;
    types_[at + i] = e.type;
    num_attrs_[at + i] = e.num_attrs;
    for (size_t a = 0; a < cols_.size(); ++a) {
      cols_[a][at + i] = static_cast<int>(a) < e.num_attrs ? e.attrs[a] : 0.0;
    }
  }
}

void EventBatch::CopyRow(int i, Event* out) const {
  const size_t row = static_cast<size_t>(i);
  out->time = times_[row];
  out->type = types_[row];
  out->num_attrs = num_attrs_[row];
  const int n = std::min<int>(out->num_attrs, num_attr_columns());
  for (int a = 0; a < n; ++a)
    out->attrs[static_cast<size_t>(a)] = cols_[static_cast<size_t>(a)][row];
  for (int a = n; a < Event::kMaxAttrs; ++a)
    out->attrs[static_cast<size_t>(a)] = 0.0;
}

EventBatch EventBatch::FromRows(std::span<const Event> rows,
                                int num_attr_columns) {
  EventBatch batch(num_attr_columns);
  batch.Assign(rows);
  return batch;
}

int64_t EventBatch::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(EventBatch)) +
                  static_cast<int64_t>(times_.capacity() * sizeof(Timestamp)) +
                  static_cast<int64_t>(types_.capacity() * sizeof(TypeId)) +
                  static_cast<int64_t>(num_attrs_.capacity() * sizeof(int32_t));
  for (const auto& col : cols_)
    bytes += static_cast<int64_t>(col.capacity() * sizeof(double));
  return bytes;
}

}  // namespace hamlet
