#include "src/query/run_segmenter.h"

#include <cmath>
#include <cstdint>
#include <utility>

namespace hamlet {

namespace {

/// boundary_words bit i (i >= 1) = 1 iff any mask's bit differs between rows
/// i-1 and i. Word-parallel: d = w ^ (w << 1 | carry of previous word's top
/// bit), OR-accumulated across masks. Bit 0 is never set (row 0 starts a run
/// unconditionally).
void BuildFlipBitmap(const std::vector<SelectionMask>& masks, int rows,
                     std::vector<uint64_t>* boundary_words) {
  const size_t num_words = (static_cast<size_t>(rows) + 63) / 64;
  boundary_words->assign(num_words, 0);
  for (const SelectionMask& mask : masks) {
    std::span<const uint64_t> w = mask.words();
    uint64_t carry = 0;  // previous word's top bit, shifted into bit 0
    for (size_t j = 0; j < num_words; ++j) {
      const uint64_t cur = w[j];
      (*boundary_words)[j] |= cur ^ ((cur << 1) | carry);
      carry = cur >> 63;
    }
  }
  if (num_words > 0) (*boundary_words)[0] &= ~uint64_t{1};
}

inline bool TestBit(const std::vector<uint64_t>& words, int i) {
  return (words[static_cast<size_t>(i) >> 6] >>
          (static_cast<size_t>(i) & 63)) &
         1u;
}

}  // namespace

void SegmentRuns(const EventBatch& batch, int rows, Timestamp pane_size,
                 const QuerySet& all_execs,
                 const std::vector<int>& predicated_queries,
                 const std::vector<SelectionMask>& masks,
                 std::vector<RunSpan>* out,
                 std::span<const AttrId> key_attrs) {
  out->clear();
  if (rows <= 0) return;

  std::span<const TypeId> types = batch.types();
  std::span<const Timestamp> times = batch.times();

  int begin = 0;
  // Closes the run [begin, end) and starts the next one at `end`.
  auto close_run = [&](int end) {
    RunSpan& run = out->emplace_back();
    run.type = types[static_cast<size_t>(begin)];
    run.row_begin = begin;
    run.row_end = end;
    run.passes = all_execs;
    for (size_t k = 0; k < predicated_queries.size(); ++k) {
      if (!masks[k].Test(begin)) run.passes.Erase(predicated_queries[k]);
    }
    begin = end;
  };

  // A lone row (per-event Push) is one run: no flip bitmap, no scan.
  if (rows > 1) {
    // Pre-merge all mask flips into one boundary bitmap so the row scan
    // does one bit test instead of one Test() per predicated query.
    static thread_local std::vector<uint64_t> flip_words;
    BuildFlipBitmap(masks, rows, &flip_words);
    auto key_break = [&](size_t i) {
      for (AttrId a : key_attrs) {
        const double* col = batch.column_data(a);
        if (col != nullptr && col[i] != col[i - 1] &&
            std::llround(col[i]) != std::llround(col[i - 1])) {
          return true;
        }
      }
      return false;
    };
    Timestamp run_pane = pane_size > 0 ? times[0] / pane_size : 0;
    for (int i = 1; i < rows; ++i) {
      const bool type_break =
          types[static_cast<size_t>(i)] != types[static_cast<size_t>(begin)];
      const Timestamp pane =
          pane_size > 0 ? times[static_cast<size_t>(i)] / pane_size : 0;
      if (type_break || pane != run_pane || TestBit(flip_words, i) ||
          key_break(static_cast<size_t>(i))) {
        close_run(i);
        run_pane = pane;
      }
    }
  }
  close_run(rows);
}

std::span<const int32_t> GroupMajorOrder::Of(std::span<const Event> rows,
                                              Timestamp pane_size,
                                              AttrId attr) {
  ids_.resize(rows.size());
  starts_.clear();
  bool sorted = true;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Event& e = rows[i];
    // Panes are monotone: a new pane's groups take ids above all before.
    if (i == 0 || e.time / pane_size != rows[i - 1].time / pane_size) {
      pane_ids_.clear();
    }
    const int64_t key =
        std::llround(attr < e.num_attrs ? e.attr(attr) : 0.0);
    const auto [it, fresh] =
        pane_ids_.try_emplace(key, static_cast<int32_t>(starts_.size()));
    if (fresh) starts_.push_back(0);
    ids_[i] = it->second;
    ++starts_[static_cast<size_t>(it->second)];
    // Ids follow first appearance, so rows are already group-major iff
    // no row returns to an earlier group.
    if (i > 0 && ids_[i] < ids_[i - 1]) sorted = false;
  }
  if (sorted) return {};
  int32_t first = 0;
  for (int32_t& count : starts_) first += std::exchange(count, first);
  order_.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    order_[static_cast<size_t>(starts_[static_cast<size_t>(ids_[i])]++)] =
        static_cast<int32_t>(i);
  }
  return order_;
}

}  // namespace hamlet
