// Symbolic intermediate aggregates: linear expressions over snapshots.
//
// HAMLET decouples the *shared* propagation structure from *per-query,
// per-window* values by writing every intermediate aggregate as a linear
// expression over snapshot variables (paper §3.3, data structure (2): the
// per-event hash table of snapshot coefficients — e.g. count(b6) = 4x + z).
//
// The linear payload components (count / sum / count_e) propagate with two
// twists relative to plain scaling:
//   sum(e)     gains val(e) * count(e)  -> a count->sum cross coefficient
//   count_e(e) gains count(e)           -> a count->count_e cross coefficient
// so a term carries three coefficients (alpha, gamma, delta). MIN/MAX do not
// linearise; they are folded numerically per context by the engine.
#ifndef HAMLET_HAMLET_EXPR_H_
#define HAMLET_HAMLET_EXPR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/query/agg_value.h"

namespace hamlet {

/// Snapshot variable id (paper's x, y, z...). 64-bit: an engine's ids
/// never repeat, and a long-lived group creates about one per event.
using SnapshotId = int64_t;

/// Dense id of an open (exec query, window instance) pair. Snapshot *values*
/// are per context: the paper stores value(x, q) per query; contexts refine
/// that to per (query, window instance), which is what makes panes sharable
/// across overlapping and differing windows.
using ContextId = int32_t;

/// The linear payload components.
struct LinAgg {
  double count = 0.0;
  double sum = 0.0;
  double count_e = 0.0;

  void Add(const LinAgg& o) {
    count += o.count;
    sum += o.sum;
    count_e += o.count_e;
  }
  bool IsZero() const { return count == 0 && sum == 0 && count_e == 0; }
  bool operator==(const LinAgg& o) const {
    return count == o.count && sum == o.sum && count_e == o.count_e;
  }
};

/// One term of an expression: coefficients applied to a snapshot's value V.
///   count   += alpha * V.count
///   sum     += alpha * V.sum + gamma * V.count
///   count_e += alpha * V.count_e + delta * V.count
struct ExprTerm {
  SnapshotId var = -1;
  double alpha = 0.0;
  double gamma = 0.0;
  double delta = 0.0;
};

class SnapshotStore;

/// c0 + sum of terms. Terms are kept sorted by var id.
///
/// Small-buffer layout: up to kInlineTerms terms live inline, spilling to a
/// heap vector only beyond that. FastSum node expressions carry exactly two
/// terms (start u + entry x), so the steady-state hot loop builds and merges
/// expressions with ZERO heap allocations — the invariant the columnar
/// allocation-regression test pins down.
class Expr {
 public:
  static constexpr int kInlineTerms = 4;

  Expr() = default;

  /// The expression that is just one snapshot variable.
  static Expr Var(SnapshotId var);

  void Clear() {
    c0_ = LinAgg();
    num_inline_ = 0;
    spill_.clear();
  }

  /// this += other.
  void AddExpr(const Expr& other);

  /// this += coefficient alpha on `var`.
  void AddVar(SnapshotId var, double alpha);

  /// this += constant payload.
  void AddConst(const LinAgg& c) { c0_.Add(c); }

  /// Applies FinishNode's target-event folds symbolically:
  ///   if need_count_e: count_e += count(this)
  ///   if need_sum:     sum     += val * count(this)
  void ApplyTargetEvent(double val, bool need_sum, bool need_count_e);

  /// Appends one FastSum event to this running sum IN PLACE:
  ///   node(e) = u + x + this;  node(e).ApplyTargetEvent(...);  this += node(e)
  /// — exactly the per-event sequence of the engine's shared kFastSum branch
  /// (count(e) = u + x + R, Algorithm 1 Line 18), performed without
  /// materializing a stored GraphletNode. The run-granular propagation path
  /// calls this once per row of a run; because the virtual node is built with
  /// the same AddVar/AddExpr/ApplyTargetEvent calls per-row appends use, the
  /// resulting running sum is bit-identical to appending row by row. Returns
  /// the virtual node's term count (the per-row ops charge).
  int AppendFastSumEvent(SnapshotId start_var, SnapshotId entry_var,
                         bool is_target, double val, bool need_sum,
                         bool need_count_e);

  /// Evaluates against the snapshot values of `ctx`.
  LinAgg Eval(const SnapshotStore& store, ContextId ctx) const;

  /// Evaluates only the trend count (used by MIN/MAX guards).
  double EvalCount(const SnapshotStore& store, ContextId ctx) const;

  const LinAgg& const_term() const { return c0_; }
  int num_terms() const {
    return spill_.empty() ? num_inline_ : static_cast<int>(spill_.size());
  }

  /// Contiguous term storage (inline buffer until it spills).
  const ExprTerm* terms_data() const {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  /// Terms as a copyable vector (tests/diagnostics; not on the hot path).
  std::vector<ExprTerm> terms() const {
    return std::vector<ExprTerm>(terms_data(), terms_data() + num_terms());
  }

  /// Logical size for the memory metric (heap-held spill only; the inline
  /// buffer is part of sizeof(Expr)).
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(sizeof(Expr)) +
           static_cast<int64_t>(spill_.capacity() * sizeof(ExprTerm));
  }

  /// "2 + 4*x3 + 1*x7" (coefficients on count only, for diagnostics).
  std::string ToString() const;

 private:
  ExprTerm* mutable_terms() {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  /// Replaces the term list with `src[0..n)` (sorted by var).
  void AssignTerms(const ExprTerm* src, int n);
  /// Inserts a term at `pos`, growing inline or spilling as needed.
  void InsertTerm(int pos, const ExprTerm& t);

  LinAgg c0_;
  std::array<ExprTerm, kInlineTerms> inline_{};
  int num_inline_ = 0;  ///< valid only while spill_ is empty
  std::vector<ExprTerm> spill_;
};

}  // namespace hamlet

#endif  // HAMLET_HAMLET_EXPR_H_
