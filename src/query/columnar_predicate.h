// Columnar predicate evaluation: compiled kernels over EventBatch columns.
//
// The row path evaluates EventPredicate lists per event, per query, with a
// branchy CmpOp switch per predicate. This layer compiles each exec query's
// event predicates ONCE (at plan-compile / Session::Open time) into
// {type id, column id, op, constant} kernels and evaluates them over whole
// batches: one branch-free pass per predicate over a contiguous `double`
// column into a 0/1 byte mask, AND-combined under the type gate
// (a predicate constrains only events of its own type; others pass), then
// packed into per-query selection bitmaps.
//
// Semantics are EXACTLY EvalCmp's IEEE-754 comparisons — NaN fails every op
// except kNe — so row and columnar paths select bit-identical event sets.
// Compile() also surfaces unresolved predicate type/attribute names as
// kInvalidArgument, turning what the row path deferred to a per-event
// DCHECK into an Open-time error.
#ifndef HAMLET_QUERY_COLUMNAR_PREDICATE_H_
#define HAMLET_QUERY_COLUMNAR_PREDICATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/query/predicate.h"
#include "src/stream/event_batch.h"

namespace hamlet {

/// One schema-resolved predicate: ids only, no names on the hot path.
struct CompiledPredicate {
  TypeId type = Schema::kInvalidId;
  AttrId attr = Schema::kInvalidId;
  CmpOp op = CmpOp::kLt;
  double constant = 0.0;
};

/// Per-row selection as packed 64-bit words (bit i = row i selected).
class SelectionMask {
 public:
  void AssignAll(int rows);
  void AssignNone(int rows);

  int rows() const { return rows_; }

  bool Test(int i) const {
    return (words_[static_cast<size_t>(i) >> 6] >>
            (static_cast<size_t>(i) & 63)) &
           1u;
  }

  int CountSelected() const;

  std::span<const uint64_t> words() const { return words_; }

 private:
  friend void PackMask(const uint8_t* bytes01, int rows, SelectionMask* out);

  std::vector<uint64_t> words_;
  int rows_ = 0;
};

/// out01[i] = EvalCmp(op, col[i], constant) ? 1 : 0. One tight loop per op —
/// no per-element branches, auto-vectorizable over the double column. NaN
/// semantics are IEEE, identical to EvalCmp.
void CmpColumnKernel(CmpOp op, const double* col, int rows, double constant,
                     uint8_t* out01);

/// acc01[i] &= (types[i] != type) | pass01[i] — the type gate: a predicate
/// constrains only events of its own type.
void TypeGateAnd(const TypeId* types, int rows, TypeId type,
                 const uint8_t* pass01, uint8_t* acc01);

/// Packs a 0/1 byte mask into SelectionMask words.
void PackMask(const uint8_t* bytes01, int rows, SelectionMask* out);

/// Masked linear-aggregate kernel: count/sum over the selected rows of one
/// column (branchless; the columnar analogue of the row path's
/// `if (passes) { ++count; sum += e.attr(a); }`).
void MaskedLinAggKernel(const double* col, const uint8_t* mask01, int rows,
                        double* count, double* sum);

/// Reusable output + scratch for PredicateProgram::EvalBatch. One mask per
/// predicated query (see PredicateProgram::predicated_queries()).
struct BatchSelection {
  std::vector<SelectionMask> masks;
  std::vector<uint8_t> acc;  ///< scratch: running conjunction, 0/1 per row
  std::vector<uint8_t> tmp;  ///< scratch: per-predicate kernel output
};

/// One exec query's predicate list, as handed to PredicateProgram::Compile.
/// (The plan layer's CompilePredicateProgram builds these from a
/// WorkloadPlan; the query layer cannot see WorkloadPlan without a cycle.)
struct PredicateList {
  int exec_id = -1;
  const std::vector<EventPredicate>* preds = nullptr;
};

/// See file comment.
class PredicateProgram {
 public:
  /// Compiles the given per-exec-query predicate lists against `schema`.
  /// Fails with kInvalidArgument naming the first predicate whose type or
  /// attribute id is unresolved or out of schema range.
  static Result<PredicateProgram> Compile(const Schema& schema,
                                          std::span<const PredicateList> lists);

  /// Exec ids with at least one predicate, in mask order.
  const std::vector<int>& predicated_queries() const { return pred_execs_; }

  /// Evaluates every predicated query over `batch`. out->masks[k] selects
  /// the rows passing ALL predicates of predicated_queries()[k].
  void EvalBatch(const EventBatch& batch, BatchSelection* out) const;

  /// Row-path check against the compiled predicates of predicated query
  /// index `k` (tests; semantics identical to PassesEventPredicates).
  bool EvalRow(int k, const Event& e) const;

 private:
  struct QueryPreds {
    int first = 0;  ///< range in preds_
    int count = 0;
  };

  std::vector<CompiledPredicate> preds_;
  std::vector<QueryPreds> queries_;  ///< parallel to pred_execs_
  std::vector<int> pred_execs_;
};

}  // namespace hamlet

#endif  // HAMLET_QUERY_COLUMNAR_PREDICATE_H_
