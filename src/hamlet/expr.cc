#include "src/hamlet/expr.h"

#include <algorithm>
#include <cstdio>

#include "src/hamlet/snapshot_store.h"

namespace hamlet {

namespace {

/// Merges two var-sorted term lists into `out` (capacity >= n1 + n2),
/// summing coefficients on matching vars. Returns the merged length.
int MergeTerms(const ExprTerm* a, int n1, const ExprTerm* b, int n2,
               ExprTerm* out) {
  int i = 0, j = 0, m = 0;
  while (i < n1 || j < n2) {
    if (j >= n2 || (i < n1 && a[i].var < b[j].var)) {
      out[m++] = a[i++];
    } else if (i >= n1 || b[j].var < a[i].var) {
      out[m++] = b[j++];
    } else {
      ExprTerm t = a[i];
      t.alpha += b[j].alpha;
      t.gamma += b[j].gamma;
      t.delta += b[j].delta;
      out[m++] = t;
      ++i;
      ++j;
    }
  }
  return m;
}

}  // namespace

Expr Expr::Var(SnapshotId var) {
  Expr e;
  e.AddVar(var, 1.0);
  return e;
}

void Expr::AssignTerms(const ExprTerm* src, int n) {
  if (n <= kInlineTerms) {
    std::copy(src, src + n, inline_.begin());
    num_inline_ = n;
    spill_.clear();
    return;
  }
  spill_.assign(src, src + n);
  num_inline_ = 0;
}

void Expr::InsertTerm(int pos, const ExprTerm& t) {
  if (!spill_.empty()) {
    spill_.insert(spill_.begin() + pos, t);
    return;
  }
  if (num_inline_ < kInlineTerms) {
    for (int i = num_inline_; i > pos; --i)
      inline_[static_cast<size_t>(i)] = inline_[static_cast<size_t>(i - 1)];
    inline_[static_cast<size_t>(pos)] = t;
    ++num_inline_;
    return;
  }
  // Inline buffer full: spill, preserving sorted order.
  spill_.reserve(static_cast<size_t>(num_inline_) + 1);
  spill_.assign(inline_.begin(), inline_.begin() + pos);
  spill_.push_back(t);
  spill_.insert(spill_.end(), inline_.begin() + pos,
                inline_.begin() + num_inline_);
  num_inline_ = 0;
}

void Expr::AddVar(SnapshotId var, double alpha) {
  const ExprTerm* data = terms_data();
  const int n = num_terms();
  const ExprTerm* it = std::lower_bound(
      data, data + n, var,
      [](const ExprTerm& t, SnapshotId v) { return t.var < v; });
  const int pos = static_cast<int>(it - data);
  if (pos < n && data[pos].var == var) {
    mutable_terms()[pos].alpha += alpha;
    return;
  }
  ExprTerm t;
  t.var = var;
  t.alpha = alpha;
  InsertTerm(pos, t);
}

void Expr::AddExpr(const Expr& other) {
  c0_.Add(other.c0_);
  const int n2 = other.num_terms();
  if (n2 == 0) return;
  const int n1 = num_terms();
  const ExprTerm* a = terms_data();
  const ExprTerm* b = other.terms_data();
  if (n1 + n2 <= kInlineTerms * 2) {
    // Hot path (FastSum nodes: 2 + 2 terms): merge on the stack, no heap.
    ExprTerm tmp[kInlineTerms * 2];
    const int m = MergeTerms(a, n1, b, n2, tmp);
    AssignTerms(tmp, m);
    return;
  }
  std::vector<ExprTerm> merged(static_cast<size_t>(n1 + n2));
  const int m = MergeTerms(a, n1, b, n2, merged.data());
  merged.resize(static_cast<size_t>(m));
  spill_ = std::move(merged);
  num_inline_ = 0;
}

int Expr::AppendFastSumEvent(SnapshotId start_var, SnapshotId entry_var,
                             bool is_target, double val, bool need_sum,
                             bool need_count_e) {
  // The virtual node lives entirely in Expr's inline buffer: a FastSum
  // running sum carries the two vars {u, x}, so the merge below never spills
  // and the steady-state run loop stays heap-allocation-free.
  Expr node;
  node.AddVar(start_var, 1.0);
  node.AddVar(entry_var, 1.0);
  node.AddExpr(*this);
  if (is_target) node.ApplyTargetEvent(val, need_sum, need_count_e);
  AddExpr(node);
  return node.num_terms();
}

void Expr::ApplyTargetEvent(double val, bool need_sum, bool need_count_e) {
  // count(this) = c0.count + sum alpha_i * V_i.count. Folding
  // sum += val * count and count_e += count therefore shifts the constant
  // and the cross coefficients.
  ExprTerm* data = mutable_terms();
  const int n = num_terms();
  if (need_sum) {
    c0_.sum += val * c0_.count;
    for (int i = 0; i < n; ++i) data[i].gamma += val * data[i].alpha;
  }
  if (need_count_e) {
    c0_.count_e += c0_.count;
    for (int i = 0; i < n; ++i) data[i].delta += data[i].alpha;
  }
}

LinAgg Expr::Eval(const SnapshotStore& store, ContextId ctx) const {
  LinAgg out = c0_;
  const ExprTerm* data = terms_data();
  const int n = num_terms();
  for (int i = 0; i < n; ++i) {
    const ExprTerm& t = data[i];
    LinAgg v = store.Get(t.var, ctx);
    out.count += t.alpha * v.count;
    out.sum += t.alpha * v.sum + t.gamma * v.count;
    out.count_e += t.alpha * v.count_e + t.delta * v.count;
  }
  return out;
}

double Expr::EvalCount(const SnapshotStore& store, ContextId ctx) const {
  double count = c0_.count;
  const ExprTerm* data = terms_data();
  const int n = num_terms();
  for (int i = 0; i < n; ++i)
    count += data[i].alpha * store.Get(data[i].var, ctx).count;
  return count;
}

std::string Expr::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", c0_.count);
  std::string out = buf;
  const ExprTerm* data = terms_data();
  const int n = num_terms();
  for (int i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), " + %g*x%lld", data[i].alpha,
                  static_cast<long long>(data[i].var));
    out += buf;
  }
  return out;
}

}  // namespace hamlet
