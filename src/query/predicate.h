// Predicates (paper's optional WHERE clause).
//
// Two classes, mirroring how GRETA/HAMLET consume them:
//  * EventPredicate — filters whether an event of a given type is matched by
//    the query at all (e.g. `T.speed < 10`).
//  * EdgePredicate  — constrains *adjacent* events in a trend (e.g.
//    `[driver]` id-equality, or `prev.price < next.price`). Divergence of
//    edge predicates across sharing queries is what forces event-level
//    snapshots (Definition 9).
#ifndef HAMLET_QUERY_PREDICATE_H_
#define HAMLET_QUERY_PREDICATE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/stream/event.h"
#include "src/stream/schema.h"

namespace hamlet {

enum class CmpOp { kLt, kLe, kGt, kGe, kEq, kNe };

const char* CmpOpName(CmpOp op);

/// Applies `lhs op rhs`.
inline bool EvalCmp(CmpOp op, double lhs, double rhs) {
  switch (op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
  }
  return false;
}

/// `<type>.<attr> <op> <constant>`; applies to events of `type` only.
struct EventPredicate {
  std::string type_name;
  std::string attr_name;
  CmpOp op = CmpOp::kLt;
  double constant = 0.0;
  TypeId type = Schema::kInvalidId;
  AttrId attr = Schema::kInvalidId;

  EventPredicate() = default;
  EventPredicate(std::string type, std::string attr, CmpOp o, double c)
      : type_name(std::move(type)),
        attr_name(std::move(attr)),
        op(o),
        constant(c) {}

  Status Resolve(Schema* schema, bool register_missing = true);

  /// True when `e` passes (or is not of this predicate's type).
  bool Eval(const Event& e) const {
    if (e.type != type) return true;
    return EvalCmp(op, e.attr(attr), constant);
  }

  std::string ToString() const;
  bool operator==(const EventPredicate& o) const {
    return type_name == o.type_name && attr_name == o.attr_name &&
           op == o.op && constant == o.constant;
  }
};

/// `prev.<attr> <op> next.<attr>` between adjacent trend events. The paper's
/// `[driver, rider]` clause is sugar for equality edge predicates.
struct EdgePredicate {
  std::string attr_name;
  CmpOp op = CmpOp::kEq;
  AttrId attr = Schema::kInvalidId;

  EdgePredicate() = default;
  EdgePredicate(std::string attr, CmpOp o)
      : attr_name(std::move(attr)), op(o) {}

  Status Resolve(Schema* schema, bool register_missing = true);

  /// True when the adjacency (prev -> next) is allowed.
  bool Eval(const Event& prev, const Event& next) const {
    return EvalCmp(op, prev.attr(attr), next.attr(attr));
  }

  std::string ToString() const;
  bool operator==(const EdgePredicate& o) const {
    return attr_name == o.attr_name && op == o.op;
  }
};

/// Evaluates all event predicates of one query against `e`.
bool PassesEventPredicates(const std::vector<EventPredicate>& preds,
                           const Event& e);

/// Evaluates all edge predicates of one query against an adjacency. Inline:
/// predecessor scans call it once per stored node.
inline bool PassesEdgePredicates(const std::vector<EdgePredicate>& preds,
                                 const Event& prev, const Event& next) {
  for (const EdgePredicate& p : preds) {
    if (!p.Eval(prev, next)) return false;
  }
  return true;
}

}  // namespace hamlet

#endif  // HAMLET_QUERY_PREDICATE_H_
