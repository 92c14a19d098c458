#include "src/query/predicate.h"

#include <cstdio>

namespace hamlet {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
  }
  return "?";
}

Status EventPredicate::Resolve(Schema* schema, bool register_missing) {
  type = register_missing ? schema->AddType(type_name)
                          : schema->FindType(type_name);
  if (type == Schema::kInvalidId)
    return Status::NotFound("unknown predicate type: " + type_name);
  attr = register_missing ? schema->AddAttr(attr_name)
                          : schema->FindAttr(attr_name);
  if (attr == Schema::kInvalidId)
    return Status::NotFound("unknown predicate attribute: " + attr_name);
  return Status::Ok();
}

std::string EventPredicate::ToString() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", constant);
  return type_name + "." + attr_name + " " + CmpOpName(op) + " " + buf;
}

Status EdgePredicate::Resolve(Schema* schema, bool register_missing) {
  attr = register_missing ? schema->AddAttr(attr_name)
                          : schema->FindAttr(attr_name);
  if (attr == Schema::kInvalidId)
    return Status::NotFound("unknown edge attribute: " + attr_name);
  return Status::Ok();
}

std::string EdgePredicate::ToString() const {
  if (op == CmpOp::kEq) return "[" + attr_name + "]";
  return "prev." + attr_name + " " + CmpOpName(op) + " next." + attr_name;
}

bool PassesEventPredicates(const std::vector<EventPredicate>& preds,
                           const Event& e) {
  for (const EventPredicate& p : preds) {
    if (!p.Eval(e)) return false;
  }
  return true;
}

}  // namespace hamlet
