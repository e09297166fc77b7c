#include "nrc/expr.h"

#include <algorithm>

namespace trance {
namespace nrc {

const char* PrimOpName(PrimOpKind op) {
  switch (op) {
    case PrimOpKind::kAdd:
      return "+";
    case PrimOpKind::kSub:
      return "-";
    case PrimOpKind::kMul:
      return "*";
    case PrimOpKind::kDiv:
      return "/";
  }
  return "?";
}

const char* CmpOpName(CmpOpKind op) {
  switch (op) {
    case CmpOpKind::kEq:
      return "==";
    case CmpOpKind::kNe:
      return "!=";
    case CmpOpKind::kLt:
      return "<";
    case CmpOpKind::kLe:
      return "<=";
    case CmpOpKind::kGt:
      return ">";
    case CmpOpKind::kGe:
      return ">=";
  }
  return "?";
}

const char* BoolOpName(BoolOpKind op) {
  return op == BoolOpKind::kAnd ? "&&" : "||";
}

#define MAKE(kind) std::shared_ptr<Expr>(new Expr(kind))

ExprPtr Expr::Const(ConstValue c) {
  auto e = MAKE(Kind::kConst);
  e->const_value_ = std::move(c);
  return e;
}

ExprPtr Expr::Var(std::string name) {
  auto e = MAKE(Kind::kVarRef);
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Proj(ExprPtr base, std::string attr) {
  TRANCE_CHECK(base != nullptr, "Proj(null)");
  auto e = MAKE(Kind::kProj);
  e->children_ = {std::move(base)};
  e->name_ = std::move(attr);
  return e;
}

ExprPtr Expr::Tuple(std::vector<NamedExpr> fields) {
  auto e = MAKE(Kind::kTupleCtor);
  e->fields_ = std::move(fields);
  return e;
}

ExprPtr Expr::EmptyBag(TypePtr bag_type) {
  TRANCE_CHECK(bag_type != nullptr && bag_type->is_bag(),
               "EmptyBag requires a bag type");
  auto e = MAKE(Kind::kEmptyBag);
  e->declared_type_ = std::move(bag_type);
  return e;
}

ExprPtr Expr::Singleton(ExprPtr inner) {
  TRANCE_CHECK(inner != nullptr, "Singleton(null)");
  auto e = MAKE(Kind::kSingleton);
  e->children_ = {std::move(inner)};
  return e;
}

ExprPtr Expr::Get(ExprPtr inner) {
  TRANCE_CHECK(inner != nullptr, "Get(null)");
  auto e = MAKE(Kind::kGet);
  e->children_ = {std::move(inner)};
  return e;
}

ExprPtr Expr::ForUnion(std::string var, ExprPtr domain, ExprPtr body) {
  TRANCE_CHECK(domain != nullptr && body != nullptr, "ForUnion(null)");
  auto e = MAKE(Kind::kForUnion);
  e->name_ = std::move(var);
  e->children_ = {std::move(domain), std::move(body)};
  return e;
}

ExprPtr Expr::Union(ExprPtr a, ExprPtr b) {
  TRANCE_CHECK(a != nullptr && b != nullptr, "Union(null)");
  auto e = MAKE(Kind::kUnion);
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::Let(std::string var, ExprPtr value, ExprPtr body) {
  TRANCE_CHECK(value != nullptr && body != nullptr, "Let(null)");
  auto e = MAKE(Kind::kLet);
  e->name_ = std::move(var);
  e->children_ = {std::move(value), std::move(body)};
  return e;
}

ExprPtr Expr::IfThen(ExprPtr cond, ExprPtr then_e, ExprPtr else_e) {
  TRANCE_CHECK(cond != nullptr && then_e != nullptr, "IfThen(null)");
  auto e = MAKE(Kind::kIfThen);
  e->children_ = {std::move(cond), std::move(then_e)};
  if (else_e != nullptr) e->children_.push_back(std::move(else_e));
  return e;
}

ExprPtr Expr::PrimOp(PrimOpKind op, ExprPtr a, ExprPtr b) {
  TRANCE_CHECK(a != nullptr && b != nullptr, "PrimOp(null)");
  auto e = MAKE(Kind::kPrimOp);
  e->prim_op_ = op;
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::Cmp(CmpOpKind op, ExprPtr a, ExprPtr b) {
  TRANCE_CHECK(a != nullptr && b != nullptr, "Cmp(null)");
  auto e = MAKE(Kind::kCmp);
  e->cmp_op_ = op;
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::BoolOp(BoolOpKind op, ExprPtr a, ExprPtr b) {
  TRANCE_CHECK(a != nullptr && b != nullptr, "BoolOp(null)");
  auto e = MAKE(Kind::kBoolOp);
  e->bool_op_ = op;
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::Not(ExprPtr inner) {
  TRANCE_CHECK(inner != nullptr, "Not(null)");
  auto e = MAKE(Kind::kNot);
  e->children_ = {std::move(inner)};
  return e;
}

ExprPtr Expr::Dedup(ExprPtr inner) {
  TRANCE_CHECK(inner != nullptr, "Dedup(null)");
  auto e = MAKE(Kind::kDedup);
  e->children_ = {std::move(inner)};
  return e;
}

ExprPtr Expr::GroupBy(std::vector<std::string> keys, ExprPtr inner,
                      std::string group_attr) {
  TRANCE_CHECK(inner != nullptr, "GroupBy(null)");
  auto e = MAKE(Kind::kGroupBy);
  e->keys_ = std::move(keys);
  e->name_ = std::move(group_attr);
  e->children_ = {std::move(inner)};
  return e;
}

ExprPtr Expr::SumBy(std::vector<std::string> keys,
                    std::vector<std::string> values, ExprPtr inner) {
  TRANCE_CHECK(inner != nullptr, "SumBy(null)");
  TRANCE_CHECK(!values.empty(), "SumBy without value attributes");
  auto e = MAKE(Kind::kSumBy);
  e->keys_ = std::move(keys);
  e->values_ = std::move(values);
  e->children_ = {std::move(inner)};
  return e;
}

ExprPtr Expr::NewLabel(std::vector<NamedExpr> params) {
  auto e = MAKE(Kind::kNewLabel);
  e->fields_ = std::move(params);
  return e;
}

ExprPtr Expr::MatchLabel(ExprPtr label, std::string var, ExprPtr body,
                         TypePtr param_type) {
  TRANCE_CHECK(label != nullptr && body != nullptr, "MatchLabel(null)");
  auto e = MAKE(Kind::kMatchLabel);
  e->name_ = std::move(var);
  e->children_ = {std::move(label), std::move(body)};
  e->declared_type_ = std::move(param_type);
  return e;
}

ExprPtr Expr::Lookup(ExprPtr dict, ExprPtr label) {
  TRANCE_CHECK(dict != nullptr && label != nullptr, "Lookup(null)");
  auto e = MAKE(Kind::kLookup);
  e->children_ = {std::move(dict), std::move(label)};
  return e;
}

ExprPtr Expr::MatLookup(ExprPtr mat_dict_bag, ExprPtr label) {
  TRANCE_CHECK(mat_dict_bag != nullptr && label != nullptr, "MatLookup(null)");
  auto e = MAKE(Kind::kMatLookup);
  e->children_ = {std::move(mat_dict_bag), std::move(label)};
  return e;
}

ExprPtr Expr::Lambda(std::string var, ExprPtr body) {
  TRANCE_CHECK(body != nullptr, "Lambda(null)");
  auto e = MAKE(Kind::kLambda);
  e->name_ = std::move(var);
  e->children_ = {std::move(body)};
  return e;
}

ExprPtr Expr::DictTreeUnion(ExprPtr a, ExprPtr b) {
  TRANCE_CHECK(a != nullptr && b != nullptr, "DictTreeUnion(null)");
  auto e = MAKE(Kind::kDictTreeUnion);
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::BagToDict(ExprPtr inner) {
  TRANCE_CHECK(inner != nullptr, "BagToDict(null)");
  auto e = MAKE(Kind::kBagToDict);
  e->children_ = {std::move(inner)};
  return e;
}

#undef MAKE

const ConstValue& Expr::const_value() const {
  TRANCE_CHECK(kind_ == Kind::kConst, "const_value on non-const");
  return const_value_;
}

const std::string& Expr::var_name() const {
  TRANCE_CHECK(kind_ == Kind::kVarRef || kind_ == Kind::kForUnion ||
                   kind_ == Kind::kLet || kind_ == Kind::kLambda ||
                   kind_ == Kind::kMatchLabel,
               "var_name on wrong node kind");
  return name_;
}

const std::string& Expr::attr() const {
  TRANCE_CHECK(kind_ == Kind::kProj || kind_ == Kind::kGroupBy,
               "attr on wrong node kind");
  return name_;
}

const std::vector<NamedExpr>& Expr::fields() const {
  TRANCE_CHECK(kind_ == Kind::kTupleCtor || kind_ == Kind::kNewLabel,
               "fields on wrong node kind");
  return fields_;
}

const TypePtr& Expr::declared_type() const {
  TRANCE_CHECK(kind_ == Kind::kEmptyBag, "declared_type on wrong node kind");
  return declared_type_;
}

const TypePtr& Expr::match_param_type() const {
  TRANCE_CHECK(kind_ == Kind::kMatchLabel,
               "match_param_type on wrong node kind");
  return declared_type_;
}

const ExprPtr& Expr::child(size_t i) const {
  TRANCE_CHECK(i < children_.size(), "child index out of range");
  return children_[i];
}

const std::vector<std::string>& Expr::keys() const {
  TRANCE_CHECK(kind_ == Kind::kGroupBy || kind_ == Kind::kSumBy,
               "keys on wrong node kind");
  return keys_;
}

const std::vector<std::string>& Expr::values() const {
  TRANCE_CHECK(kind_ == Kind::kSumBy, "values on wrong node kind");
  return values_;
}

std::vector<ExprPtr> Expr::SubExprs() const {
  if (kind_ != Kind::kTupleCtor && kind_ != Kind::kNewLabel) return children_;
  std::vector<ExprPtr> subs;
  subs.reserve(fields_.size());
  for (const auto& f : fields_) subs.push_back(f.expr);
  return subs;
}

bool Expr::InBinderScope(size_t i) const {
  switch (kind_) {
    case Kind::kForUnion:
    case Kind::kLet:
    case Kind::kMatchLabel:
      return i == 1;
    case Kind::kLambda:
      return i == 0;
    default:
      return false;
  }
}

ExprPtr Expr::WithSubExprs(const ExprPtr& e, std::vector<ExprPtr> subs) {
  const bool named =
      e->kind_ == Kind::kTupleCtor || e->kind_ == Kind::kNewLabel;
  TRANCE_CHECK(
      subs.size() == (named ? e->fields_.size() : e->children_.size()),
      "WithSubExprs arity");
  if (subs.empty()) return e;
  for (const auto& s : subs) TRANCE_CHECK(s != nullptr, "WithSubExprs(null)");
  auto n = std::shared_ptr<Expr>(new Expr(*e));
  if (named) {
    for (size_t i = 0; i < subs.size(); ++i) {
      n->fields_[i].expr = std::move(subs[i]);
    }
  } else {
    n->children_ = std::move(subs);
  }
  return n;
}

void Expr::CollectFreeVars(std::set<std::string>* bound,
                           std::set<std::string>* out) const {
  if (kind_ == Kind::kVarRef) {
    if (bound->find(name_) == bound->end()) out->insert(name_);
    return;
  }
  const std::vector<ExprPtr> subs = SubExprs();
  for (size_t i = 0; i < subs.size(); ++i) {
    const bool inserted = InBinderScope(i) && bound->insert(name_).second;
    subs[i]->CollectFreeVars(bound, out);
    if (inserted) bound->erase(name_);
  }
}

std::set<std::string> Expr::FreeVars() const {
  std::set<std::string> bound, out;
  CollectFreeVars(&bound, &out);
  return out;
}

namespace {
ExprPtr SubstituteImpl(const ExprPtr& e, const std::string& var,
                       const ExprPtr& replacement) {
  if (e->kind() == Expr::Kind::kVarRef) {
    return e->var_name() == var ? replacement : e;
  }
  std::vector<ExprPtr> subs = e->SubExprs();
  for (size_t i = 0; i < subs.size(); ++i) {
    // A binder that rebinds `var` shadows it in its scope.
    if (e->InBinderScope(i) && e->var_name() == var) continue;
    subs[i] = SubstituteImpl(subs[i], var, replacement);
  }
  return Expr::WithSubExprs(e, std::move(subs));
}
}  // namespace

ExprPtr Substitute(const ExprPtr& e, const std::string& var,
                   const ExprPtr& replacement) {
  TRANCE_CHECK(e != nullptr && replacement != nullptr, "Substitute(null)");
  return SubstituteImpl(e, var, replacement);
}

}  // namespace nrc
}  // namespace trance
