#include "nrc/typecheck.h"

#include <algorithm>

namespace trance {
namespace nrc {

namespace {

Status Err(const std::string& msg) { return Status::TypeError(msg); }

bool IsReal(const TypePtr& t) {
  return t != nullptr && t->is_scalar() &&
         t->scalar_kind() == ScalarKind::kReal;
}

bool ComparableScalars(const TypePtr& a, const TypePtr& b) {
  if (a->is_label() && b->is_label()) return true;
  if (!a->is_scalar() || !b->is_scalar()) return false;
  if (a->is_numeric() && b->is_numeric()) return true;
  return a->scalar_kind() == b->scalar_kind();
}

}  // namespace

TypePtr ArithmeticType(PrimOpKind op, const TypePtr& a, const TypePtr& b) {
  if (op == PrimOpKind::kDiv || IsReal(a) || IsReal(b)) return Type::Real();
  return Type::Int();
}

StatusOr<TypePtr> ScalarExprType(const ExprPtr& e,
                                 const ColumnTypeFn& column_type) {
  using K = Expr::Kind;
  switch (e->kind()) {
    case K::kConst:
      return Type::Scalar(e->const_value().kind);
    case K::kVarRef:
      return column_type(e->var_name());
    case K::kPrimOp: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr a,
                              ScalarExprType(e->child(0), column_type));
      TRANCE_ASSIGN_OR_RETURN(TypePtr b,
                              ScalarExprType(e->child(1), column_type));
      return ArithmeticType(e->prim_op(), a, b);
    }
    case K::kCmp:
    case K::kBoolOp:
    case K::kNot:
      return Type::Bool();
    case K::kNewLabel:
      return Type::Label();
    default:
      return Status::NotImplemented(
          "no static scalar type for this expression kind");
  }
}

StatusOr<TypePtr> Typechecker::Check(const ExprPtr& e, const TypeEnv& env) {
  auto it = keys_.find(e.get());
  if (it != keys_.end()) return it->second;
  TRANCE_ASSIGN_OR_RETURN(TypePtr t, CheckImpl(e, env));
  owned_.push_back(e);
  keys_[e.get()] = t;
  return t;
}

StatusOr<TypePtr> Typechecker::CheckImpl(const ExprPtr& e,
                                         const TypeEnv& env) {
  using K = Expr::Kind;
  switch (e->kind()) {
    case K::kConst:
      return Type::Scalar(e->const_value().kind);
    case K::kVarRef: {
      auto v = env.find(e->var_name());
      if (v == env.end()) return Err("unbound variable " + e->var_name());
      return v->second;
    }
    case K::kProj: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr base, Check(e->child(0), env));
      return base->FieldType(e->attr());
    }
    case K::kTupleCtor: {
      std::vector<Field> fields;
      fields.reserve(e->fields().size());
      for (const auto& f : e->fields()) {
        TRANCE_ASSIGN_OR_RETURN(TypePtr ft, Check(f.expr, env));
        if (ft->is_tuple()) {
          return Err("tuple nested directly inside tuple at attribute " +
                     f.name + " (wrap in a bag)");
        }
        fields.push_back({f.name, ft});
      }
      return Type::Tuple(std::move(fields));
    }
    case K::kEmptyBag:
      return e->declared_type();
    case K::kSingleton: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr inner, Check(e->child(0), env));
      if (inner->is_dict()) return Err("cannot put a dictionary in a bag");
      return Type::Bag(inner);
    }
    case K::kGet: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr inner, Check(e->child(0), env));
      if (!inner->is_bag()) return Err("get() on non-bag " + inner->ToString());
      return inner->element();
    }
    case K::kForUnion: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr dom, Check(e->child(0), env));
      if (!dom->is_bag()) {
        return Err("for-loop domain is not a bag: " + dom->ToString());
      }
      TypeEnv inner = env;
      inner[e->var_name()] = dom->element();
      TRANCE_ASSIGN_OR_RETURN(TypePtr body, Check(e->child(1), inner));
      if (!body->is_bag()) {
        return Err("for-union body is not a bag: " + body->ToString());
      }
      return body;
    }
    case K::kUnion: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr a, Check(e->child(0), env));
      TRANCE_ASSIGN_OR_RETURN(TypePtr b, Check(e->child(1), env));
      if (!a->is_bag() || !TypeEquals(a, b)) {
        return Err("union of incompatible types " + a->ToString() + " and " +
                   b->ToString());
      }
      return a;
    }
    case K::kLet: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr v, Check(e->child(0), env));
      TypeEnv inner = env;
      inner[e->var_name()] = v;
      return Check(e->child(1), inner);
    }
    case K::kIfThen: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr c, Check(e->child(0), env));
      if (!c->is_bool()) return Err("if condition is not bool");
      TRANCE_ASSIGN_OR_RETURN(TypePtr t, Check(e->child(1), env));
      if (e->num_children() == 3) {
        TRANCE_ASSIGN_OR_RETURN(TypePtr f, Check(e->child(2), env));
        if (!TypeEquals(t, f)) {
          return Err("if branches have different types: " + t->ToString() +
                     " vs " + f->ToString());
        }
      } else if (!t->is_bag()) {
        return Err("if-then without else must produce a bag, got " +
                   t->ToString());
      }
      return t;
    }
    case K::kPrimOp: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr a, Check(e->child(0), env));
      TRANCE_ASSIGN_OR_RETURN(TypePtr b, Check(e->child(1), env));
      if (!a->is_numeric() || !b->is_numeric()) {
        return Err("arithmetic on non-numeric types " + a->ToString() + ", " +
                   b->ToString());
      }
      return ArithmeticType(e->prim_op(), a, b);
    }
    case K::kCmp: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr a, Check(e->child(0), env));
      TRANCE_ASSIGN_OR_RETURN(TypePtr b, Check(e->child(1), env));
      if (!ComparableScalars(a, b)) {
        return Err("comparison of incomparable types " + a->ToString() +
                   " and " + b->ToString());
      }
      if (a->is_label() && e->cmp_op() != CmpOpKind::kEq &&
          e->cmp_op() != CmpOpKind::kNe) {
        return Err("labels support only ==/!=");
      }
      return Type::Bool();
    }
    case K::kBoolOp: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr a, Check(e->child(0), env));
      TRANCE_ASSIGN_OR_RETURN(TypePtr b, Check(e->child(1), env));
      if (!a->is_bool() || !b->is_bool()) return Err("boolean op on non-bool");
      return Type::Bool();
    }
    case K::kNot: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr a, Check(e->child(0), env));
      if (!a->is_bool()) return Err("not on non-bool");
      return Type::Bool();
    }
    case K::kDedup: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr a, Check(e->child(0), env));
      if (!a->IsFlatBag()) {
        return Err("dedup requires a flat bag, got " + a->ToString());
      }
      return a;
    }
    case K::kGroupBy: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr a, Check(e->child(0), env));
      if (!a->is_bag() || !a->element()->is_tuple()) {
        return Err("groupBy over non-tuple bag " + a->ToString());
      }
      const auto& elem = a->element();
      std::vector<Field> key_fields, rest_fields;
      for (const auto& key : e->keys()) {
        TRANCE_ASSIGN_OR_RETURN(TypePtr kt, elem->FieldType(key));
        if (!kt->IsFlatValueType()) {
          return Err("groupBy key " + key + " is not flat");
        }
        key_fields.push_back({key, kt});
      }
      for (const auto& f : elem->fields()) {
        if (std::find(e->keys().begin(), e->keys().end(), f.name) ==
            e->keys().end()) {
          rest_fields.push_back(f);
        }
      }
      key_fields.push_back(
          {e->attr(), Type::Bag(Type::Tuple(std::move(rest_fields)))});
      return Type::Bag(Type::Tuple(std::move(key_fields)));
    }
    case K::kSumBy: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr a, Check(e->child(0), env));
      if (!a->is_bag() || !a->element()->is_tuple()) {
        return Err("sumBy over non-tuple bag " + a->ToString());
      }
      const auto& elem = a->element();
      std::vector<Field> fields;
      for (const auto& key : e->keys()) {
        TRANCE_ASSIGN_OR_RETURN(TypePtr kt, elem->FieldType(key));
        if (!kt->IsFlatValueType()) {
          return Err("sumBy key " + key + " is not flat");
        }
        fields.push_back({key, kt});
      }
      for (const auto& v : e->values()) {
        TRANCE_ASSIGN_OR_RETURN(TypePtr vt, elem->FieldType(v));
        if (!vt->is_numeric()) {
          return Err("sumBy value " + v + " is not numeric");
        }
        fields.push_back({v, vt});
      }
      return Type::Bag(Type::Tuple(std::move(fields)));
    }
    case K::kNewLabel: {
      for (const auto& p : e->fields()) {
        TRANCE_ASSIGN_OR_RETURN(TypePtr pt, Check(p.expr, env));
        if (!pt->IsFlatValueType()) {
          return Err("NewLabel parameter " + p.name + " is not flat: " +
                     pt->ToString());
        }
      }
      return Type::Label();
    }
    case K::kMatchLabel: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr lt, Check(e->child(0), env));
      if (!lt->is_label()) return Err("match on non-label");
      if (e->match_param_type() == nullptr) {
        return Err("match construct lacks a parameter type annotation");
      }
      TypeEnv inner = env;
      inner[e->var_name()] = e->match_param_type();
      return Check(e->child(1), inner);
    }
    case K::kLookup: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr dt, Check(e->child(0), env));
      TRANCE_ASSIGN_OR_RETURN(TypePtr lt, Check(e->child(1), env));
      if (!lt->is_label()) return Err("Lookup key is not a label");
      if (dt->is_dict()) return dt->element();
      return Err("Lookup on non-dictionary " + dt->ToString());
    }
    case K::kMatLookup: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr bt, Check(e->child(0), env));
      TRANCE_ASSIGN_OR_RETURN(TypePtr lt, Check(e->child(1), env));
      if (!lt->is_label()) return Err("MatLookup key is not a label");
      // Accept a symbolic dictionary (Dict type), the label/value-bag pair
      // encoding, or the relational encoding (label column + element fields).
      if (bt->is_dict()) return bt->element();
      if (bt->is_bag() && bt->element()->is_tuple()) {
        const auto& elem = bt->element();
        int lab_idx = elem->FieldIndex("label");
        if (lab_idx >= 0 &&
            elem->fields()[static_cast<size_t>(lab_idx)].type->is_label()) {
          if (elem->FieldIndex("value") >= 0) {
            TRANCE_ASSIGN_OR_RETURN(TypePtr val, elem->FieldType("value"));
            if (val->is_bag()) return val;
          } else {
            std::vector<Field> rest;
            for (const auto& f : elem->fields()) {
              if (f.name != "label") rest.push_back(f);
            }
            if (rest.size() == 1 && rest[0].name == "_value") {
              return Type::Bag(rest[0].type);
            }
            return Type::Bag(Type::Tuple(std::move(rest)));
          }
        }
      }
      return Err("MatLookup over non-dictionary bag " + bt->ToString());
    }
    case K::kLambda: {
      TypeEnv inner = env;
      inner[e->var_name()] = Type::Label();
      TRANCE_ASSIGN_OR_RETURN(TypePtr body, Check(e->child(0), inner));
      if (!body->is_bag()) return Err("lambda body must be a bag");
      return Type::Dict(body);
    }
    case K::kDictTreeUnion: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr a, Check(e->child(0), env));
      TRANCE_ASSIGN_OR_RETURN(TypePtr b, Check(e->child(1), env));
      if (!TypeEquals(a, b)) {
        return Err("DictTreeUnion of different shapes: " + a->ToString() +
                   " vs " + b->ToString());
      }
      return a;
    }
    case K::kBagToDict: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr bt, Check(e->child(0), env));
      if (!bt->is_bag() || !bt->element()->is_tuple() ||
          bt->element()->FieldIndex("label") < 0) {
        return Err("BagToDict input must be a bag with a label attribute");
      }
      return bt;
    }
  }
  return Err("unhandled expression kind");
}

StatusOr<TypeEnv> Typechecker::CheckProgram(const Program& program) {
  TypeEnv env;
  for (const auto& in : program.inputs) {
    env[in.name] = in.type;
  }
  for (const auto& a : program.assignments) {
    TRANCE_ASSIGN_OR_RETURN(TypePtr t, Check(a.expr, env));
    env[a.var] = t;
  }
  return env;
}

}  // namespace nrc
}  // namespace trance
