#include "exec/scalar_compiler.h"

#include <vector>

namespace trance {
namespace exec {

namespace {

using nrc::Expr;
using nrc::ExprPtr;
using nrc::TypePtr;
using runtime::Field;
using runtime::Row;

/// Resolves a column of `schema` for nrc::ScalarExprType.
nrc::ColumnTypeFn SchemaColumnType(const runtime::Schema& schema) {
  return [&schema](const std::string& name) -> StatusOr<TypePtr> {
    TRANCE_ASSIGN_OR_RETURN(int idx, schema.Require(name));
    return schema.col(static_cast<size_t>(idx)).type;
  };
}

StatusOr<ScalarFn> Compile(const ExprPtr& e, const runtime::Schema& schema) {
  using K = Expr::Kind;
  switch (e->kind()) {
    case K::kConst: {
      const auto& c = e->const_value();
      Field f;
      switch (c.kind) {
        case nrc::ScalarKind::kInt:
        case nrc::ScalarKind::kDate:
          f = Field::Int(std::get<int64_t>(c.v));
          break;
        case nrc::ScalarKind::kReal:
          f = Field::Real(std::get<double>(c.v));
          break;
        case nrc::ScalarKind::kString:
          f = Field::Str(std::get<std::string>(c.v));
          break;
        case nrc::ScalarKind::kBool:
          f = Field::Bool(std::get<bool>(c.v));
          break;
      }
      return ScalarFn([f](const Row&) { return f; });
    }
    case K::kVarRef: {
      TRANCE_ASSIGN_OR_RETURN(int idx, schema.Require(e->var_name()));
      size_t i = static_cast<size_t>(idx);
      return ScalarFn([i](const Row& r) { return r.fields[i]; });
    }
    case K::kPrimOp: {
      TRANCE_ASSIGN_OR_RETURN(ScalarFn a, Compile(e->child(0), schema));
      TRANCE_ASSIGN_OR_RETURN(ScalarFn b, Compile(e->child(1), schema));
      TRANCE_ASSIGN_OR_RETURN(TypePtr t,
                              nrc::ScalarExprType(e, SchemaColumnType(schema)));
      const bool int_result = t->scalar_kind() == nrc::ScalarKind::kInt;
      nrc::PrimOpKind op = e->prim_op();
      return ScalarFn([a, b, op, int_result](const Row& r) -> Field {
        Field fa = a(r), fb = b(r);
        if (fa.is_null() || fb.is_null()) return Field::Null();
        double x = fa.AsNumber(), y = fb.AsNumber();
        double v = 0;
        switch (op) {
          case nrc::PrimOpKind::kAdd:
            v = x + y;
            break;
          case nrc::PrimOpKind::kSub:
            v = x - y;
            break;
          case nrc::PrimOpKind::kMul:
            v = x * y;
            break;
          case nrc::PrimOpKind::kDiv:
            if (y == 0) return Field::Null();
            v = x / y;
            break;
        }
        return int_result ? Field::Int(static_cast<int64_t>(v))
                          : Field::Real(v);
      });
    }
    case K::kCmp: {
      TRANCE_ASSIGN_OR_RETURN(ScalarFn a, Compile(e->child(0), schema));
      TRANCE_ASSIGN_OR_RETURN(ScalarFn b, Compile(e->child(1), schema));
      nrc::CmpOpKind op = e->cmp_op();
      return ScalarFn([a, b, op](const Row& r) -> Field {
        Field fa = a(r), fb = b(r);
        if (fa.is_null() || fb.is_null()) return Field::Bool(false);
        switch (op) {
          case nrc::CmpOpKind::kEq:
            return Field::Bool(fa == fb);
          case nrc::CmpOpKind::kNe:
            return Field::Bool(!(fa == fb));
          case nrc::CmpOpKind::kLt:
            return Field::Bool(FieldLess(fa, fb));
          case nrc::CmpOpKind::kLe:
            return Field::Bool(!FieldLess(fb, fa));
          case nrc::CmpOpKind::kGt:
            return Field::Bool(FieldLess(fb, fa));
          case nrc::CmpOpKind::kGe:
            return Field::Bool(!FieldLess(fa, fb));
        }
        return Field::Bool(false);
      });
    }
    case K::kBoolOp: {
      TRANCE_ASSIGN_OR_RETURN(ScalarFn a, Compile(e->child(0), schema));
      TRANCE_ASSIGN_OR_RETURN(ScalarFn b, Compile(e->child(1), schema));
      bool is_and = e->bool_op() == nrc::BoolOpKind::kAnd;
      return ScalarFn([a, b, is_and](const Row& r) -> Field {
        Field fa = a(r);
        bool va = fa.is_bool() && fa.AsBool();
        if (is_and && !va) return Field::Bool(false);
        if (!is_and && va) return Field::Bool(true);
        Field fb = b(r);
        return Field::Bool(fb.is_bool() && fb.AsBool());
      });
    }
    case K::kNot: {
      TRANCE_ASSIGN_OR_RETURN(ScalarFn a, Compile(e->child(0), schema));
      return ScalarFn([a](const Row& r) -> Field {
        Field fa = a(r);
        return Field::Bool(!(fa.is_bool() && fa.AsBool()));
      });
    }
    case K::kNewLabel: {
      std::vector<std::pair<std::string, ScalarFn>> params;
      for (const auto& p : e->fields()) {
        TRANCE_ASSIGN_OR_RETURN(ScalarFn pf, Compile(p.expr, schema));
        params.emplace_back(p.name, pf);
      }
      return ScalarFn([params](const Row& r) -> Field {
        std::vector<std::pair<std::string, Field>> vals;
        vals.reserve(params.size());
        for (const auto& [n, f] : params) vals.emplace_back(n, f(r));
        return runtime::MakeLabel(std::move(vals));
      });
    }
    default:
      return Status::NotImplemented(
          "expression kind has no row-level compilation");
  }
}

}  // namespace

StatusOr<ScalarFn> CompileScalar(const nrc::ExprPtr& e,
                                 const runtime::Schema& schema) {
  return Compile(e, schema);
}

StatusOr<nrc::TypePtr> ScalarResultType(const nrc::ExprPtr& e,
                                        const runtime::Schema& schema) {
  return nrc::ScalarExprType(e, SchemaColumnType(schema));
}

StatusOr<std::function<bool(const runtime::Row&)>> CompilePredicate(
    const nrc::ExprPtr& e, const runtime::Schema& schema) {
  TRANCE_ASSIGN_OR_RETURN(ScalarFn f, CompileScalar(e, schema));
  return std::function<bool(const runtime::Row&)>(
      [f](const runtime::Row& r) {
        runtime::Field v = f(r);
        return v.is_bool() && v.AsBool();
      });
}

}  // namespace exec
}  // namespace trance
