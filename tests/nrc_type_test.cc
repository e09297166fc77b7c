// Unit tests for the NRC type system, AST construction, the shredded type
// derivation prerequisites (flatness predicates), and the one arithmetic
// typing rule the typechecker, the plan compiler and both evaluators share.
#include <gtest/gtest.h>

#include <set>

#include "exec/scalar_compiler.h"
#include "nrc/builder.h"
#include "nrc/expr.h"
#include "nrc/interp.h"
#include "nrc/printer.h"
#include "nrc/type.h"
#include "nrc/typecheck.h"
#include "runtime/field.h"
#include "runtime/schema.h"

namespace trance {
namespace nrc {
namespace {

using dsl::BagTu;
using dsl::Tu;

TEST(TypeTest, ScalarSingletons) {
  EXPECT_TRUE(Type::Int()->is_scalar());
  EXPECT_TRUE(Type::Int()->is_numeric());
  EXPECT_TRUE(Type::Real()->is_numeric());
  EXPECT_FALSE(Type::String()->is_numeric());
  EXPECT_TRUE(Type::Bool()->is_bool());
  EXPECT_EQ(Type::Date()->scalar_kind(), ScalarKind::kDate);
}

TEST(TypeTest, TupleFieldLookup) {
  TypePtr t = Tu({{"a", Type::Int()}, {"b", Type::String()}});
  EXPECT_EQ(t->FieldIndex("a"), 0);
  EXPECT_EQ(t->FieldIndex("b"), 1);
  EXPECT_EQ(t->FieldIndex("c"), -1);
  auto ft = t->FieldType("b");
  ASSERT_TRUE(ft.ok());
  EXPECT_TRUE(TypeEquals(*ft, Type::String()));
  EXPECT_FALSE(t->FieldType("zzz").ok());
}

TEST(TypeTest, Equality) {
  TypePtr a = BagTu({{"x", Type::Int()}, {"y", Type::Real()}});
  TypePtr b = BagTu({{"x", Type::Int()}, {"y", Type::Real()}});
  TypePtr c = BagTu({{"x", Type::Int()}, {"y", Type::Int()}});
  TypePtr d = BagTu({{"y", Type::Real()}, {"x", Type::Int()}});
  EXPECT_TRUE(TypeEquals(a, b));
  EXPECT_FALSE(TypeEquals(a, c));
  EXPECT_FALSE(TypeEquals(a, d));  // field order matters
}

TEST(TypeTest, FlatBagPredicate) {
  TypePtr flat = BagTu({{"x", Type::Int()}, {"y", Type::String()}});
  EXPECT_TRUE(flat->IsFlatBag());
  TypePtr with_label =
      BagTu({{"x", Type::Int()}, {"l", Type::Label()}});
  EXPECT_TRUE(with_label->IsFlatBag());  // labels count as flat
  TypePtr nested = BagTu({{"x", Type::Int()}, {"inner", flat}});
  EXPECT_FALSE(nested->IsFlatBag());
  EXPECT_TRUE(Type::Bag(Type::Int())->IsFlatBag());
  EXPECT_FALSE(Type::Int()->IsFlatBag());
}

TEST(TypeTest, ToStringRoundsTrip) {
  TypePtr cop = BagTu(
      {{"cname", Type::String()},
       {"corders",
        BagTu({{"odate", Type::Date()},
               {"oparts",
                BagTu({{"pid", Type::Int()}, {"qty", Type::Real()}})}})}});
  EXPECT_EQ(cop->ToString(),
            "Bag(<cname: string, corders: Bag(<odate: date, oparts: "
            "Bag(<pid: int, qty: real>)>)>)");
}

TEST(TypeTest, DictType) {
  TypePtr d = Type::Dict(BagTu({{"pid", Type::Int()}}));
  EXPECT_TRUE(d->is_dict());
  EXPECT_TRUE(d->element()->is_bag());
  EXPECT_EQ(d->ToString(), "Label -> Bag(<pid: int>)");
}

TEST(ExprTest, FreeVars) {
  using namespace dsl;
  // for x in R union { <a := x.a, b := y.b> }
  ExprPtr e = For("x", V("R"), SngTup({{"a", V("x.a")}, {"b", V("y.b")}}));
  auto fv = e->FreeVars();
  EXPECT_TRUE(fv.count("R"));
  EXPECT_TRUE(fv.count("y"));
  EXPECT_FALSE(fv.count("x"));
}

TEST(ExprTest, FreeVarsLetAndLambda) {
  using namespace dsl;
  ExprPtr e = Let("z", V("input"), Expr::Lambda("l", Sng(V("z"))));
  auto fv = e->FreeVars();
  EXPECT_EQ(fv.size(), 1u);
  EXPECT_TRUE(fv.count("input"));
}

TEST(ExprTest, SubstituteRespectsBinding) {
  using namespace dsl;
  // for x in R union {x.a} with substitution x -> y must not touch bound x.
  ExprPtr body = Sng(V("x.a"));
  ExprPtr e = For("x", V("x"), body);  // free x only in the domain
  ExprPtr sub = Substitute(e, "x", V("R"));
  auto fv = sub->FreeVars();
  EXPECT_TRUE(fv.count("R"));
  EXPECT_FALSE(fv.count("x"));
}

/// Expects `r` to carry every attribute of `e` that is not a sub-expression,
/// read through the accessors its kind allows.
void ExpectSameAttrs(const ExprPtr& r, const ExprPtr& e) {
  using K = Expr::Kind;
  ASSERT_EQ(r->kind(), e->kind());
  ASSERT_EQ(r->num_children(), e->num_children());
  switch (e->kind()) {
    case K::kConst:
      EXPECT_EQ(r->const_value().kind, e->const_value().kind);
      EXPECT_TRUE(r->const_value().v == e->const_value().v);
      break;
    case K::kVarRef:
    case K::kForUnion:
    case K::kLet:
    case K::kLambda:
      EXPECT_EQ(r->var_name(), e->var_name());
      break;
    case K::kMatchLabel:
      EXPECT_EQ(r->var_name(), e->var_name());
      EXPECT_EQ(r->match_param_type(), e->match_param_type());
      break;
    case K::kProj:
      EXPECT_EQ(r->attr(), e->attr());
      break;
    case K::kTupleCtor:
    case K::kNewLabel:
      ASSERT_EQ(r->fields().size(), e->fields().size());
      for (size_t i = 0; i < e->fields().size(); ++i) {
        EXPECT_EQ(r->fields()[i].name, e->fields()[i].name);
      }
      break;
    case K::kEmptyBag:
      EXPECT_EQ(r->declared_type(), e->declared_type());
      break;
    case K::kPrimOp:
      EXPECT_EQ(r->prim_op(), e->prim_op());
      break;
    case K::kCmp:
      EXPECT_EQ(r->cmp_op(), e->cmp_op());
      break;
    case K::kBoolOp:
      EXPECT_EQ(r->bool_op(), e->bool_op());
      break;
    case K::kGroupBy:
      EXPECT_EQ(r->attr(), e->attr());
      EXPECT_EQ(r->keys(), e->keys());
      break;
    case K::kSumBy:
      EXPECT_EQ(r->keys(), e->keys());
      EXPECT_EQ(r->values(), e->values());
      break;
    default:  // sub-expressions only
      break;
  }
}

TEST(ExprTest, EveryKindRebuildsOverItsSubExprs) {
  using K = Expr::Kind;
  ExprPtr a = Expr::Var("a"), b = Expr::Var("b"), c = Expr::Var("c");
  // Attributes off their defaults, so a rebuild that drops one shows.
  const std::vector<ExprPtr> nodes = {
      Expr::Const(ConstValue::Str("s")),
      Expr::Var("x"),
      Expr::Proj(a, "f"),
      Expr::Tuple({{"f", a}, {"g", b}}),
      Expr::EmptyBag(BagTu({{"f", Type::Int()}})),
      Expr::Singleton(a),
      Expr::Get(a),
      Expr::ForUnion("x", a, b),
      Expr::Union(a, b),
      Expr::Let("x", a, b),
      Expr::IfThen(a, b, c),
      Expr::PrimOp(PrimOpKind::kMul, a, b),
      Expr::Cmp(CmpOpKind::kLe, a, b),
      Expr::BoolOp(BoolOpKind::kOr, a, b),
      Expr::Not(a),
      Expr::Dedup(a),
      Expr::GroupBy({"k"}, a, "grp"),
      Expr::SumBy({"k"}, {"v", "w"}, a),
      Expr::NewLabel({{"p", a}, {"q", b}}),
      Expr::MatchLabel(a, "m", b, Tu({{"p", Type::Int()}})),
      Expr::Lookup(a, b),
      Expr::MatLookup(a, b),
      Expr::Lambda("l", a),
      Expr::DictTreeUnion(a, b),
      Expr::BagToDict(a),
  };
  std::set<K> kinds;
  for (const ExprPtr& e : nodes) {
    SCOPED_TRACE(PrintExpr(e));
    kinds.insert(e->kind());
    const std::vector<ExprPtr> subs = e->SubExprs();
    const size_t width = e->kind() == K::kTupleCtor ||
                                 e->kind() == K::kNewLabel
                             ? e->fields().size()
                             : e->num_children();
    ASSERT_EQ(subs.size(), width);

    // Over its own sub-expressions: a fresh node (a leaf is returned as
    // is) that prints the same and keeps every attribute.
    ExprPtr same = Expr::WithSubExprs(e, subs);
    EXPECT_EQ(same == e, subs.empty());
    EXPECT_EQ(PrintExpr(same), PrintExpr(e));
    ExpectSameAttrs(same, e);

    // Over new sub-expressions: each lands in its own slot, in order.
    std::vector<ExprPtr> fresh;
    for (size_t i = 0; i < subs.size(); ++i) {
      fresh.push_back(Expr::Var("n" + std::to_string(i)));
    }
    ExprPtr moved = Expr::WithSubExprs(e, fresh);
    ExpectSameAttrs(moved, e);
    EXPECT_EQ(moved->SubExprs(), fresh);

    // The binder rule: for, let and match scope child 1, a lambda child 0.
    for (size_t i = 0; i < subs.size(); ++i) {
      const bool scoped =
          ((e->kind() == K::kForUnion || e->kind() == K::kLet ||
            e->kind() == K::kMatchLabel) &&
           i == 1) ||
          (e->kind() == K::kLambda && i == 0);
      EXPECT_EQ(e->InBinderScope(i), scoped) << "sub-expression " << i;
    }
  }
  EXPECT_EQ(kinds.size(), 25u);
}

TEST(ExprTest, SubstituteAndFreeVarsRespectEveryBinder) {
  using namespace dsl;
  ExprPtr r = V("R");
  struct Case {
    ExprPtr e;           // mentions x inside and outside a binder's scope
    bool x_free;         // FreeVars contains x
    std::string after;   // Substitute(e, x, R), printed
  };
  const std::vector<Case> cases = {
      {Expr::Let("x", V("x"), V("x")), true,
       PrintExpr(Expr::Let("x", r, V("x")))},
      {Expr::Lambda("x", V("x")), false, PrintExpr(Expr::Lambda("x", V("x")))},
      {Expr::MatchLabel(V("x"), "x", V("x")), true,
       PrintExpr(Expr::MatchLabel(r, "x", V("x")))},
      {For("x", V("x"), Sng(V("x"))), true, PrintExpr(For("x", r, Sng(V("x"))))},
      // A binder of another variable leaves x free in its scope.
      {Expr::Lambda("y", V("x")), true, PrintExpr(Expr::Lambda("y", r))},
      {Expr::MatchLabel(V("y"), "y", V("x")), true,
       PrintExpr(Expr::MatchLabel(V("y"), "y", r))},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(PrintExpr(c.e));
    EXPECT_EQ(c.e->FreeVars().count("x") > 0, c.x_free);
    ExprPtr sub = Substitute(c.e, "x", r);
    EXPECT_EQ(PrintExpr(sub), c.after);
    EXPECT_EQ(sub->FreeVars().count("x"), 0u);
  }
}

TEST(TypecheckTest, RunningExampleTypes) {
  using namespace dsl;
  // COP and Part from Example 1.
  TypePtr cop_t = BagTu(
      {{"cname", Type::String()},
       {"corders",
        BagTu({{"odate", Type::Date()},
               {"oparts",
                BagTu({{"pid", Type::Int()}, {"qty", Type::Real()}})}})}});
  TypePtr part_t = BagTu({{"pid", Type::Int()},
                          {"pname", Type::String()},
                          {"price", Type::Real()}});

  ExprPtr q = For(
      "cop", V("COP"),
      SngTup(
          {{"cname", V("cop.cname")},
           {"corders",
            For("co", V("cop.corders"),
                SngTup({{"odate", V("co.odate")},
                        {"oparts",
                         SumBy({"pname"}, {"total"},
                               For("op", V("co.oparts"),
                                   For("p", V("Part"),
                                       If(Eq(V("op.pid"), V("p.pid")),
                                          SngTup({{"pname", V("p.pname")},
                                                  {"total",
                                                   Mul(V("op.qty"),
                                                       V("p.price"))}})))))}}))}}));

  Typechecker tc;
  TypeEnv env{{"COP", cop_t}, {"Part", part_t}};
  auto t = tc.Check(q, env);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  TypePtr expected = BagTu(
      {{"cname", Type::String()},
       {"corders",
        BagTu({{"odate", Type::Date()},
               {"oparts",
                BagTu({{"pname", Type::String()}, {"total", Type::Real()}})}})}});
  EXPECT_TRUE(TypeEquals(*t, expected)) << (*t)->ToString();
}

TEST(TypecheckTest, RejectsUnboundVariable) {
  Typechecker tc;
  auto r = tc.Check(dsl::V("nope"), {});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(TypecheckTest, RejectsNonFlatDedup) {
  using namespace dsl;
  TypePtr nested =
      BagTu({{"a", Type::Int()}, {"inner", BagTu({{"b", Type::Int()}})}});
  Typechecker tc;
  auto r = tc.Check(Expr::Dedup(V("R")), {{"R", nested}});
  EXPECT_FALSE(r.ok());
}

TEST(TypecheckTest, RejectsMixedUnion) {
  using namespace dsl;
  Typechecker tc;
  TypeEnv env{{"A", BagTu({{"x", Type::Int()}})},
              {"B", BagTu({{"x", Type::Real()}})}};
  auto r = tc.Check(Expr::Union(V("A"), V("B")), env);
  EXPECT_FALSE(r.ok());
}

TEST(TypecheckTest, SumByRequiresNumericValues) {
  using namespace dsl;
  Typechecker tc;
  TypeEnv env{{"R", BagTu({{"k", Type::Int()}, {"v", Type::String()}})}};
  auto r = tc.Check(SumBy({"k"}, {"v"}, V("R")), env);
  EXPECT_FALSE(r.ok());
}

TEST(TypecheckTest, GroupByShape) {
  using namespace dsl;
  Typechecker tc;
  TypeEnv env{
      {"R", BagTu({{"k", Type::Int()}, {"a", Type::String()},
                   {"b", Type::Real()}})}};
  auto r = tc.Check(GroupBy({"k"}, V("R")), env);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  TypePtr expected =
      BagTu({{"k", Type::Int()},
             {"group", BagTu({{"a", Type::String()}, {"b", Type::Real()}})}});
  EXPECT_TRUE(TypeEquals(*r, expected)) << (*r)->ToString();
}

TEST(TypecheckTest, LambdaAndLookup) {
  using namespace dsl;
  Typechecker tc;
  TypeEnv env{{"D", Type::Dict(BagTu({{"x", Type::Int()}}))},
              {"l", Type::Label()}};
  auto r = tc.Check(Expr::Lookup(V("D"), V("l")), env);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(TypeEquals(*r, BagTu({{"x", Type::Int()}})));

  // lambda l2. Lookup(D, l2) : Label -> Bag(<x:int>)
  auto lam = tc.Check(Expr::Lambda("l2", Expr::Lookup(V("D"), V("l2"))), env);
  ASSERT_TRUE(lam.ok());
  EXPECT_TRUE((*lam)->is_dict());
}

TEST(TypecheckTest, ArithmeticFollowsTheSharedRule) {
  using dsl::V;
  // `a / b` over ints is real, as every evaluator computes it.
  Typechecker div_tc;
  auto div = div_tc.Check(dsl::Div(V("a"), V("b")),
                          {{"a", Type::Int()}, {"b", Type::Int()}});
  ASSERT_TRUE(div.ok()) << div.status().ToString();
  EXPECT_TRUE(TypeEquals(*div, Type::Real())) << (*div)->ToString();

  // For + - * / over every int/real pairing: the typechecker's type, the
  // shared scalar type, the kind of the interpreter's value and the kind of
  // the compiled closure's Field all agree.
  const PrimOpKind ops[] = {PrimOpKind::kAdd, PrimOpKind::kSub,
                            PrimOpKind::kMul, PrimOpKind::kDiv};
  for (bool a_real : {false, true}) {
    for (bool b_real : {false, true}) {
      for (PrimOpKind op : ops) {
        SCOPED_TRACE(std::string(PrimOpName(op)) + " over " +
                     (a_real ? "real" : "int") + ", " +
                     (b_real ? "real" : "int"));
        const TypePtr ta = a_real ? Type::Real() : Type::Int();
        const TypePtr tb = b_real ? Type::Real() : Type::Int();
        ExprPtr e = Expr::PrimOp(op, V("a"), V("b"));

        Typechecker tc;
        auto checked = tc.Check(e, {{"a", ta}, {"b", tb}});
        ASSERT_TRUE(checked.ok()) << checked.status().ToString();
        auto shared = ScalarExprType(
            e, [&](const std::string& col) -> StatusOr<TypePtr> {
              return col == "a" ? ta : tb;
            });
        ASSERT_TRUE(shared.ok()) << shared.status().ToString();
        EXPECT_TRUE(TypeEquals(*checked, *shared));
        const bool real = (*shared)->scalar_kind() == ScalarKind::kReal;
        EXPECT_EQ(real, op == PrimOpKind::kDiv || a_real || b_real);

        EnvPtr env = Env::Bind(Env::Empty(), "a",
                               a_real ? Value::Real(6) : Value::Int(6));
        env = Env::Bind(env, "b", b_real ? Value::Real(4) : Value::Int(4));
        Interpreter interp;
        auto value = interp.Eval(e, env);
        ASSERT_TRUE(value.ok()) << value.status().ToString();
        EXPECT_EQ(value->is_real(), real);
        EXPECT_EQ(value->is_int(), !real);

        runtime::Schema schema({{"a", ta}, {"b", tb}});
        auto fn = exec::CompileScalar(e, schema);
        ASSERT_TRUE(fn.ok()) << fn.status().ToString();
        runtime::Row row(
            {a_real ? runtime::Field::Real(6) : runtime::Field::Int(6),
             b_real ? runtime::Field::Real(4) : runtime::Field::Int(4)});
        const runtime::Field f =
            (*fn)(runtime::column::PartitionBlock::FromRows(schema, {row}), 0);
        EXPECT_EQ(f.is_real(), real);
        EXPECT_EQ(f.is_int(), !real);
      }
    }
  }
}

TEST(PrinterTest, PrintsRunningExampleConstructs) {
  using namespace dsl;
  ExprPtr e = SumBy({"pname"}, {"total"},
                    For("p", V("Part"), SngTup({{"pname", V("p.pname")},
                                                {"total", V("p.price")}})));
  std::string s = PrintExpr(e);
  EXPECT_NE(s.find("sumBy^{total}_{pname}"), std::string::npos);
  EXPECT_NE(s.find("for p in Part union"), std::string::npos);
}

}  // namespace
}  // namespace nrc
}  // namespace trance
