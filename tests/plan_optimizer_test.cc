// Tests for the plan rebuild primitive, the unnesting stage's plan
// structure and the optimizer rules: join detection, outer-variant selection
// at nested levels, cogroup fusion, column pruning (including join-output
// narrowing), aggregation pushdown, and OuterSelect lowering semantics.
#include <gtest/gtest.h>

#include <set>

#include "exec/pipeline.h"
#include "nrc/builder.h"
#include "nrc/interp.h"
#include "plan/optimizer.h"
#include "plan/printer.h"
#include "plan/unnest.h"

namespace trance {
namespace {

using namespace nrc::dsl;
using nrc::Expr;
using nrc::ExprPtr;
using nrc::Type;
using nrc::TypePtr;
using nrc::Value;
using plan::PlanNode;
using plan::PlanPtr;

int CountKind(const PlanPtr& p, PlanNode::Kind kind) {
  int n = p->kind() == kind ? 1 : 0;
  for (size_t i = 0; i < p->num_children(); ++i) {
    n += CountKind(p->child(i), kind);
  }
  return n;
}

nrc::TypeEnv FlatEnv() {
  return {{"R", BagTu({{"k", Type::Int()}, {"a", Type::Int()}})},
          {"S", BagTu({{"k", Type::Int()}, {"b", Type::Int()}})}};
}

/// Expects `r` to carry every attribute of `p` except its children.
void ExpectSameAttrs(const PlanPtr& r, const PlanPtr& p) {
  EXPECT_EQ(r->kind(), p->kind());
  EXPECT_EQ(r->num_children(), p->num_children());
  EXPECT_EQ(r->relation(), p->relation());
  EXPECT_EQ(r->out_attr(), p->out_attr());
  EXPECT_EQ(r->id_attr(), p->id_attr());
  EXPECT_EQ(r->label_col(), p->label_col());
  EXPECT_EQ(r->bag_col(), p->bag_col());
  EXPECT_EQ(r->alias(), p->alias());
  EXPECT_EQ(r->unnest_id_attr(), p->unnest_id_attr());
  EXPECT_EQ(r->nest_indicator(), p->nest_indicator());
  EXPECT_EQ(r->outer(), p->outer());
  EXPECT_EQ(r->cond(), p->cond());
  EXPECT_EQ(r->keep_cols(), p->keep_cols());
  ASSERT_EQ(r->columns().size(), p->columns().size());
  for (size_t i = 0; i < p->columns().size(); ++i) {
    EXPECT_EQ(r->columns()[i].name, p->columns()[i].name);
    EXPECT_EQ(r->columns()[i].expr, p->columns()[i].expr);
  }
  EXPECT_EQ(r->left_keys(), p->left_keys());
  EXPECT_EQ(r->right_keys(), p->right_keys());
  EXPECT_EQ(r->keys(), p->keys());
  EXPECT_EQ(r->values(), p->values());
  EXPECT_EQ(r->value_names(), p->value_names());
  EXPECT_EQ(r->agg(), p->agg());
}

TEST(PlanNodeTest, EveryKindRebuildsOverItsChildren) {
  PlanPtr r = PlanNode::Scan("R"), s = PlanNode::Scan("S");
  ExprPtr cond = Eq(V("a"), V("b"));
  // Attributes off their defaults, so a rebuild that drops one shows.
  const std::vector<PlanPtr> nodes = {
      r,
      PlanNode::Select(r, cond),
      PlanNode::OuterSelect(r, cond, {"a"}),
      PlanNode::Project(r, {{"x", V("a")}}),
      PlanNode::Extend(r, {{"y", V("b")}}),
      PlanNode::Join(r, s, {"a"}, {"b"}, true),
      PlanNode::Unnest(r, "bag", "u", true, "_id"),
      PlanNode::AddIndex(r, "_uid"),
      PlanNode::Nest(r, plan::NestAgg::kSum, {"k"}, {"v"}, {"w"}, "out",
                     "ind"),
      PlanNode::Dedup(r),
      PlanNode::UnionAll(r, s),
      PlanNode::CoGroup(r, s, {"a"}, {"b"}, {"v"}, {"w"}, "grp"),
      PlanNode::BagToDict(r, "label"),
  };
  std::set<PlanNode::Kind> kinds;
  for (const PlanPtr& p : nodes) {
    SCOPED_TRACE(plan::PrintPlan(p));
    kinds.insert(p->kind());
    std::vector<PlanPtr> kids;
    for (size_t i = 0; i < p->num_children(); ++i) kids.push_back(p->child(i));

    // Over its own children: a fresh node (a scan is returned as is) that
    // prints the same and keeps every attribute.
    PlanPtr same = PlanNode::WithChildren(p, kids);
    EXPECT_EQ(same == p, kids.empty());
    EXPECT_EQ(plan::PrintPlan(same), plan::PrintPlan(p));
    ExpectSameAttrs(same, p);

    // Over new children: each lands in its own slot, in order.
    std::vector<PlanPtr> fresh;
    for (size_t i = 0; i < kids.size(); ++i) {
      fresh.push_back(PlanNode::Scan("T" + std::to_string(i)));
    }
    PlanPtr moved = PlanNode::WithChildren(p, fresh);
    ExpectSameAttrs(moved, p);
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(moved->child(i), fresh[i]);
    }
  }
  EXPECT_EQ(kinds.size(), 13u);
}

TEST(UnnestTest, JoinDetectedFromEqualityFilter) {
  plan::Unnester u(FlatEnv());
  ExprPtr q = For("r", V("R"),
                  For("s", V("S"),
                      If(Eq(V("r.k"), V("s.k")),
                         SngTup({{"a", V("r.a")}, {"b", V("s.b")}}))));
  auto p = u.Compile(q);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(CountKind(*p, PlanNode::Kind::kJoin), 1);
  EXPECT_EQ(CountKind(*p, PlanNode::Kind::kSelect), 0)
      << plan::PrintPlan(*p);
}

TEST(UnnestTest, AndConjunctionSplitsIntoCompositeJoinKey) {
  nrc::TypeEnv env{
      {"R", BagTu({{"k1", Type::Int()}, {"k2", Type::Int()},
                   {"a", Type::Int()}})},
      {"S", BagTu({{"k1", Type::Int()}, {"k2", Type::Int()},
                   {"b", Type::Int()}})}};
  plan::Unnester u(env);
  ExprPtr q = For("r", V("R"),
                  For("s", V("S"),
                      If(And(Eq(V("r.k1"), V("s.k1")),
                             Eq(V("r.k2"), V("s.k2"))),
                         SngTup({{"a", V("r.a")}, {"b", V("s.b")}}))));
  auto p = u.Compile(q);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  // One two-key join, no cross product, no residual select.
  std::function<const PlanNode*(const PlanPtr&)> find_join =
      [&](const PlanPtr& n) -> const PlanNode* {
    if (n->kind() == PlanNode::Kind::kJoin) return n.get();
    for (size_t i = 0; i < n->num_children(); ++i) {
      if (auto* j = find_join(n->child(i))) return j;
    }
    return nullptr;
  };
  const PlanNode* join = find_join(*p);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->left_keys().size(), 2u);
  EXPECT_EQ(CountKind(*p, PlanNode::Kind::kSelect), 0);
}

TEST(UnnestTest, NestedLevelUsesOuterOperatorsAndIds) {
  nrc::TypeEnv env{
      {"Cust", BagTu({{"ck", Type::Int()}, {"cname", Type::String()}})},
      {"Ord", BagTu({{"ck", Type::Int()}, {"odate", Type::Int()}})}};
  plan::Unnester u(env);
  ExprPtr q = For("c", V("Cust"),
                  SngTup({{"cname", V("c.cname")},
                          {"orders",
                           For("o", V("Ord"),
                               If(Eq(V("o.ck"), V("c.ck")),
                                  SngTup({{"odate", V("o.odate")}})))}}));
  auto p = u.Compile(q);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  // Entering the nested level attaches a unique id and the join is outer.
  EXPECT_EQ(CountKind(*p, PlanNode::Kind::kAddIndex), 1);
  std::function<bool(const PlanPtr&)> has_outer_join =
      [&](const PlanPtr& n) -> bool {
    if (n->kind() == PlanNode::Kind::kJoin && n->outer()) return true;
    for (size_t i = 0; i < n->num_children(); ++i) {
      if (has_outer_join(n->child(i))) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_outer_join(*p)) << plan::PrintPlan(*p);
  EXPECT_EQ(CountKind(*p, PlanNode::Kind::kNest), 1);
}

TEST(OptimizerTest, CoGroupFusionFiresOnNestOverOuterJoin) {
  nrc::TypeEnv env{
      {"Cust", BagTu({{"ck", Type::Int()}, {"cname", Type::String()}})},
      {"Ord", BagTu({{"ck", Type::Int()}, {"odate", Type::Int()}})}};
  plan::Unnester u(env);
  ExprPtr q = For("c", V("Cust"),
                  SngTup({{"cname", V("c.cname")},
                          {"orders",
                           For("o", V("Ord"),
                               If(Eq(V("o.ck"), V("c.ck")),
                                  SngTup({{"odate", V("o.odate")}})))}}));
  PlanPtr raw = u.Compile(q).ValueOrDie();
  plan::OptimizerOptions on;
  PlanPtr fused = plan::Optimize(raw, env, on).ValueOrDie();
  EXPECT_EQ(CountKind(fused, PlanNode::Kind::kCoGroup), 1)
      << plan::PrintPlan(fused);
  EXPECT_EQ(CountKind(fused, PlanNode::Kind::kNest), 0);

  plan::OptimizerOptions off;
  off.enable_cogroup = false;
  PlanPtr unfused = plan::Optimize(raw, env, off).ValueOrDie();
  EXPECT_EQ(CountKind(unfused, PlanNode::Kind::kCoGroup), 0);
  EXPECT_EQ(CountKind(unfused, PlanNode::Kind::kNest), 1);
}

TEST(OptimizerTest, ColumnPruningNarrowsScans) {
  // Only r.a is needed; the scan's renaming Project must shrink to k (join
  // key) and a.
  plan::Unnester u(FlatEnv());
  ExprPtr q = For("r", V("R"),
                  For("s", V("S"),
                      If(Eq(V("r.k"), V("s.k")), SngTup({{"a", V("r.a")}}))));
  PlanPtr raw = u.Compile(q).ValueOrDie();
  PlanPtr opt = plan::Optimize(raw, FlatEnv(), {}).ValueOrDie();
  // Find the Project over Scan(S): it should keep only the key column.
  std::function<const PlanNode*(const PlanPtr&)> find =
      [&](const PlanPtr& n) -> const PlanNode* {
    if (n->kind() == PlanNode::Kind::kProject &&
        n->child(0)->kind() == PlanNode::Kind::kScan &&
        n->child(0)->relation() == "S") {
      return n.get();
    }
    for (size_t i = 0; i < n->num_children(); ++i) {
      if (auto* f = find(n->child(i))) return f;
    }
    return nullptr;
  };
  const PlanNode* proj = find(opt);
  ASSERT_NE(proj, nullptr) << plan::PrintPlan(opt);
  EXPECT_EQ(proj->columns().size(), 1u);
  EXPECT_EQ(proj->columns()[0].name, "s.k");
}

TEST(OptimizerTest, AggPushdownIntroducesPartialSum) {
  // sumBy over a join: the pushed plan has two Nest+ operators.
  nrc::TypeEnv env{
      {"L", BagTu({{"pid", Type::Int()}, {"qty", Type::Real()}})},
      {"P", BagTu({{"pid", Type::Int()}, {"pname", Type::String()},
                   {"price", Type::Real()}})}};
  plan::Unnester u(env);
  ExprPtr q = SumBy({"pname"}, {"total"},
                    For("l", V("L"),
                        For("p", V("P"),
                            If(Eq(V("l.pid"), V("p.pid")),
                               SngTup({{"pname", V("p.pname")},
                                       {"total", Mul(V("l.qty"),
                                                     V("p.price"))}})))));
  PlanPtr raw = u.Compile(q).ValueOrDie();
  plan::OptimizerOptions opts;
  opts.enable_agg_pushdown = true;
  opts.enable_column_pruning = false;
  PlanPtr pushed = plan::Optimize(raw, env, opts).ValueOrDie();
  EXPECT_EQ(CountKind(pushed, PlanNode::Kind::kNest), 2)
      << plan::PrintPlan(pushed);
  // The partial sum must sit below the join.
  std::function<bool(const PlanPtr&, bool)> nest_below_join =
      [&](const PlanPtr& n, bool under_join) -> bool {
    if (n->kind() == PlanNode::Kind::kNest && under_join) return true;
    for (size_t i = 0; i < n->num_children(); ++i) {
      if (nest_below_join(n->child(i),
                          under_join ||
                              n->kind() == PlanNode::Kind::kJoin)) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(nest_below_join(pushed, false));
}

TEST(OuterSelectTest, PreservesOuterTuplesAsEmptyBags) {
  // A residual filter at a nested level (not fusable into the join) must not
  // drop customers: sel.v > threshold filters order lines, and customers
  // whose lines all fail keep empty bags.
  nrc::Program p;
  p.inputs = {
      {"Cust", BagTu({{"ck", Type::Int()}, {"cname", Type::String()}})},
      {"Nested",
       BagTu({{"ck", Type::Int()},
              {"lines", BagTu({{"v", Type::Int()}})}})}};
  p.assignments.push_back(
      {"Q",
       For("c", V("Cust"),
           SngTup({{"cname", V("c.cname")},
                   {"big",
                    For("n", V("Nested"),
                        If(Eq(V("n.ck"), V("c.ck")),
                           For("l", V("n.lines"),
                               If(Gt(V("l.v"), I(10)),
                                  SngTup({{"v", V("l.v")}})))))}}))});
  Value cust = Value::Bag(
      {Value::Tuple({{"ck", Value::Int(1)}, {"cname", Value::Str("a")}}),
       Value::Tuple({{"ck", Value::Int(2)}, {"cname", Value::Str("b")}})});
  Value nested = Value::Bag(
      {Value::Tuple({{"ck", Value::Int(1)},
                     {"lines",
                      Value::Bag({Value::Tuple({{"v", Value::Int(5)}}),
                                  Value::Tuple({{"v", Value::Int(20)}})})}}),
       Value::Tuple({{"ck", Value::Int(2)},
                     {"lines",
                      Value::Bag({Value::Tuple({{"v", Value::Int(3)}})})}})});
  std::map<std::string, Value> inputs{{"Cust", cust}, {"Nested", nested}};

  nrc::Interpreter interp;
  auto oracle = interp.EvalProgram(p, inputs);
  ASSERT_TRUE(oracle.ok());
  runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 4});
  auto got = exec::RunStandardOnValues(p, inputs, &cluster, {});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(nrc::DeepBagEquals(oracle->at("Q"), *got))
      << nrc::Canonicalize(*got).ToString();
  // Customer b must be present with an empty bag.
  bool saw_b = false;
  for (const auto& t : got->AsBag().elems) {
    if (t.FieldOrDie("cname").AsString() == "b") {
      saw_b = true;
      EXPECT_TRUE(t.FieldOrDie("big").AsBag().elems.empty());
    }
  }
  EXPECT_TRUE(saw_b);
}

TEST(UnnestTest, UnsupportedShapesReportNotImplemented) {
  plan::Unnester u(FlatEnv());
  // Two bag-valued attributes in one tuple constructor.
  ExprPtr q = For("r", V("R"),
                  SngTup({{"x", For("s", V("S"),
                                    If(Eq(V("s.k"), V("r.k")),
                                       SngTup({{"b", V("s.b")}})))},
                          {"y", For("s2", V("S"),
                                    If(Eq(V("s2.k"), V("r.k")),
                                       SngTup({{"b", V("s2.b")}})))}}));
  auto p = u.Compile(q);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kNotImplemented);
}

}  // namespace
}  // namespace trance
