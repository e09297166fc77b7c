#include "tpch/queries.h"

#include <vector>

#include "nrc/builder.h"
#include "tpch/generator.h"

namespace trance {
namespace tpch {

using nrc::Expr;
using nrc::ExprPtr;
using nrc::Type;
using nrc::TypePtr;

namespace {

struct LevelSpec {
  const char* rel;       // source relation
  const char* var;       // comprehension variable
  const char* pk;        // key the child level joins on (this side)
  const char* child_fk;  // foreign key attribute in the child relation
  const char* bag_attr;  // name of the nested attribute holding children
  std::vector<const char*> narrow_attrs;
  runtime::Schema (*schema)();
};

/// Levels from top (Region) to bottom (Lineitem). A depth-L query uses the
/// last L+1 entries.
const std::vector<LevelSpec>& Levels() {
  static const std::vector<LevelSpec> kLevels = {
      {"Region", "r", "r_regionkey", "n_regionkey", "nations",
       {"r_name"}, &RegionSchema},
      {"Nation", "n", "n_nationkey", "c_nationkey", "customers",
       {"n_name"}, &NationSchema},
      {"Customer", "c", "c_custkey", "o_custkey", "orders",
       {"c_name"}, &CustomerSchema},
      {"Orders", "o", "o_orderkey", "l_orderkey", "lineitems",
       {"o_orderdate"}, &OrdersSchema},
      {"Lineitem", "l", nullptr, nullptr, nullptr,
       {"l_partkey", "l_quantity"}, &LineitemSchema},
  };
  return kLevels;
}

std::vector<std::string> LevelAttrs(const LevelSpec& spec, Width width) {
  std::vector<std::string> attrs;
  if (width == Width::kWide) {
    runtime::Schema s = spec.schema();  // keep alive across the loop
    for (const auto& c : s.columns()) attrs.push_back(c.name);
  } else {
    for (const char* a : spec.narrow_attrs) attrs.push_back(a);
  }
  return attrs;
}

TypePtr AttrType(const LevelSpec& spec, const std::string& attr) {
  runtime::Schema s = spec.schema();
  int i = s.IndexOf(attr);
  TRANCE_CHECK(i >= 0, "unknown TPC-H attribute " + attr);
  return s.col(static_cast<size_t>(i)).type;
}

Status CheckDepth(int depth) {
  if (depth < 0 || depth > kMaxDepth) {
    return Status::Invalid("nesting depth must be in [0, 4]");
  }
  return Status::OK();
}

/// Builds the flat-to-nested comprehension for levels[i..].
ExprPtr BuildFlatToNested(const std::vector<LevelSpec>& levels, size_t i,
                          Width width) {
  const LevelSpec& spec = levels[i];
  std::vector<nrc::NamedExpr> fields;
  for (const auto& a : LevelAttrs(spec, width)) {
    fields.push_back({a, Expr::Proj(Expr::Var(spec.var), a)});
  }
  ExprPtr head;
  if (i + 1 < levels.size()) {
    const LevelSpec& child = levels[i + 1];
    ExprPtr sub = BuildFlatToNested(levels, i + 1, width);
    // The child comprehension gains the correlation filter to this level.
    // BuildFlatToNested returns `for v in Rel union BODY`; inject the filter.
    ExprPtr cond = Expr::Cmp(nrc::CmpOpKind::kEq,
                             Expr::Proj(Expr::Var(child.var), spec.child_fk),
                             Expr::Proj(Expr::Var(spec.var), spec.pk));
    ExprPtr body = Expr::IfThen(cond, sub->child(1));
    ExprPtr correlated = Expr::ForUnion(child.var, sub->child(0), body);
    fields.push_back({spec.bag_attr, correlated});
  }
  head = Expr::Singleton(Expr::Tuple(std::move(fields)));
  return Expr::ForUnion(spec.var, Expr::Var(spec.rel), head);
}

StatusOr<TypePtr> OutputElemType(const std::vector<LevelSpec>& levels,
                                 size_t i, Width width) {
  const LevelSpec& spec = levels[i];
  std::vector<nrc::Field> fields;
  for (const auto& a : LevelAttrs(spec, width)) {
    fields.push_back({a, AttrType(spec, a)});
  }
  if (i + 1 < levels.size()) {
    TRANCE_ASSIGN_OR_RETURN(TypePtr child,
                            OutputElemType(levels, i + 1, width));
    fields.push_back({spec.bag_attr, Type::Bag(child)});
  }
  return Type::Tuple(std::move(fields));
}

std::vector<LevelSpec> DepthLevels(int depth) {
  const auto& all = Levels();
  return std::vector<LevelSpec>(all.end() - (depth + 1), all.end());
}

/// The leaf aggregation of the nested-to-* queries: join Part, sum
/// qty*price per part name. `leaf_bag` is the expression producing the leaf
/// bag, `leaf_var` the variable to bind its elements to. Extra head fields
/// (for nested-to-flat's top-level key) are prepended.
ExprPtr LeafAggregation(ExprPtr leaf_bag, const std::string& leaf_var,
                        std::vector<nrc::NamedExpr> extra_fields,
                        std::vector<std::string> extra_keys) {
  std::vector<nrc::NamedExpr> head = std::move(extra_fields);
  head.push_back({"pname", Expr::Proj(Expr::Var("p"), "p_name")});
  head.push_back(
      {"total",
       Expr::PrimOp(nrc::PrimOpKind::kMul,
                    Expr::Proj(Expr::Var(leaf_var), "l_quantity"),
                    Expr::Proj(Expr::Var("p"), "p_retailprice"))});
  ExprPtr comp = Expr::ForUnion(
      leaf_var, std::move(leaf_bag),
      Expr::ForUnion(
          "p", Expr::Var("Part"),
          Expr::IfThen(
              Expr::Cmp(nrc::CmpOpKind::kEq,
                        Expr::Proj(Expr::Var(leaf_var), "l_partkey"),
                        Expr::Proj(Expr::Var("p"), "p_partkey")),
              Expr::Singleton(Expr::Tuple(std::move(head))))));
  std::vector<std::string> keys = std::move(extra_keys);
  keys.push_back("pname");
  return Expr::SumBy(std::move(keys), {"total"}, comp);
}

/// Rebuilds the nested structure over input variable chain, applying the
/// leaf aggregation at the bottom (nested-to-nested).
StatusOr<ExprPtr> BuildNestedToNested(const TypePtr& elem,
                                      const std::string& var, int level) {
  std::vector<nrc::NamedExpr> fields;
  for (const auto& f : elem->fields()) {
    if (f.type->is_bag()) {
      std::string child_var = "x" + std::to_string(level + 1);
      const TypePtr& child_elem = f.type->element();
      bool leaf = true;
      for (const auto& cf : child_elem->fields()) {
        if (cf.type->is_bag()) leaf = false;
      }
      ExprPtr bag_expr;
      if (leaf) {
        bag_expr = LeafAggregation(Expr::Proj(Expr::Var(var), f.name),
                                   child_var, {}, {});
      } else {
        TRANCE_ASSIGN_OR_RETURN(ExprPtr sub,
                                BuildNestedToNested(child_elem, child_var,
                                                    level + 1));
        bag_expr = Expr::ForUnion(
            child_var, Expr::Proj(Expr::Var(var), f.name), sub);
      }
      fields.push_back({f.name, bag_expr});
    } else {
      fields.push_back({f.name, Expr::Proj(Expr::Var(var), f.name)});
    }
  }
  return Expr::Singleton(Expr::Tuple(std::move(fields)));
}

}  // namespace

StatusOr<nrc::Program> FlatToNested(int depth, Width width) {
  TRANCE_RETURN_NOT_OK(CheckDepth(depth));
  std::vector<LevelSpec> levels = DepthLevels(depth);
  nrc::Program p;
  for (const auto& l : levels) {
    p.inputs.push_back({l.rel, l.schema().BagType()});
  }
  p.assignments.push_back({"Q", BuildFlatToNested(levels, 0, width)});
  return p;
}

StatusOr<nrc::TypePtr> FlatToNestedOutputType(int depth, Width width) {
  TRANCE_RETURN_NOT_OK(CheckDepth(depth));
  std::vector<LevelSpec> levels = DepthLevels(depth);
  TRANCE_ASSIGN_OR_RETURN(TypePtr elem, OutputElemType(levels, 0, width));
  return Type::Bag(elem);
}

StatusOr<nrc::Program> NestedToNested(int depth, Width width) {
  TRANCE_RETURN_NOT_OK(CheckDepth(depth));
  TRANCE_ASSIGN_OR_RETURN(TypePtr input, FlatToNestedOutputType(depth, width));
  nrc::Program p;
  p.inputs.push_back({"COP", input});
  p.inputs.push_back({"Part", PartSchema().BagType()});
  if (depth == 0) {
    // Flat input: aggregate directly.
    p.assignments.push_back(
        {"Q", LeafAggregation(Expr::Var("COP"), "x0", {}, {})});
    return p;
  }
  TRANCE_ASSIGN_OR_RETURN(ExprPtr body,
                          BuildNestedToNested(input->element(), "x0", 0));
  p.assignments.push_back(
      {"Q", Expr::ForUnion("x0", Expr::Var("COP"), body)});
  return p;
}

StatusOr<nrc::Program> NestedToFlat(int depth, Width width) {
  TRANCE_RETURN_NOT_OK(CheckDepth(depth));
  TRANCE_ASSIGN_OR_RETURN(TypePtr input, FlatToNestedOutputType(depth, width));
  std::vector<LevelSpec> levels = DepthLevels(depth);
  nrc::Program p;
  p.inputs.push_back({"COP", input});
  p.inputs.push_back({"Part", PartSchema().BagType()});

  // Navigate every level: for x0 in COP union for x1 in x0.<bag> union ...
  std::string top_key =
      depth == 0 ? "l_partkey" : std::string(levels[0].narrow_attrs[0]);
  std::string leaf_var = "x" + std::to_string(depth);
  // Build the navigation bottom-up inside LeafAggregation's comprehension:
  // the leaf bag expression is x_{depth-1}.<bag>; generators for upper
  // levels wrap around the sumBy's comprehension, so instead build the
  // navigation as nested for-loops with the aggregation at the very top.
  std::vector<nrc::NamedExpr> extra;
  extra.push_back({"name", depth == 0
                               ? Expr::Proj(Expr::Var(leaf_var), "l_partkey")
                               : Expr::Proj(Expr::Var("x0"), top_key)});
  ExprPtr inner = LeafAggregation(
      depth == 0 ? Expr::Var("COP")
                 : Expr::Proj(Expr::Var("x" + std::to_string(depth - 1)),
                              levels[depth - 1].bag_attr),
      leaf_var, std::move(extra), {"name"});
  // LeafAggregation returns sumBy(comp); we need the navigation loops wrapped
  // around comp, inside the sumBy.
  TRANCE_CHECK(inner->kind() == Expr::Kind::kSumBy, "expected sumBy");
  ExprPtr comp = inner->child(0);
  for (int i = depth - 1; i >= 0; --i) {
    ExprPtr domain = i == 0 ? Expr::Var("COP")
                            : Expr::Proj(Expr::Var("x" + std::to_string(i - 1)),
                                         levels[i - 1].bag_attr);
    comp = Expr::ForUnion("x" + std::to_string(i), domain, comp);
  }
  p.assignments.push_back({"Q", Expr::WithSubExprs(inner, {comp})});
  return p;
}

}  // namespace tpch
}  // namespace trance
