// The plan language (Section 2): algebraic operators in the style of the
// Fegaras–Maier intermediate object algebra — selection, projection, join,
// left outer join, unnest, outer-unnest, and the nest operator Gamma
// parameterized by bag-union or sum aggregation — plus the helpers the
// compilation routes need (index/uid attachment, dedup, union, the cogroup
// fusion the optimizer introduces, and BagToDict for the shredded route).
//
// Scalar expressions inside plan operators are NRC expressions whose free
// variables are *column names* of the child operator's output schema. The
// unnesting stage names columns "<var>.<attr>" after the comprehension
// variables that bound them.
#ifndef TRANCE_PLAN_PLAN_H_
#define TRANCE_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nrc/expr.h"
#include "nrc/type.h"
#include "util/status.h"

namespace trance {
namespace plan {

class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

/// A named scalar output expression (projection / extension item).
struct NamedColumnExpr {
  std::string name;
  nrc::ExprPtr expr;  // free vars are child column names
};

/// Aggregation flavor of the nest operator.
enum class NestAgg {
  kBagUnion,  // Gamma-union: collect tuples into a bag attribute
  kSum,       // Gamma-plus: sum value attributes
};

/// One node of an algebraic query plan.
class PlanNode {
 public:
  enum class Kind {
    kScan,        // named input dataset
    kSelect,      // sigma
    kOuterSelect,  // sigma at a nested level: failing rows keep only the
                   // grouping-prefix columns (rest nulled), preserving outer
                   // tuples for the NULL-to-empty-bag cast
    kProject,     // pi (narrowing; computed columns allowed)
    kExtend,      // adds computed columns, keeps existing ones
    kJoin,        // equi-join (inner or left outer); empty keys = cross
    kUnnest,      // mu / mu-bar over a bag column
    kAddIndex,    // extends each tuple with a unique id column
    kNest,        // Gamma^{agg}_{keys}
    kDedup,       // multiplicities to 1
    kUnionAll,    // bag union
    kCoGroup,     // fused join+nest (introduced by the optimizer)
    kBagToDict,   // casts a bag with a label column to dictionary form
  };

  // --- Factories ---
  static PlanPtr Scan(std::string relation);
  static PlanPtr Select(PlanPtr child, nrc::ExprPtr cond);
  /// Nested-level selection: rows failing `cond` survive with every column
  /// outside `keep_cols` set to NULL (so enclosing Gammas see a miss).
  static PlanPtr OuterSelect(PlanPtr child, nrc::ExprPtr cond,
                             std::vector<std::string> keep_cols);
  static PlanPtr Project(PlanPtr child, std::vector<NamedColumnExpr> cols);
  static PlanPtr Extend(PlanPtr child, std::vector<NamedColumnExpr> cols);
  /// Join on pairwise equality of left/right key column names. `outer` makes
  /// it a left outer join. Empty key lists make a cross product.
  static PlanPtr Join(PlanPtr left, PlanPtr right,
                      std::vector<std::string> left_keys,
                      std::vector<std::string> right_keys, bool outer);
  /// Unnests `bag_col`; inner attributes surface as "<alias>.<attr>".
  /// `outer` keeps tuples with empty bags (NULL-padded) and, if `id_attr` is
  /// non-empty, extends each outer tuple with a unique id column first.
  static PlanPtr Unnest(PlanPtr child, std::string bag_col, std::string alias,
                        bool outer, std::string id_attr);
  static PlanPtr AddIndex(PlanPtr child, std::string id_attr);
  /// Gamma: groups on `keys`. For kBagUnion, collects the `values` columns
  /// into bag column `out_attr` (inner tuple attributes renamed to
  /// `value_names`). For kSum, sums the `values` columns in place (out_attr
  /// unused). `indicator` optionally names the column whose NULLness marks
  /// an outer miss for the NULL-to-empty-bag cast.
  static PlanPtr Nest(PlanPtr child, NestAgg agg,
                      std::vector<std::string> keys,
                      std::vector<std::string> values,
                      std::vector<std::string> value_names,
                      std::string out_attr, std::string indicator = "");
  static PlanPtr Dedup(PlanPtr child);
  static PlanPtr UnionAll(PlanPtr a, PlanPtr b);
  /// Fused join+nest: left tuples extended with the bag of matching right
  /// `values` projections (named `value_names`) as `out_attr`.
  static PlanPtr CoGroup(PlanPtr left, PlanPtr right,
                         std::vector<std::string> left_keys,
                         std::vector<std::string> right_keys,
                         std::vector<std::string> values,
                         std::vector<std::string> value_names,
                         std::string out_attr);
  static PlanPtr BagToDict(PlanPtr child, std::string label_col);
  /// A fresh copy of `p` over `kids` (one per child, same order) with every
  /// other attribute kept: the one rebuild a pass uses for a node it does not
  /// change. A scan has nothing to rebuild and is returned as is.
  static PlanPtr WithChildren(const PlanPtr& p, std::vector<PlanPtr> kids);

  Kind kind() const { return kind_; }
  size_t num_children() const { return children_.size(); }
  const PlanPtr& child(size_t i = 0) const {
    TRANCE_CHECK(i < children_.size(), "plan child out of range");
    return children_[i];
  }

  const std::string& relation() const { return name_; }   // kScan
  const std::string& out_attr() const { return name_; }   // kNest/kCoGroup bag
  const std::string& id_attr() const { return name_; }    // kAddIndex
  const std::string& label_col() const { return name_; }  // kBagToDict
  const std::string& bag_col() const { return bag_col_; }  // kUnnest
  const std::string& alias() const { return alias_; }      // kUnnest
  const std::string& unnest_id_attr() const { return alias2_; }  // kUnnest
  const std::string& nest_indicator() const { return alias2_; }  // kNest
  bool outer() const { return outer_; }  // kJoin / kUnnest
  const nrc::ExprPtr& cond() const { return cond_; }  // kSelect/kOuterSelect
  const std::vector<std::string>& keep_cols() const {  // kOuterSelect
    return values_;
  }
  const std::vector<NamedColumnExpr>& columns() const { return cols_; }
  const std::vector<std::string>& left_keys() const { return left_keys_; }
  const std::vector<std::string>& right_keys() const { return right_keys_; }
  const std::vector<std::string>& keys() const { return left_keys_; }  // kNest
  const std::vector<std::string>& values() const { return values_; }
  const std::vector<std::string>& value_names() const { return value_names_; }
  NestAgg agg() const { return agg_; }

 private:
  explicit PlanNode(Kind kind) : kind_(kind) {}

  Kind kind_;
  std::string name_;
  std::string bag_col_;
  std::string alias_;
  std::string alias2_;
  bool outer_ = false;
  nrc::ExprPtr cond_;
  std::vector<NamedColumnExpr> cols_;
  std::vector<std::string> left_keys_;
  std::vector<std::string> right_keys_;
  std::vector<std::string> values_;
  std::vector<std::string> value_names_;
  NestAgg agg_ = NestAgg::kBagUnion;
  std::vector<PlanPtr> children_;
};

/// One plan-producing assignment of a compiled program.
struct PlanAssignment {
  std::string var;
  PlanPtr plan;
};

/// A compiled program: inputs (flat or nested datasets) plus a sequence of
/// plans; later plans may Scan earlier assignments' results.
struct PlanProgram {
  std::vector<nrc::InputDecl> inputs;
  std::vector<PlanAssignment> assignments;
};

}  // namespace plan
}  // namespace trance

#endif  // TRANCE_PLAN_PLAN_H_
