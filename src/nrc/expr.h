// NRC abstract syntax (paper Fig. 1) extended with the NRC^{Lbl+lambda}
// constructs of Section 4 (NewLabel / label match / Lookup / MatLookup /
// lambda / DictTreeUnion / BagToDict).
//
// Expressions are immutable and shared (ExprPtr). A Program is a sequence of
// assignments `var <= expr`, as in the paper's P ::= (var <= e)*; the
// materialization phase of the shredded pipeline emits such sequences.
#ifndef TRANCE_NRC_EXPR_H_
#define TRANCE_NRC_EXPR_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "nrc/type.h"
#include "util/status.h"

namespace trance {
namespace nrc {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Scalar constant payload. Dates are day numbers (int64) with kDate kind.
struct ConstValue {
  ScalarKind kind;
  std::variant<int64_t, double, std::string, bool> v;

  static ConstValue Int(int64_t i) { return {ScalarKind::kInt, i}; }
  static ConstValue Real(double d) { return {ScalarKind::kReal, d}; }
  static ConstValue Str(std::string s) {
    return {ScalarKind::kString, std::move(s)};
  }
  static ConstValue Bool(bool b) { return {ScalarKind::kBool, b}; }
  static ConstValue Date(int64_t day) { return {ScalarKind::kDate, day}; }
};

enum class PrimOpKind { kAdd, kSub, kMul, kDiv };
enum class CmpOpKind { kEq, kNe, kLt, kLe, kGt, kGe };
enum class BoolOpKind { kAnd, kOr };

const char* PrimOpName(PrimOpKind op);
const char* CmpOpName(CmpOpKind op);
const char* BoolOpName(BoolOpKind op);

/// A named field expression inside a tuple constructor or NewLabel.
struct NamedExpr {
  std::string name;
  ExprPtr expr;
};

/// Immutable NRC expression node. Construct via the static factories (they
/// check arity/shape invariants; full typing is `Typecheck`'s job).
class Expr {
 public:
  enum class Kind {
    // --- NRC core (Fig. 1) ---
    kConst,       // scalar constant
    kVarRef,      // variable reference
    kProj,        // e.a
    kTupleCtor,   // <a1 := e1, ..., an := en>
    kEmptyBag,    // {} of a declared bag type
    kSingleton,   // {e}
    kGet,         // get(e): only element of a singleton bag
    kForUnion,    // for x in e1 union e2
    kUnion,       // e1 (+) e2
    kLet,         // let x := e1 in e2
    kIfThen,      // if cond then e1 [else e2]
    kPrimOp,      // e1 op e2 on scalars
    kCmp,         // e1 relop e2
    kBoolOp,      // cond1 and/or cond2
    kNot,         // not cond
    kDedup,       // dedup(e), e a flat bag
    kGroupBy,     // groupBy_key(e)
    kSumBy,       // sumBy^value_key(e)
    // --- NRC^{Lbl+lambda} (Section 4) ---
    kNewLabel,     // NewLabel(a1 := e1, ...): label capturing flat values
    kMatchLabel,   // match e_lbl = NewLabel(x) then body (x bound to params)
    kLookup,       // Lookup(e_dict, e_lbl): apply symbolic dictionary
    kMatLookup,    // MatLookup(e_bag, e_lbl): lookup in materialized dict
    kLambda,       // lambda l. e : Label -> Bag(F)
    kDictTreeUnion,  // union of dictionary trees
    kBagToDict,    // cast bag of <label, ...> rows to dictionary
  };

  // --- Factories ---
  static ExprPtr Const(ConstValue c);
  static ExprPtr Var(std::string name);
  static ExprPtr Proj(ExprPtr e, std::string attr);
  static ExprPtr Tuple(std::vector<NamedExpr> fields);
  static ExprPtr EmptyBag(TypePtr bag_type);
  static ExprPtr Singleton(ExprPtr e);
  static ExprPtr Get(ExprPtr e);
  static ExprPtr ForUnion(std::string var, ExprPtr domain, ExprPtr body);
  static ExprPtr Union(ExprPtr a, ExprPtr b);
  static ExprPtr Let(std::string var, ExprPtr value, ExprPtr body);
  static ExprPtr IfThen(ExprPtr cond, ExprPtr then_e,
                        ExprPtr else_e = nullptr);
  static ExprPtr PrimOp(PrimOpKind op, ExprPtr a, ExprPtr b);
  static ExprPtr Cmp(CmpOpKind op, ExprPtr a, ExprPtr b);
  static ExprPtr BoolOp(BoolOpKind op, ExprPtr a, ExprPtr b);
  static ExprPtr Not(ExprPtr e);
  static ExprPtr Dedup(ExprPtr e);
  /// groupBy: groups tuples of `e` by `keys`; remaining attributes become a
  /// bag-valued attribute named `group_attr`.
  static ExprPtr GroupBy(std::vector<std::string> keys, ExprPtr e,
                         std::string group_attr = "group");
  /// sumBy: groups tuples of `e` by `keys` and sums each attribute in
  /// `values`.
  static ExprPtr SumBy(std::vector<std::string> keys,
                       std::vector<std::string> values, ExprPtr e);
  static ExprPtr NewLabel(std::vector<NamedExpr> params);
  /// match `label` = NewLabel(`var`) then `body`; `var` is bound to a tuple
  /// assembled from the label's captured parameters. `param_type`, when
  /// provided (the shredder knows it), is the tuple type of those parameters
  /// and enables static checking and plan lowering of the construct.
  static ExprPtr MatchLabel(ExprPtr label, std::string var, ExprPtr body,
                            TypePtr param_type = nullptr);
  static ExprPtr Lookup(ExprPtr dict, ExprPtr label);
  static ExprPtr MatLookup(ExprPtr mat_dict_bag, ExprPtr label);
  static ExprPtr Lambda(std::string var, ExprPtr body);
  static ExprPtr DictTreeUnion(ExprPtr a, ExprPtr b);
  static ExprPtr BagToDict(ExprPtr e);

  Kind kind() const { return kind_; }

  // --- Accessors (checked) ---
  const ConstValue& const_value() const;
  const std::string& var_name() const;   // kVarRef, kForUnion, kLet, kLambda,
                                          // kMatchLabel bound variable
  const std::string& attr() const;        // kProj attribute, kGroupBy group_attr
  const std::vector<NamedExpr>& fields() const;  // kTupleCtor, kNewLabel
  const TypePtr& declared_type() const;          // kEmptyBag
  /// Parameter tuple type annotation of kMatchLabel; may be nullptr.
  const TypePtr& match_param_type() const;
  const ExprPtr& child(size_t i) const;
  size_t num_children() const { return children_.size(); }
  const std::vector<std::string>& keys() const;    // kGroupBy/kSumBy
  const std::vector<std::string>& values() const;  // kSumBy summed attrs

  /// Free variables of this expression.
  std::set<std::string> FreeVars() const;

  // --- Shape: the one place a node's sub-expressions and binder are known.
  // A pass handles the kinds it rewrites and sends every other node through
  // SubExprs / InBinderScope / WithSubExprs instead of listing factories.

  /// The sub-expressions in order: the field expressions of a tuple
  /// constructor or NewLabel, otherwise the children.
  std::vector<ExprPtr> SubExprs() const;
  /// True if sub-expression `i` is in the scope of the variable this node
  /// binds (`var_name()`): child 1 of for, let and match, child 0 of a
  /// lambda.
  bool InBinderScope(size_t i) const;
  /// A fresh copy of `e` over `subs` (one per `e->SubExprs()`, same order)
  /// with every other attribute kept. A node without sub-expressions has
  /// nothing to rebuild and is returned as is.
  static ExprPtr WithSubExprs(const ExprPtr& e, std::vector<ExprPtr> subs);

 private:
  explicit Expr(Kind kind) : kind_(kind) {}

  void CollectFreeVars(std::set<std::string>* bound,
                       std::set<std::string>* out) const;

  Kind kind_;
  ConstValue const_value_{ScalarKind::kInt, int64_t{0}};
  std::string name_;                // var name / attr
  std::vector<NamedExpr> fields_;   // tuple ctor / new label params
  TypePtr declared_type_;           // empty bag
  std::vector<ExprPtr> children_;
  std::vector<std::string> keys_;
  std::vector<std::string> values_;
  PrimOpKind prim_op_ = PrimOpKind::kAdd;
  CmpOpKind cmp_op_ = CmpOpKind::kEq;
  BoolOpKind bool_op_ = BoolOpKind::kAnd;

 public:
  PrimOpKind prim_op() const { return prim_op_; }
  CmpOpKind cmp_op() const { return cmp_op_; }
  BoolOpKind bool_op() const { return bool_op_; }
};

/// One `var <= expr` assignment of a program.
struct Assignment {
  std::string var;
  ExprPtr expr;
};

/// A named input relation with its type (free variables of the program).
struct InputDecl {
  std::string name;
  TypePtr type;
};

/// P ::= (var <= e)*, plus declarations of the free input relations.
struct Program {
  std::vector<InputDecl> inputs;
  std::vector<Assignment> assignments;

  /// The final assignment is the program's result.
  const Assignment& result() const {
    TRANCE_CHECK(!assignments.empty(), "empty program");
    return assignments.back();
  }
};

/// Substitutes `replacement` for free occurrences of variable `var` in `e`.
ExprPtr Substitute(const ExprPtr& e, const std::string& var,
                   const ExprPtr& replacement);

}  // namespace nrc
}  // namespace trance

#endif  // TRANCE_NRC_EXPR_H_
