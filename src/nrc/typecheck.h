// NRC / NRC^{Lbl+lambda} type checker.
//
// Besides validating programs, the checker memoizes the type of every
// expression node; later compilation stages (unnesting, shredding, lowering)
// query these types to derive operator schemas.
#ifndef TRANCE_NRC_TYPECHECK_H_
#define TRANCE_NRC_TYPECHECK_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "nrc/expr.h"
#include "nrc/type.h"
#include "util/status.h"

namespace trance {
namespace nrc {

/// Typing environment: variable name -> type.
using TypeEnv = std::map<std::string, TypePtr>;

/// Type checker with per-node memoization. One instance per program; nodes
/// are keyed by identity, so reusing an instance across unrelated programs
/// that share subtrees bound in different environments is not supported.
class Typechecker {
 public:
  /// Types expression `e` under `env`; caches the result per node.
  StatusOr<TypePtr> Check(const ExprPtr& e, const TypeEnv& env);

  /// Types a whole program (inputs seed the environment; each assignment
  /// extends it). On success returns the environment including all assigned
  /// variables.
  StatusOr<TypeEnv> CheckProgram(const Program& program);

  /// The memoized type of a node, or nullptr if it was never checked.
  TypePtr TypeOf(const Expr* e) const {
    auto it = keys_.find(e);
    return it == keys_.end() ? nullptr : it->second;
  }

 private:
  StatusOr<TypePtr> CheckImpl(const ExprPtr& e, const TypeEnv& env);

  // The memo holds shared ownership of every checked node: keying raw
  // pointers without ownership would let a freed node's address be reused by
  // a later allocation and return a stale type.
  std::vector<ExprPtr> owned_;
  std::unordered_map<const Expr*, TypePtr> keys_;
};

/// The one arithmetic typing rule, shared by the typechecker, the plan
/// columns the unnester declares and the closures the scalar compiler
/// builds: division is real; otherwise the result is real if either operand
/// is real, else int.
TypePtr ArithmeticType(PrimOpKind op, const TypePtr& a, const TypePtr& b);

/// Resolves a column name to its type; an unknown name is an error.
using ColumnTypeFn = std::function<StatusOr<TypePtr>(const std::string&)>;

/// Static type of a plan scalar expression (constants, column references
/// resolved by `column_type`, arithmetic, comparisons, boolean operators and
/// NewLabel): the type a plan declares for a computed column, and the kind
/// of every non-NULL value its compiled closure yields.
StatusOr<TypePtr> ScalarExprType(const ExprPtr& e,
                                 const ColumnTypeFn& column_type);

/// The per-type default value returned by get() on non-singleton bags.
class Value;

}  // namespace nrc
}  // namespace trance

#endif  // TRANCE_NRC_TYPECHECK_H_
