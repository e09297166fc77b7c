// Compiles plan scalar expressions (NRC scalar nodes whose free variables
// are column names) into closures evaluated at one row of a column block,
// with SQL-style NULL propagation: NULL operands make arithmetic NULL and
// comparisons false. A column reference reads just its own cell, so a
// closure touches only the cells its expression names. NewLabel expressions
// evaluate to runtime labels.
#ifndef TRANCE_EXEC_SCALAR_COMPILER_H_
#define TRANCE_EXEC_SCALAR_COMPILER_H_

#include "nrc/expr.h"
#include "nrc/typecheck.h"
#include "runtime/schema.h"
#include "runtime/stage_pipeline.h"
#include "util/status.h"

namespace trance {
namespace exec {

using runtime::PredicateFn;
using runtime::ScalarFn;

/// Compiles `e` against `schema`; fails if a referenced column is missing or
/// a node kind has no row-level meaning.
StatusOr<ScalarFn> CompileScalar(const nrc::ExprPtr& e,
                                 const runtime::Schema& schema);

/// Static result type of a compiled scalar expression: nrc::ScalarExprType
/// over the schema's columns.
StatusOr<nrc::TypePtr> ScalarResultType(const nrc::ExprPtr& e,
                                        const runtime::Schema& schema);

/// Compiles a boolean expression into a predicate (NULL -> false).
StatusOr<PredicateFn> CompilePredicate(const nrc::ExprPtr& e,
                                       const runtime::Schema& schema);

}  // namespace exec
}  // namespace trance

#endif  // TRANCE_EXEC_SCALAR_COMPILER_H_
