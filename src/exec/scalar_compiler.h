// Compiles plan scalar expressions (NRC scalar nodes whose free variables
// are column names) into closures over runtime rows, with SQL-style NULL
// propagation: NULL operands make arithmetic NULL and comparisons false.
// NewLabel expressions evaluate to runtime labels.
#ifndef TRANCE_EXEC_SCALAR_COMPILER_H_
#define TRANCE_EXEC_SCALAR_COMPILER_H_

#include <functional>

#include "nrc/expr.h"
#include "nrc/typecheck.h"
#include "runtime/field.h"
#include "runtime/schema.h"
#include "util/status.h"

namespace trance {
namespace exec {

using ScalarFn = std::function<runtime::Field(const runtime::Row&)>;

/// Compiles `e` against `schema`; fails if a referenced column is missing or
/// a node kind has no row-level meaning.
StatusOr<ScalarFn> CompileScalar(const nrc::ExprPtr& e,
                                 const runtime::Schema& schema);

/// Static result type of a compiled scalar expression: nrc::ScalarExprType
/// over the schema's columns.
StatusOr<nrc::TypePtr> ScalarResultType(const nrc::ExprPtr& e,
                                        const runtime::Schema& schema);

/// Compiles a boolean expression into a predicate (NULL -> false).
StatusOr<std::function<bool(const runtime::Row&)>> CompilePredicate(
    const nrc::ExprPtr& e, const runtime::Schema& schema);

}  // namespace exec
}  // namespace trance

#endif  // TRANCE_EXEC_SCALAR_COMPILER_H_
