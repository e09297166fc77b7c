// Symbolic query shredding (Section 4, Fig. 4): the recursive functions F
// and D translating a source NRC expression e into
//   e^F — computing the flat version of the output (labels in place of
//         inner bags), and
//   e^D — the dictionary tree: a tuple expression holding, per bag-valued
//         attribute, a lambda from labels to flat bags (a^fun) and the child
//         dictionary tree wrapped in a singleton bag (a^child).
//
// Labels are NewLabel expressions capturing only the *relevant* attributes
// of the free variables (the paper's refinement): exactly the flat-variable
// projections the shredded bag body uses. Dictionary lambdas deconstruct
// them with the match construct, whose bound tuple carries canonical
// parameter names "<flatvar>.<attr>".
//
// groupBy is desugared (dedup of keys + correlated subquery) before
// shredding, since its output introduces a fresh nesting level.
#ifndef TRANCE_SHRED_SYMBOLIC_H_
#define TRANCE_SHRED_SYMBOLIC_H_

#include <map>
#include <string>

#include "nrc/expr.h"
#include "nrc/typecheck.h"
#include "util/status.h"

namespace trance {
namespace shred {

/// The shredded form of one expression.
struct ShreddedQuery {
  nrc::ExprPtr flat;       // e^F
  nrc::ExprPtr dict_tree;  // e^D (tuple expression)
};

/// Desugars every groupBy in `e` into dedup-of-keys + correlated subquery
/// (requires the expression to typecheck under `env`).
StatusOr<nrc::ExprPtr> DesugarGroupBy(const nrc::ExprPtr& e,
                                      const nrc::TypeEnv& env);

/// Shredding context: how source variables map to their flat/dict names.
struct VarMapping {
  std::string flat_name;
  std::string dict_name;
};

class SymbolicShredder {
 public:
  /// `env` types the source free variables (inputs / prior assignments);
  /// `mapping` names their shredded counterparts (defaults to name+"_F",
  /// name+"_D").
  SymbolicShredder(nrc::TypeEnv env,
                   std::map<std::string, VarMapping> mapping);

  /// Runs Fig. 4 on a (groupBy-desugared) source expression.
  StatusOr<ShreddedQuery> Shred(const nrc::ExprPtr& e);

 private:
  struct FD {
    nrc::ExprPtr f;
    nrc::ExprPtr d;
  };

  StatusOr<FD> ShredImpl(const nrc::ExprPtr& e);
  StatusOr<nrc::ExprPtr> EmptyDictTree(const nrc::TypePtr& source_bag_type);

  /// Builds the NewLabel / lambda-with-match pair for a bag-valued tuple
  /// attribute whose shredded body is `body_f`.
  StatusOr<FD> MakeLabelAndDict(const nrc::ExprPtr& body_f);

  nrc::TypeEnv src_env_;                        // source-variable types
  std::map<std::string, VarMapping> mapping_;   // source var -> names
  std::map<std::string, nrc::TypePtr> flat_env_;  // flat-variable types
  nrc::Typechecker src_types_;
  int match_counter_ = 0;
};

}  // namespace shred
}  // namespace trance

#endif  // TRANCE_SHRED_SYMBOLIC_H_
