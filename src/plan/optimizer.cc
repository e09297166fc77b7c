#include "plan/optimizer.h"

#include <algorithm>
#include <optional>
#include <set>

namespace trance {
namespace plan {

namespace {

using nrc::Expr;
using nrc::ExprPtr;

void ExprColumnRefs(const ExprPtr& e, std::set<std::string>* out) {
  if (e->kind() == Expr::Kind::kVarRef) {
    out->insert(e->var_name());
    return;
  }
  for (const auto& sub : e->SubExprs()) ExprColumnRefs(sub, out);
}

}  // namespace

StatusOr<std::vector<std::string>> OutputNames(const PlanPtr& plan,
                                               const nrc::TypeEnv& env) {
  using K = PlanNode::Kind;
  switch (plan->kind()) {
    case K::kScan: {
      auto it = env.find(plan->relation());
      if (it == env.end() || !it->second->is_bag()) {
        return Status::KeyError("unknown relation in plan: " +
                                plan->relation());
      }
      std::vector<std::string> names;
      if (it->second->element()->is_tuple()) {
        for (const auto& f : it->second->element()->fields()) {
          names.push_back(f.name);
        }
      } else {
        names.push_back("_value");
      }
      return names;
    }
    case K::kSelect:
    case K::kOuterSelect:
    case K::kDedup:
    case K::kBagToDict:
    case K::kUnionAll:
      return OutputNames(plan->child(0), env);
    case K::kProject: {
      std::vector<std::string> names;
      for (const auto& c : plan->columns()) names.push_back(c.name);
      return names;
    }
    case K::kExtend: {
      TRANCE_ASSIGN_OR_RETURN(std::vector<std::string> names,
                              OutputNames(plan->child(0), env));
      for (const auto& c : plan->columns()) names.push_back(c.name);
      return names;
    }
    case K::kJoin: {
      TRANCE_ASSIGN_OR_RETURN(std::vector<std::string> names,
                              OutputNames(plan->child(0), env));
      TRANCE_ASSIGN_OR_RETURN(std::vector<std::string> right,
                              OutputNames(plan->child(1), env));
      for (const auto& r : right) {
        std::string name = r;
        while (std::find(names.begin(), names.end(), name) != names.end()) {
          name += "__r";
        }
        names.push_back(name);
      }
      return names;
    }
    case K::kUnnest: {
      TRANCE_ASSIGN_OR_RETURN(std::vector<std::string> names,
                              OutputNames(plan->child(0), env));
      std::vector<std::string> out;
      if (plan->outer() && !plan->unnest_id_attr().empty()) {
        out.push_back(plan->unnest_id_attr());
      }
      for (const auto& n : names) {
        if (n != plan->bag_col()) out.push_back(n);
      }
      // Inner attribute names require the bag column's element type, which
      // plans do not carry; lowering knows them. Report a placeholder that
      // pruning treats as opaque.
      out.push_back(plan->alias() + ".*");
      return out;
    }
    case K::kAddIndex: {
      TRANCE_ASSIGN_OR_RETURN(std::vector<std::string> names,
                              OutputNames(plan->child(0), env));
      names.push_back(plan->id_attr());
      return names;
    }
    case K::kNest: {
      std::vector<std::string> names = plan->keys();
      if (plan->agg() == NestAgg::kSum) {
        for (const auto& v : plan->values()) names.push_back(v);
      } else {
        names.push_back(plan->out_attr());
      }
      return names;
    }
    case K::kCoGroup: {
      TRANCE_ASSIGN_OR_RETURN(std::vector<std::string> names,
                              OutputNames(plan->child(0), env));
      names.push_back(plan->out_attr());
      return names;
    }
  }
  return Status::Internal("unhandled plan kind in OutputNames");
}

namespace {

using Needed = std::optional<std::set<std::string>>;  // nullopt = everything

bool IsNeeded(const Needed& needed, const std::string& col) {
  return !needed.has_value() || needed->count(col) > 0;
}

/// Column-pruning rewrite: keeps only columns some ancestor consumes.
/// Pruning points: Project/Extend nodes (every generated scan sits under a
/// renaming Project) and join outputs, which are narrowed with an explicit
/// Project so dead columns do not ride through subsequent shuffles.
StatusOr<PlanPtr> Prune(const PlanPtr& plan, const Needed& needed,
                        const nrc::TypeEnv& env) {
  using K = PlanNode::Kind;
  // Project and Extend drop the columns no ancestor reads. Every other node
  // keeps its attributes: work out the columns each child must still
  // produce, prune the children and rebuild over them.
  std::vector<Needed> below(plan->num_children());
  switch (plan->kind()) {
    case K::kProject: {
      std::vector<NamedColumnExpr> cols;
      std::set<std::string> child_needed;
      for (const auto& c : plan->columns()) {
        if (!IsNeeded(needed, c.name)) continue;
        cols.push_back(c);
        ExprColumnRefs(c.expr, &child_needed);
      }
      TRANCE_ASSIGN_OR_RETURN(PlanPtr child,
                              Prune(plan->child(0), Needed(child_needed), env));
      return PlanNode::Project(child, std::move(cols));
    }
    case K::kExtend: {
      std::vector<NamedColumnExpr> cols;
      Needed child_needed = needed;
      for (const auto& c : plan->columns()) {
        if (!IsNeeded(needed, c.name)) continue;
        cols.push_back(c);
        if (child_needed.has_value()) {
          child_needed->erase(c.name);
          ExprColumnRefs(c.expr, &*child_needed);
        }
      }
      TRANCE_ASSIGN_OR_RETURN(PlanPtr child,
                              Prune(plan->child(0), child_needed, env));
      if (cols.empty()) return child;
      return PlanNode::Extend(child, std::move(cols));
    }
    case K::kSelect:
    case K::kOuterSelect:
      below[0] = needed;
      if (needed.has_value()) {
        ExprColumnRefs(plan->cond(), &*below[0]);
        if (plan->kind() == K::kOuterSelect) {
          for (const auto& c : plan->keep_cols()) below[0]->insert(c);
        }
      }
      break;
    case K::kJoin:
      below[0] = needed;
      if (needed.has_value()) {
        for (const auto& k : plan->left_keys()) below[0]->insert(k);
        for (const auto& k : plan->right_keys()) below[0]->insert(k);
      }
      below[1] = below[0];
      break;
    case K::kUnnest:
      if (needed.has_value()) {
        // Inner columns "<alias>.<attr>" come from the bag; strip them and
        // require the bag column itself.
        std::set<std::string> filtered;
        for (const auto& c : *needed) {
          if (c.rfind(plan->alias() + ".", 0) != 0 && c != plan->alias()) {
            filtered.insert(c);
          }
        }
        filtered.insert(plan->bag_col());
        below[0] = std::move(filtered);
      }
      break;
    case K::kAddIndex:
      below[0] = needed;
      if (needed.has_value()) below[0]->erase(plan->id_attr());
      break;
    case K::kNest: {
      std::set<std::string> cols(plan->keys().begin(), plan->keys().end());
      cols.insert(plan->values().begin(), plan->values().end());
      if (!plan->nest_indicator().empty()) {
        cols.insert(plan->nest_indicator());
      }
      below[0] = std::move(cols);
      break;
    }
    case K::kCoGroup: {
      below[0] = needed;
      if (needed.has_value()) {
        below[0]->erase(plan->out_attr());
        for (const auto& k : plan->left_keys()) below[0]->insert(k);
      }
      std::set<std::string> right(plan->right_keys().begin(),
                                  plan->right_keys().end());
      right.insert(plan->values().begin(), plan->values().end());
      below[1] = std::move(right);
      break;
    }
    default:  // scan, dedup, union and bag-to-dict pass `needed` through
      below.assign(plan->num_children(), needed);
      break;
  }
  std::vector<PlanPtr> kids;
  for (size_t i = 0; i < plan->num_children(); ++i) {
    TRANCE_ASSIGN_OR_RETURN(PlanPtr k, Prune(plan->child(i), below[i], env));
    kids.push_back(std::move(k));
  }
  PlanPtr node = PlanNode::WithChildren(plan, std::move(kids));
  if (plan->kind() != K::kJoin || !needed.has_value()) return node;

  // Narrow the join output so dead columns do not ride through later
  // shuffles (labels and carried attributes of finished levels).
  auto names_or = OutputNames(node, env);
  if (!names_or.ok()) return node;
  std::vector<NamedColumnExpr> cols;
  bool narrowed = false;
  for (const auto& n : *names_or) {
    if (needed->count(n)) {
      cols.push_back({n, Expr::Var(n)});
    } else if (n.size() > 2 && n.substr(n.size() - 2) == ".*") {
      return node;  // opaque unnest outputs: skip narrowing
    } else {
      narrowed = true;
    }
  }
  if (narrowed && !cols.empty()) {
    return PlanNode::Project(node, std::move(cols));
  }
  return node;
}

/// Join+nest -> cogroup fusion: Gamma-union directly over a left outer join
/// whose value columns all come from the join's right side and whose keys all
/// come from the left side collapses into one cogroup, avoiding the
/// materialized flat join result.
StatusOr<PlanPtr> FuseCoGroups(const PlanPtr& plan, const nrc::TypeEnv& env) {
  using K = PlanNode::Kind;
  // Rewrite children first.
  std::vector<PlanPtr> kids;
  for (size_t i = 0; i < plan->num_children(); ++i) {
    TRANCE_ASSIGN_OR_RETURN(PlanPtr k, FuseCoGroups(plan->child(i), env));
    kids.push_back(k);
  }
  PlanPtr node = PlanNode::WithChildren(plan, std::move(kids));

  if (node->kind() != K::kNest || node->agg() != NestAgg::kBagUnion ||
      node->child(0)->kind() != K::kJoin || !node->child(0)->outer()) {
    return node;
  }
  const PlanPtr& join = node->child(0);
  // Soundness: a cogroup emits one row per *left row*, a Gamma one row per
  // *key group*. They only coincide when the join's left rows are unique on
  // the grouping keys — guaranteed when the left side just attached a unique
  // id that is part of the keys.
  if (join->child(0)->kind() != K::kAddIndex ||
      std::find(node->keys().begin(), node->keys().end(),
                join->child(0)->id_attr()) == node->keys().end()) {
    return node;
  }
  auto left_names_or = OutputNames(join->child(0), env);
  auto right_names_or = OutputNames(join->child(1), env);
  if (!left_names_or.ok() || !right_names_or.ok()) return node;
  std::set<std::string> left_names(left_names_or->begin(),
                                   left_names_or->end());
  std::set<std::string> right_names(right_names_or->begin(),
                                    right_names_or->end());
  for (const auto& v : node->values()) {
    if (right_names.count(v) == 0) return node;
  }
  for (const auto& k : node->keys()) {
    if (left_names.count(k) == 0) return node;
  }
  // The cogroup keeps all left columns; a narrowing Project restores the
  // Gamma's exact output (keys + bag).
  PlanPtr cg = PlanNode::CoGroup(join->child(0), join->child(1),
                                 join->left_keys(), join->right_keys(),
                                 node->values(), node->value_names(),
                                 node->out_attr());
  std::vector<NamedColumnExpr> cols;
  for (const auto& k : node->keys()) cols.push_back({k, Expr::Var(k)});
  cols.push_back({node->out_attr(), Expr::Var(node->out_attr())});
  return PlanNode::Project(cg, std::move(cols));
}


/// Aggregation pushdown past joins (applied bottom-up). Matches
///   Nest+[K; V] over (optional Extend[V := a*b or V := a]) over Join(l, r)
/// where `a` comes from the left side, `b` (if any) from the right, every
/// group key comes from one side, and the join keys are left columns. Since
/// all rows of a (K_left, join-key) group match the same right rows, the sum
/// distributes: partial-sum `a` on the left grouped by {K_left, lk}, join,
/// recompute V, and keep the final Nest+ to combine.
StatusOr<PlanPtr> PushAggPastJoin(const PlanPtr& plan,
                                  const nrc::TypeEnv& env) {
  using K = PlanNode::Kind;
  std::vector<PlanPtr> kids;
  for (size_t i = 0; i < plan->num_children(); ++i) {
    TRANCE_ASSIGN_OR_RETURN(PlanPtr k, PushAggPastJoin(plan->child(i), env));
    kids.push_back(k);
  }
  PlanPtr node = PlanNode::WithChildren(plan, std::move(kids));

  if (node->kind() != K::kNest || node->agg() != NestAgg::kSum ||
      node->values().size() != 1) {
    return node;
  }
  // Peel an optional single-column Extend computing the summed value.
  const PlanPtr& below = node->child(0);
  ExprPtr value_expr = Expr::Var(node->values()[0]);
  PlanPtr join = below;
  if (below->kind() == K::kExtend) {
    bool defines = false;
    for (const auto& c : below->columns()) {
      if (c.name == node->values()[0]) {
        defines = true;
        value_expr = c.expr;
      }
    }
    if (!defines || below->columns().size() != 1) return node;
    join = below->child(0);
  }
  if (join->kind() != K::kJoin) return node;

  auto left_names_or = OutputNames(join->child(0), env);
  auto right_names_or = OutputNames(join->child(1), env);
  if (!left_names_or.ok() || !right_names_or.ok()) return node;
  std::set<std::string> left_names(left_names_or->begin(),
                                   left_names_or->end());
  std::set<std::string> right_names(right_names_or->begin(),
                                    right_names_or->end());
  for (const auto& n : *left_names_or) {
    if (n.size() > 2 && n.substr(n.size() - 2) == ".*") return node;
  }

  // The summed value: a left column, or left-column * right-column.
  std::string left_factor;
  if (value_expr->kind() == nrc::Expr::Kind::kVarRef &&
      left_names.count(value_expr->var_name())) {
    left_factor = value_expr->var_name();
  } else if (value_expr->kind() == nrc::Expr::Kind::kPrimOp &&
             value_expr->prim_op() == nrc::PrimOpKind::kMul) {
    const ExprPtr& a = value_expr->child(0);
    const ExprPtr& b = value_expr->child(1);
    if (a->kind() == nrc::Expr::Kind::kVarRef &&
        b->kind() == nrc::Expr::Kind::kVarRef &&
        left_names.count(a->var_name()) &&
        right_names.count(b->var_name())) {
      left_factor = a->var_name();
    }
  }
  if (left_factor.empty()) return node;
  // Join keys must be plain left columns; group keys split cleanly.
  for (const auto& k : join->left_keys()) {
    if (!left_names.count(k)) return node;
  }
  std::vector<std::string> partial_keys;
  for (const auto& k : node->keys()) {
    if (left_names.count(k)) {
      partial_keys.push_back(k);
    } else if (!right_names.count(k)) {
      return node;
    }
  }
  for (const auto& k : join->left_keys()) {
    if (std::find(partial_keys.begin(), partial_keys.end(), k) ==
        partial_keys.end()) {
      partial_keys.push_back(k);
    }
  }

  // Partial sums on the left, then the same join, Extend and Nest+ above.
  PlanPtr partial = PlanNode::Nest(join->child(0), NestAgg::kSum,
                                   partial_keys, {left_factor},
                                   {left_factor}, "");
  PlanPtr top = PlanNode::WithChildren(join, {partial, join->child(1)});
  if (below != join) top = PlanNode::WithChildren(below, {top});
  return PlanNode::WithChildren(node, {top});
}

}  // namespace

StatusOr<PlanPtr> Optimize(const PlanPtr& plan, const nrc::TypeEnv& env,
                           const OptimizerOptions& options) {
  PlanPtr p = plan;
  if (options.enable_agg_pushdown) {
    TRANCE_ASSIGN_OR_RETURN(p, PushAggPastJoin(p, env));
  }
  if (options.enable_cogroup) {
    TRANCE_ASSIGN_OR_RETURN(p, FuseCoGroups(p, env));
  }
  if (options.enable_column_pruning) {
    TRANCE_ASSIGN_OR_RETURN(p, Prune(p, std::nullopt, env));
  }
  return p;
}

StatusOr<PlanProgram> OptimizeProgram(const PlanProgram& program,
                                      const nrc::TypeEnv& env,
                                      const OptimizerOptions& options) {
  PlanProgram out;
  out.inputs = program.inputs;
  for (const auto& a : program.assignments) {
    TRANCE_ASSIGN_OR_RETURN(PlanPtr p, Optimize(a.plan, env, options));
    out.assignments.push_back({a.var, p});
  }
  return out;
}

}  // namespace plan
}  // namespace trance
