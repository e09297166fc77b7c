#include "plan/unnest.h"

#include <algorithm>
#include <set>

#include "util/strings.h"

namespace trance {
namespace plan {

namespace {

using nrc::Expr;
using nrc::ExprPtr;
using nrc::Type;
using nrc::TypePtr;

Status NotSupported(const std::string& what) {
  return Status::NotImplemented(
      what + " is outside the plan-language query class (the interpreter "
             "still evaluates it)");
}

/// Inlines all let bindings (Normalize, Fig. 5 line 3).
ExprPtr InlineLets(const ExprPtr& e) {
  if (e->kind() == Expr::Kind::kLet) {
    ExprPtr value = InlineLets(e->child(0));
    ExprPtr body = InlineLets(e->child(1));
    return nrc::Substitute(body, e->var_name(), value);
  }
  std::vector<ExprPtr> subs = e->SubExprs();
  for (auto& sub : subs) sub = InlineLets(sub);
  return Expr::WithSubExprs(e, std::move(subs));
}

/// Variable binding inside the flattened pipeline.
struct Binding {
  bool is_tuple = true;
  std::string prefix;  // tuple columns are "<prefix>.<attr>"
  std::string scalar_col;
  std::vector<std::pair<std::string, TypePtr>> attrs;

  std::string ColOf(const std::string& attr) const {
    return prefix + "." + attr;
  }
  TypePtr AttrType(const std::string& attr) const {
    for (const auto& [n, t] : attrs) {
      if (n == attr) return t;
    }
    return nullptr;
  }
};

struct Ctx {
  PlanPtr plan;                          // null before the first generator
  std::map<std::string, TypePtr> cols;   // current pipeline columns
  std::map<std::string, Binding> vars;   // live comprehension variables
};

/// Static type of a rewritten plan expression over the pipeline columns.
StatusOr<TypePtr> ColumnExprType(const ExprPtr& e, const Ctx& ctx) {
  return nrc::ScalarExprType(
      e, [&](const std::string& col) -> StatusOr<TypePtr> {
        auto it = ctx.cols.find(col);
        if (it == ctx.cols.end()) {
          return Status::Internal("unknown pipeline column " + col);
        }
        return it->second;
      });
}

struct Qualifier {
  bool is_gen = false;
  std::string var;
  ExprPtr domain;  // generator domain
  ExprPtr cond;    // filter condition
  bool consumed = false;
};

/// Splits a comprehension into generator/filter qualifiers and its head.
void Decompose(const ExprPtr& e, std::vector<Qualifier>* quals,
               ExprPtr* head) {
  using K = Expr::Kind;
  if (e->kind() == K::kForUnion) {
    Qualifier q;
    q.is_gen = true;
    q.var = e->var_name();
    q.domain = e->child(0);
    quals->push_back(std::move(q));
    Decompose(e->child(1), quals, head);
    return;
  }
  if (e->kind() == K::kIfThen && e->num_children() == 2) {
    // Flatten And-conjunctions into separate filters so each equality can be
    // consumed as a join condition.
    std::vector<ExprPtr> stack{e->child(0)};
    std::vector<ExprPtr> conds;
    while (!stack.empty()) {
      ExprPtr c = stack.back();
      stack.pop_back();
      if (c->kind() == K::kBoolOp &&
          c->bool_op() == nrc::BoolOpKind::kAnd) {
        stack.push_back(c->child(1));
        stack.push_back(c->child(0));
      } else {
        conds.push_back(c);
      }
    }
    for (auto& c : conds) {
      Qualifier q;
      q.cond = std::move(c);
      quals->push_back(std::move(q));
    }
    Decompose(e->child(1), quals, head);
    return;
  }
  *head = e;
}

/// The compilation state machine; one instance per query.
class Compiler {
 public:
  Compiler(const nrc::TypeEnv& env, int* uid, int* lvl, int* tmp)
      : env_(env), uid_(uid), lvl_(lvl), tmp_(tmp) {}

  StatusOr<PlanPtr> CompileRoot(const ExprPtr& query);

 private:
  struct LevelOut {
    Ctx ctx;
    // Output attribute name -> pipeline column name, in output order.
    std::vector<std::pair<std::string, std::string>> attrs;
    // Null-indicator column for this level's outer miss (empty when the
    // level ends in an aggregation, whose outputs self-indicate).
    std::string indicator;
  };

  StatusOr<LevelOut> CompileBag(const ExprPtr& e, Ctx ctx,
                                std::vector<std::string> G, bool outer);
  StatusOr<LevelOut> CompileComp(const ExprPtr& e, Ctx ctx,
                                 std::vector<std::string> G, bool outer);
  Status ProcessQualifiers(std::vector<Qualifier>* quals, Ctx* ctx,
                           bool outer, const std::vector<std::string>& G);
  Status AddGenerator(const Qualifier& gen, std::vector<Qualifier>* quals,
                      size_t gen_index, Ctx* ctx, bool outer);
  StatusOr<LevelOut> ProcessHead(const ExprPtr& head, Ctx ctx,
                                 std::vector<std::string> G, bool outer);

  /// Rewrites an NRC scalar expression over comprehension variables into a
  /// plan expression over pipeline columns.
  StatusOr<ExprPtr> RewriteScalar(const ExprPtr& e, const Ctx& ctx);

  /// True if the expression produces a bag under the current bindings.
  bool IsBagExpr(const ExprPtr& e, const Ctx& ctx);

  /// Binds `var` over bag element type `elem`, producing a renamed scan or
  /// recording unnest output columns in `ctx`.
  Status BindVar(const std::string& var, const TypePtr& elem, Ctx* ctx);

  std::string FreshUid() { return "_uid" + std::to_string(++*uid_); }
  std::string FreshLvl() { return "_lvl" + std::to_string(++*lvl_); }
  std::string FreshTmp() { return "_tmp" + std::to_string(++*tmp_); }

  const nrc::TypeEnv& env_;
  int* uid_;
  int* lvl_;
  int* tmp_;
};

bool Compiler::IsBagExpr(const ExprPtr& e, const Ctx& ctx) {
  using K = Expr::Kind;
  switch (e->kind()) {
    case K::kForUnion:
    case K::kUnion:
    case K::kEmptyBag:
    case K::kSingleton:
    case K::kDedup:
    case K::kGroupBy:
    case K::kSumBy:
    case K::kMatLookup:
    case K::kLookup:
      return true;
    case K::kIfThen:
      return IsBagExpr(e->child(1), ctx);
    case K::kVarRef: {
      // Only relations are bags; comprehension variables never are.
      auto it = env_.find(e->var_name());
      return it != env_.end() && it->second->is_bag();
    }
    case K::kProj: {
      if (e->child(0)->kind() == K::kVarRef) {
        auto v = ctx.vars.find(e->child(0)->var_name());
        if (v != ctx.vars.end() && v->second.is_tuple) {
          TypePtr t = v->second.AttrType(e->attr());
          return t != nullptr && t->is_bag();
        }
      }
      return false;
    }
    default:
      return false;
  }
}

StatusOr<ExprPtr> Compiler::RewriteScalar(const ExprPtr& e, const Ctx& ctx) {
  using K = Expr::Kind;
  switch (e->kind()) {
    case K::kConst:
      return e;
    case K::kVarRef: {
      auto v = ctx.vars.find(e->var_name());
      if (v != ctx.vars.end()) {
        if (!v->second.is_tuple) return Expr::Var(v->second.scalar_col);
        return NotSupported("whole-tuple variable reference in scalar position");
      }
      // Possibly already a column name (plan expressions round-trip).
      if (ctx.cols.count(e->var_name())) return e;
      return Status::Invalid("unbound variable in scalar expression: " +
                             e->var_name());
    }
    case K::kProj: {
      if (e->child(0)->kind() == K::kVarRef) {
        auto v = ctx.vars.find(e->child(0)->var_name());
        if (v != ctx.vars.end() && v->second.is_tuple) {
          std::string col = v->second.ColOf(e->attr());
          if (ctx.cols.count(col) == 0) {
            return Status::Invalid("column not in pipeline: " + col);
          }
          return Expr::Var(col);
        }
      }
      return NotSupported("projection base is not a bound tuple variable");
    }
    case K::kPrimOp:
    case K::kCmp:
    case K::kBoolOp:
    case K::kNot:
    case K::kNewLabel: {
      std::vector<ExprPtr> subs = e->SubExprs();
      for (auto& sub : subs) {
        TRANCE_ASSIGN_OR_RETURN(sub, RewriteScalar(sub, ctx));
      }
      return Expr::WithSubExprs(e, std::move(subs));
    }
    default:
      return NotSupported("scalar expression kind in plan pipeline");
  }
}

Status Compiler::BindVar(const std::string& var, const TypePtr& elem,
                         Ctx* ctx) {
  Binding b;
  if (elem->is_tuple()) {
    b.is_tuple = true;
    b.prefix = var;
    for (const auto& f : elem->fields()) {
      b.attrs.emplace_back(f.name, f.type);
      ctx->cols[var + "." + f.name] = f.type;
    }
  } else {
    b.is_tuple = false;
    b.scalar_col = var;
    ctx->cols[var] = elem;
  }
  ctx->vars[var] = std::move(b);
  return Status::OK();
}

namespace {
/// Builds the renamed scan Project for binding `var` over relation columns.
PlanPtr RenamedScan(const std::string& relation, const std::string& var,
                    const TypePtr& elem) {
  std::vector<NamedColumnExpr> cols;
  if (elem->is_tuple()) {
    for (const auto& f : elem->fields()) {
      cols.push_back({var + "." + f.name, Expr::Var(f.name)});
    }
  } else {
    cols.push_back({var, Expr::Var("_value")});
  }
  return PlanNode::Project(PlanNode::Scan(relation), std::move(cols));
}
}  // namespace

Status Compiler::AddGenerator(const Qualifier& gen,
                              std::vector<Qualifier>* quals, size_t gen_index,
                              Ctx* ctx, bool outer) {
  using K = Expr::Kind;
  const ExprPtr& dom = gen.domain;

  // Case 1: domain is a named relation (input or prior assignment), possibly
  // wrapped in MatLookup (shredded route; lookups become joins on labels).
  ExprPtr rel = dom;
  ExprPtr lookup_label;  // non-null for MatLookup domains
  if (dom->kind() == K::kMatLookup) {
    rel = dom->child(0);
    lookup_label = dom->child(1);
  }
  if (rel->kind() == K::kVarRef && env_.count(rel->var_name())) {
    TypePtr bag_t = env_.at(rel->var_name());
    if (!bag_t->is_bag()) {
      return Status::TypeError("generator domain is not a bag: " +
                               rel->var_name());
    }
    TypePtr elem = bag_t->element();

    // Dictionary scans expose the value fields under the variable and keep
    // the label under a hidden name for the join.
    std::string hidden_label_col;
    PlanPtr right;
    if (lookup_label != nullptr) {
      if (!elem->is_tuple() || elem->FieldIndex("label") < 0) {
        return Status::TypeError(
            "MatLookup domain lacks a label attribute: " + rel->var_name());
      }
      hidden_label_col = gen.var + "._label";
      std::vector<NamedColumnExpr> cols;
      cols.push_back({hidden_label_col, Expr::Var("label")});
      std::vector<nrc::Field> value_fields;
      for (const auto& f : elem->fields()) {
        if (f.name == "label") continue;
        cols.push_back({gen.var + "." + f.name, Expr::Var(f.name)});
        value_fields.push_back(f);
      }
      right = PlanNode::Project(PlanNode::Scan(rel->var_name()),
                                std::move(cols));
      elem = Type::Tuple(std::move(value_fields));
    } else {
      right = RenamedScan(rel->var_name(), gen.var, elem);
    }

    if (ctx->plan == nullptr) {
      if (lookup_label != nullptr) {
        return NotSupported("MatLookup as the first generator");
      }
      ctx->plan = right;
      return BindVar(gen.var, elem, ctx);
    }

    // Bind x tentatively to find join equalities in later filters.
    Ctx probe = *ctx;
    TRANCE_RETURN_NOT_OK(BindVar(gen.var, elem, &probe));

    std::vector<std::string> lkeys, rkeys;
    std::vector<NamedColumnExpr> lkey_exprs;  // computed left keys
    if (lookup_label != nullptr) {
      TRANCE_ASSIGN_OR_RETURN(ExprPtr lk, RewriteScalar(lookup_label, *ctx));
      if (lk->kind() == K::kVarRef) {
        lkeys.push_back(lk->var_name());
      } else {
        std::string tmp = FreshTmp();
        lkey_exprs.push_back({tmp, lk});
        lkeys.push_back(tmp);
      }
      rkeys.push_back(hidden_label_col);
    }
    for (size_t j = gen_index + 1; j < quals->size(); ++j) {
      Qualifier& q = (*quals)[j];
      if (q.is_gen || q.consumed || q.cond == nullptr) continue;
      if (q.cond->kind() != K::kCmp ||
          q.cond->cmp_op() != nrc::CmpOpKind::kEq) {
        continue;
      }
      // Try both orientations: (new-var side, bound side).
      for (int flip = 0; flip < 2; ++flip) {
        const ExprPtr& xs = q.cond->child(flip == 0 ? 0 : 1);
        const ExprPtr& bs = q.cond->child(flip == 0 ? 1 : 0);
        auto xr = RewriteScalar(xs, probe);
        auto br = RewriteScalar(bs, *ctx);
        if (!xr.ok() || !br.ok()) continue;
        // The x-side must be a column of the new variable.
        if ((*xr)->kind() != K::kVarRef) continue;
        const std::string& xcol = (*xr)->var_name();
        if (xcol.rfind(gen.var + ".", 0) != 0 && xcol != gen.var) continue;
        if ((*br)->kind() == K::kVarRef) {
          lkeys.push_back((*br)->var_name());
        } else {
          std::string tmp = FreshTmp();
          lkey_exprs.push_back({tmp, *br});
          lkeys.push_back(tmp);
        }
        rkeys.push_back(xcol);
        q.consumed = true;
        break;
      }
    }
    PlanPtr left = ctx->plan;
    if (!lkey_exprs.empty()) {
      for (const auto& c : lkey_exprs) {
        TRANCE_ASSIGN_OR_RETURN(TypePtr t, ColumnExprType(c.expr, *ctx));
        ctx->cols[c.name] = t;
      }
      left = PlanNode::Extend(left, lkey_exprs);
    }
    ctx->plan = PlanNode::Join(left, right, lkeys, rkeys, outer);
    TRANCE_RETURN_NOT_OK(BindVar(gen.var, elem, ctx));
    if (lookup_label != nullptr) {
      ctx->cols[hidden_label_col] = Type::Label();
    }
    return Status::OK();
  }

  // Case 2: domain is a bag-valued attribute path of a bound variable.
  if (dom->kind() == K::kProj && dom->child(0)->kind() == K::kVarRef) {
    auto v = ctx->vars.find(dom->child(0)->var_name());
    if (v == ctx->vars.end() || !v->second.is_tuple) {
      return Status::Invalid("generator over attribute of unbound variable " +
                             dom->child(0)->var_name());
    }
    std::string bag_col = v->second.ColOf(dom->attr());
    auto ct = ctx->cols.find(bag_col);
    if (ct == ctx->cols.end() || !ct->second->is_bag()) {
      return Status::TypeError("generator over non-bag column " + bag_col);
    }
    if (ctx->plan == nullptr) {
      return NotSupported("attribute generator without an outer generator");
    }
    TypePtr elem = ct->second->element();
    ctx->plan = PlanNode::Unnest(ctx->plan, bag_col, gen.var, outer, "");
    ctx->cols.erase(bag_col);  // mu projects the bag attribute away
    return BindVar(gen.var, elem, ctx);
  }

  return NotSupported("generator domain shape");
}

Status Compiler::ProcessQualifiers(std::vector<Qualifier>* quals, Ctx* ctx,
                                   bool outer,
                                   const std::vector<std::string>& G) {
  for (size_t i = 0; i < quals->size(); ++i) {
    Qualifier& q = (*quals)[i];
    if (q.consumed) continue;
    if (q.is_gen) {
      TRANCE_RETURN_NOT_OK(AddGenerator(q, quals, i, ctx, outer));
      q.consumed = true;
    } else {
      TRANCE_ASSIGN_OR_RETURN(ExprPtr cond, RewriteScalar(q.cond, *ctx));
      if (ctx->plan == nullptr) {
        return NotSupported("filter before any generator");
      }
      if (outer) {
        // A plain selection would drop outer tuples that must survive with
        // empty inner bags: failing rows instead keep only the enclosing
        // grouping columns (everything else nulled), which the enclosing
        // Gammas read as a miss.
        ctx->plan = PlanNode::OuterSelect(ctx->plan, cond, G);
      } else {
        ctx->plan = PlanNode::Select(ctx->plan, cond);
      }
      q.consumed = true;
    }
  }
  return Status::OK();
}

StatusOr<Compiler::LevelOut> Compiler::ProcessHead(const ExprPtr& head,
                                                   Ctx ctx,
                                                   std::vector<std::string> G,
                                                   bool outer) {
  (void)outer;  // nesting decisions key off G; kept for symmetry
  using K = Expr::Kind;
  if (head->kind() != K::kSingleton ||
      head->child(0)->kind() != K::kTupleCtor) {
    return NotSupported("comprehension head that is not a tuple singleton");
  }
  const auto& fields = head->child(0)->fields();

  // Partition head attributes.
  struct BagAttr {
    std::string name;
    ExprPtr expr;
  };
  std::vector<std::pair<std::string, ExprPtr>> scalars;  // attr, source expr
  std::vector<BagAttr> bags;
  for (const auto& f : fields) {
    if (IsBagExpr(f.expr, ctx)) {
      bags.push_back({f.name, f.expr});
    } else {
      scalars.push_back({f.name, f.expr});
    }
  }
  if (bags.size() > 1) {
    return NotSupported("more than one bag-valued attribute per tuple");
  }

  LevelOut out;
  // Scalars: reuse existing columns where possible, otherwise extend.
  std::string lvl = FreshLvl();
  std::vector<NamedColumnExpr> extend_cols;
  std::vector<std::pair<std::string, std::string>> scalar_cols;  // attr->col
  for (const auto& [name, src] : scalars) {
    // A bag-typed passthrough column (e.g. `corders := c.corders`) is not a
    // scalar; IsBagExpr caught subqueries but a Proj of bag type lands here
    // only if typed as bag — IsBagExpr covers it, so src is scalar.
    TRANCE_ASSIGN_OR_RETURN(ExprPtr rewritten, RewriteScalar(src, ctx));
    if (rewritten->kind() == K::kVarRef) {
      scalar_cols.emplace_back(name, rewritten->var_name());
    } else {
      std::string col = lvl + "." + name;
      extend_cols.push_back({col, rewritten});
      scalar_cols.emplace_back(name, col);
    }
  }
  if (!extend_cols.empty()) {
    for (const auto& c : extend_cols) {
      TRANCE_ASSIGN_OR_RETURN(TypePtr t, ColumnExprType(c.expr, ctx));
      ctx.cols[c.name] = t;
    }
    ctx.plan = PlanNode::Extend(ctx.plan, extend_cols);
  }

  if (bags.empty()) {
    out.ctx = std::move(ctx);
    for (auto& [attr, col] : scalar_cols) out.attrs.emplace_back(attr, col);
    return out;
  }

  const BagAttr& bag = bags[0];
  // Passthrough of an existing bag column?
  if (bag.expr->kind() == K::kProj &&
      bag.expr->child(0)->kind() == K::kVarRef) {
    auto v = ctx.vars.find(bag.expr->child(0)->var_name());
    if (v != ctx.vars.end() && v->second.is_tuple) {
      std::string col = v->second.ColOf(bag.expr->attr());
      if (ctx.cols.count(col) && ctx.cols[col]->is_bag()) {
        out.ctx = std::move(ctx);
        for (auto& [attr, c] : scalar_cols) out.attrs.emplace_back(attr, c);
        out.attrs.emplace_back(bag.name, col);
        return out;
      }
    }
  }

  // Enter a new nesting level: attach a unique id, expand G with the id and
  // this level's scalar output attributes, compile the subquery with outer
  // operators, and regroup with Gamma-union on the way out.
  std::string uid = FreshUid();
  ctx.plan = PlanNode::AddIndex(ctx.plan, uid);
  ctx.cols[uid] = Type::Int();
  std::vector<std::string> g2 = G;
  g2.push_back(uid);
  for (const auto& [attr, col] : scalar_cols) {
    const TypePtr& t = ctx.cols[col];
    if (t != nullptr && (t->is_scalar() || t->is_label())) {
      if (std::find(g2.begin(), g2.end(), col) == g2.end()) {
        g2.push_back(col);
      }
    }
  }

  TRANCE_ASSIGN_OR_RETURN(LevelOut sub, CompileBag(bag.expr, ctx, g2, true));

  std::vector<std::string> values, value_names;
  for (const auto& [attr, col] : sub.attrs) {
    values.push_back(col);
    value_names.push_back(attr);
  }
  std::string bag_col = lvl + "." + bag.name;
  std::string indicator = sub.indicator;
  if (!indicator.empty() && sub.ctx.cols.count(indicator) == 0) {
    indicator.clear();  // consumed by an aggregation; fall back to values
  }
  PlanPtr nested = PlanNode::Nest(sub.ctx.plan, NestAgg::kBagUnion, g2, values,
                                  value_names, bag_col, indicator);

  Ctx out_ctx;
  out_ctx.plan = nested;
  std::vector<nrc::Field> inner_fields;
  for (const auto& [attr, col] : sub.attrs) {
    TypePtr t = sub.ctx.cols.count(col) ? sub.ctx.cols[col] : nullptr;
    if (t == nullptr) {
      return Status::Internal("missing type for nested value column " + col);
    }
    inner_fields.push_back({attr, t});
  }
  for (const auto& g : g2) {
    auto it = sub.ctx.cols.find(g);
    if (it == sub.ctx.cols.end()) {
      return Status::Internal("grouping column lost in subquery: " + g);
    }
    out_ctx.cols[g] = it->second;
  }
  out_ctx.cols[bag_col] = Type::Bag(Type::Tuple(std::move(inner_fields)));
  // Variables from enclosing scopes are no longer addressable column-wise
  // after Gamma; only G columns survive. Keep bindings whose columns are
  // intact (conservatively: none).
  out.ctx = std::move(out_ctx);
  for (auto& [attr, col] : scalar_cols) out.attrs.emplace_back(attr, col);
  out.attrs.emplace_back(bag.name, bag_col);
  return out;
}

StatusOr<Compiler::LevelOut> Compiler::CompileComp(const ExprPtr& e, Ctx ctx,
                                                   std::vector<std::string> G,
                                                   bool outer) {
  std::vector<Qualifier> quals;
  ExprPtr head;
  Decompose(e, &quals, &head);
  TRANCE_RETURN_NOT_OK(ProcessQualifiers(&quals, &ctx, outer, G));

  // Null indicator for this level: the first scalar/label column bound by
  // the level's first generator is NULL exactly when the level's first outer
  // operator produced a miss. It is threaded through the grouping sets of
  // deeper levels (grouping-neutral: those sets already contain this level's
  // unique id) so the parent Gamma-union can distinguish "no element" from
  // "element with empty inner bags".
  std::string indicator;
  if (outer) {
    for (const auto& q : quals) {
      if (!q.is_gen) continue;
      auto v = ctx.vars.find(q.var);
      if (v == ctx.vars.end()) break;
      const Binding& b = v->second;
      if (!b.is_tuple) {
        indicator = b.scalar_col;
      } else {
        for (const auto& [attr, t] : b.attrs) {
          if ((t->is_scalar() || t->is_label()) &&
              ctx.cols.count(b.ColOf(attr))) {
            indicator = b.ColOf(attr);
            break;
          }
        }
      }
      break;
    }
    if (!indicator.empty() &&
        std::find(G.begin(), G.end(), indicator) == G.end()) {
      G.push_back(indicator);
    }
  }
  TRANCE_ASSIGN_OR_RETURN(LevelOut out,
                          ProcessHead(head, std::move(ctx), std::move(G),
                                      outer));
  out.indicator = indicator;
  return out;
}

StatusOr<Compiler::LevelOut> Compiler::CompileBag(const ExprPtr& e, Ctx ctx,
                                                  std::vector<std::string> G,
                                                  bool outer) {
  using K = Expr::Kind;
  switch (e->kind()) {
    case K::kSumBy: {
      TRANCE_ASSIGN_OR_RETURN(LevelOut sub, CompileBag(e->child(0), ctx, G,
                                                       outer));
      auto col_of = [&](const std::string& attr) -> StatusOr<std::string> {
        for (const auto& [a, c] : sub.attrs) {
          if (a == attr) return c;
        }
        return Status::KeyError("sumBy attribute not produced: " + attr);
      };
      std::vector<std::string> keys = G;
      LevelOut out;
      out.attrs.clear();
      for (const auto& k : e->keys()) {
        TRANCE_ASSIGN_OR_RETURN(std::string c, col_of(k));
        keys.push_back(c);
        out.attrs.emplace_back(k, c);
      }
      std::vector<std::string> values;
      for (const auto& v : e->values()) {
        TRANCE_ASSIGN_OR_RETURN(std::string c, col_of(v));
        values.push_back(c);
        out.attrs.emplace_back(v, c);
      }
      out.ctx.plan = PlanNode::Nest(sub.ctx.plan, NestAgg::kSum, keys, values,
                                    values, "");
      for (const auto& c : keys) out.ctx.cols[c] = sub.ctx.cols[c];
      for (const auto& c : values) out.ctx.cols[c] = sub.ctx.cols[c];
      // Gamma-plus emits NULL sums exactly for groups with no real
      // contribution (outer misses *and* groups whose every row was an
      // outer-operator miss); the enclosing Gamma-union must skip those, so
      // the sum column is this level's miss indicator.
      if (!values.empty()) out.indicator = values[0];
      return out;
    }
    case K::kGroupBy: {
      TRANCE_ASSIGN_OR_RETURN(LevelOut sub, CompileBag(e->child(0), ctx, G,
                                                       outer));
      auto col_of = [&](const std::string& attr) -> StatusOr<std::string> {
        for (const auto& [a, c] : sub.attrs) {
          if (a == attr) return c;
        }
        return Status::KeyError("groupBy attribute not produced: " + attr);
      };
      std::vector<std::string> keys = G;
      LevelOut out;
      for (const auto& k : e->keys()) {
        TRANCE_ASSIGN_OR_RETURN(std::string c, col_of(k));
        keys.push_back(c);
        out.attrs.emplace_back(k, c);
      }
      std::vector<std::string> values, value_names;
      std::vector<nrc::Field> inner_fields;
      for (const auto& [a, c] : sub.attrs) {
        if (std::find(e->keys().begin(), e->keys().end(), a) !=
            e->keys().end()) {
          continue;
        }
        values.push_back(c);
        value_names.push_back(a);
        inner_fields.push_back({a, sub.ctx.cols[c]});
      }
      std::string gcol = FreshLvl() + "." + e->attr();
      out.ctx.plan = PlanNode::Nest(sub.ctx.plan, NestAgg::kBagUnion, keys,
                                    values, value_names, gcol);
      for (const auto& c : keys) out.ctx.cols[c] = sub.ctx.cols[c];
      out.ctx.cols[gcol] = Type::Bag(Type::Tuple(std::move(inner_fields)));
      out.attrs.emplace_back(e->attr(), gcol);
      return out;
    }
    case K::kDedup: {
      if (!G.empty()) return NotSupported("dedup below the root level");
      TRANCE_ASSIGN_OR_RETURN(LevelOut sub,
                              CompileBag(e->child(0), ctx, G, outer));
      std::vector<NamedColumnExpr> cols;
      LevelOut out;
      for (const auto& [a, c] : sub.attrs) {
        cols.push_back({a, Expr::Var(c)});
        out.ctx.cols[a] = sub.ctx.cols[c];
        out.attrs.emplace_back(a, a);
      }
      out.ctx.plan = PlanNode::Dedup(
          PlanNode::Project(sub.ctx.plan, std::move(cols)));
      return out;
    }
    case K::kVarRef: {
      // Whole-relation passthrough: synthesize `for x in R union {<attrs>}`.
      auto it = env_.find(e->var_name());
      if (it == env_.end() || !it->second->is_bag() ||
          !it->second->element()->is_tuple()) {
        return NotSupported("bag variable reference of this shape");
      }
      if (ctx.plan != nullptr) {
        return NotSupported("relation passthrough below a generator");
      }
      std::string x = FreshTmp();
      std::vector<nrc::NamedExpr> fields;
      for (const auto& f : it->second->element()->fields()) {
        fields.push_back({f.name, Expr::Proj(Expr::Var(x), f.name)});
      }
      ExprPtr synth = Expr::ForUnion(
          x, e, Expr::Singleton(Expr::Tuple(std::move(fields))));
      return CompileComp(synth, std::move(ctx), std::move(G), outer);
    }
    default:
      return CompileComp(e, std::move(ctx), std::move(G), outer);
  }
}

StatusOr<PlanPtr> Compiler::CompileRoot(const ExprPtr& query) {
  using K = Expr::Kind;
  ExprPtr q = InlineLets(query);
  if (q->kind() == K::kUnion) {
    TRANCE_ASSIGN_OR_RETURN(PlanPtr a, CompileRoot(q->child(0)));
    TRANCE_ASSIGN_OR_RETURN(PlanPtr b, CompileRoot(q->child(1)));
    return PlanNode::UnionAll(a, b);
  }
  Ctx ctx;
  TRANCE_ASSIGN_OR_RETURN(LevelOut out, CompileBag(q, ctx, {}, false));
  std::vector<NamedColumnExpr> cols;
  bool identity = true;
  for (const auto& [attr, col] : out.attrs) {
    cols.push_back({attr, Expr::Var(col)});
    if (attr != col) identity = false;
  }
  if (identity &&
      out.ctx.cols.size() == out.attrs.size()) {
    return out.ctx.plan;  // already exactly the output columns
  }
  return PlanNode::Project(out.ctx.plan, std::move(cols));
}

}  // namespace

StatusOr<PlanPtr> Unnester::Compile(const nrc::ExprPtr& query) {
  Compiler c(env_, &uid_counter_, &lvl_counter_, &tmp_counter_);
  return c.CompileRoot(query);
}

StatusOr<PlanProgram> Unnester::CompileProgram(const nrc::Program& program) {
  PlanProgram out;
  out.inputs = program.inputs;
  nrc::Typechecker tc;
  nrc::TypeEnv env = env_;
  for (const auto& in : program.inputs) {
    env[in.name] = in.type;
  }
  for (const auto& a : program.assignments) {
    TRANCE_ASSIGN_OR_RETURN(nrc::TypePtr t, tc.Check(a.expr, env));
    Unnester sub(env);
    sub.uid_counter_ = uid_counter_;
    sub.lvl_counter_ = lvl_counter_;
    sub.tmp_counter_ = tmp_counter_;
    TRANCE_ASSIGN_OR_RETURN(PlanPtr p, sub.Compile(a.expr));
    uid_counter_ = sub.uid_counter_;
    lvl_counter_ = sub.lvl_counter_;
    tmp_counter_ = sub.tmp_counter_;
    out.assignments.push_back({a.var, p});
    env[a.var] = t;
  }
  env_ = env;
  return out;
}

}  // namespace plan
}  // namespace trance
