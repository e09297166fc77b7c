#include "shred/symbolic.h"

#include <algorithm>
#include <set>

#include "shred/shredded_type.h"

namespace trance {
namespace shred {

using nrc::Expr;
using nrc::ExprPtr;
using nrc::Type;
using nrc::TypeEnv;
using nrc::TypePtr;

namespace {

/// Desugaring of groupBy with environment tracking.
class GroupByDesugarer {
 public:
  StatusOr<ExprPtr> Rewrite(const ExprPtr& e, const TypeEnv& env) {
    using K = Expr::Kind;
    switch (e->kind()) {
      case K::kGroupBy: {
        TRANCE_ASSIGN_OR_RETURN(ExprPtr child, Rewrite(e->child(0), env));
        nrc::Typechecker tc;
        TRANCE_ASSIGN_OR_RETURN(TypePtr ct, tc.Check(child, env));
        if (!ct->is_bag() || !ct->element()->is_tuple()) {
          return Status::TypeError("groupBy over non-tuple bag");
        }
        const auto& fields = ct->element()->fields();
        std::string d = "_gbd" + std::to_string(++counter_);
        std::string x0 = "_gbx" + std::to_string(++counter_);
        std::string x1 = "_gby" + std::to_string(++counter_);
        // dedup(for x0 in child union { <k := x0.k ...> })
        std::vector<nrc::NamedExpr> key_fields;
        for (const auto& k : e->keys()) {
          key_fields.push_back({k, Expr::Proj(Expr::Var(x0), k)});
        }
        ExprPtr domain = Expr::Dedup(Expr::ForUnion(
            x0, child, Expr::Singleton(Expr::Tuple(key_fields))));
        // inner: for x1 in child union if (x1.k == d.k && ...) then {<rest>}
        ExprPtr cond;
        for (const auto& k : e->keys()) {
          ExprPtr c = Expr::Cmp(nrc::CmpOpKind::kEq,
                                Expr::Proj(Expr::Var(x1), k),
                                Expr::Proj(Expr::Var(d), k));
          cond = cond == nullptr
                     ? c
                     : Expr::BoolOp(nrc::BoolOpKind::kAnd, cond, c);
        }
        std::vector<nrc::NamedExpr> rest_fields;
        for (const auto& f : fields) {
          if (std::find(e->keys().begin(), e->keys().end(), f.name) ==
              e->keys().end()) {
            rest_fields.push_back({f.name, Expr::Proj(Expr::Var(x1), f.name)});
          }
        }
        ExprPtr inner = Expr::ForUnion(
            x1, child,
            Expr::IfThen(cond,
                         Expr::Singleton(Expr::Tuple(rest_fields))));
        std::vector<nrc::NamedExpr> head;
        for (const auto& k : e->keys()) {
          head.push_back({k, Expr::Proj(Expr::Var(d), k)});
        }
        head.push_back({e->attr(), inner});
        return Expr::ForUnion(d, domain,
                              Expr::Singleton(Expr::Tuple(head)));
      }
      case K::kForUnion:
      case K::kLet: {
        // The body sees the bound variable at the type of the rewritten
        // domain's elements or of the let value.
        TRANCE_ASSIGN_OR_RETURN(ExprPtr bound, Rewrite(e->child(0), env));
        nrc::Typechecker tc;
        TRANCE_ASSIGN_OR_RETURN(TypePtr t, tc.Check(bound, env));
        TypeEnv inner = env;
        if (e->kind() == K::kLet) {
          inner[e->var_name()] = t;
        } else if (t->is_bag()) {
          inner[e->var_name()] = t->element();
        }
        TRANCE_ASSIGN_OR_RETURN(ExprPtr body, Rewrite(e->child(1), inner));
        return Expr::WithSubExprs(e, {bound, body});
      }
      case K::kLookup:
      case K::kMatLookup:
      case K::kLambda:
      case K::kMatchLabel:
      case K::kDictTreeUnion:
      case K::kBagToDict:
        return Status::NotImplemented("expression kind in groupBy desugaring");
      default: {
        std::vector<ExprPtr> subs = e->SubExprs();
        for (auto& sub : subs) {
          TRANCE_ASSIGN_OR_RETURN(sub, Rewrite(sub, env));
        }
        return Expr::WithSubExprs(e, std::move(subs));
      }
    }
  }

 private:
  int counter_ = 0;
};

/// A flat reference that a label must capture: a projection of a tuple-typed
/// flat variable or a whole scalar/label-typed flat variable.
struct FlatRef {
  std::string pname;   // canonical parameter name
  ExprPtr source;      // expression creating the captured value
  TypePtr type;
};

void CollectFlatRefs(const ExprPtr& e,
                     const std::map<std::string, TypePtr>& flat_env,
                     std::set<std::string>* bound,
                     std::map<std::string, FlatRef>* out) {
  using K = Expr::Kind;
  if (e->kind() == K::kProj) {
    const ExprPtr& base = e->child(0);
    if (base->kind() == K::kVarRef && bound->count(base->var_name()) == 0) {
      auto it = flat_env.find(base->var_name());
      if (it != flat_env.end() && it->second->is_tuple()) {
        auto ft = it->second->FieldType(e->attr());
        if (ft.ok() && ((*ft)->is_scalar() || (*ft)->is_label())) {
          std::string pname = base->var_name() + "." + e->attr();
          out->emplace(pname, FlatRef{pname, e, *ft});
          return;
        }
      }
    }
  } else if (e->kind() == K::kVarRef) {
    if (bound->count(e->var_name())) return;
    auto it = flat_env.find(e->var_name());
    if (it != flat_env.end() &&
        (it->second->is_scalar() || it->second->is_label())) {
      out->emplace(e->var_name(), FlatRef{e->var_name(), e, it->second});
    }
    return;
  }
  const std::vector<ExprPtr> subs = e->SubExprs();
  for (size_t i = 0; i < subs.size(); ++i) {
    const bool inserted =
        e->InBinderScope(i) && bound->insert(e->var_name()).second;
    CollectFlatRefs(subs[i], flat_env, bound, out);
    if (inserted) bound->erase(e->var_name());
  }
}

/// Rewrites captured flat references to projections of the match variable.
ExprPtr RewriteToMatchVar(const ExprPtr& e,
                          const std::map<std::string, FlatRef>& refs,
                          const std::string& match_var,
                          std::set<std::string>* bound) {
  using K = Expr::Kind;
  if (e->kind() == K::kProj) {
    const ExprPtr& base = e->child(0);
    if (base->kind() == K::kVarRef && bound->count(base->var_name()) == 0) {
      std::string pname = base->var_name() + "." + e->attr();
      if (refs.count(pname)) return Expr::Proj(Expr::Var(match_var), pname);
    }
  } else if (e->kind() == K::kVarRef) {
    if (bound->count(e->var_name()) == 0 && refs.count(e->var_name())) {
      return Expr::Proj(Expr::Var(match_var), e->var_name());
    }
    return e;
  }
  std::vector<ExprPtr> subs = e->SubExprs();
  for (size_t i = 0; i < subs.size(); ++i) {
    const bool inserted =
        e->InBinderScope(i) && bound->insert(e->var_name()).second;
    subs[i] = RewriteToMatchVar(subs[i], refs, match_var, bound);
    if (inserted) bound->erase(e->var_name());
  }
  return Expr::WithSubExprs(e, std::move(subs));
}

}  // namespace

StatusOr<ExprPtr> DesugarGroupBy(const ExprPtr& e, const TypeEnv& env) {
  GroupByDesugarer d;
  return d.Rewrite(e, env);
}

SymbolicShredder::SymbolicShredder(TypeEnv env,
                                   std::map<std::string, VarMapping> mapping)
    : src_env_(std::move(env)), mapping_(std::move(mapping)) {
  for (const auto& [name, t] : src_env_) {
    if (mapping_.count(name) == 0) {
      mapping_[name] = {FlatInputName(name), name + "_D"};
    }
    auto st = ShredType(t);
    if (st.ok()) flat_env_[mapping_[name].flat_name] = st->flat;
  }
}

StatusOr<ShreddedQuery> SymbolicShredder::Shred(const ExprPtr& e) {
  TRANCE_ASSIGN_OR_RETURN(ExprPtr desugared, DesugarGroupBy(e, src_env_));
  TRANCE_ASSIGN_OR_RETURN(FD fd, ShredImpl(desugared));
  return ShreddedQuery{fd.f, fd.d};
}

StatusOr<nrc::ExprPtr> SymbolicShredder::EmptyDictTree(
    const TypePtr& source_bag_type) {
  const TypePtr elem = source_bag_type->is_bag()
                           ? source_bag_type->element()
                           : source_bag_type;
  std::vector<nrc::NamedExpr> fields;
  if (elem->is_tuple()) {
    for (const auto& f : elem->fields()) {
      if (!f.type->is_bag()) continue;
      TRANCE_ASSIGN_OR_RETURN(ShreddedType st, ShredType(f.type));
      fields.push_back(
          {f.name + "fun",
           Expr::Lambda("_l", Expr::EmptyBag(st.flat))});
      TRANCE_ASSIGN_OR_RETURN(ExprPtr child, EmptyDictTree(f.type));
      fields.push_back({f.name + "child", Expr::Singleton(child)});
    }
  }
  return Expr::Tuple(std::move(fields));
}

SymbolicShredder::FD SymbolicShredder::MakeLabelAndDict(const ExprPtr& body_f) {
  std::map<std::string, FlatRef> refs;
  std::set<std::string> bound;
  CollectFlatRefs(body_f, flat_env_, &bound, &refs);
  // NewLabel with canonically named, sorted parameters (std::map iterates
  // sorted) so label construction is deterministic across query sites.
  std::vector<nrc::NamedExpr> params;
  std::vector<nrc::Field> param_fields;
  for (const auto& [pname, ref] : refs) {
    params.push_back({pname, ref.source});
    param_fields.push_back({pname, ref.type});
  }
  std::string m = "_m" + std::to_string(++match_counter_);
  std::string l = "_l" + std::to_string(match_counter_);
  bound.clear();
  ExprPtr rewritten = RewriteToMatchVar(body_f, refs, m, &bound);
  ExprPtr fun = Expr::Lambda(
      l, Expr::MatchLabel(Expr::Var(l), m, rewritten,
                          Type::Tuple(std::move(param_fields))));
  FD out;
  out.f = Expr::NewLabel(std::move(params));
  out.d = fun;
  return out;
}

StatusOr<SymbolicShredder::FD> SymbolicShredder::ShredImpl(const ExprPtr& e) {
  using K = Expr::Kind;
  switch (e->kind()) {
    case K::kConst:
      return FD{e, Expr::Tuple({})};
    case K::kVarRef: {
      auto it = mapping_.find(e->var_name());
      if (it == mapping_.end()) {
        return Status::Invalid("unmapped source variable " + e->var_name());
      }
      return FD{Expr::Var(it->second.flat_name),
                Expr::Var(it->second.dict_name)};
    }
    case K::kProj: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr t, src_types_.Check(e, src_env_));
      TRANCE_ASSIGN_OR_RETURN(FD base, ShredImpl(e->child(0)));
      if (t->is_bag()) {
        ExprPtr f = Expr::Lookup(Expr::Proj(base.d, e->attr() + "fun"),
                                 Expr::Proj(base.f, e->attr()));
        ExprPtr d = Expr::Get(Expr::Proj(base.d, e->attr() + "child"));
        return FD{f, d};
      }
      return FD{Expr::Proj(base.f, e->attr()), Expr::Tuple({})};
    }
    case K::kTupleCtor: {
      std::vector<nrc::NamedExpr> flat_fields;
      std::vector<nrc::NamedExpr> dict_fields;
      for (const auto& f : e->fields()) {
        TRANCE_ASSIGN_OR_RETURN(TypePtr ft, src_types_.Check(f.expr, src_env_));
        TRANCE_ASSIGN_OR_RETURN(FD sub, ShredImpl(f.expr));
        if (ft->is_bag()) {
          FD lab = MakeLabelAndDict(sub.f);
          flat_fields.push_back({f.name, lab.f});
          dict_fields.push_back({f.name + "fun", lab.d});
          dict_fields.push_back({f.name + "child", Expr::Singleton(sub.d)});
        } else {
          flat_fields.push_back({f.name, sub.f});
        }
      }
      return FD{Expr::Tuple(std::move(flat_fields)),
                Expr::Tuple(std::move(dict_fields))};
    }
    case K::kEmptyBag: {
      TRANCE_ASSIGN_OR_RETURN(ShreddedType st, ShredType(e->declared_type()));
      TRANCE_ASSIGN_OR_RETURN(ExprPtr d, EmptyDictTree(e->declared_type()));
      return FD{Expr::EmptyBag(st.flat), d};
    }
    case K::kSingleton: {
      TRANCE_ASSIGN_OR_RETURN(FD sub, ShredImpl(e->child(0)));
      return FD{Expr::Singleton(sub.f), sub.d};
    }
    case K::kGet: {
      TRANCE_ASSIGN_OR_RETURN(FD sub, ShredImpl(e->child(0)));
      return FD{Expr::Get(sub.f), sub.d};
    }
    case K::kForUnion: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr dt, src_types_.Check(e->child(0),
                                                           src_env_));
      if (!dt->is_bag()) return Status::TypeError("for over non-bag");
      TRANCE_ASSIGN_OR_RETURN(FD dom, ShredImpl(e->child(0)));
      const std::string& x = e->var_name();
      VarMapping vm{x + "_F", x + "_D"};
      auto saved_mapping = mapping_;
      auto saved_env = src_env_;
      mapping_[x] = vm;
      src_env_[x] = dt->element();
      TRANCE_ASSIGN_OR_RETURN(ShreddedType est, ShredType(dt->element()));
      flat_env_[vm.flat_name] = est.flat;
      auto body = ShredImpl(e->child(1));
      mapping_ = std::move(saved_mapping);
      src_env_ = std::move(saved_env);
      if (!body.ok()) return body.status();
      ExprPtr f = Expr::Let(vm.dict_name, dom.d,
                            Expr::ForUnion(vm.flat_name, dom.f, body->f));
      ExprPtr d = Expr::Let(vm.dict_name, dom.d, body->d);
      return FD{f, d};
    }
    case K::kUnion: {
      TRANCE_ASSIGN_OR_RETURN(FD a, ShredImpl(e->child(0)));
      TRANCE_ASSIGN_OR_RETURN(FD b, ShredImpl(e->child(1)));
      return FD{Expr::Union(a.f, b.f), Expr::DictTreeUnion(a.d, b.d)};
    }
    case K::kLet: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr vt, src_types_.Check(e->child(0),
                                                           src_env_));
      TRANCE_ASSIGN_OR_RETURN(FD v, ShredImpl(e->child(0)));
      const std::string& x = e->var_name();
      VarMapping vm{x + "_F", x + "_D"};
      auto saved_mapping = mapping_;
      auto saved_env = src_env_;
      mapping_[x] = vm;
      src_env_[x] = vt;
      TRANCE_ASSIGN_OR_RETURN(ShreddedType vst, ShredType(vt));
      flat_env_[vm.flat_name] = vst.flat;
      auto body = ShredImpl(e->child(1));
      mapping_ = std::move(saved_mapping);
      src_env_ = std::move(saved_env);
      if (!body.ok()) return body.status();
      ExprPtr f = Expr::Let(vm.dict_name, v.d,
                            Expr::Let(vm.flat_name, v.f, body->f));
      ExprPtr d = Expr::Let(vm.dict_name, v.d,
                            Expr::Let(vm.flat_name, v.f, body->d));
      return FD{f, d};
    }
    case K::kIfThen: {
      TRANCE_ASSIGN_OR_RETURN(FD c, ShredImpl(e->child(0)));
      TRANCE_ASSIGN_OR_RETURN(FD t, ShredImpl(e->child(1)));
      if (e->num_children() == 3) {
        TRANCE_ASSIGN_OR_RETURN(FD f, ShredImpl(e->child(2)));
        TRANCE_ASSIGN_OR_RETURN(TypePtr tt, src_types_.Check(e, src_env_));
        ExprPtr d = tt->is_bag() ? Expr::DictTreeUnion(t.d, f.d)
                                 : Expr::Tuple({});
        return FD{Expr::IfThen(c.f, t.f, f.f), d};
      }
      return FD{Expr::IfThen(c.f, t.f), t.d};
    }
    case K::kPrimOp: {
      TRANCE_ASSIGN_OR_RETURN(FD a, ShredImpl(e->child(0)));
      TRANCE_ASSIGN_OR_RETURN(FD b, ShredImpl(e->child(1)));
      return FD{Expr::PrimOp(e->prim_op(), a.f, b.f), Expr::Tuple({})};
    }
    case K::kCmp: {
      TRANCE_ASSIGN_OR_RETURN(FD a, ShredImpl(e->child(0)));
      TRANCE_ASSIGN_OR_RETURN(FD b, ShredImpl(e->child(1)));
      return FD{Expr::Cmp(e->cmp_op(), a.f, b.f), Expr::Tuple({})};
    }
    case K::kBoolOp: {
      TRANCE_ASSIGN_OR_RETURN(FD a, ShredImpl(e->child(0)));
      TRANCE_ASSIGN_OR_RETURN(FD b, ShredImpl(e->child(1)));
      return FD{Expr::BoolOp(e->bool_op(), a.f, b.f), Expr::Tuple({})};
    }
    case K::kNot: {
      TRANCE_ASSIGN_OR_RETURN(FD a, ShredImpl(e->child(0)));
      return FD{Expr::Not(a.f), Expr::Tuple({})};
    }
    case K::kDedup: {
      TRANCE_ASSIGN_OR_RETURN(FD a, ShredImpl(e->child(0)));
      return FD{Expr::Dedup(a.f), a.d};
    }
    case K::kSumBy: {
      TRANCE_ASSIGN_OR_RETURN(FD a, ShredImpl(e->child(0)));
      return FD{Expr::SumBy(e->keys(), e->values(), a.f), Expr::Tuple({})};
    }
    case K::kGroupBy:
      return Status::Internal("groupBy must be desugared before shredding");
    default:
      return Status::NotImplemented(
          "NRC^{Lbl+lambda} constructs cannot be re-shredded");
  }
}

}  // namespace shred
}  // namespace trance
