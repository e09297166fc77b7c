#include "shred/domain_elim.h"

#include <set>

#include "shred/shredded_type.h"

namespace trance {
namespace shred {

using nrc::Expr;
using nrc::ExprPtr;
using nrc::Type;
using nrc::TypePtr;

std::string DictResolver::MatName(const std::string& base,
                                  const std::string& path) const {
  return DictInputName(base, path);
}

bool DictResolver::Resolve(const ExprPtr& e, std::string* base,
                           std::string* path, bool* is_fun) const {
  using K = Expr::Kind;
  switch (e->kind()) {
    case K::kVarRef: {
      auto it = roots.find(e->var_name());
      if (it == roots.end()) return false;
      *base = it->second;
      path->clear();
      *is_fun = false;
      return true;
    }
    case K::kGet:
      return Resolve(e->child(0), base, path, is_fun);
    case K::kProj: {
      std::string b, p;
      bool f;
      if (!Resolve(e->child(0), &b, &p, &f) || f) return false;
      const std::string& attr = e->attr();
      auto ends_with = [&](const std::string& suffix) {
        return attr.size() > suffix.size() &&
               attr.compare(attr.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
      };
      std::string a;
      bool fun;
      if (ends_with("fun")) {
        a = attr.substr(0, attr.size() - 3);
        fun = true;
      } else if (ends_with("child")) {
        a = attr.substr(0, attr.size() - 5);
        fun = false;
      } else {
        return false;
      }
      *base = b;
      *path = p.empty() ? a : p + "_" + a;
      *is_fun = fun;
      return true;
    }
    default:
      return false;
  }
}

namespace {

/// One bottom-up simplification pass with local reduction rules; `Simp`
/// re-simplifies after substitutions, so the result is a normal form.
class Simplifier {
 public:
  explicit Simplifier(const DictResolver& resolver) : resolver_(resolver) {}

  StatusOr<ExprPtr> Simp(const ExprPtr& e) {
    using K = Expr::Kind;
    switch (e->kind()) {
      case K::kLet: {
        TRANCE_ASSIGN_OR_RETURN(ExprPtr v, Simp(e->child(0)));
        return Simp(nrc::Substitute(e->child(1), e->var_name(), v));
      }
      case K::kMatchLabel: {
        TRANCE_ASSIGN_OR_RETURN(ExprPtr lbl, Simp(e->child(0)));
        if (lbl->kind() == K::kNewLabel) {
          // Static deconstruction: bind the match variable to the literal
          // parameter tuple and reduce the projections away.
          std::vector<nrc::NamedExpr> params = lbl->fields();
          return Simp(nrc::Substitute(e->child(1), e->var_name(),
                                      Expr::Tuple(std::move(params))));
        }
        TRANCE_ASSIGN_OR_RETURN(ExprPtr body, Simp(e->child(1)));
        return Expr::WithSubExprs(e, {lbl, body});
      }
      default:
        break;
    }
    std::vector<ExprPtr> subs = e->SubExprs();
    for (auto& sub : subs) {
      TRANCE_ASSIGN_OR_RETURN(sub, Simp(sub));
    }
    switch (e->kind()) {
      case K::kProj:
        if (subs[0]->kind() == K::kTupleCtor) {
          for (const auto& f : subs[0]->fields()) {
            if (f.name == e->attr()) return f.expr;
          }
          return Status::KeyError("projection " + e->attr() +
                                  " missing from tuple constructor");
        }
        break;
      case K::kGet:
        if (subs[0]->kind() == K::kSingleton) return subs[0]->child(0);
        break;
      case K::kLookup: {
        const ExprPtr& dict = subs[0];
        if (dict->kind() == K::kLambda) {
          return Simp(
              nrc::Substitute(dict->child(0), dict->var_name(), subs[1]));
        }
        std::string base, path;
        bool is_fun = false;
        if (resolver_.Resolve(dict, &base, &path, &is_fun) && is_fun) {
          return Expr::MatLookup(Expr::Var(resolver_.MatName(base, path)),
                                 subs[1]);
        }
        break;
      }
      default:
        break;
    }
    return Expr::WithSubExprs(e, std::move(subs));
  }

 private:
  const DictResolver& resolver_;
};

/// Collects the match-variable attributes used in `e` (Proj(Var(m), p)).
void CollectMatchAttrs(const ExprPtr& e, const std::string& m,
                       std::set<std::string>* attrs, int* other_refs) {
  using K = Expr::Kind;
  if (e->kind() == K::kProj && e->child(0)->kind() == K::kVarRef &&
      e->child(0)->var_name() == m) {
    attrs->insert(e->attr());
    return;
  }
  if (e->kind() == K::kVarRef && e->var_name() == m) {
    ++*other_refs;  // whole-variable reference: rules do not apply
    return;
  }
  const std::vector<ExprPtr> subs = e->SubExprs();
  for (size_t i = 0; i < subs.size(); ++i) {
    if (e->InBinderScope(i) && e->var_name() == m) continue;  // shadowed
    CollectMatchAttrs(subs[i], m, attrs, other_refs);
  }
}

/// True if `e` mentions the match variable `m`: one of its attributes or
/// the whole variable.
bool MentionsMatchVar(const ExprPtr& e, const std::string& m) {
  std::set<std::string> attrs;
  int refs = 0;
  CollectMatchAttrs(e, m, &attrs, &refs);
  return !attrs.empty() || refs > 0;
}

struct Qual {
  bool is_gen = false;
  std::string var;
  ExprPtr domain;
  ExprPtr cond;
};

/// Splits a comprehension into qualifiers (And-conjunctions flattened into
/// separate filters) and its head.
void DecomposeComp(const ExprPtr& e, std::vector<Qual>* quals, ExprPtr* head) {
  using K = Expr::Kind;
  if (e->kind() == K::kForUnion) {
    quals->push_back({true, e->var_name(), e->child(0), nullptr});
    DecomposeComp(e->child(1), quals, head);
    return;
  }
  if (e->kind() == K::kIfThen && e->num_children() == 2) {
    std::vector<ExprPtr> stack{e->child(0)};
    while (!stack.empty()) {
      ExprPtr c = stack.back();
      stack.pop_back();
      if (c->kind() == K::kBoolOp && c->bool_op() == nrc::BoolOpKind::kAnd) {
        stack.push_back(c->child(0));
        stack.push_back(c->child(1));
      } else {
        quals->push_back({false, "", nullptr, c});
      }
    }
    DecomposeComp(e->child(1), quals, head);
    return;
  }
  *head = e;
}

/// Rebuilds a comprehension from qualifiers and a head.
ExprPtr RebuildComp(const std::vector<Qual>& quals, const ExprPtr& head) {
  ExprPtr e = head;
  for (auto it = quals.rbegin(); it != quals.rend(); ++it) {
    if (it->is_gen) {
      e = Expr::ForUnion(it->var, it->domain, e);
    } else {
      e = Expr::IfThen(it->cond, e);
    }
  }
  return e;
}

/// Prepends `label := label_expr` to every head tuple of a comprehension
/// body, turning a bag of flat elements into relational dictionary rows.
StatusOr<ExprPtr> PrependLabel(const ExprPtr& e, const ExprPtr& label_expr,
                               const TypePtr& flat_elem) {
  using K = Expr::Kind;
  switch (e->kind()) {
    case K::kForUnion:
    case K::kIfThen:
    case K::kUnion:
    case K::kDedup: {
      // Tag the bag-valued sub-expressions: all but a generator's domain or
      // a condition.
      std::vector<ExprPtr> subs = e->SubExprs();
      const size_t first =
          e->kind() == K::kForUnion || e->kind() == K::kIfThen ? 1 : 0;
      for (size_t i = first; i < subs.size(); ++i) {
        TRANCE_ASSIGN_OR_RETURN(subs[i],
                                PrependLabel(subs[i], label_expr, flat_elem));
      }
      return Expr::WithSubExprs(e, std::move(subs));
    }
    case K::kSingleton: {
      const ExprPtr& inner = e->child(0);
      std::vector<nrc::NamedExpr> fields;
      fields.push_back({"label", label_expr});
      if (inner->kind() == K::kTupleCtor) {
        for (const auto& f : inner->fields()) fields.push_back(f);
      } else {
        fields.push_back({"_value", inner});
      }
      return Expr::Singleton(Expr::Tuple(std::move(fields)));
    }
    case K::kEmptyBag: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr rel, RelationalDictType(flat_elem));
      return Expr::EmptyBag(rel);
    }
    default:
      return Status::NotImplemented(
          "cannot relationalize this dictionary body shape");
  }
}

/// Generic relationalization used by the baseline: iterate the value bag and
/// tag each element with the label.
StatusOr<ExprPtr> WrapValueBag(const ExprPtr& value_bag,
                               const ExprPtr& label_expr,
                               const TypePtr& flat_elem,
                               const std::string& elem_var) {
  std::vector<nrc::NamedExpr> fields;
  fields.push_back({"label", label_expr});
  if (flat_elem->is_tuple()) {
    for (const auto& f : flat_elem->fields()) {
      fields.push_back({f.name, Expr::Proj(Expr::Var(elem_var), f.name)});
    }
  } else {
    fields.push_back({"_value", Expr::Var(elem_var)});
  }
  return Expr::ForUnion(elem_var, value_bag,
                        Expr::Singleton(Expr::Tuple(std::move(fields))));
}

}  // namespace

StatusOr<ExprPtr> SimplifyShredded(const ExprPtr& e,
                                   const DictResolver& resolver) {
  Simplifier s(resolver);
  return s.Simp(e);
}

StatusOr<EmittedDict> EmitRule3Dict(const DictLambda& lam,
                                    const ExprPtr& parent_expr,
                                    const std::string& attr,
                                    const TypePtr& flat_elem,
                                    const std::string& domain_var_name) {
  using K = Expr::Kind;
  if (lam.param_type == nullptr || !lam.param_type->is_tuple() ||
      lam.param_type->fields().empty()) {
    return Status::NotImplemented("rule 3 requires captured parameters");
  }
  // Locate the NewLabel for `attr` in the parent comprehension's head.
  ExprPtr pe = parent_expr;
  if (pe->kind() == K::kSumBy) pe = pe->child(0);
  std::vector<Qual> pquals;
  ExprPtr phead;
  DecomposeComp(pe, &pquals, &phead);
  if (phead == nullptr || phead->kind() != K::kSingleton ||
      phead->child(0)->kind() != K::kTupleCtor) {
    return Status::NotImplemented("rule 3: parent head is not a tuple");
  }
  ExprPtr label_ctor;
  for (const auto& f : phead->child(0)->fields()) {
    if (f.name == attr) label_ctor = f.expr;
  }
  if (label_ctor == nullptr || label_ctor->kind() != K::kNewLabel) {
    return Status::NotImplemented(
        "rule 3: parent head does not construct the label explicitly");
  }
  // The label domain: re-run the parent generators, project the captured
  // parameters, dedup.
  std::vector<nrc::NamedExpr> domain_fields;
  for (const auto& p : label_ctor->fields()) domain_fields.push_back(p);
  ExprPtr domain_comp = RebuildComp(
      pquals, Expr::Singleton(Expr::Tuple(std::move(domain_fields))));

  EmittedDict out;
  out.rule = DictEmission::kRule3;
  out.domain_var = domain_var_name;
  out.domain_expr = Expr::Dedup(domain_comp);

  // Rebuild the label and bind the match variable from the domain tuple.
  const std::string dv = "_lab3";
  std::vector<nrc::NamedExpr> rebuilt;
  std::vector<nrc::NamedExpr> m_binding;
  for (const auto& f : lam.param_type->fields()) {
    rebuilt.push_back({f.name, Expr::Proj(Expr::Var(dv), f.name)});
    m_binding.push_back({f.name, Expr::Proj(Expr::Var(dv), f.name)});
  }
  ExprPtr label_expr = Expr::NewLabel(std::move(rebuilt));
  ExprPtr body = nrc::Substitute(lam.body, lam.match_var,
                                 Expr::Tuple(std::move(m_binding)));
  DictResolver empty;
  TRANCE_ASSIGN_OR_RETURN(body, SimplifyShredded(body, empty));

  bool inner_sum = body->kind() == K::kSumBy;
  ExprPtr comp2 = inner_sum ? body->child(0) : body;
  TRANCE_ASSIGN_OR_RETURN(ExprPtr tagged,
                          PrependLabel(comp2, label_expr, flat_elem));
  if (inner_sum) {
    std::vector<std::string> keys;
    keys.push_back("label");
    for (const auto& k : body->keys()) keys.push_back(k);
    out.expr = Expr::SumBy(keys, body->values(),
                           Expr::ForUnion(dv, Expr::Var(domain_var_name),
                                          tagged));
    return out;
  }
  out.expr =
      Expr::ForUnion(dv, Expr::Var(domain_var_name), tagged);
  return out;
}

StatusOr<EmittedDict> EmitRelationalDict(const DictLambda& lam,
                                         const std::string& parent,
                                         const std::string& attr,
                                         const TypePtr& flat_elem,
                                         const std::string& domain_var_name,
                                         bool force_baseline) {
  using K = Expr::Kind;
  EmittedDict out;
  out.rule = DictEmission::kBaseline;

  TRANCE_ASSIGN_OR_RETURN(TypePtr rel_type, RelationalDictType(flat_elem));

  // Trivial empty dictionary.
  if (lam.body->kind() == K::kEmptyBag) {
    out.rule = DictEmission::kRule1;
    out.expr = Expr::EmptyBag(rel_type);
    return out;
  }

  // Peel an aggregation wrapper.
  ExprPtr comp = lam.body;
  bool has_sum = false;
  std::vector<std::string> sum_keys, sum_vals;
  if (comp->kind() == K::kSumBy) {
    has_sum = true;
    sum_keys = comp->keys();
    sum_vals = comp->values();
    comp = comp->child(0);
  }

  std::set<std::string> m_attrs;
  int other_refs = 0;
  CollectMatchAttrs(lam.body, lam.match_var, &m_attrs, &other_refs);

  std::vector<Qual> quals;
  ExprPtr head;
  DecomposeComp(comp, &quals, &head);

  auto wrap_sum = [&](ExprPtr e) {
    if (!has_sum) return e;
    std::vector<std::string> keys;
    keys.push_back("label");
    for (const auto& k : sum_keys) keys.push_back(k);
    return Expr::SumBy(keys, sum_vals, e);
  };

  auto param_type_of = [&](const std::string& p) -> TypePtr {
    if (lam.param_type == nullptr || !lam.param_type->is_tuple()) {
      return nullptr;
    }
    auto t = lam.param_type->FieldType(p);
    return t.ok() ? *t : nullptr;
  };

  // --- Rule 1: single label-typed capture keying the leading MatLookup. ---
  if (!force_baseline && other_refs == 0 && m_attrs.size() == 1 &&
      !quals.empty() && quals[0].is_gen &&
      quals[0].domain->kind() == K::kMatLookup) {
    const std::string& p = *m_attrs.begin();
    const ExprPtr& key = quals[0].domain->child(1);
    TypePtr pt = param_type_of(p);
    bool key_is_param = key->kind() == K::kProj &&
                        key->child(0)->kind() == K::kVarRef &&
                        key->child(0)->var_name() == lam.match_var &&
                        key->attr() == p;
    if (key_is_param && pt != nullptr && pt->is_label()) {
      ExprPtr label_expr = Expr::Proj(Expr::Var(quals[0].var), "label");
      TRANCE_ASSIGN_OR_RETURN(ExprPtr body,
                              PrependLabel(head, label_expr, flat_elem));
      // Any residual reference to m.P denotes the same label the rows carry.
      std::vector<Qual> tail(quals.begin() + 1, quals.end());
      ExprPtr inner = RebuildComp(tail, body);
      inner = nrc::Substitute(inner, lam.match_var,
                              Expr::Tuple({{p, label_expr}}));
      DictResolver empty;
      TRANCE_ASSIGN_OR_RETURN(inner, SimplifyShredded(inner, empty));
      out.rule = DictEmission::kRule1;
      out.expr = wrap_sum(Expr::ForUnion(
          quals[0].var, quals[0].domain->child(0), inner));
      return out;
    }
  }

  // --- Rule 2: scalar captures equated with generator attributes. ---
  if (!force_baseline && other_refs == 0 && !m_attrs.empty()) {
    bool all_scalar = true;
    for (const auto& p : m_attrs) {
      TypePtr pt = param_type_of(p);
      if (pt == nullptr || !pt->is_scalar()) all_scalar = false;
    }
    if (all_scalar) {
      std::map<std::string, ExprPtr> bindings;  // param -> generator-side expr
      std::vector<Qual> q2;
      bool ok = true;
      for (const auto& q : quals) {
        if (q.is_gen) {
          // Generators must not mention the match variable.
          if (MentionsMatchVar(q.domain, lam.match_var)) ok = false;
          q2.push_back(q);
          continue;
        }
        // Equality filter matching  side == m.p  (either orientation)?
        const ExprPtr& c = q.cond;
        bool consumed = false;
        if (c->kind() == K::kCmp && c->cmp_op() == nrc::CmpOpKind::kEq) {
          for (int flip = 0; flip < 2 && !consumed; ++flip) {
            const ExprPtr& ms = c->child(flip == 0 ? 1 : 0);
            const ExprPtr& side = c->child(flip == 0 ? 0 : 1);
            if (ms->kind() == K::kProj &&
                ms->child(0)->kind() == K::kVarRef &&
                ms->child(0)->var_name() == lam.match_var) {
              if (!MentionsMatchVar(side, lam.match_var) &&
                  bindings.count(ms->attr()) == 0) {
                bindings[ms->attr()] = side;
                consumed = true;
              }
            }
          }
        }
        if (!consumed) {
          // A residual filter may not mention the match variable.
          if (MentionsMatchVar(c, lam.match_var)) ok = false;
          q2.push_back(q);
        }
      }
      // The head may not mention the match variable either.
      if (MentionsMatchVar(head, lam.match_var)) ok = false;
      if (ok && bindings.size() == m_attrs.size()) {
        std::vector<nrc::NamedExpr> params;
        for (const auto& f : lam.param_type->fields()) {
          auto it = bindings.find(f.name);
          if (it == bindings.end()) {
            ok = false;
            break;
          }
          params.push_back({f.name, it->second});
        }
        if (ok) {
          ExprPtr label_expr = Expr::NewLabel(std::move(params));
          TRANCE_ASSIGN_OR_RETURN(ExprPtr body,
                                  PrependLabel(head, label_expr, flat_elem));
          out.rule = DictEmission::kRule2;
          out.expr = wrap_sum(RebuildComp(q2, body));
          return out;
        }
      }
    }
  }

  // --- Baseline: label-domain assignment + per-label evaluation. ---
  out.rule = DictEmission::kBaseline;
  out.domain_var = domain_var_name;
  out.domain_expr = Expr::Dedup(Expr::ForUnion(
      "_x", Expr::Var(parent),
      Expr::Singleton(
          Expr::Tuple({{"label", Expr::Proj(Expr::Var("_x"), attr)}}))));

  ExprPtr label_of_l = Expr::Proj(Expr::Var("_lab"), "label");
  if (lam.param_type != nullptr && lam.param_type->is_tuple() &&
      lam.param_type->fields().size() == 1 &&
      lam.param_type->fields()[0].type->is_label()) {
    // Single-label capture: the collapse rule makes the captured parameter
    // the label itself, so the match can be substituted away and the result
    // stays executable on the distributed runtime. The body is
    // relationalized in place (label prepended to its heads) so the plan
    // route's unnesting can lower it.
    const std::string& p = lam.param_type->fields()[0].name;
    ExprPtr body = lam.body;
    body = nrc::Substitute(body, lam.match_var,
                           Expr::Tuple({{p, label_of_l}}));
    DictResolver empty;
    TRANCE_ASSIGN_OR_RETURN(body, SimplifyShredded(body, empty));
    bool inner_sum = body->kind() == K::kSumBy;
    ExprPtr comp2 = inner_sum ? body->child(0) : body;
    TRANCE_ASSIGN_OR_RETURN(ExprPtr tagged,
                            PrependLabel(comp2, label_of_l, flat_elem));
    ExprPtr inner = tagged;
    if (inner_sum) {
      std::vector<std::string> keys;
      keys.push_back("label");
      for (const auto& k : body->keys()) keys.push_back(k);
      inner = Expr::SumBy(keys, body->values(),
                          Expr::ForUnion("_lab", Expr::Var(domain_var_name),
                                         tagged));
      out.expr = inner;
      return out;
    }
    out.expr = Expr::ForUnion("_lab", Expr::Var(domain_var_name), inner);
    return out;
  }

  // General captures keep the match construct (interpreter-evaluable only).
  ExprPtr matched = Expr::MatchLabel(label_of_l, lam.match_var, lam.body,
                                     lam.param_type);
  TRANCE_ASSIGN_OR_RETURN(ExprPtr wrapped,
                          WrapValueBag(matched, label_of_l, flat_elem, "_v"));
  out.expr = Expr::ForUnion("_lab", Expr::Var(domain_var_name), wrapped);
  return out;
}

}  // namespace shred
}  // namespace trance
