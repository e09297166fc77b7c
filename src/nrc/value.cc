#include "nrc/value.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"
#include "util/strings.h"

namespace trance {
namespace nrc {

Value Value::Label(std::vector<std::pair<std::string, Value>> params) {
  // Single-label collapse rule (see header).
  if (params.size() == 1 && params[0].second.is_label()) {
    return params[0].second;
  }
  LabelValue l;
  l.params = std::move(params);
  return Value(Repr(std::make_shared<const LabelValue>(std::move(l))));
}

Value Value::FromConst(const ConstValue& c) {
  switch (c.kind) {
    case ScalarKind::kInt:
    case ScalarKind::kDate:
      return Int(std::get<int64_t>(c.v));
    case ScalarKind::kReal:
      return Real(std::get<double>(c.v));
    case ScalarKind::kString:
      return Str(std::get<std::string>(c.v));
    case ScalarKind::kBool:
      return Bool(std::get<bool>(c.v));
  }
  TRANCE_CHECK(false, "bad ConstValue");
  return Value();
}

double Value::AsNumber() const {
  if (is_int()) return static_cast<double>(AsInt());
  TRANCE_CHECK(is_real(), "AsNumber on non-numeric");
  return AsReal();
}

StatusOr<Value> Value::Field(const std::string& name) const {
  if (!is_tuple()) {
    return Status::TypeError("field access ." + name + " on non-tuple value " +
                             ToString());
  }
  for (const auto& [fname, fv] : AsTuple().fields) {
    if (fname == name) return fv;
  }
  return Status::KeyError("no field '" + name + "' in " + ToString());
}

const Value& Value::FieldOrDie(const std::string& name) const {
  TRANCE_CHECK(is_tuple(), "FieldOrDie on non-tuple");
  for (const auto& [fname, fv] : AsTuple().fields) {
    if (fname == name) return fv;
  }
  TRANCE_CHECK(false, "FieldOrDie: missing field " + name);
  static Value dummy;
  return dummy;
}

namespace {
int VariantRank(const Value& v) {
  if (v.is_int()) return 0;
  if (v.is_real()) return 1;
  if (v.is_string()) return 2;
  if (v.is_bool()) return 3;
  if (v.is_tuple()) return 4;
  if (v.is_bag()) return 5;
  if (v.is_label()) return 6;
  return 7;
}
}  // namespace

std::string Value::ToString() const {
  if (is_int()) return std::to_string(AsInt());
  if (is_real()) return FormatDouble(AsReal(), 4);
  if (is_string()) return "\"" + AsString() + "\"";
  if (is_bool()) return AsBool() ? "true" : "false";
  if (is_tuple()) {
    std::vector<std::string> parts;
    for (const auto& [n, fv] : AsTuple().fields) {
      parts.push_back(n + " := " + fv.ToString());
    }
    return "<" + Join(parts, ", ") + ">";
  }
  if (is_bag()) {
    std::vector<std::string> parts;
    for (const auto& e : AsBag().elems) parts.push_back(e.ToString());
    return "{" + Join(parts, ", ") + "}";
  }
  if (is_label()) {
    std::vector<std::string> parts;
    for (const auto& [n, pv] : AsLabel().params) {
      parts.push_back(n + "=" + pv.ToString());
    }
    return "Label(" + Join(parts, ", ") + ")";
  }
  return "<closure>";
}

uint64_t Value::Hash() const {
  if (is_int()) return Mix64(static_cast<uint64_t>(AsInt()) ^ 0x11);
  if (is_real()) return HashDouble(AsReal());
  if (is_string()) return HashString(AsString());
  if (is_bool()) return Mix64(AsBool() ? 0xB001u : 0xB000u);
  if (is_tuple()) {
    uint64_t h = 0x7001;
    for (const auto& [n, fv] : AsTuple().fields) {
      h = HashCombine(h, HashString(n));
      h = HashCombine(h, fv.Hash());
    }
    return h;
  }
  if (is_bag()) {
    // Order-insensitive combine so equal multisets hash equal.
    uint64_t h = 0xBA6;
    for (const auto& e : AsBag().elems) h += Mix64(e.Hash());
    return Mix64(h);
  }
  if (is_label()) {
    uint64_t h = 0x1AB;
    for (const auto& [n, pv] : AsLabel().params) {
      h = HashCombine(h, HashString(n));
      h = HashCombine(h, pv.Hash());
    }
    return h;
  }
  return 0xC705;  // closures: identity-free constant (never keyed)
}

bool operator==(const Value& a, const Value& b) {
  if (VariantRank(a) != VariantRank(b)) {
    // int/real numeric cross-comparison.
    if ((a.is_int() || a.is_real()) && (b.is_int() || b.is_real())) {
      return a.AsNumber() == b.AsNumber();
    }
    return false;
  }
  if (a.is_int()) return a.AsInt() == b.AsInt();
  if (a.is_real()) return a.AsReal() == b.AsReal();
  if (a.is_string()) return a.AsString() == b.AsString();
  if (a.is_bool()) return a.AsBool() == b.AsBool();
  if (a.is_tuple()) {
    const auto& fa = a.AsTuple().fields;
    const auto& fb = b.AsTuple().fields;
    if (fa.size() != fb.size()) return false;
    for (size_t i = 0; i < fa.size(); ++i) {
      if (fa[i].first != fb[i].first || !(fa[i].second == fb[i].second)) {
        return false;
      }
    }
    return true;
  }
  if (a.is_bag()) {
    // Bag equality at this level is *sequence* equality; use DeepBagEquals
    // for multiset semantics.
    const auto& ea = a.AsBag().elems;
    const auto& eb = b.AsBag().elems;
    if (ea.size() != eb.size()) return false;
    for (size_t i = 0; i < ea.size(); ++i) {
      if (!(ea[i] == eb[i])) return false;
    }
    return true;
  }
  if (a.is_label()) {
    const auto& pa = a.AsLabel().params;
    const auto& pb = b.AsLabel().params;
    if (pa.size() != pb.size()) return false;
    for (size_t i = 0; i < pa.size(); ++i) {
      if (pa[i].first != pb[i].first || !(pa[i].second == pb[i].second)) {
        return false;
      }
    }
    return true;
  }
  return false;  // closures never equal
}

bool ValueLess(const Value& a, const Value& b) {
  int ra = VariantRank(a), rb = VariantRank(b);
  if (ra != rb) {
    if ((a.is_int() || a.is_real()) && (b.is_int() || b.is_real())) {
      return a.AsNumber() < b.AsNumber();
    }
    return ra < rb;
  }
  if (a.is_int()) return a.AsInt() < b.AsInt();
  if (a.is_real()) return a.AsReal() < b.AsReal();
  if (a.is_string()) return a.AsString() < b.AsString();
  if (a.is_bool()) return a.AsBool() < b.AsBool();
  if (a.is_tuple()) {
    const auto& fa = a.AsTuple().fields;
    const auto& fb = b.AsTuple().fields;
    size_t n = std::min(fa.size(), fb.size());
    for (size_t i = 0; i < n; ++i) {
      if (fa[i].first != fb[i].first) return fa[i].first < fb[i].first;
      if (ValueLess(fa[i].second, fb[i].second)) return true;
      if (ValueLess(fb[i].second, fa[i].second)) return false;
    }
    return fa.size() < fb.size();
  }
  if (a.is_bag()) {
    const auto& ea = a.AsBag().elems;
    const auto& eb = b.AsBag().elems;
    size_t n = std::min(ea.size(), eb.size());
    for (size_t i = 0; i < n; ++i) {
      if (ValueLess(ea[i], eb[i])) return true;
      if (ValueLess(eb[i], ea[i])) return false;
    }
    return ea.size() < eb.size();
  }
  if (a.is_label()) {
    const auto& pa = a.AsLabel().params;
    const auto& pb = b.AsLabel().params;
    size_t n = std::min(pa.size(), pb.size());
    for (size_t i = 0; i < n; ++i) {
      if (pa[i].first != pb[i].first) return pa[i].first < pb[i].first;
      if (ValueLess(pa[i].second, pb[i].second)) return true;
      if (ValueLess(pb[i].second, pa[i].second)) return false;
    }
    return pa.size() < pb.size();
  }
  return false;
}

Value Canonicalize(const Value& v) {
  if (v.is_tuple()) {
    TupleValue t;
    t.fields.reserve(v.AsTuple().fields.size());
    for (const auto& [n, fv] : v.AsTuple().fields) {
      t.fields.emplace_back(n, Canonicalize(fv));
    }
    return Value::Tuple(std::move(t));
  }
  if (v.is_bag()) {
    std::vector<Value> elems;
    elems.reserve(v.AsBag().elems.size());
    for (const auto& e : v.AsBag().elems) elems.push_back(Canonicalize(e));
    std::sort(elems.begin(), elems.end(), ValueLess);
    return Value::Bag(std::move(elems));
  }
  return v;
}

bool DeepBagEquals(const Value& a, const Value& b) {
  return Canonicalize(a) == Canonicalize(b);
}

namespace {
double SnapReal(double r) {
  if (r == 0.0 || !std::isfinite(r)) return r;
  double mag = std::ceil(std::log10(std::fabs(r)));
  double scale = std::pow(10.0, 10.0 - mag);
  return std::round(r * scale) / scale;
}

Value SnapReals(const Value& v) {
  if (v.is_real()) return Value::Real(SnapReal(v.AsReal()));
  if (v.is_tuple()) {
    TupleValue t;
    for (const auto& [n, fv] : v.AsTuple().fields) {
      t.fields.emplace_back(n, SnapReals(fv));
    }
    return Value::Tuple(std::move(t));
  }
  if (v.is_bag()) {
    std::vector<Value> elems;
    for (const auto& e : v.AsBag().elems) elems.push_back(SnapReals(e));
    return Value::Bag(std::move(elems));
  }
  return v;
}
}  // namespace

bool ApproxDeepBagEquals(const Value& a, const Value& b) {
  return Canonicalize(SnapReals(a)) == Canonicalize(SnapReals(b));
}

}  // namespace nrc
}  // namespace trance
