#include "runtime/field.h"

#include <algorithm>

#include "util/strings.h"

namespace trance {
namespace runtime {

namespace {
int VariantRank(const Field& f) {
  if (f.is_null()) return 0;
  if (f.is_int()) return 1;
  if (f.is_real()) return 2;
  if (f.is_string()) return 3;
  if (f.is_bool()) return 4;
  if (f.is_label()) return 5;
  return 6;
}
}  // namespace

uint64_t Field::Hash() const {
  if (is_null()) return 0x9E11;
  if (is_int()) return Mix64(static_cast<uint64_t>(AsInt()) ^ 0x11);
  if (is_real()) return HashDouble(AsReal());
  if (is_string()) return HashString(AsString());
  if (is_bool()) return Mix64(AsBool() ? 0xB001u : 0xB000u);
  if (is_label()) return AsLabel() == nullptr ? 0x1AB : AsLabel()->Hash();
  // Bag: order-insensitive.
  uint64_t h = 0xBA6;
  if (AsBag() != nullptr) {
    for (const auto& r : *AsBag()) h += Mix64(RowHash(r));
  }
  return Mix64(h);
}

uint64_t Field::DeepSize() const {
  if (is_string()) return 32 + AsString().size();
  if (is_label()) {
    uint64_t s = 16;
    if (AsLabel() != nullptr) {
      for (const auto& [n, f] : AsLabel()->params) s += 8 + f.DeepSize();
    }
    return s;
  }
  if (is_bag()) {
    uint64_t s = 32;
    if (AsBag() != nullptr) {
      for (const auto& r : *AsBag()) s += RowDeepSize(r);
    }
    return s;
  }
  return 8;
}

std::string Field::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_real()) return FormatDouble(AsReal(), 4);
  if (is_string()) return "\"" + AsString() + "\"";
  if (is_bool()) return AsBool() ? "true" : "false";
  if (is_label()) {
    if (AsLabel() == nullptr) return "Label()";
    std::vector<std::string> parts;
    for (const auto& [n, f] : AsLabel()->params) {
      parts.push_back(n + "=" + f.ToString());
    }
    return "Label(" + Join(parts, ",") + ")";
  }
  std::vector<std::string> parts;
  if (AsBag() != nullptr) {
    for (const auto& r : *AsBag()) parts.push_back(RowToString(r));
  }
  return "{" + Join(parts, ", ") + "}";
}

bool operator==(const Field& a, const Field& b) {
  if (VariantRank(a) != VariantRank(b)) {
    if ((a.is_int() || a.is_real()) && (b.is_int() || b.is_real())) {
      return a.AsNumber() == b.AsNumber();
    }
    return false;
  }
  if (a.is_null()) return true;
  if (a.is_int()) return a.AsInt() == b.AsInt();
  if (a.is_real()) return a.AsReal() == b.AsReal();
  if (a.is_string()) return a.AsString() == b.AsString();
  if (a.is_bool()) return a.AsBool() == b.AsBool();
  if (a.is_label()) {
    if (a.AsLabel() == b.AsLabel()) return true;
    if (a.AsLabel() == nullptr || b.AsLabel() == nullptr) return false;
    return *a.AsLabel() == *b.AsLabel();
  }
  // Bags: multiset equality via canonical sort.
  const auto& ba = a.AsBag();
  const auto& bb = b.AsBag();
  if (ba == bb) return true;
  if (ba == nullptr || bb == nullptr) return false;
  if (ba->size() != bb->size()) return false;
  std::vector<Row> sa = *ba, sb = *bb;
  std::sort(sa.begin(), sa.end(), RowLess);
  std::sort(sb.begin(), sb.end(), RowLess);
  for (size_t i = 0; i < sa.size(); ++i) {
    if (!RowEquals(sa[i], sb[i])) return false;
  }
  return true;
}

bool FieldLess(const Field& a, const Field& b) {
  int ra = VariantRank(a), rb = VariantRank(b);
  if (ra != rb) {
    if ((a.is_int() || a.is_real()) && (b.is_int() || b.is_real())) {
      return a.AsNumber() < b.AsNumber();
    }
    return ra < rb;
  }
  if (a.is_null()) return false;
  if (a.is_int()) return a.AsInt() < b.AsInt();
  if (a.is_real()) return a.AsReal() < b.AsReal();
  if (a.is_string()) return a.AsString() < b.AsString();
  if (a.is_bool()) return a.AsBool() < b.AsBool();
  // A null label or bag differs from every non-null one under operator==
  // (the empty one included), so it sorts first; treating it as empty here
  // would make the bag sort in operator== pair up unequal elements.
  if (a.is_label()) {
    if (a.AsLabel() == nullptr || b.AsLabel() == nullptr) {
      return a.AsLabel() == nullptr && b.AsLabel() != nullptr;
    }
    const auto& pa = a.AsLabel()->params;
    const auto& pb = b.AsLabel()->params;
    size_t n = std::min(pa.size(), pb.size());
    for (size_t i = 0; i < n; ++i) {
      if (pa[i].first != pb[i].first) return pa[i].first < pb[i].first;
      if (FieldLess(pa[i].second, pb[i].second)) return true;
      if (FieldLess(pb[i].second, pa[i].second)) return false;
    }
    return pa.size() < pb.size();
  }
  // Bags: compare canonically sorted contents.
  if (a.AsBag() == nullptr || b.AsBag() == nullptr) {
    return a.AsBag() == nullptr && b.AsBag() != nullptr;
  }
  std::vector<Row> sa = *a.AsBag();
  std::vector<Row> sb = *b.AsBag();
  std::sort(sa.begin(), sa.end(), RowLess);
  std::sort(sb.begin(), sb.end(), RowLess);
  size_t n = std::min(sa.size(), sb.size());
  for (size_t i = 0; i < n; ++i) {
    if (RowLess(sa[i], sb[i])) return true;
    if (RowLess(sb[i], sa[i])) return false;
  }
  return sa.size() < sb.size();
}

uint64_t RtLabel::Hash() const {
  uint64_t h = 0x1AB;
  for (const auto& [n, f] : params) {
    h = HashCombine(h, HashString(n));
    h = HashCombine(h, f.Hash());
  }
  return h;
}

bool operator==(const RtLabel& a, const RtLabel& b) {
  if (a.params.size() != b.params.size()) return false;
  for (size_t i = 0; i < a.params.size(); ++i) {
    if (a.params[i].first != b.params[i].first) return false;
    if (!(a.params[i].second == b.params[i].second)) return false;
  }
  return true;
}

Field MakeLabel(std::vector<std::pair<std::string, Field>> params) {
  if (params.size() == 1 && params[0].second.is_label()) {
    return params[0].second;
  }
  auto l = std::make_shared<RtLabel>();
  l->params = std::move(params);
  return Field::Label(std::move(l));
}

uint64_t RowHash(const Row& r) {
  uint64_t h = 0x5EED;
  for (const auto& f : r.fields) h = HashCombine(h, f.Hash());
  return h;
}

uint64_t RowHashOn(const Row& r, const std::vector<int>& cols) {
  // Commutative combine (sum of independently finalized per-column hashes):
  // hashing on a permutation of the same columns places every row on the
  // same partition, which is what lets Partitioning::IsHashOn accept
  // permuted key lists without a re-shuffle.
  uint64_t h = 0x5EED;
  for (int c : cols) {
    TRANCE_CHECK(c >= 0 && static_cast<size_t>(c) < r.fields.size(),
                 "RowHashOn: bad column");
    h += SplitMix64(r.fields[static_cast<size_t>(c)].Hash());
  }
  return SplitMix64(h);
}

bool RowEquals(const Row& a, const Row& b) {
  if (a.fields.size() != b.fields.size()) return false;
  for (size_t i = 0; i < a.fields.size(); ++i) {
    if (!(a.fields[i] == b.fields[i])) return false;
  }
  return true;
}

bool RowEqualsOn(const Row& a, const Row& b, const std::vector<int>& cols_a,
                 const std::vector<int>& cols_b) {
  TRANCE_CHECK(cols_a.size() == cols_b.size(), "RowEqualsOn: arity mismatch");
  for (size_t i = 0; i < cols_a.size(); ++i) {
    if (!(a.fields[static_cast<size_t>(cols_a[i])] ==
          b.fields[static_cast<size_t>(cols_b[i])])) {
      return false;
    }
  }
  return true;
}

bool RowLess(const Row& a, const Row& b) {
  size_t n = std::min(a.fields.size(), b.fields.size());
  for (size_t i = 0; i < n; ++i) {
    if (FieldLess(a.fields[i], b.fields[i])) return true;
    if (FieldLess(b.fields[i], a.fields[i])) return false;
  }
  return a.fields.size() < b.fields.size();
}

uint64_t RowDeepSize(const Row& r) {
  uint64_t s = 8;
  for (const auto& f : r.fields) s += f.DeepSize();
  return s;
}

std::string RowToString(const Row& r) {
  std::vector<std::string> parts;
  parts.reserve(r.fields.size());
  for (const auto& f : r.fields) parts.push_back(f.ToString());
  return "(" + Join(parts, ", ") + ")";
}

}  // namespace runtime
}  // namespace trance
