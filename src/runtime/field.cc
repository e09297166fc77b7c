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

/// Lexicographic row order under FieldLess: the canonical sort of bag
/// contents in operator== and FieldLess.
bool RowLess(const Row& a, const Row& b) {
  size_t n = std::min(a.fields.size(), b.fields.size());
  for (size_t i = 0; i < n; ++i) {
    if (FieldLess(a.fields[i], b.fields[i])) return true;
    if (FieldLess(b.fields[i], a.fields[i])) return false;
  }
  return a.fields.size() < b.fields.size();
}
}  // namespace

uint64_t Field::Hash() const {
  if (is_null()) return 0x9E11;
  if (is_int()) return Mix64(static_cast<uint64_t>(AsInt()) ^ 0x11);
  if (is_real()) return HashDouble(AsReal());
  if (is_string()) return HashString(AsString());
  if (is_bool()) return Mix64(AsBool() ? 0xB001u : 0xB000u);
  if (is_label()) return AsLabel()->Hash();
  // Bag: order-insensitive.
  uint64_t h = 0xBA6;
  for (const auto& r : *AsBag()) h += Mix64(RowHash(r));
  return Mix64(h);
}

uint64_t Field::DeepSize() const {
  if (is_string()) return 32 + AsString().size();
  if (is_label()) return AsLabel()->DeepSize();
  if (is_bag()) return AsBag()->DeepSize();
  return 8;
}

std::string Field::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_real()) return FormatDouble(AsReal(), 4);
  if (is_string()) return "\"" + AsString() + "\"";
  if (is_bool()) return AsBool() ? "true" : "false";
  if (is_label()) {
    std::vector<std::string> parts;
    for (const auto& [n, f] : AsLabel()->params()) {
      parts.push_back(n + "=" + f.ToString());
    }
    return "Label(" + Join(parts, ",") + ")";
  }
  std::vector<std::string> parts;
  for (const auto& r : *AsBag()) parts.push_back(RowToString(r));
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
    return a.AsLabel() == b.AsLabel() || *a.AsLabel() == *b.AsLabel();
  }
  // Bags: multiset equality via canonical sort.
  const auto& ba = a.AsBag();
  const auto& bb = b.AsBag();
  if (ba == bb) return true;
  if (ba->size() != bb->size()) return false;
  std::vector<Row> sa = ba->rows(), sb = bb->rows();
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
  if (a.is_label()) {
    const auto& pa = a.AsLabel()->params();
    const auto& pb = b.AsLabel()->params();
    size_t n = std::min(pa.size(), pb.size());
    for (size_t i = 0; i < n; ++i) {
      if (pa[i].first != pb[i].first) return pa[i].first < pb[i].first;
      if (FieldLess(pa[i].second, pb[i].second)) return true;
      if (FieldLess(pb[i].second, pa[i].second)) return false;
    }
    return pa.size() < pb.size();
  }
  // Bags: compare canonically sorted contents.
  std::vector<Row> sa = a.AsBag()->rows();
  std::vector<Row> sb = b.AsBag()->rows();
  std::sort(sa.begin(), sa.end(), RowLess);
  std::sort(sb.begin(), sb.end(), RowLess);
  size_t n = std::min(sa.size(), sb.size());
  for (size_t i = 0; i < n; ++i) {
    if (RowLess(sa[i], sb[i])) return true;
    if (RowLess(sb[i], sa[i])) return false;
  }
  return sa.size() < sb.size();
}

RtBag::RtBag(std::vector<Row> rows) : rows_(std::move(rows)), deep_size_(32) {
  for (const auto& r : rows_) deep_size_ += RowDeepSize(r);
}

RtLabel::RtLabel(Params params)
    : params_(std::move(params)), hash_(0x1AB), deep_size_(16) {
  for (const auto& [n, f] : params_) {
    hash_ = HashCombine(hash_, HashString(n));
    hash_ = HashCombine(hash_, f.Hash());
    deep_size_ += 8 + f.DeepSize();
  }
}

bool operator==(const RtLabel& a, const RtLabel& b) {
  if (a.params_.size() != b.params_.size()) return false;
  for (size_t i = 0; i < a.params_.size(); ++i) {
    if (a.params_[i].first != b.params_[i].first) return false;
    if (!(a.params_[i].second == b.params_[i].second)) return false;
  }
  return true;
}

Field MakeLabel(std::vector<std::pair<std::string, Field>> params) {
  if (params.size() == 1 && params[0].second.is_label()) {
    return params[0].second;
  }
  return Field::Label(std::make_shared<const RtLabel>(std::move(params)));
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
