#include "runtime/column.h"

namespace trance {
namespace runtime {
namespace column {

namespace {

/// TRANCE_CHECK message for a value a column does not accept.
std::string Rejected(AnyColumn::Kind kind, const Field& f) {
  return std::string("AnyColumn::Append: ") + AnyColumn::KindName(kind) +
         " column cannot hold " + f.ToString();
}

}  // namespace

const char* AnyColumn::KindName(Kind kind) {
  switch (kind) {
    case Kind::kInt64: return "int64";
    case Kind::kReal: return "real";
    case Kind::kBool: return "bool";
    case Kind::kString: return "string";
    case Kind::kVariant: return "variant";
  }
  return "variant";
}

bool AnyColumn::Accepts(const Field& f) const {
  switch (kind_) {
    case Kind::kInt64: return f.is_null() || f.is_int();
    case Kind::kReal: return f.is_null() || f.is_real();
    case Kind::kBool: return f.is_null() || f.is_bool();
    case Kind::kString: return f.is_null() || f.is_string();
    case Kind::kVariant: return true;
  }
  return true;
}

void AnyColumn::AppendNull() {
  switch (kind_) {
    case Kind::kInt64:
      ints_.Append(0);
      break;
    case Kind::kReal:
      reals_.Append(0.0);
      break;
    case Kind::kBool:
      bools_.Append(0);
      break;
    case Kind::kString:
      strs_.Append(std::string_view());
      break;
    case Kind::kVariant:
      variant_.push_back(Field::Null());
      variant_bytes_ += variant_.back().DeepSize();
      break;
  }
  nulls_.Append(true);
}

void AnyColumn::Append(const Field& f) {
  if (f.is_null()) {
    AppendNull();
    return;
  }
  switch (kind_) {
    case Kind::kInt64:
      TRANCE_CHECK(f.is_int(), Rejected(kind_, f));
      AppendInt64(f.AsInt());
      break;
    case Kind::kReal:
      TRANCE_CHECK(f.is_real(), Rejected(kind_, f));
      AppendReal(f.AsReal());
      break;
    case Kind::kBool:
      TRANCE_CHECK(f.is_bool(), Rejected(kind_, f));
      AppendBool(f.AsBool());
      break;
    case Kind::kString:
      TRANCE_CHECK(f.is_string(), Rejected(kind_, f));
      AppendString(f.AsString());
      break;
    case Kind::kVariant:
      variant_.push_back(f);
      variant_bytes_ += f.DeepSize();
      nulls_.Append(false);
      break;
  }
}

void AnyColumn::AppendFrom(const AnyColumn& src, size_t i) {
  TRANCE_CHECK(kind_ == src.kind_,
               std::string("AnyColumn::AppendFrom: ") + KindName(src.kind_) +
                   " cell into a " + KindName(kind_) + " column");
  bool null = src.nulls_.IsNull(i);
  switch (kind_) {
    case Kind::kInt64:
      ints_.Append(src.ints_[i]);
      break;
    case Kind::kReal:
      reals_.Append(src.reals_[i]);
      break;
    case Kind::kBool:
      bools_.Append(src.bools_[i]);
      break;
    case Kind::kString:
      strs_.Append(src.strs_.At(i));
      break;
    case Kind::kVariant:
      variant_.push_back(src.variant_[i]);
      variant_bytes_ += src.variant_[i].DeepSize();
      break;
  }
  nulls_.Append(null);
}

Field AnyColumn::At(size_t i) const {
  if (kind_ != Kind::kVariant && nulls_.IsNull(i)) return Field::Null();
  switch (kind_) {
    case Kind::kInt64: return Field::Int(ints_[i]);
    case Kind::kReal: return Field::Real(reals_[i]);
    case Kind::kBool: return Field::Bool(bools_[i] != 0);
    case Kind::kString: return Field::Str(std::string(strs_.At(i)));
    case Kind::kVariant: return variant_[i];
  }
  return Field::Null();
}

uint64_t AnyColumn::CellBytes(size_t i) const {
  switch (kind_) {
    case Kind::kInt64:
    case Kind::kReal:
    case Kind::kBool:
      return 8;  // null/int/real/bool all charge 8 (field.cc)
    case Kind::kString:
      return nulls_.IsNull(i) ? 8 : 32 + strs_.At(i).size();
    case Kind::kVariant:
      return variant_[i].DeepSize();
  }
  return 8;
}

uint64_t AnyColumn::CellHash(size_t i) const {
  if (kind_ != Kind::kVariant && nulls_.IsNull(i)) return 0x9E11;
  switch (kind_) {
    case Kind::kInt64:
      return Mix64(static_cast<uint64_t>(ints_[i]) ^ 0x11);
    case Kind::kReal:
      return HashDouble(reals_[i]);
    case Kind::kBool:
      return Mix64(bools_[i] != 0 ? 0xB001u : 0xB000u);
    case Kind::kString: {
      std::string_view s = strs_.At(i);
      return HashBytes(s.data(), s.size());
    }
    case Kind::kVariant:
      return variant_[i].Hash();
  }
  return 0x9E11;
}

uint64_t AnyColumn::ByteFootprint() const {
  uint64_t b = nulls_.ByteFootprint();
  switch (kind_) {
    case Kind::kInt64: return b + ints_.ByteFootprint();
    case Kind::kReal: return b + reals_.ByteFootprint();
    case Kind::kBool: return b + bools_.ByteFootprint();
    case Kind::kString: return b + strs_.ByteFootprint();
    case Kind::kVariant:
      return b + variant_.capacity() * sizeof(Field) + variant_bytes_;
  }
  return b;
}

PartitionBlock::PartitionBlock(const Schema& schema) {
  cols_.reserve(schema.size());
  for (const auto& c : schema.columns()) {
    cols_.emplace_back(AnyColumn::KindForType(c.type));
  }
}

PartitionBlock PartitionBlock::FromRows(const Schema& schema,
                                        const std::vector<Row>& rows) {
  PartitionBlock b(schema);
  for (const auto& r : rows) b.AppendRow(r);
  return b;
}

void PartitionBlock::AppendRow(const Row& r) {
  TRANCE_CHECK(r.fields.size() == cols_.size(),
               "PartitionBlock::AppendRow: row of " +
                   std::to_string(r.fields.size()) + " fields in a block of " +
                   std::to_string(cols_.size()) + " columns");
  for (size_t c = 0; c < cols_.size(); ++c) cols_[c].Append(r.fields[c]);
  ++num_rows_;
}

void PartitionBlock::AppendRowFrom(const PartitionBlock& src, size_t i) {
  TRANCE_CHECK(src.cols_.size() == cols_.size(),
               "PartitionBlock::AppendRowFrom: row of a " +
                   std::to_string(src.cols_.size()) +
                   "-column block into a block of " +
                   std::to_string(cols_.size()) + " columns");
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].AppendFrom(src.cols_[c], i);
  }
  ++num_rows_;
}

Row PartitionBlock::RowAt(size_t i) const {
  Row r;
  r.fields.reserve(cols_.size());
  for (const auto& c : cols_) r.fields.push_back(c.At(i));
  return r;
}

Field PartitionBlock::FieldAt(size_t row, size_t col) const {
  return cols_[col].At(row);
}

bool PartitionBlock::IsNull(size_t row, size_t col) const {
  return cols_[col].IsNull(row);
}

std::vector<Row> PartitionBlock::ToRows() const {
  std::vector<Row> out;
  AppendRowsTo(&out);
  return out;
}

void PartitionBlock::AppendRowsTo(std::vector<Row>* out) const {
  size_t n = NumRows();
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) out->push_back(RowAt(i));
}

uint64_t PartitionBlock::RowBytesAt(size_t i) const {
  uint64_t s = 8;  // RowDeepSize row overhead
  for (const auto& c : cols_) s += c.CellBytes(i);
  return s;
}

uint64_t PartitionBlock::TotalRowBytes() const {
  uint64_t s = 0;
  size_t n = NumRows();
  for (size_t i = 0; i < n; ++i) s += RowBytesAt(i);
  return s;
}

uint64_t PartitionBlock::HashRowOn(size_t i, const std::vector<int>& cols) const {
  // Identical combine to field.cc RowHashOn (commutative sum of finalized
  // per-column hashes).
  uint64_t h = 0x5EED;
  for (int c : cols) {
    TRANCE_CHECK(c >= 0 && static_cast<size_t>(c) < cols_.size(),
                 "PartitionBlock::HashRowOn: bad column");
    h += SplitMix64(cols_[static_cast<size_t>(c)].CellHash(i));
  }
  return SplitMix64(h);
}

uint64_t PartitionBlock::ByteFootprint() const {
  uint64_t s = 0;
  for (const auto& c : cols_) s += c.ByteFootprint();
  return s;
}

}  // namespace column
}  // namespace runtime
}  // namespace trance
