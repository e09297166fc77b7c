#include "runtime/column.h"

namespace trance {
namespace runtime {
namespace column {

namespace {

bool FieldMatchesKind(const Field& f, AnyColumn::Kind k) {
  switch (k) {
    case AnyColumn::Kind::kInt64: return f.is_int();
    case AnyColumn::Kind::kReal: return f.is_real();
    case AnyColumn::Kind::kBool: return f.is_bool();
    case AnyColumn::Kind::kString: return f.is_string();
    case AnyColumn::Kind::kVariant: return true;
  }
  return true;
}

}  // namespace

void AnyColumn::DemoteToVariant() {
  size_t n = size();
  std::vector<Field> cells;
  cells.reserve(n);
  for (size_t i = 0; i < n; ++i) cells.push_back(At(i));
  variant_ = std::move(cells);
  variant_bytes_ = 0;
  for (const auto& f : variant_) variant_bytes_ += f.DeepSize();
  ints_ = ColumnVector<int64_t>();
  reals_ = ColumnVector<double>();
  bools_ = ColumnVector<uint8_t>();
  strs_ = StringColumn();
  kind_ = Kind::kVariant;
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
  if (kind_ != Kind::kVariant && !FieldMatchesKind(f, kind_)) {
    DemoteToVariant();
  }
  switch (kind_) {
    case Kind::kInt64:
      AppendInt64(f.AsInt());
      break;
    case Kind::kReal:
      AppendReal(f.AsReal());
      break;
    case Kind::kBool:
      AppendBool(f.AsBool());
      break;
    case Kind::kString:
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
  if (kind_ != src.kind_) {
    Append(src.At(i));
    return;
  }
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

void PartitionBlock::DemoteToRagged() {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) {
    Row r;
    r.fields.reserve(cols_.size());
    for (const auto& c : cols_) r.fields.push_back(c.At(i));
    rows.push_back(std::move(r));
  }
  ragged_ = std::move(rows);
  ragged_mode_ = true;
  cols_.clear();
  num_rows_ = 0;
}

void PartitionBlock::AppendRow(const Row& r) {
  if (!ragged_mode_ && r.fields.size() != cols_.size()) DemoteToRagged();
  if (ragged_mode_) {
    ragged_.push_back(r);
    return;
  }
  for (size_t c = 0; c < cols_.size(); ++c) cols_[c].Append(r.fields[c]);
  ++num_rows_;
}

void PartitionBlock::AppendRowFrom(const PartitionBlock& src, size_t i) {
  if (ragged_mode_ || src.ragged_mode_ ||
      src.cols_.size() != cols_.size()) {
    AppendRow(src.RowAt(i));
    return;
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].AppendFrom(src.cols_[c], i);
  }
  ++num_rows_;
}

Row PartitionBlock::RowAt(size_t i) const {
  if (ragged_mode_) return ragged_[i];
  Row r;
  r.fields.reserve(cols_.size());
  for (const auto& c : cols_) r.fields.push_back(c.At(i));
  return r;
}

Field PartitionBlock::FieldAt(size_t row, size_t col) const {
  if (ragged_mode_) return ragged_[row].fields[col];
  return cols_[col].At(row);
}

bool PartitionBlock::IsNull(size_t row, size_t col) const {
  if (ragged_mode_) return ragged_[row].fields[col].is_null();
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
  if (ragged_mode_) return RowDeepSize(ragged_[i]);
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
  if (ragged_mode_) return RowHashOn(ragged_[i], cols);
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
  if (ragged_mode_) {
    uint64_t s = ragged_.capacity() * sizeof(Row);
    for (const auto& r : ragged_) s += RowDeepSize(r);
    return s;
  }
  uint64_t s = 0;
  for (const auto& c : cols_) s += c.ByteFootprint();
  return s;
}

}  // namespace column
}  // namespace runtime
}  // namespace trance
