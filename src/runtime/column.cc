#include "runtime/column.h"

#include <algorithm>

namespace trance {
namespace runtime {
namespace column {

namespace {

/// TRANCE_CHECK message for a value a column does not accept.
std::string Rejected(AnyColumn::Kind kind, const Field& f) {
  return std::string("AnyColumn::Append: ") + AnyColumn::KindName(kind) +
         " column cannot hold " + f.ToString();
}

/// Makes room for `size` elements in `v` (a std::vector or std::string)
/// before a copy that appends value by value: when they do not fit, the
/// capacity steps to max(size, 2 × capacity), so the copy reallocates at
/// most once and a column filled by many small copies (a fused chain's
/// 1,024-row batches) a logarithmic number of times. An exact reserve would
/// reallocate on every call.
template <typename Array>
void ReserveGrown(Array* v, size_t size) {
  if (size > v->capacity()) v->reserve(std::max(size, 2 * v->capacity()));
}

/// Reads the i-th raw host-order uint64 word at `words`, which need not be
/// aligned.
uint64_t WordAt(const char* words, size_t i) {
  uint64_t w;
  std::memcpy(&w, words + i * sizeof(w), sizeof(w));
  return w;
}

}  // namespace

void StringColumn::AppendRange(const StringColumn& src, size_t begin,
                               size_t end) {
  const uint64_t from = src.Begin(begin), base = chars_.size();
  chars_.append(src.chars_.data() + from, src.Begin(end) - from);
  ReserveGrown(&offsets_, offsets_.size() + (end - begin));
  for (size_t i = begin; i < end; ++i) {
    offsets_.push_back(base + (src.End(i) - from));
  }
}

void StringColumn::AppendGather(const StringColumn& src, const uint32_t* rows,
                                size_t n) {
  size_t arena = chars_.size();
  for (size_t k = 0; k < n; ++k) {
    if (rows[k] != kNullRow) arena += src.End(rows[k]) - src.Begin(rows[k]);
  }
  ReserveGrown(&chars_, arena);
  ReserveGrown(&offsets_, offsets_.size() + n);
  for (size_t k = 0; k < n; ++k) {
    Append(rows[k] == kNullRow ? std::string_view() : src.At(rows[k]));
  }
}

void StringColumn::AppendEncoded(const char* arena, const char* ends,
                                 size_t n) {
  const uint64_t base = chars_.size();
  ReserveGrown(&offsets_, offsets_.size() + n);
  uint64_t end = 0;
  for (size_t i = 0; i < n; ++i) {
    end = WordAt(ends, i);
    offsets_.push_back(base + end);
  }
  chars_.append(arena, end);
}

void NullBitmap::AppendZeros(size_t n) {
  size_ += n;
  words_.resize(size_ / 64 + (size_ % 64 != 0 ? 1 : 0), 0);
}

size_t NullBitmap::AppendRange(const NullBitmap& src, size_t begin,
                               size_t end) {
  if (!src.any_) {
    AppendZeros(end - begin);
    return 0;
  }
  size_t nulls = 0;
  for (size_t i = begin; i < end; ++i) {
    const bool null = src.IsNull(i);
    nulls += null ? 1 : 0;
    Append(null);
  }
  return nulls;
}

size_t NullBitmap::AppendGather(const NullBitmap& src, const uint32_t* rows,
                                size_t n) {
  if (!src.any_ && std::find(rows, rows + n, kNullRow) == rows + n) {
    AppendZeros(n);
    return 0;
  }
  size_t nulls = 0;
  for (size_t k = 0; k < n; ++k) {
    const bool null = rows[k] == kNullRow || src.IsNull(rows[k]);
    nulls += null ? 1 : 0;
    Append(null);
  }
  return nulls;
}

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
      break;
  }
  nulls_.Append(true);
  cell_bytes_ += 8;  // a NULL charges 8 in every kind (field.cc)
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
      nulls_.Append(false);
      cell_bytes_ += f.DeepSize();
      break;
  }
}

namespace {

/// TRANCE_CHECK that a bulk copy's source column has the destination's kind.
void CheckSameKind(const char* op, AnyColumn::Kind dst, AnyColumn::Kind src) {
  TRANCE_CHECK(dst == src, std::string("AnyColumn::") + op + ": " +
                               AnyColumn::KindName(src) + " cells into a " +
                               AnyColumn::KindName(dst) + " column");
}

}  // namespace

void AnyColumn::AppendRange(const AnyColumn& src, size_t begin, size_t end) {
  CheckSameKind("AppendRange", kind_, src.kind_);
  const size_t n = end - begin;
  const size_t nulls = nulls_.AppendRange(src.nulls_, begin, end);
  switch (kind_) {
    case Kind::kInt64:
      ints_.AppendRange(src.ints_, begin, end);
      break;
    case Kind::kReal:
      reals_.AppendRange(src.reals_, begin, end);
      break;
    case Kind::kBool:
      bools_.AppendRange(src.bools_, begin, end);
      break;
    case Kind::kString: {
      const uint64_t arena = strs_.Begin(strs_.size());
      strs_.AppendRange(src.strs_, begin, end);
      cell_bytes_ += 32 * (n - nulls) + (strs_.Begin(strs_.size()) - arena) +
                     8 * nulls;
      return;
    }
    case Kind::kVariant:
      ReserveGrown(&variant_, variant_.size() + n);
      for (size_t i = begin; i < end; ++i) {
        variant_.push_back(src.variant_[i]);
        cell_bytes_ += src.variant_[i].DeepSize();
      }
      return;
  }
  cell_bytes_ += 8 * n;  // int, real and bool cells, NULL or not, charge 8
}

void AnyColumn::AppendGather(const AnyColumn& src, const uint32_t* rows,
                             size_t n) {
  CheckSameKind("AppendGather", kind_, src.kind_);
  // Row lists are uint32_t: a larger source would have had its row numbers
  // cut short where the list was built.
  TRANCE_CHECK(src.size() < kNullRow,
               "AnyColumn::AppendGather: a source of " +
                   std::to_string(src.size()) + " rows is too long for a " +
                   "uint32_t row list");
  const size_t nulls = nulls_.AppendGather(src.nulls_, rows, n);
  switch (kind_) {
    case Kind::kInt64:
      ints_.AppendGather(src.ints_, rows, n);
      break;
    case Kind::kReal:
      reals_.AppendGather(src.reals_, rows, n);
      break;
    case Kind::kBool:
      bools_.AppendGather(src.bools_, rows, n);
      break;
    case Kind::kString: {
      const uint64_t arena = strs_.Begin(strs_.size());
      strs_.AppendGather(src.strs_, rows, n);
      cell_bytes_ += 32 * (n - nulls) + (strs_.Begin(strs_.size()) - arena) +
                     8 * nulls;
      return;
    }
    case Kind::kVariant:
      ReserveGrown(&variant_, variant_.size() + n);
      for (size_t k = 0; k < n; ++k) {
        variant_.push_back(rows[k] == kNullRow ? Field::Null()
                                               : src.variant_[rows[k]]);
        cell_bytes_ += variant_.back().DeepSize();
      }
      return;
  }
  cell_bytes_ += 8 * n;  // int, real and bool cells, NULL or not, charge 8
}

void AnyColumn::AppendWords(const char* words, size_t n) {
  TRANCE_CHECK(kind_ == Kind::kInt64 || kind_ == Kind::kReal,
               std::string("AnyColumn::AppendWords: ") + KindName(kind_) +
                   " column");
  if (kind_ == Kind::kInt64) {
    ints_.AppendBytes(words, n);
  } else {
    reals_.AppendBytes(words, n);
  }
  nulls_.AppendZeros(n);
  cell_bytes_ += 8 * n;
}

void AnyColumn::AppendStrings(const char* arena, const char* ends, size_t n) {
  CheckSameKind("AppendStrings", kind_, Kind::kString);
  const uint64_t before = strs_.Begin(strs_.size());
  strs_.AppendEncoded(arena, ends, n);
  nulls_.AppendZeros(n);
  cell_bytes_ += 32 * n + (strs_.Begin(strs_.size()) - before);
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
      return b + variant_.size() * sizeof(Field) + cell_bytes_;
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

namespace {

/// TRANCE_CHECK that a bulk copy's source block has the destination's width
/// (each column then checks its kind).
void CheckSameWidth(const char* op, size_t dst, size_t src) {
  TRANCE_CHECK(dst == src, std::string("PartitionBlock::") + op +
                               ": rows of a " + std::to_string(src) +
                               "-column block into a block of " +
                               std::to_string(dst) + " columns");
}

}  // namespace

void PartitionBlock::AppendRange(const PartitionBlock& src, size_t begin,
                                 size_t end) {
  CheckSameWidth("AppendRange", cols_.size(), src.cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].AppendRange(src.cols_[c], begin, end);
  }
  num_rows_ += end - begin;
}

void PartitionBlock::AppendGather(const PartitionBlock& src,
                                  const uint32_t* rows, size_t n) {
  CheckSameWidth("AppendGather", cols_.size(), src.cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].AppendGather(src.cols_[c], rows, n);
  }
  num_rows_ += n;
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
  uint64_t s = 8 * static_cast<uint64_t>(num_rows_);
  for (const auto& c : cols_) s += c.cell_bytes();
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
