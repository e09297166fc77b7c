// Columnar partition blocks: schema-typed column storage under the operators.
//
// A PartitionBlock stores one Dataset partition as typed columns instead of
// std::vector<Row> of variant Fields: int64/double/uint8 values (dates are
// int64 day numbers) live in contiguous ColumnVector<T> arrays, strings in a
// shared char arena with offsets, and label- and bag-typed cells in a
// variant column of whole Fields. Every column carries a null bitmap.
//
// The declared schema is authoritative. A column's kind is fixed when the
// block is built, every row has the schema's width, and a typed column holds
// only NULL or values of its kind. Inside the engine a row that breaks its
// schema is a compiler bug and fails a TRANCE_CHECK; rows from outside are
// checked where they enter (runtime::Source, serde::ReadBlockFile) and
// rejected with a Status.
//
// Blocks are lossless: RowAt / ToRows reproduce the exact Field values that
// went in, so Field::Hash, Field::DeepSize, RowHashOn, and the key codec
// observe exactly the values a row vector would hold — the invariant that
// keeps sizes, placement, and shuffle bytes those of the rows a block stores.
//
// Layout follows the ClickHouse ColumnVector<T> idiom (flat typed arrays, no
// per-value dispatch on scan) and Thrill's cache-friendly flat item storage.
#ifndef TRANCE_RUNTIME_COLUMN_H_
#define TRANCE_RUNTIME_COLUMN_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nrc/type.h"
#include "runtime/field.h"
#include "runtime/schema.h"
#include "util/hash.h"
#include "util/status.h"

namespace trance {
namespace runtime {
namespace column {

/// The row a row list (AppendGather) gives for a cell it appends as NULL: an
/// outer-select's failing row, a join's left-outer miss. Row lists are
/// uint32_t, so a block copied through one holds fewer rows than this.
inline constexpr uint32_t kNullRow = UINT32_MAX;

/// Flat typed array; the ClickHouse ColumnVector shape. T is a POD cell type.
template <typename T>
class ColumnVector {
 public:
  void Append(T v) { data_.push_back(v); }
  /// Appends src's values at rows [begin, end).
  void AppendRange(const ColumnVector& src, size_t begin, size_t end) {
    data_.insert(data_.end(), src.data_.begin() + begin,
                 src.data_.begin() + end);
  }
  /// Appends src's value at each of rows[0, n), or T{} for kNullRow.
  void AppendGather(const ColumnVector& src, const uint32_t* rows, size_t n) {
    T* out = Grow(n);
    for (size_t k = 0; k < n; ++k) {
      out[k] = rows[k] == kNullRow ? T{} : src.data_[rows[k]];
    }
  }
  /// Appends n values held as raw host-order bytes, which need not be
  /// aligned.
  void AppendBytes(const char* bytes, size_t n) {
    if (n > 0) std::memcpy(Grow(n), bytes, n * sizeof(T));
  }
  T operator[](size_t i) const { return data_[i]; }
  size_t size() const { return data_.size(); }
  const T* data() const { return data_.data(); }
  uint64_t ByteFootprint() const { return data_.size() * sizeof(T); }

 private:
  /// Appends n value-initialized slots and returns the first.
  T* Grow(size_t n) {
    const size_t at = data_.size();
    data_.resize(at + n);
    return data_.data() + at;
  }

  std::vector<T> data_;
};

/// String column: contiguous char arena + end offsets (offset[i] is the end
/// of value i; value i spans [offset[i-1], offset[i])).
class StringColumn {
 public:
  void Append(std::string_view s) {
    chars_.append(s.data(), s.size());
    offsets_.push_back(chars_.size());
  }
  /// Appends src's values at rows [begin, end): one arena append and the
  /// end offsets rebased onto this arena.
  void AppendRange(const StringColumn& src, size_t begin, size_t end);
  /// Appends src's value at each of rows[0, n), or "" for kNullRow.
  void AppendGather(const StringColumn& src, const uint32_t* rows, size_t n);
  /// Appends n values from an encoded section: `arena` holds their bytes
  /// and `ends` their n end offsets into it as raw host-order uint64 words,
  /// which need not be aligned. The caller has checked that the offsets are
  /// monotonic and inside the arena.
  void AppendEncoded(const char* arena, const char* ends, size_t n);
  std::string_view At(size_t i) const {
    return std::string_view(chars_.data() + Begin(i), End(i) - Begin(i));
  }
  /// Arena offsets where value i begins and ends; Begin(size()) is the
  /// arena length.
  uint64_t Begin(size_t i) const { return i == 0 ? 0 : offsets_[i - 1]; }
  uint64_t End(size_t i) const { return offsets_[i]; }
  const char* chars() const { return chars_.data(); }
  size_t size() const { return offsets_.size(); }
  uint64_t ByteFootprint() const {
    return chars_.size() + offsets_.size() * sizeof(uint64_t);
  }

 private:
  std::string chars_;
  std::vector<uint64_t> offsets_;
};

/// Per-column null bitmap, one bit per row, packed into 64-bit words.
class NullBitmap {
 public:
  void Append(bool is_null) {
    size_t word = size_ / 64;
    if (word == words_.size()) words_.push_back(0);
    if (is_null) {
      words_[word] |= uint64_t{1} << (size_ % 64);
      any_ = true;
    }
    ++size_;
  }
  /// Appends n not-NULL bits: zero words.
  void AppendZeros(size_t n);
  /// Appends src's bits of rows [begin, end): zero words when src holds no
  /// NULL, else bit by bit. Returns how many of them are NULL.
  size_t AppendRange(const NullBitmap& src, size_t begin, size_t end);
  /// Appends src's bit at each of rows[0, n), set for kNullRow. Returns how
  /// many of them are NULL.
  size_t AppendGather(const NullBitmap& src, const uint32_t* rows, size_t n);
  bool IsNull(size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1;
  }
  /// Null bits of rows [begin, begin + 64), row begin + k at bit k; rows at
  /// or past size() read as not null. Requires begin < size().
  uint64_t Bits64(size_t begin) const {
    const size_t w = begin / 64, shift = begin % 64;
    uint64_t bits = words_[w] >> shift;
    if (shift != 0 && w + 1 < words_.size()) {
      bits |= words_[w + 1] << (64 - shift);
    }
    return bits;
  }
  bool any() const { return any_; }
  size_t size() const { return size_; }
  uint64_t ByteFootprint() const { return words_.size() * sizeof(uint64_t); }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
  bool any_ = false;
};

/// One schema column in typed form. Int, date, real, bool and string
/// columns use the flat representations above and hold only NULL or values
/// of their kind; label- and bag-typed columns, and columns with no declared
/// type, are variant columns of whole Fields that accept any value. The
/// kind never changes after construction.
class AnyColumn {
 public:
  enum class Kind { kInt64, kReal, kBool, kString, kVariant };

  /// Storage kind for a declared NRC column type. A date is an int64 day
  /// number. Label, bag, tuple and dict columns, and a missing type, are
  /// variant.
  static Kind KindForType(const nrc::TypePtr& type) {
    if (type == nullptr || !type->is_scalar()) return Kind::kVariant;
    switch (type->scalar_kind()) {
      case nrc::ScalarKind::kInt:
      case nrc::ScalarKind::kDate: return Kind::kInt64;
      case nrc::ScalarKind::kReal: return Kind::kReal;
      case nrc::ScalarKind::kBool: return Kind::kBool;
      case nrc::ScalarKind::kString: return Kind::kString;
    }
    return Kind::kVariant;
  }

  /// The kind's name, as docs/STORAGE.md's column-kind table spells it.
  static const char* KindName(Kind kind);

  explicit AnyColumn(Kind kind = Kind::kVariant) : kind_(kind) {}

  Kind kind() const { return kind_; }
  size_t size() const { return nulls_.size(); }

  /// True if `f` may enter this column: NULL, any value of a variant column,
  /// or a value of a typed column's kind.
  bool Accepts(const Field& f) const;

  /// Appends one cell. NULLs set the bitmap bit and a default value slot. A
  /// value the column does not accept fails a TRANCE_CHECK.
  void Append(const Field& f);

  // Bulk copies from `src`, a column of the same kind (TRANCE_CHECK). Each
  // moves its cells in one typed loop, memcpy or arena append and grows
  // cell_bytes in closed form, so the column equals one built by
  // Append(src.At(i)) and AppendNull.
  /// Appends src's cells at rows [begin, end).
  void AppendRange(const AnyColumn& src, size_t begin, size_t end);
  /// Appends src's cell at each of rows[0, n) in list order; a kNullRow
  /// entry appends NULL.
  void AppendGather(const AnyColumn& src, const uint32_t* rows, size_t n);

  // Typed appends for decoders that hold raw column values; each is valid
  // only for the matching kind. AppendNull is valid for every kind.
  void AppendNull();
  void AppendInt64(int64_t v) {
    ints_.Append(v);
    nulls_.Append(false);
    cell_bytes_ += 8;
  }
  void AppendReal(double v) {
    reals_.Append(v);
    nulls_.Append(false);
    cell_bytes_ += 8;
  }
  void AppendBool(bool v) {
    bools_.Append(v ? 1 : 0);
    nulls_.Append(false);
    cell_bytes_ += 8;
  }
  void AppendString(std::string_view s) {
    strs_.Append(s);
    nulls_.Append(false);
    cell_bytes_ += 32 + s.size();
  }
  /// Appends n non-NULL int64 or real cells held as raw host-order 8-byte
  /// words, which need not be aligned; valid for int64 and real columns.
  void AppendWords(const char* words, size_t n);
  /// Appends n non-NULL string cells from an encoded section
  /// (StringColumn::AppendEncoded); valid for string columns.
  void AppendStrings(const char* arena, const char* ends, size_t n);

  bool IsNull(size_t i) const { return nulls_.IsNull(i); }

  /// Materializes cell i as a Field, bit-identical to the Field appended.
  Field At(size_t i) const;

  /// Bytes that Field accounting (Field::DeepSize) would charge for cell i.
  /// Matches field.cc exactly: 8 for null/int/real/bool, 32 + length for
  /// strings, DeepSize of the stored Field for variant cells (a label's or
  /// bag's stored size, never a walk).
  uint64_t CellBytes(size_t i) const;
  /// CellBytes summed over every cell, kept as a running total by each
  /// append.
  uint64_t cell_bytes() const { return cell_bytes_; }

  /// Field::Hash of cell i without materializing scalar cells.
  uint64_t CellHash(size_t i) const;

  /// Bytes the column's arrays hold, never their capacity, so the figure
  /// does not depend on how the column was filled: 8 per int or real cell,
  /// 1 per bool, the arena plus 8 per string, 8 per null-bitmap word, and
  /// sizeof(Field) plus the stored deep size per variant cell.
  uint64_t ByteFootprint() const;

  // Typed readers for tight scan loops; valid only for the matching kind.
  const int64_t* ints() const { return ints_.data(); }
  const double* reals() const { return reals_.data(); }
  const uint8_t* bools() const { return bools_.data(); }
  const StringColumn& strings() const { return strs_; }
  const Field* variants() const { return variant_.data(); }
  const NullBitmap& nulls() const { return nulls_; }

 private:
  Kind kind_;
  ColumnVector<int64_t> ints_;
  ColumnVector<double> reals_;
  ColumnVector<uint8_t> bools_;
  StringColumn strs_;
  std::vector<Field> variant_;
  NullBitmap nulls_;
  uint64_t cell_bytes_ = 0;  // running sum of CellBytes
};

/// One partition in columnar form. Constructed from a Schema (column kinds
/// derive from the declared NRC types) and filled row-by-row, column-wise
/// from another block, or from an existing std::vector<Row>. Every row has
/// the schema's width and every cell is accepted by its column; anything
/// else fails a TRANCE_CHECK.
///
/// Move-only: a block is filled once by the stage that builds it and then
/// published as a shared, immutable partition (runtime/dataset.h), so a
/// deep copy is never needed and does not compile.
class PartitionBlock {
 public:
  PartitionBlock() = default;
  explicit PartitionBlock(const Schema& schema);
  PartitionBlock(const PartitionBlock&) = delete;
  PartitionBlock& operator=(const PartitionBlock&) = delete;
  PartitionBlock(PartitionBlock&&) = default;
  PartitionBlock& operator=(PartitionBlock&&) = default;

  static PartitionBlock FromRows(const Schema& schema,
                                 const std::vector<Row>& rows);

  /// Appends a row of the block's width.
  void AppendRow(const Row& r);
  /// Appends rows [begin, end) of src, a block of the same width and column
  /// kinds: one AnyColumn::AppendRange per column.
  void AppendRange(const PartitionBlock& src, size_t begin, size_t end);
  /// Appends src's row at each of rows[0, n) in list order, a row of NULLs
  /// for kNullRow: one AnyColumn::AppendGather per column. src has the
  /// block's width and column kinds.
  void AppendGather(const PartitionBlock& src, const uint32_t* rows, size_t n);
  /// Appends n rows column by column: fill(c, &column) must append exactly
  /// n cells to column c. For decoders that hold whole columns and keyed
  /// operators that emit their groups a column at a time.
  template <typename Fill>
  void AppendColumns(size_t n, Fill&& fill) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      fill(c, &cols_[c]);
      TRANCE_CHECK(cols_[c].size() == num_rows_ + n,
                   "PartitionBlock::AppendColumns: column length mismatch");
    }
    num_rows_ += n;
  }

  size_t NumRows() const { return num_rows_; }
  size_t NumCols() const { return cols_.size(); }

  /// Materializes row i; bit-identical to the row appended.
  Row RowAt(size_t i) const;
  /// Materializes cell (row, col).
  Field FieldAt(size_t row, size_t col) const;
  bool IsNull(size_t row, size_t col) const;

  std::vector<Row> ToRows() const;
  void AppendRowsTo(std::vector<Row>* out) const;

  /// Bytes Field accounting charges for row i — identical to
  /// RowDeepSize(RowAt(i)) without materializing.
  uint64_t RowBytesAt(size_t i) const;
  /// RowBytesAt summed over every row: the 8-byte row overhead per row plus
  /// each column's running cell total, without visiting a row.
  uint64_t TotalRowBytes() const;

  /// RowHashOn(RowAt(i), cols) without materializing scalar cells.
  uint64_t HashRowOn(size_t i, const std::vector<int>& cols) const;

  /// Bytes the columns hold (AnyColumn::ByteFootprint summed; not Field
  /// accounting); feeds the columnar_bytes counter.
  uint64_t ByteFootprint() const;

  const AnyColumn& col(size_t i) const { return cols_[i]; }

 private:
  std::vector<AnyColumn> cols_;
  size_t num_rows_ = 0;
};

}  // namespace column
}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_COLUMN_H_
