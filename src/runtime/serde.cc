#include "runtime/serde.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace trance {
namespace runtime {
namespace serde {

namespace {

// Field tags of the recursive field encoding (docs/STORAGE.md). The scalar
// tags deliberately mirror runtime/key_codec.h so the two byte formats read
// alike in a hex dump.
constexpr uint8_t kFieldNull = 0x00;
constexpr uint8_t kFieldInt = 0x01;
constexpr uint8_t kFieldReal = 0x02;
constexpr uint8_t kFieldString = 0x03;
constexpr uint8_t kFieldBool = 0x04;
constexpr uint8_t kFieldLabel = 0x05;
constexpr uint8_t kFieldBag = 0x06;

// Column kind codes inside kRecordBlock payloads.
constexpr uint8_t kColInt64 = 0;
constexpr uint8_t kColReal = 1;
constexpr uint8_t kColBool = 2;
constexpr uint8_t kColString = 3;
constexpr uint8_t kColVariant = 4;

// --- little-endian primitive append/parse --------------------------------
// The format is defined little-endian; memcpy of the native representation
// is correct on every platform this simulator targets (and the bytes are
// what docs/STORAGE.md specifies regardless).

template <typename T>
void AppendPod(T v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void AppendU8(uint8_t v, std::string* out) { AppendPod(v, out); }
void AppendU32(uint32_t v, std::string* out) { AppendPod(v, out); }
void AppendU64(uint64_t v, std::string* out) { AppendPod(v, out); }

Status Truncated(const char* what) {
  return Status::Invalid(std::string("serde: truncated record payload (") +
                         what + ")");
}

template <typename T>
Status ParsePod(const char* data, size_t size, size_t* pos, T* out,
                const char* what) {
  if (size - *pos < sizeof(T)) return Truncated(what);
  std::memcpy(out, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return Status::OK();
}

}  // namespace

// --- XXH64 ----------------------------------------------------------------
// The reference algorithm (docs/STORAGE.md "Checksum"): four 64-bit lanes
// consume 32-byte stripes, then the 8-, 4- and 1-byte tail steps and the
// avalanche. Lanes load little-endian, which memcpy gives on every platform
// this simulator targets.

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

template <typename T>
T Load(const unsigned char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

uint64_t Round(uint64_t acc, uint64_t lane) {
  return Rotl(acc + lane * kPrime2, 31) * kPrime1;
}

uint64_t MergeRound(uint64_t h, uint64_t acc) {
  return (h ^ Round(0, acc)) * kPrime1 + kPrime4;
}

}  // namespace

uint64_t Xxh64(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  uint64_t h;
  if (n >= 32) {
    uint64_t v1 = kPrime1 + kPrime2, v2 = kPrime2, v3 = 0, v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, Load<uint64_t>(p));
      v2 = Round(v2, Load<uint64_t>(p + 8));
      v3 = Round(v3, Load<uint64_t>(p + 16));
      v4 = Round(v4, Load<uint64_t>(p + 24));
    }
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeRound(MergeRound(MergeRound(MergeRound(h, v1), v2), v3), v4);
  } else {
    h = kPrime5;
  }
  h += n;
  for (; end - p >= 8; p += 8) {
    h = Rotl(h ^ Round(0, Load<uint64_t>(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = Rotl(h ^ (Load<uint32_t>(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) h = Rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

// --- field / row codecs --------------------------------------------------

void AppendField(const Field& f, std::string* out) {
  if (f.is_null()) {
    AppendU8(kFieldNull, out);
  } else if (f.is_int()) {
    AppendU8(kFieldInt, out);
    AppendPod<int64_t>(f.AsInt(), out);
  } else if (f.is_real()) {
    AppendU8(kFieldReal, out);
    uint64_t bits;
    double v = f.AsReal();
    std::memcpy(&bits, &v, sizeof(bits));
    AppendU64(bits, out);
  } else if (f.is_string()) {
    AppendU8(kFieldString, out);
    const std::string& s = f.AsString();
    AppendU32(static_cast<uint32_t>(s.size()), out);
    out->append(s);
  } else if (f.is_bool()) {
    AppendU8(kFieldBool, out);
    AppendU8(f.AsBool() ? 1 : 0, out);
  } else if (f.is_label()) {
    AppendU8(kFieldLabel, out);
    const LabelPtr& l = f.AsLabel();
    AppendU32(static_cast<uint32_t>(l->params().size()), out);
    for (const auto& [name, value] : l->params()) {
      AppendU32(static_cast<uint32_t>(name.size()), out);
      out->append(name);
      AppendField(value, out);
    }
  } else {  // bag
    AppendU8(kFieldBag, out);
    const BagPtr& b = f.AsBag();
    AppendU64(b->size(), out);
    for (const Row& r : *b) {
      AppendU32(static_cast<uint32_t>(r.fields.size()), out);
      for (const Field& ff : r.fields) AppendField(ff, out);
    }
  }
}

namespace {

Status ParseRow(const char* data, size_t size, size_t* pos, Row* out) {
  uint32_t nfields = 0;
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &nfields, "row width"));
  out->fields.clear();
  // Every field takes at least its tag byte: a corrupt width must not OOM
  // before the truncation checks reject it.
  out->fields.reserve(std::min<size_t>(nfields, size - *pos));
  for (uint32_t i = 0; i < nfields; ++i) {
    Field f;
    TRANCE_RETURN_NOT_OK(ParseField(data, size, pos, &f));
    out->fields.push_back(std::move(f));
  }
  return Status::OK();
}

}  // namespace

Status ParseField(const char* data, size_t size, size_t* pos, Field* out) {
  uint8_t tag = 0;
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &tag, "field tag"));
  switch (tag) {
    case kFieldNull:
      *out = Field::Null();
      return Status::OK();
    case kFieldInt: {
      int64_t v = 0;
      TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &v, "int field"));
      *out = Field::Int(v);
      return Status::OK();
    }
    case kFieldReal: {
      uint64_t bits = 0;
      TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &bits, "real field"));
      double v;
      std::memcpy(&v, &bits, sizeof(v));
      *out = Field::Real(v);
      return Status::OK();
    }
    case kFieldString: {
      uint32_t len = 0;
      TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &len, "string length"));
      if (size - *pos < len) return Truncated("string bytes");
      *out = Field::Str(std::string(data + *pos, len));
      *pos += len;
      return Status::OK();
    }
    case kFieldBool: {
      uint8_t v = 0;
      TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &v, "bool field"));
      *out = Field::Bool(v != 0);
      return Status::OK();
    }
    case kFieldLabel: {
      uint32_t nparams = 0;
      TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &nparams, "label arity"));
      RtLabel::Params params;
      // Every parameter takes at least its name length and a tag byte.
      params.reserve(std::min<size_t>(nparams, (size - *pos) / 5));
      for (uint32_t i = 0; i < nparams; ++i) {
        uint32_t name_len = 0;
        TRANCE_RETURN_NOT_OK(
            ParsePod(data, size, pos, &name_len, "label param name length"));
        if (size - *pos < name_len) return Truncated("label param name");
        std::string name(data + *pos, name_len);
        *pos += name_len;
        Field value;
        TRANCE_RETURN_NOT_OK(ParseField(data, size, pos, &value));
        params.emplace_back(std::move(name), std::move(value));
      }
      *out = Field::Label(std::make_shared<const RtLabel>(std::move(params)));
      return Status::OK();
    }
    case kFieldBag: {
      uint64_t nrows = 0;
      TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &nrows, "bag size"));
      std::vector<Row> rows;
      // Guard the reserve: a corrupt length must not OOM before the
      // element-wise truncation checks reject it.
      rows.reserve(static_cast<size_t>(std::min<uint64_t>(nrows, 4096)));
      for (uint64_t i = 0; i < nrows; ++i) {
        Row r;
        TRANCE_RETURN_NOT_OK(ParseRow(data, size, pos, &r));
        rows.push_back(std::move(r));
      }
      *out = Field::Bag(std::move(rows));
      return Status::OK();
    }
    default:
      return Status::Invalid("serde: unknown field tag " +
                             std::to_string(static_cast<int>(tag)));
  }
}

namespace {

/// Appends the has_nulls flag of rows [begin, end) and, when one of them is
/// NULL, their bitmap words rebased to the range.
void AppendNullBitmap(const column::NullBitmap& nulls, size_t begin,
                      size_t end, std::string* out) {
  const size_t flag_at = out->size();
  AppendU8(0, out);
  if (!nulls.any()) return;
  uint64_t seen = 0;
  for (size_t row = begin; row < end; row += 64) {
    uint64_t word = nulls.Bits64(row);
    if (end - row < 64) word &= (uint64_t{1} << (end - row)) - 1;
    seen |= word;
    AppendU64(word, out);
  }
  if (seen == 0) {
    out->resize(flag_at + 1);  // no NULL in the range: drop the words
  } else {
    (*out)[flag_at] = 1;
  }
}

}  // namespace

void AppendBlockPayload(const column::PartitionBlock& block, size_t begin,
                        size_t end, std::string* out) {
  const size_t rows = end - begin;
  AppendU32(static_cast<uint32_t>(block.NumCols()), out);
  AppendU64(rows, out);
  for (size_t c = 0; c < block.NumCols(); ++c) {
    const column::AnyColumn& col = block.col(c);
    AppendNullBitmap(col.nulls(), begin, end, out);
    switch (col.kind()) {
      case column::AnyColumn::Kind::kInt64:
        AppendU8(kColInt64, out);
        out->append(reinterpret_cast<const char*>(col.ints() + begin),
                    rows * sizeof(int64_t));
        break;
      case column::AnyColumn::Kind::kReal:
        AppendU8(kColReal, out);
        out->append(reinterpret_cast<const char*>(col.reals() + begin),
                    rows * sizeof(double));
        break;
      case column::AnyColumn::Kind::kBool:
        AppendU8(kColBool, out);
        out->append(reinterpret_cast<const char*>(col.bools() + begin), rows);
        break;
      case column::AnyColumn::Kind::kString: {
        AppendU8(kColString, out);
        const column::StringColumn& s = col.strings();
        const uint64_t base = s.Begin(begin);
        const uint64_t chars = s.Begin(end) - base;
        AppendU64(chars, out);
        out->append(s.chars() + base, chars);
        size_t at = out->size();
        out->resize(at + rows * sizeof(uint64_t));
        for (size_t i = begin; i < end; ++i, at += sizeof(uint64_t)) {
          const uint64_t rebased = s.End(i) - base;
          std::memcpy(out->data() + at, &rebased, sizeof(rebased));
        }
        break;
      }
      case column::AnyColumn::Kind::kVariant:
        AppendU8(kColVariant, out);
        for (size_t i = begin; i < end; ++i) {
          AppendField(col.variants()[i], out);
        }
        break;
    }
  }
}

namespace {

/// One validated column section of a block record: views into the payload,
/// plus the parsed cells of a variant column.
struct ColumnSection {
  uint8_t kind = 0;
  const char* nulls = nullptr;   // bitmap words; nullptr when has_nulls = 0
  const char* values = nullptr;  // int/real/bool values, or string end offsets
  const char* arena = nullptr;   // string bytes
  std::vector<Field> cells;      // variant cells

  bool IsNull(size_t i) const {
    if (nulls == nullptr) return false;
    uint64_t word;
    std::memcpy(&word, nulls + (i / 64) * sizeof(word), sizeof(word));
    return ((word >> (i % 64)) & 1) != 0;
  }
  uint64_t Word(size_t i) const {
    uint64_t v;
    std::memcpy(&v, values + i * sizeof(v), sizeof(v));
    return v;
  }
  int64_t Int(size_t i) const { return static_cast<int64_t>(Word(i)); }
  double Real(size_t i) const { return std::bit_cast<double>(Word(i)); }
  bool Bool(size_t i) const { return values[i] != 0; }
  std::string_view Str(size_t i) const {
    const uint64_t begin = i == 0 ? 0 : Word(i - 1);
    return std::string_view(arena + begin, Word(i) - begin);
  }
};

/// A block-record payload after validation. Nothing in it has been appended
/// anywhere yet.
struct BlockRecord {
  size_t rows = 0;
  std::vector<ColumnSection> cols;
};

column::AnyColumn::Kind KindOfCode(uint8_t code) {
  switch (code) {
    case kColInt64: return column::AnyColumn::Kind::kInt64;
    case kColReal: return column::AnyColumn::Kind::kReal;
    case kColBool: return column::AnyColumn::Kind::kBool;
    case kColString: return column::AnyColumn::Kind::kString;
    default: return column::AnyColumn::Kind::kVariant;
  }
}

/// Checks that `count` fixed-width values of `width` bytes fit in what is
/// left of the payload, without overflowing the multiplication.
Status Need(size_t size, size_t pos, uint64_t count, size_t width,
            const char* what) {
  if (count > (size - pos) / width) return Truncated(what);
  return Status::OK();
}

/// Validates a whole block-record payload (docs/STORAGE.md "Record kind 2")
/// into *rec. Variant cells are parsed here; typed values stay in the
/// payload.
Status ParseBlockRecord(const char* data, size_t size, BlockRecord* rec) {
  size_t pos = 0;
  uint32_t ncols = 0;
  uint64_t nrows = 0;
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, &pos, &ncols, "column count"));
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, &pos, &nrows, "row count"));
  const size_t n = static_cast<size_t>(nrows);
  rec->rows = n;
  // Every column section takes at least its two flag bytes.
  rec->cols.reserve(std::min<size_t>(ncols, (size - pos) / 2));
  const uint64_t words = nrows / 64 + (nrows % 64 != 0 ? 1 : 0);
  for (uint32_t c = 0; c < ncols; ++c) {
    ColumnSection s;
    uint8_t has_nulls = 0;
    TRANCE_RETURN_NOT_OK(ParsePod(data, size, &pos, &has_nulls, "null flag"));
    if (has_nulls != 0) {
      TRANCE_RETURN_NOT_OK(
          Need(size, pos, words, sizeof(uint64_t), "null bitmap"));
      s.nulls = data + pos;
      pos += static_cast<size_t>(words) * sizeof(uint64_t);
    }
    TRANCE_RETURN_NOT_OK(ParsePod(data, size, &pos, &s.kind, "column kind"));
    switch (s.kind) {
      case kColInt64:
      case kColReal:
        TRANCE_RETURN_NOT_OK(Need(size, pos, nrows, sizeof(uint64_t),
                                  s.kind == kColInt64 ? "int column"
                                                      : "real column"));
        s.values = data + pos;
        pos += n * sizeof(uint64_t);
        break;
      case kColBool:
        TRANCE_RETURN_NOT_OK(Need(size, pos, nrows, 1, "bool column"));
        s.values = data + pos;
        pos += n;
        break;
      case kColString: {
        uint64_t chars = 0;
        TRANCE_RETURN_NOT_OK(
            ParsePod(data, size, &pos, &chars, "string arena length"));
        TRANCE_RETURN_NOT_OK(Need(size, pos, chars, 1, "string arena"));
        s.arena = data + pos;
        pos += static_cast<size_t>(chars);
        TRANCE_RETURN_NOT_OK(
            Need(size, pos, nrows, sizeof(uint64_t), "string offsets"));
        s.values = data + pos;
        pos += n * sizeof(uint64_t);
        uint64_t prev = 0;
        for (size_t i = 0; i < n; ++i) {
          const uint64_t end = s.Word(i);
          if (end < prev || end > chars) {
            return Status::Invalid(
                "serde: corrupt string offsets (non-monotonic or out of "
                "arena)");
          }
          prev = end;
        }
        break;
      }
      case kColVariant:
        // Every cell takes at least its tag byte.
        s.cells.reserve(std::min<size_t>(n, size - pos));
        for (size_t i = 0; i < n; ++i) {
          Field f;
          TRANCE_RETURN_NOT_OK(ParseField(data, size, &pos, &f));
          s.cells.push_back(std::move(f));
        }
        break;
      default:
        return Status::Invalid("serde: unknown column kind " +
                               std::to_string(static_cast<int>(s.kind)));
    }
    rec->cols.push_back(std::move(s));
  }
  if (pos != size) {
    return Status::Invalid("serde: record payload has " +
                           std::to_string(size - pos) + " trailing bytes");
  }
  return Status::OK();
}

/// Checks a validated record against the block it is about to enter: as
/// many columns, each of the destination column's kind.
Status CheckRecordFits(const BlockRecord& rec,
                       const column::PartitionBlock& out) {
  const size_t got = rec.cols.size(), want = out.NumCols();
  if (got != want) {
    return Status::Invalid(
        "serde: record has " + std::to_string(got) +
        " columns where the destination block has " + std::to_string(want) +
        " (column " + std::to_string(std::min(got, want)) +
        " is missing from the " + (got < want ? "record" : "destination") +
        ")");
  }
  for (size_t c = 0; c < got; ++c) {
    const column::AnyColumn::Kind kind = KindOfCode(rec.cols[c].kind);
    if (kind != out.col(c).kind()) {
      return Status::Invalid(
          "serde: record column " + std::to_string(c) + " is " +
          column::AnyColumn::KindName(kind) +
          " where the destination column is " +
          column::AnyColumn::KindName(out.col(c).kind()));
    }
  }
  return Status::OK();
}

/// Appends the n cells of one section to a column of its kind. An int, real
/// or string section with no null bitmap is appended whole: its values are
/// copied from the payload with memcpy, or its arena in one append with the
/// offsets ParseBlockRecord validated shifted onto the column's. Sections
/// with NULLs, bool sections and variant sections go one value at a time.
void AppendSection(const ColumnSection& s, size_t n, column::AnyColumn* col) {
  if (s.kind == kColVariant) {
    for (size_t i = 0; i < n; ++i) col->Append(s.cells[i]);
    return;
  }
  if (s.nulls == nullptr && s.kind != kColBool) {
    if (s.kind == kColString) {
      col->AppendStrings(s.arena, s.values, n);
    } else {
      col->AppendWords(s.values, n);
    }
    return;
  }
  // Typed cells go straight into the column arrays and the string arena,
  // one loop per kind.
  auto each = [&](auto append_value) {
    for (size_t i = 0; i < n; ++i) {
      if (s.IsNull(i)) {
        col->AppendNull();
      } else {
        append_value(i);
      }
    }
  };
  switch (s.kind) {
    case kColInt64:
      each([&](size_t i) { col->AppendInt64(s.Int(i)); });
      break;
    case kColReal:
      each([&](size_t i) { col->AppendReal(s.Real(i)); });
      break;
    case kColBool:
      each([&](size_t i) { col->AppendBool(s.Bool(i)); });
      break;
    default:
      each([&](size_t i) { col->AppendString(s.Str(i)); });
      break;
  }
}

}  // namespace

// --- file-level codec ----------------------------------------------------

void AppendFileHeader(std::string* file) {
  AppendU32(kMagic, file);
  AppendPod<uint16_t>(kFormatVersion, file);
  AppendPod<uint16_t>(0, file);  // flags, reserved
}

void AppendBlockRecord(const column::PartitionBlock& block, size_t begin,
                       size_t end, std::string* file) {
  AppendU8(kRecordBlock, file);
  const size_t len_at = file->size();
  AppendU64(0, file);  // payload_len, patched once the payload is in place
  const size_t payload_at = file->size();
  AppendBlockPayload(block, begin, end, file);
  const uint64_t len = file->size() - payload_at;
  std::memcpy(file->data() + len_at, &len, sizeof(len));
  AppendU64(Xxh64(file->data() + payload_at, len), file);
}

namespace {

/// Reads one header or frame field at *pos; the file ending inside it is a
/// truncated file, naming the bytes missing from the field.
template <typename T>
Status TakeField(std::string_view file, const std::string& path, size_t* pos,
                 T* out) {
  const size_t left = file.size() - *pos;
  if (left < sizeof(T)) {
    return Status::Invalid("serde: truncated file '" + path + "' (" +
                           std::to_string(sizeof(T) - left) +
                           " bytes missing)");
  }
  std::memcpy(out, file.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return Status::OK();
}

}  // namespace

Status ReadBlockFile(std::string_view file, const std::string& path,
                     column::PartitionBlock* out) {
  size_t pos = 0;
  uint32_t magic = 0;
  uint16_t version = 0, flags = 0;
  TRANCE_RETURN_NOT_OK(TakeField(file, path, &pos, &magic));
  TRANCE_RETURN_NOT_OK(TakeField(file, path, &pos, &version));
  TRANCE_RETURN_NOT_OK(TakeField(file, path, &pos, &flags));
  if (magic != kMagic) {
    return Status::Invalid("serde: bad magic in '" + path +
                           "' (not a trance block file)");
  }
  if (version != kFormatVersion) {
    return Status::Invalid("serde: unsupported format version " +
                           std::to_string(version) + " in '" + path +
                           "' (this reader speaks version " +
                           std::to_string(kFormatVersion) + ")");
  }
  while (pos < file.size()) {
    uint8_t kind = 0;
    uint64_t payload_len = 0;
    TRANCE_RETURN_NOT_OK(TakeField(file, path, &pos, &kind));
    TRANCE_RETURN_NOT_OK(TakeField(file, path, &pos, &payload_len));
    if (payload_len > (uint64_t{1} << 40)) {
      return Status::Invalid("serde: implausible record length " +
                             std::to_string(payload_len) +
                             " (corrupt frame)");
    }
    // Validate the length against the bytes the file holds (payload +
    // trailer) before anything reads the payload.
    const uint64_t remaining = file.size() - pos;
    if (payload_len + sizeof(uint64_t) > remaining) {
      return Status::Invalid(
          "serde: truncated record: frame claims " +
          std::to_string(payload_len) + " payload bytes with only " +
          std::to_string(remaining) + " bytes left in the file");
    }
    const char* payload = file.data() + pos;
    const size_t size = static_cast<size_t>(payload_len);
    pos += size;
    uint64_t stored_sum = 0;
    TRANCE_RETURN_NOT_OK(TakeField(file, path, &pos, &stored_sum));
    const uint64_t actual_sum = Xxh64(payload, size);
    if (stored_sum != actual_sum) {
      return Status::Invalid("serde: checksum mismatch (stored " +
                             std::to_string(stored_sum) + ", computed " +
                             std::to_string(actual_sum) + "): corrupt record");
    }
    if (kind != kRecordBlock) {
      return Status::Invalid("serde: unknown record kind " +
                             std::to_string(static_cast<int>(kind)));
    }
    BlockRecord rec;
    TRANCE_RETURN_NOT_OK(ParseBlockRecord(payload, size, &rec));
    TRANCE_RETURN_NOT_OK(CheckRecordFits(rec, *out));
    out->AppendColumns(rec.rows, [&](size_t c, column::AnyColumn* col) {
      AppendSection(rec.cols[c], rec.rows, col);
    });
  }
  return Status::OK();
}

}  // namespace serde
}  // namespace runtime
}  // namespace trance
