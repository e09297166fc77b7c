#include "runtime/serde.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

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

std::string Errno(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

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

uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// --- BufferedFileWriter --------------------------------------------------

BufferedFileWriter::~BufferedFileWriter() {
  if (fd_ >= 0) Close().ok();  // best effort; errors surfaced via Close()
}

Status BufferedFileWriter::Open(const std::string& path,
                                size_t buffer_bytes) {
  if (fd_ >= 0) return Status::Internal("serde: writer already open");
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return Status::Internal(Errno("serde: cannot create", path));
  path_ = path;
  buf_.assign(buffer_bytes > 0 ? buffer_bytes : 1, 0);
  used_ = 0;
  bytes_written_ = 0;
  return Status::OK();
}

Status BufferedFileWriter::Append(const void* data, size_t n) {
  if (fd_ < 0) return Status::Internal("serde: write on closed file");
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    if (used_ == buf_.size()) {
      Status s = Flush();
      if (!s.ok()) return s;
    }
    size_t take = std::min(n, buf_.size() - used_);
    std::memcpy(buf_.data() + used_, p, take);
    used_ += take;
    p += take;
    n -= take;
    bytes_written_ += take;
  }
  return Status::OK();
}

Status BufferedFileWriter::Flush() {
  size_t off = 0;
  while (off < used_) {
    ssize_t w = ::write(fd_, buf_.data() + off, used_ - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("serde: write failed on", path_));
    }
    off += static_cast<size_t>(w);
  }
  used_ = 0;
  return Status::OK();
}

Status BufferedFileWriter::Close() {
  if (fd_ < 0) return Status::OK();
  Status s = Flush();
  if (::close(fd_) != 0 && s.ok()) {
    s = Status::Internal(Errno("serde: close failed on", path_));
  }
  fd_ = -1;
  return s;
}

// --- BufferedFileReader --------------------------------------------------

BufferedFileReader::~BufferedFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status BufferedFileReader::Open(const std::string& path,
                                size_t buffer_bytes) {
  if (fd_ >= 0) return Status::Internal("serde: reader already open");
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) return Status::Internal(Errno("serde: cannot open", path));
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    Status s = Status::Internal(Errno("serde: cannot stat", path));
    ::close(fd_);
    fd_ = -1;
    return s;
  }
  file_size_ = static_cast<uint64_t>(st.st_size);
  path_ = path;
  buf_.assign(buffer_bytes > 0 ? buffer_bytes : 1, 0);
  used_ = pos_ = 0;
  bytes_read_ = 0;
  return Status::OK();
}

Status BufferedFileReader::Refill() {
  pos_ = used_ = 0;
  for (;;) {
    ssize_t r = ::read(fd_, buf_.data(), buf_.size());
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("serde: read failed on", path_));
    }
    used_ = static_cast<size_t>(r);
    return Status::OK();
  }
}

Status BufferedFileReader::Read(void* dst, size_t n) {
  if (fd_ < 0) return Status::Internal("serde: read on closed file");
  char* p = static_cast<char*>(dst);
  while (n > 0) {
    if (pos_ == used_) {
      Status s = Refill();
      if (!s.ok()) return s;
      if (used_ == 0) {
        return Status::Invalid("serde: truncated file '" + path_ + "' (" +
                               std::to_string(n) + " bytes missing)");
      }
    }
    size_t take = std::min(n, used_ - pos_);
    std::memcpy(p, buf_.data() + pos_, take);
    pos_ += take;
    p += take;
    n -= take;
    bytes_read_ += take;
  }
  return Status::OK();
}

StatusOr<bool> BufferedFileReader::AtEof() {
  if (fd_ < 0) return Status::Internal("serde: AtEof on closed file");
  if (pos_ < used_) return false;
  Status s = Refill();
  if (!s.ok()) return s;
  return used_ == 0;
}

Status BufferedFileReader::Close() {
  if (fd_ < 0) return Status::OK();
  Status s = Status::OK();
  if (::close(fd_) != 0) {
    s = Status::Internal(Errno("serde: close failed on", path_));
  }
  fd_ = -1;
  return s;
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
    if (l == nullptr) {
      AppendU32(0, out);
      return;
    }
    AppendU32(static_cast<uint32_t>(l->params.size()), out);
    for (const auto& [name, value] : l->params) {
      AppendU32(static_cast<uint32_t>(name.size()), out);
      out->append(name);
      AppendField(value, out);
    }
  } else {  // bag
    AppendU8(kFieldBag, out);
    const BagPtr& b = f.AsBag();
    uint64_t n = b == nullptr ? 0 : b->size();
    AppendU64(n, out);
    if (b != nullptr) {
      for (const Row& r : *b) {
        AppendU32(static_cast<uint32_t>(r.fields.size()), out);
        for (const Field& ff : r.fields) AppendField(ff, out);
      }
    }
  }
}

namespace {

Status ParseRow(const char* data, size_t size, size_t* pos, Row* out) {
  uint32_t nfields = 0;
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &nfields, "row width"));
  out->fields.clear();
  out->fields.reserve(nfields);
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
      auto label = std::make_shared<RtLabel>();
      label->params.reserve(nparams);
      for (uint32_t i = 0; i < nparams; ++i) {
        uint32_t name_len = 0;
        TRANCE_RETURN_NOT_OK(
            ParsePod(data, size, pos, &name_len, "label param name length"));
        if (size - *pos < name_len) return Truncated("label param name");
        std::string name(data + *pos, name_len);
        *pos += name_len;
        Field value;
        TRANCE_RETURN_NOT_OK(ParseField(data, size, pos, &value));
        label->params.emplace_back(std::move(name), std::move(value));
      }
      *out = Field::Label(std::move(label));
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

void AppendRowBatchPayload(const std::vector<Row>& rows, std::string* out) {
  AppendU64(rows.size(), out);
  for (const Row& r : rows) {
    AppendU32(static_cast<uint32_t>(r.fields.size()), out);
    for (const Field& f : r.fields) AppendField(f, out);
  }
}

void AppendBlockPayload(const column::PartitionBlock& block,
                        std::string* out) {
  if (block.ragged()) {
    AppendU32(0, out);  // num_cols = 0 marks the ragged row fallback
    AppendU64(block.NumRows(), out);
    AppendU8(1, out);
    for (size_t i = 0; i < block.NumRows(); ++i) {
      Row r = block.RowAt(i);
      AppendU32(static_cast<uint32_t>(r.fields.size()), out);
      for (const Field& f : r.fields) AppendField(f, out);
    }
    return;
  }
  size_t rows = block.NumRows();
  AppendU32(static_cast<uint32_t>(block.NumCols()), out);
  AppendU64(rows, out);
  AppendU8(0, out);
  size_t words = (rows + 63) / 64;
  for (size_t c = 0; c < block.NumCols(); ++c) {
    const column::AnyColumn& col = block.col(c);
    bool has_nulls = col.nulls().any();
    AppendU8(has_nulls ? 1 : 0, out);
    if (has_nulls) {
      for (size_t w = 0; w < words; ++w) {
        uint64_t word = 0;
        for (size_t b = 0; b < 64; ++b) {
          size_t i = w * 64 + b;
          if (i < rows && col.IsNull(i)) word |= uint64_t{1} << b;
        }
        AppendU64(word, out);
      }
    }
    switch (col.kind()) {
      case column::AnyColumn::Kind::kInt64:
        AppendU8(kColInt64, out);
        out->append(reinterpret_cast<const char*>(col.ints()),
                    rows * sizeof(int64_t));
        break;
      case column::AnyColumn::Kind::kReal:
        AppendU8(kColReal, out);
        out->append(reinterpret_cast<const char*>(col.reals()),
                    rows * sizeof(double));
        break;
      case column::AnyColumn::Kind::kBool:
        AppendU8(kColBool, out);
        out->append(reinterpret_cast<const char*>(col.bools()), rows);
        break;
      case column::AnyColumn::Kind::kString: {
        AppendU8(kColString, out);
        const column::StringColumn& s = col.strings();
        uint64_t chars = 0;
        for (size_t i = 0; i < rows; ++i) chars += s.At(i).size();
        AppendU64(chars, out);
        // The arena is contiguous and value 0 starts at offset 0, so the
        // whole character region is one append.
        if (chars > 0) out->append(s.At(0).data(), chars);
        uint64_t end = 0;
        for (size_t i = 0; i < rows; ++i) {
          end += s.At(i).size();
          AppendU64(end, out);
        }
        break;
      }
      case column::AnyColumn::Kind::kVariant:
        AppendU8(kColVariant, out);
        for (size_t i = 0; i < rows; ++i) AppendField(col.At(i), out);
        break;
    }
  }
}

Status ParseRecordPayload(uint8_t kind, const std::string& payload,
                          std::vector<Row>* out) {
  const char* data = payload.data();
  size_t size = payload.size();
  size_t pos = 0;
  if (kind == kRecordRowBatch) {
    uint64_t nrows = 0;
    TRANCE_RETURN_NOT_OK(ParsePod(data, size, &pos, &nrows, "batch size"));
    out->reserve(out->size() +
                 static_cast<size_t>(std::min<uint64_t>(nrows, 1 << 20)));
    for (uint64_t i = 0; i < nrows; ++i) {
      Row r;
      TRANCE_RETURN_NOT_OK(ParseRow(data, size, &pos, &r));
      out->push_back(std::move(r));
    }
  } else if (kind == kRecordBlock) {
    uint32_t ncols = 0;
    uint64_t nrows = 0;
    uint8_t ragged = 0;
    TRANCE_RETURN_NOT_OK(ParsePod(data, size, &pos, &ncols, "column count"));
    TRANCE_RETURN_NOT_OK(ParsePod(data, size, &pos, &nrows, "row count"));
    TRANCE_RETURN_NOT_OK(ParsePod(data, size, &pos, &ragged, "ragged flag"));
    size_t n = static_cast<size_t>(nrows);
    if (ragged != 0) {
      out->reserve(out->size() + std::min<size_t>(n, 1 << 20));
      for (size_t i = 0; i < n; ++i) {
        Row r;
        TRANCE_RETURN_NOT_OK(ParseRow(data, size, &pos, &r));
        out->push_back(std::move(r));
      }
    } else {
      // Decode column-wise into a cell matrix, then emit rows. Null cells
      // override the stored default value slot, matching AnyColumn::At.
      std::vector<std::vector<Field>> cols(ncols);
      std::vector<std::vector<uint64_t>> null_words(ncols);
      size_t words = (n + 63) / 64;
      for (uint32_t c = 0; c < ncols; ++c) {
        uint8_t has_nulls = 0;
        TRANCE_RETURN_NOT_OK(
            ParsePod(data, size, &pos, &has_nulls, "null flag"));
        if (has_nulls) {
          null_words[c].resize(words);
          for (size_t w = 0; w < words; ++w) {
            TRANCE_RETURN_NOT_OK(
                ParsePod(data, size, &pos, &null_words[c][w], "null bitmap"));
          }
        }
        auto is_null = [&](size_t i) {
          return has_nulls && ((null_words[c][i / 64] >> (i % 64)) & 1) != 0;
        };
        uint8_t col_kind = 0;
        TRANCE_RETURN_NOT_OK(
            ParsePod(data, size, &pos, &col_kind, "column kind"));
        std::vector<Field>& cells = cols[c];
        cells.reserve(std::min<size_t>(n, 1 << 20));
        switch (col_kind) {
          case kColInt64:
            for (size_t i = 0; i < n; ++i) {
              int64_t v = 0;
              TRANCE_RETURN_NOT_OK(
                  ParsePod(data, size, &pos, &v, "int column"));
              cells.push_back(is_null(i) ? Field::Null() : Field::Int(v));
            }
            break;
          case kColReal:
            for (size_t i = 0; i < n; ++i) {
              uint64_t bits = 0;
              TRANCE_RETURN_NOT_OK(
                  ParsePod(data, size, &pos, &bits, "real column"));
              double v;
              std::memcpy(&v, &bits, sizeof(v));
              cells.push_back(is_null(i) ? Field::Null() : Field::Real(v));
            }
            break;
          case kColBool:
            for (size_t i = 0; i < n; ++i) {
              uint8_t v = 0;
              TRANCE_RETURN_NOT_OK(
                  ParsePod(data, size, &pos, &v, "bool column"));
              cells.push_back(is_null(i) ? Field::Null()
                                         : Field::Bool(v != 0));
            }
            break;
          case kColString: {
            uint64_t chars = 0;
            TRANCE_RETURN_NOT_OK(
                ParsePod(data, size, &pos, &chars, "string arena length"));
            if (size - pos < chars) return Truncated("string arena");
            size_t arena_begin = pos;
            pos += static_cast<size_t>(chars);
            uint64_t prev = 0;
            for (size_t i = 0; i < n; ++i) {
              uint64_t end = 0;
              TRANCE_RETURN_NOT_OK(
                  ParsePod(data, size, &pos, &end, "string offsets"));
              if (end < prev || end > chars) {
                return Status::Invalid(
                    "serde: corrupt string offsets (non-monotonic or out of "
                    "arena)");
              }
              cells.push_back(
                  is_null(i)
                      ? Field::Null()
                      : Field::Str(std::string(
                            data + arena_begin + static_cast<size_t>(prev),
                            static_cast<size_t>(end - prev))));
              prev = end;
            }
            break;
          }
          case kColVariant:
            for (size_t i = 0; i < n; ++i) {
              Field f;
              TRANCE_RETURN_NOT_OK(ParseField(data, size, &pos, &f));
              cells.push_back(std::move(f));
            }
            break;
          default:
            return Status::Invalid("serde: unknown column kind " +
                                   std::to_string(static_cast<int>(col_kind)));
        }
      }
      out->reserve(out->size() + std::min<size_t>(n, 1 << 20));
      for (size_t i = 0; i < n; ++i) {
        Row r;
        r.fields.reserve(ncols);
        for (uint32_t c = 0; c < ncols; ++c) {
          r.fields.push_back(std::move(cols[c][i]));
        }
        out->push_back(std::move(r));
      }
    }
  } else {
    return Status::Invalid("serde: unknown record kind " +
                           std::to_string(static_cast<int>(kind)));
  }
  if (pos != size) {
    return Status::Invalid("serde: record payload has " +
                           std::to_string(size - pos) + " trailing bytes");
  }
  return Status::OK();
}

// --- file-level writer / reader ------------------------------------------

Status BlockFileWriter::Open(const std::string& path, size_t buffer_bytes) {
  TRANCE_RETURN_NOT_OK(out_.Open(path, buffer_bytes));
  std::string header;
  AppendU32(kMagic, &header);
  AppendPod<uint16_t>(kFormatVersion, &header);
  AppendPod<uint16_t>(0, &header);  // flags, reserved
  return out_.Append(header.data(), header.size());
}

Status BlockFileWriter::WriteRecord(uint8_t kind, const std::string& payload) {
  std::string frame;
  frame.reserve(payload.size() + 17);
  AppendU8(kind, &frame);
  AppendU64(payload.size(), &frame);
  frame.append(payload);
  AppendU64(Fnv1a64(payload.data(), payload.size()), &frame);
  return out_.Append(frame.data(), frame.size());
}

Status BlockFileWriter::WriteBlock(const column::PartitionBlock& block) {
  std::string payload;
  AppendBlockPayload(block, &payload);
  return WriteRecord(kRecordBlock, payload);
}

Status BlockFileWriter::WriteRows(const std::vector<Row>& rows) {
  std::string payload;
  AppendRowBatchPayload(rows, &payload);
  return WriteRecord(kRecordRowBatch, payload);
}

Status BlockFileWriter::Close() { return out_.Close(); }

Status BlockFileReader::Open(const std::string& path, size_t buffer_bytes) {
  TRANCE_RETURN_NOT_OK(in_.Open(path, buffer_bytes));
  uint32_t magic = 0;
  uint16_t version = 0, flags = 0;
  TRANCE_RETURN_NOT_OK(in_.Read(&magic, sizeof(magic)));
  TRANCE_RETURN_NOT_OK(in_.Read(&version, sizeof(version)));
  TRANCE_RETURN_NOT_OK(in_.Read(&flags, sizeof(flags)));
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
  return Status::OK();
}

StatusOr<bool> BlockFileReader::ReadRecord(uint8_t* kind,
                                           std::string* payload) {
  TRANCE_ASSIGN_OR_RETURN(bool eof, in_.AtEof());
  if (eof) return false;
  uint64_t payload_len = 0;
  TRANCE_RETURN_NOT_OK(in_.Read(kind, sizeof(*kind)));
  TRANCE_RETURN_NOT_OK(in_.Read(&payload_len, sizeof(payload_len)));
  if (payload_len > (uint64_t{1} << 40)) {
    return Status::Invalid("serde: implausible record length " +
                           std::to_string(payload_len) + " (corrupt frame)");
  }
  // Validate against what the file can actually hold (payload + trailer)
  // BEFORE allocating: a corrupt length must produce a clean Status, not a
  // giant allocation.
  uint64_t remaining = in_.file_size() - in_.bytes_read();
  if (payload_len + sizeof(uint64_t) > remaining) {
    return Status::Invalid(
        "serde: truncated record: frame claims " +
        std::to_string(payload_len) + " payload bytes with only " +
        std::to_string(remaining) + " bytes left in the file");
  }
  payload->assign(static_cast<size_t>(payload_len), '\0');
  TRANCE_RETURN_NOT_OK(in_.Read(payload->data(), payload->size()));
  uint64_t stored_sum = 0;
  TRANCE_RETURN_NOT_OK(in_.Read(&stored_sum, sizeof(stored_sum)));
  uint64_t actual_sum = Fnv1a64(payload->data(), payload->size());
  if (stored_sum != actual_sum) {
    return Status::Invalid("serde: checksum mismatch (stored " +
                           std::to_string(stored_sum) + ", computed " +
                           std::to_string(actual_sum) + "): corrupt record");
  }
  return true;
}

StatusOr<bool> BlockFileReader::ReadBatch(std::vector<Row>* out,
                                          uint8_t* kind) {
  uint8_t record_kind = 0;
  std::string payload;
  TRANCE_ASSIGN_OR_RETURN(bool more, ReadRecord(&record_kind, &payload));
  if (!more) return false;
  TRANCE_RETURN_NOT_OK(ParseRecordPayload(record_kind, payload, out));
  if (kind != nullptr) *kind = record_kind;
  return true;
}

StatusOr<bool> BlockFileReader::ReadBatchInto(column::PartitionBlock* out) {
  uint8_t record_kind = 0;
  std::string payload;
  TRANCE_ASSIGN_OR_RETURN(bool more, ReadRecord(&record_kind, &payload));
  if (!more) return false;
  std::vector<Row> rows;
  TRANCE_RETURN_NOT_OK(ParseRecordPayload(record_kind, payload, &rows));
  for (const Row& r : rows) out->AppendRow(r);
  return true;
}

Status BlockFileReader::Close() { return in_.Close(); }

}  // namespace serde
}  // namespace runtime
}  // namespace trance
