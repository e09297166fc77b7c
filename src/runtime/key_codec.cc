#include "runtime/key_codec.h"

#include <algorithm>
#include <cstring>

namespace trance {
namespace runtime {
namespace key_codec {

namespace {

// One tag byte per field. Tags also separate the int/real/bool/string type
// lattice: Field::operator== calls Int(1) and Real(1.0) equal, but their
// Field::Hash values differ, so they are different keys — distinct tags
// keep them apart. 0x06 and 0x08 are retired (they tagged a label or bag
// cell holding no object, which a Field can no longer be), and the other
// tags keep their numbers, so no key's bytes change.
enum Tag : unsigned char {
  kNull = 0x00,
  kInt = 0x01,
  kReal = 0x02,
  kString = 0x03,
  kBool = 0x04,
  kLabel = 0x05,
  kBag = 0x07,
};

void PutU32(std::string* out, uint32_t v) {
  unsigned char b[4] = {static_cast<unsigned char>(v),
                        static_cast<unsigned char>(v >> 8),
                        static_cast<unsigned char>(v >> 16),
                        static_cast<unsigned char>(v >> 24)};
  out->append(reinterpret_cast<const char*>(b), 4);
}

void PutU64(std::string* out, uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  out->append(reinterpret_cast<const char*>(b), 8);
}

// The scalar encodings, shared by Field values and typed column cells.
void PutInt(std::string* out, int64_t v) {
  out->push_back(static_cast<char>(kInt));
  PutU64(out, static_cast<uint64_t>(v));
}

void PutReal(std::string* out, double d) {
  // Normalize -0.0 to 0.0: Field::operator== and HashDouble both treat
  // them as the same key, so their encodings must be byte-identical too.
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  out->push_back(static_cast<char>(kReal));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view s) {
  out->push_back(static_cast<char>(kString));
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutBool(std::string* out, bool b) {
  out->push_back(static_cast<char>(kBool));
  out->push_back(b ? '\1' : '\0');
}

void EncodeField(const Field& f, std::string* out) {
  if (f.is_null()) {
    out->push_back(static_cast<char>(kNull));
  } else if (f.is_int()) {
    PutInt(out, f.AsInt());
  } else if (f.is_real()) {
    PutReal(out, f.AsReal());
  } else if (f.is_string()) {
    PutString(out, f.AsString());
  } else if (f.is_bool()) {
    PutBool(out, f.AsBool());
  } else if (f.is_label()) {
    const LabelPtr& l = f.AsLabel();
    out->push_back(static_cast<char>(kLabel));
    PutU32(out, static_cast<uint32_t>(l->params().size()));
    for (const auto& [name, param] : l->params()) {
      PutU32(out, static_cast<uint32_t>(name.size()));
      out->append(name);
      EncodeField(param, out);
    }
  } else {
    // Bags are multisets: the canonical form is the element rows'
    // encodings sorted bytewise, each u32-length-prefixed, after a u32
    // element count — so element order never reaches the bytes.
    const BagPtr& b = f.AsBag();
    std::vector<std::string> elems;
    elems.reserve(b->size());
    for (const Row& r : *b) {
      std::string e;
      for (const Field& ef : r.fields) EncodeField(ef, &e);
      elems.push_back(std::move(e));
    }
    std::sort(elems.begin(), elems.end());
    out->push_back(static_cast<char>(kBag));
    PutU32(out, static_cast<uint32_t>(elems.size()));
    for (const std::string& e : elems) {
      PutU32(out, static_cast<uint32_t>(e.size()));
      out->append(e);
    }
  }
}

}  // namespace

EncodedKeyRef KeyEncoder::Encode(const Row& row,
                                 const std::vector<int>& cols) {
  Begin();
  for (int c : cols) {
    TRANCE_CHECK(c >= 0 && static_cast<size_t>(c) < row.fields.size(),
                 "KeyEncoder::Encode: bad column");
    Append(row.fields[static_cast<size_t>(c)]);
  }
  return Finish();
}

EncodedKeyRef KeyEncoder::EncodeRow(const Row& row) {
  Begin();
  for (const Field& f : row.fields) Append(f);
  return Finish();
}

EncodedKeyRef KeyEncoder::EncodeAt(const column::PartitionBlock& block,
                                   size_t i, const std::vector<int>& cols) {
  Begin();
  for (int c : cols) AppendCell(block.col(static_cast<size_t>(c)), i);
  return Finish();
}

void KeyEncoder::AppendCell(const column::AnyColumn& col, size_t i) {
  using Kind = column::AnyColumn::Kind;
  if (col.kind() == Kind::kVariant) {
    Append(col.variants()[i]);
    return;
  }
  hash_acc_ += SplitMix64(col.CellHash(i));
  if (col.IsNull(i)) {
    buf_.push_back(static_cast<char>(kNull));
    return;
  }
  switch (col.kind()) {
    case Kind::kInt64:
      PutInt(&buf_, col.ints()[i]);
      break;
    case Kind::kReal:
      PutReal(&buf_, col.reals()[i]);
      break;
    case Kind::kBool:
      PutBool(&buf_, col.bools()[i] != 0);
      break;
    case Kind::kString:
      PutString(&buf_, col.strings().At(i));
      break;
    case Kind::kVariant:
      break;
  }
}

void KeyEncoder::Begin() {
  buf_.clear();
  hash_acc_ = 0x5EED;  // the RowHashOn commutative combine, accumulated here
}

void KeyEncoder::Append(const Field& f) {
  hash_acc_ += SplitMix64(f.Hash());
  EncodeField(f, &buf_);
}

EncodedKeyRef KeyEncoder::Finish() {
  bytes_encoded_ += buf_.size();
  return EncodedKeyRef{SplitMix64(hash_acc_), std::string_view(buf_)};
}

}  // namespace key_codec
}  // namespace runtime
}  // namespace trance
