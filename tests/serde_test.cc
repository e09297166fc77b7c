// Binary spill-format round-trip and corruption tests (ctest label `serde`).
// They run over in-memory byte strings: the codec never touches a file.
//
// The runtime/serde.h wire format (docs/STORAGE.md) must round-trip every
// Field value bit-exactly — nulls, int64 extremes, exact IEEE doubles (NaN
// payloads included), strings, bools, recursive labels, recursive bags — in
// block records (typed columns with null bitmaps, and variant columns),
// decoded straight into the columns of a block of the same schema; and the
// bytes of the spec's worked example must come out exactly. It must reject,
// with a clean Status (never a crash, never a partly appended record), every
// malformed input we can produce: truncation at any byte, single-byte
// corruption anywhere in the file, checksum tampering, a bad magic, a
// version from the future, checksum-valid records that lie about their
// structure, and records that do not fit their destination block.
#include "runtime/serde.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "runtime/column.h"
#include "runtime/field.h"
#include "runtime/schema.h"

namespace trance {
namespace runtime {
namespace {

namespace serde = ::trance::runtime::serde;

// Field equality that is stricter than operator== where the format promises
// more: reals compare by bit pattern (NaN payloads and -0.0 vs 0.0 survive
// the disk), and int must come back as int (no numeric coercion).
void ExpectFieldBitEq(const Field& a, const Field& b, const std::string& at) {
  if (a.is_real() || b.is_real()) {
    ASSERT_TRUE(a.is_real() && b.is_real()) << at;
    uint64_t ba = 0, bb = 0;
    double va = a.AsReal(), vb = b.AsReal();
    std::memcpy(&ba, &va, sizeof(ba));
    std::memcpy(&bb, &vb, sizeof(bb));
    EXPECT_EQ(ba, bb) << at;
    return;
  }
  if (a.is_int() || b.is_int()) {
    ASSERT_TRUE(a.is_int() && b.is_int()) << at;
    EXPECT_EQ(a.AsInt(), b.AsInt()) << at;
    return;
  }
  if (a.is_label() && b.is_label() && a.AsLabel() != nullptr &&
      b.AsLabel() != nullptr) {
    const auto& pa = a.AsLabel()->params;
    const auto& pb = b.AsLabel()->params;
    ASSERT_EQ(pa.size(), pb.size()) << at;
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].first, pb[i].first) << at;
      ExpectFieldBitEq(pa[i].second, pb[i].second,
                       at + ".label[" + pa[i].first + "]");
    }
    return;
  }
  if (a.is_bag() && b.is_bag() && a.AsBag() != nullptr && b.AsBag() != nullptr) {
    const auto& ra = *a.AsBag();
    const auto& rb = *b.AsBag();
    ASSERT_EQ(ra.size(), rb.size()) << at;
    for (size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i].fields.size(), rb[i].fields.size()) << at;
      for (size_t f = 0; f < ra[i].fields.size(); ++f) {
        ExpectFieldBitEq(ra[i].fields[f], rb[i].fields[f],
                         at + ".bag[" + std::to_string(i) + "][" +
                             std::to_string(f) + "]");
      }
    }
    return;
  }
  EXPECT_TRUE(a == b) << at;
}

void ExpectRowsBitEq(const std::vector<Row>& a, const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].fields.size(), b[i].fields.size()) << "row " << i;
    for (size_t f = 0; f < a[i].fields.size(); ++f) {
      ExpectFieldBitEq(a[i].fields[f], b[i].fields[f],
                       "row " + std::to_string(i) + " field " +
                           std::to_string(f));
    }
  }
}

// --- randomized field generator ------------------------------------------

Field RandomField(std::mt19937_64* rng, int depth);

Row RandomRow(std::mt19937_64* rng, int depth, size_t width) {
  Row r;
  r.fields.reserve(width);
  for (size_t i = 0; i < width; ++i) r.fields.push_back(RandomField(rng, depth));
  return r;
}

Field RandomField(std::mt19937_64* rng, int depth) {
  // Nested kinds (label/bag) only while depth remains.
  int max_kind = depth > 0 ? 6 : 4;
  switch (static_cast<int>((*rng)() % (max_kind + 1))) {
    case 0:
      return Field::Null();
    case 1:
      return Field::Int(static_cast<int64_t>((*rng)()));
    case 2: {
      uint64_t bits = (*rng)();
      double v;
      std::memcpy(&v, &bits, sizeof(v));
      if (std::isnan(v)) v = 0.5;  // keep operator==-comparable in bags
      return Field::Real(v);
    }
    case 3: {
      size_t len = (*rng)() % 40;
      std::string s;
      s.reserve(len);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>((*rng)() % 256));  // binary-safe
      }
      return Field::Str(std::move(s));
    }
    case 4:
      return Field::Bool(((*rng)() & 1) != 0);
    case 5: {
      auto label = std::make_shared<RtLabel>();
      size_t n = (*rng)() % 3;
      for (size_t i = 0; i < n; ++i) {
        label->params.emplace_back("p" + std::to_string(i),
                                   RandomField(rng, depth - 1));
      }
      return Field::Label(std::move(label));
    }
    default: {
      std::vector<Row> rows;
      size_t n = (*rng)() % 4;
      for (size_t i = 0; i < n; ++i) {
        rows.push_back(RandomRow(rng, depth - 1, 1 + (*rng)() % 3));
      }
      return Field::Bag(std::move(rows));
    }
  }
}

/// A block file holding the header and one block record per block, in
/// order.
std::string FileOf(const std::vector<column::PartitionBlock>& blocks) {
  std::string file;
  serde::AppendFileHeader(&file);
  for (const column::PartitionBlock& b : blocks) {
    serde::AppendBlockRecord(b, 0, b.NumRows(), &file);
  }
  return file;
}

/// The records of a well-formed block file, each as its framed bytes (kind,
/// length, payload, checksum), found by walking the framing of
/// docs/STORAGE.md independently of the decoder.
std::vector<std::string> RecordsOf(const std::string& file) {
  std::vector<std::string> records;
  for (size_t pos = 8; pos < file.size();) {
    uint64_t len = 0;
    std::memcpy(&len, file.data() + pos + 1, sizeof(len));
    const size_t framed = 1 + 8 + static_cast<size_t>(len) + 8;
    records.push_back(file.substr(pos, framed));
    pos += framed;
  }
  return records;
}

/// Decodes every record of `file` into *block; returns the first non-OK
/// status, or OK if the file parses end to end. Must never crash, whatever
/// the bytes. `records`, when non-null, receives the record count.
Status ReadInto(const std::string& file, column::PartitionBlock* block,
                size_t* records = nullptr) {
  Status s = serde::ReadBlockFile(file, "test.trs", block);
  if (s.ok() && records != nullptr) *records = RecordsOf(file).size();
  return s;
}

/// Decodes every record of `file` into one block of `schema` and returns
/// its rows.
std::vector<Row> ReadAll(const std::string& file, const Schema& schema,
                         size_t* records = nullptr) {
  column::PartitionBlock block(schema);
  Status s = ReadInto(file, &block, records);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return block.ToRows();
}

/// A type whose columns use the variant fallback and so hold any Field.
nrc::TypePtr BagOfInts() {
  return nrc::Type::Bag(nrc::Type::Tuple({{"x", nrc::Type::Int()}}));
}

// --- round trips ----------------------------------------------------------

TEST(SerdeRoundTripTest, ScalarExtremes) {
  Row r;
  r.fields = {
      Field::Null(),
      Field::Int(std::numeric_limits<int64_t>::min()),
      Field::Int(std::numeric_limits<int64_t>::max()),
      Field::Int(0),
      Field::Real(0.0),
      Field::Real(-0.0),
      Field::Real(std::numeric_limits<double>::infinity()),
      Field::Real(-std::numeric_limits<double>::infinity()),
      Field::Real(std::numeric_limits<double>::quiet_NaN()),
      Field::Real(std::numeric_limits<double>::denorm_min()),
      Field::Real(std::numeric_limits<double>::max()),
      Field::Str(""),
      Field::Str(std::string(100000, 'x')),
      Field::Str(std::string("\0\x01\xff binary \n", 12)),
      Field::Bool(true),
      Field::Bool(false),
  };
  // The same row twice: once in typed columns (the column encodings), once
  // in variant columns (the field encoding). Each record decodes into a
  // block of its own schema.
  std::vector<Column> typed_cols, variant_cols;
  for (size_t i = 0; i < r.fields.size(); ++i) {
    nrc::TypePtr t = i < 4    ? nrc::Type::Int()
                     : i < 11 ? nrc::Type::Real()
                     : i < 14 ? nrc::Type::String()
                              : nrc::Type::Bool();
    typed_cols.push_back({"c" + std::to_string(i), t});
    variant_cols.push_back({"c" + std::to_string(i), BagOfInts()});
  }
  Schema typed(typed_cols), variant(variant_cols);
  std::vector<Row> rows{r};

  const std::string file =
      FileOf({column::PartitionBlock::FromRows(typed, rows),
              column::PartitionBlock::FromRows(variant, rows)});
  const std::vector<std::string> records = RecordsOf(file);
  ASSERT_EQ(records.size(), 2u);  // exactly the two records
  column::PartitionBlock typed_back(typed), variant_back(variant);
  column::PartitionBlock* backs[] = {&typed_back, &variant_back};
  for (size_t i = 0; i < 2; ++i) {
    Status s = ReadInto(file.substr(0, 8) + records[i], backs[i]);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  ExpectRowsBitEq(rows, typed_back.ToRows());
  ExpectRowsBitEq(rows, variant_back.ToRows());
}

TEST(SerdeRoundTripTest, RecursiveLabelsAndBags) {
  auto inner = std::make_shared<RtLabel>();
  inner->params.emplace_back("k", Field::Int(7));
  auto outer = std::make_shared<RtLabel>();
  outer->params.emplace_back("nested", Field::Label(inner));
  outer->params.emplace_back("s", Field::Str("label-param"));

  std::vector<Row> bag_inner;
  bag_inner.push_back(Row{{Field::Int(1), Field::Str("a")}});
  bag_inner.push_back(Row{{Field::Int(2), Field::Null()}});
  std::vector<Row> bag_outer;
  bag_outer.push_back(Row{{Field::Bag(bag_inner), Field::Bool(true)}});

  std::vector<Row> rows;
  rows.push_back(Row{{Field::Label(outer), Field::Bag(bag_outer),
                      Field::Label(nullptr), Field::Bag(std::vector<Row>{})}});
  Schema schema({{"l", nrc::Type::Label()},
                 {"g", BagOfInts()},
                 {"nl", nrc::Type::Label()},
                 {"ng", BagOfInts()}});

  std::vector<Row> back =
      ReadAll(FileOf({column::PartitionBlock::FromRows(schema, rows)}), schema);
  ASSERT_EQ(back.size(), 1u);
  // A null LabelPtr comes back as an empty label; a null BagPtr as an empty
  // bag — value-equal under operator== either way.
  EXPECT_TRUE(rows[0].fields[0] == back[0].fields[0]);
  EXPECT_TRUE(rows[0].fields[1] == back[0].fields[1]);
  EXPECT_TRUE(back[0].fields[2].is_label());
  EXPECT_TRUE(back[0].fields[3].is_bag());
}

/// A random cell for a column of `type_code`: 0 int, 1 real, 2 string,
/// 3 bool (each NULL a quarter of the time), 4 mixed (any Field, labels and
/// bags included).
Field RandomCell(std::mt19937_64* rng, int type_code) {
  if (type_code == 4) return RandomField(rng, 2);
  if ((*rng)() % 4 == 0) return Field::Null();
  for (;;) {
    Field f = RandomField(rng, 0);
    if ((type_code == 0 && f.is_int()) || (type_code == 1 && f.is_real()) ||
        (type_code == 2 && f.is_string()) || (type_code == 3 && f.is_bool())) {
      return f;
    }
  }
}

TEST(SerdeRoundTripTest, RandomRowBatchesManySeeds) {
  const nrc::TypePtr kTypes[] = {nrc::Type::Int(), nrc::Type::Real(),
                                 nrc::Type::String(), nrc::Type::Bool(),
                                 BagOfInts()};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<int> codes(rng() % 6);
    std::vector<Column> cols;
    for (size_t c = 0; c < codes.size(); ++c) {
      codes[c] = static_cast<int>(rng() % 5);
      cols.push_back({"c" + std::to_string(c), kTypes[codes[c]]});
    }
    Schema schema(cols);
    std::vector<Row> rows;
    size_t n = 1 + rng() % 200;
    for (size_t i = 0; i < n; ++i) {
      Row r;
      for (int code : codes) r.fields.push_back(RandomCell(&rng, code));
      rows.push_back(std::move(r));
    }
    // Split into several records to exercise framing.
    size_t half = rows.size() / 2;
    std::vector<Row> first(rows.begin(), rows.begin() + half);
    std::vector<Row> second(rows.begin() + half, rows.end());
    const std::string file =
        FileOf({column::PartitionBlock::FromRows(schema, first),
                column::PartitionBlock::FromRows(schema, second)});

    column::PartitionBlock back(schema);
    Status s = ReadInto(file, &back);
    ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << s.ToString();
    // The decoder consumed every byte the writer produced: one byte more
    // after the last record is a truncated frame, not ignored.
    column::PartitionBlock scratch(schema);
    EXPECT_FALSE(ReadInto(file + '\0', &scratch).ok()) << "seed " << seed;
    ExpectRowsBitEq(rows, back.ToRows());
    EXPECT_EQ(back.ByteFootprint(),
              column::PartitionBlock::FromRows(schema, rows).ByteFootprint())
        << "seed " << seed;
  }
}

TEST(SerdeRoundTripTest, TypedBlockWithNullsAndVariants) {
  Schema schema({{"i", nrc::Type::Int()},
                 {"r", nrc::Type::Real()},
                 {"b", nrc::Type::Bool()},
                 {"s", nrc::Type::String()},
                 {"g", BagOfInts()}});
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    Row r;
    r.fields.push_back(i % 7 == 0 ? Field::Null() : Field::Int(i * 1000));
    r.fields.push_back(i % 5 == 0 ? Field::Null() : Field::Real(i * 0.25));
    r.fields.push_back(i % 3 == 0 ? Field::Null() : Field::Bool(i % 2 == 0));
    r.fields.push_back(i % 11 == 0 ? Field::Null()
                                   : Field::Str("row" + std::to_string(i)));
    std::vector<Row> bag;
    if (i % 4 != 0) bag.push_back(Row{{Field::Int(i)}});
    r.fields.push_back(Field::Bag(std::move(bag)));
    rows.push_back(std::move(r));
  }
  column::PartitionBlock block = column::PartitionBlock::FromRows(schema, rows);

  size_t records = 0;
  std::vector<Row> back = ReadAll(FileOf({block}), schema, &records);
  EXPECT_EQ(records, 1u);
  // The materialized rows must match what the in-memory block materializes.
  std::vector<Row> expected;
  block.AppendRowsTo(&expected);
  ExpectRowsBitEq(expected, back);
}

TEST(SerdeRoundTripTest, MixedRecordKindsInOneFile) {
  // Several block records in one file decode into one block in file order.
  Schema schema({{"k", nrc::Type::Int()}});

  const std::string file = FileOf(
      {column::PartitionBlock::FromRows(
           schema, {Row{{Field::Int(10)}}, Row{{Field::Int(20)}}}),
       column::PartitionBlock::FromRows(
           schema, {Row{{Field::Int(50)}}, Row{{Field::Int(60)}}})});

  size_t records = 0;
  std::vector<Row> back = ReadAll(file, schema, &records);
  EXPECT_EQ(records, 2u);
  ExpectRowsBitEq({Row{{Field::Int(10)}}, Row{{Field::Int(20)}},
                   Row{{Field::Int(50)}}, Row{{Field::Int(60)}}},
                  back);
}

// --- corruption / truncation ----------------------------------------------

Schema SampleSchema() {
  return Schema({{"i", nrc::Type::Int()},
                 {"s", nrc::Type::String()},
                 {"b", nrc::Type::Bool()},
                 {"r", nrc::Type::Real()},
                 {"g", BagOfInts()}});
}

Status TryReadAll(const std::string& file) {
  column::PartitionBlock block(SampleSchema());
  return ReadInto(file, &block);
}

std::string SampleFile() {
  std::vector<Row> rows;
  rows.push_back(Row{{Field::Int(42), Field::Str("hello"), Field::Bool(true),
                      Field::Real(3.25), Field::Null()}});
  rows.push_back(Row{{Field::Int(-1), Field::Str(""), Field::Bool(false),
                      Field::Real(-0.5),
                      Field::Bag({Row{{Field::Int(9)}}})}});
  return FileOf({column::PartitionBlock::FromRows(SampleSchema(), rows)});
}

/// A file holding one record of `kind` around `payload`, with a valid
/// header and checksum, so the decoder sees the payload's lies.
std::string RawRecordFile(uint8_t kind, const std::string& payload) {
  std::string bytes;
  uint32_t magic = serde::kMagic;
  uint16_t version = serde::kFormatVersion, flags = 0;
  uint64_t len = payload.size();
  uint64_t sum = serde::Xxh64(payload.data(), payload.size());
  bytes.append(reinterpret_cast<const char*>(&magic), 4);
  bytes.append(reinterpret_cast<const char*>(&version), 2);
  bytes.append(reinterpret_cast<const char*>(&flags), 2);
  bytes.push_back(static_cast<char>(kind));
  bytes.append(reinterpret_cast<const char*>(&len), 8);
  bytes.append(payload);
  bytes.append(reinterpret_cast<const char*>(&sum), 8);
  return bytes;
}

TEST(SerdeCorruptionTest, TruncationAtEveryByteIsCleanlyRejected) {
  std::string bytes = SampleFile();
  ASSERT_GT(bytes.size(), 8u);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Status s = TryReadAll(bytes.substr(0, cut));
    if (cut == 8) {
      // The one valid prefix: a bare header is a legal empty file.
      EXPECT_TRUE(s.ok()) << s.ToString();
      continue;
    }
    // Every other strict prefix is invalid: the record trailer is
    // load-bearing, so even a cut at a frame boundary loses the checksum.
    EXPECT_FALSE(s.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

TEST(SerdeCorruptionTest, SingleByteFlipsNeverCrashAndMostlyFail) {
  std::string bytes = SampleFile();
  size_t rejected = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    Status s = TryReadAll(corrupt);  // must not crash; usually must fail
    if (!s.ok()) ++rejected;
  }
  // The checksum covers the payload and the header is validated, so nearly
  // every flip is caught. (Flips inside the length field can produce a
  // shorter-but-self-consistent frame only by checksum collision.)
  EXPECT_GE(rejected, bytes.size() - 2) << "of " << bytes.size();
}

TEST(SerdeCorruptionTest, ChecksumTamperNamesTheMismatch) {
  std::string bytes = SampleFile();
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0xff);
  Status s = TryReadAll(bytes);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("checksum mismatch"), std::string::npos)
      << s.ToString();
}

TEST(SerdeCorruptionTest, BadMagicIsNotATranceFile) {
  Status s = TryReadAll("JUNKJUNKJUNKJUNK");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("bad magic"), std::string::npos) << s.ToString();
}

TEST(SerdeCorruptionTest, FutureVersionIsRejectedByName) {
  std::string bytes = SampleFile();
  // Bump the version halfword (offset 4) to kFormatVersion + 1.
  uint16_t future = serde::kFormatVersion + 1;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));
  Status s = TryReadAll(bytes);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("unsupported format version 4"),
            std::string::npos)
      << s.ToString();
}

TEST(SerdeCorruptionTest, PayloadParserRejectsStructuralLies) {
  auto read_raw = [](uint8_t kind, const std::string& payload) {
    return TryReadAll(RawRecordFile(kind, payload));
  };

  // Unknown record kinds, the retired row batch (kind 1) among them.
  for (uint8_t kind : {uint8_t{1}, uint8_t{99}}) {
    Status s = read_raw(kind, "");
    EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.ToString().find("unknown record kind"), std::string::npos)
        << s.ToString();
  }

  // Unknown field tag inside a variant column: the single cell's tag sits
  // after the 12-byte record head and the has_nulls and kind bytes.
  Schema bags({{"g", BagOfInts()}});
  std::string payload;
  serde::AppendBlockPayload(
      column::PartitionBlock::FromRows(bags, {Row{{Field::Int(1)}}}), 0, 1,
      &payload);
  std::string bad = payload;
  bad[14] = '\x7f';
  Status s = read_raw(serde::kRecordBlock, bad);
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("unknown field tag"), std::string::npos)
      << s.ToString();

  // Trailing garbage after a well-formed block.
  s = read_raw(serde::kRecordBlock, payload + std::string(3, '\0'));
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("trailing bytes"), std::string::npos)
      << s.ToString();

  // A bag length far past the payload must fail by truncation, not OOM.
  std::string huge_bag;
  huge_bag.push_back('\x06');  // bag tag
  uint64_t lie = uint64_t{1} << 60;
  huge_bag.append(reinterpret_cast<const char*>(&lie), sizeof(lie));
  size_t pos = 0;
  Field f;
  s = serde::ParseField(huge_bag.data(), huge_bag.size(), &pos, &f);
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();

  // Non-monotonic string offsets in a block column.
  Schema strings({{"s", nrc::Type::String()}});
  column::PartitionBlock block = column::PartitionBlock::FromRows(
      strings, {Row{{Field::Str("ab")}}, Row{{Field::Str("cd")}}});
  std::string bp;
  serde::AppendBlockPayload(block, 0, block.NumRows(), &bp);
  // Offsets are the last 16 bytes (two u64 ends); swap them.
  std::string swapped = bp;
  std::memcpy(swapped.data() + swapped.size() - 16,
              bp.data() + bp.size() - 8, 8);
  std::memcpy(swapped.data() + swapped.size() - 8,
              bp.data() + bp.size() - 16, 8);
  s = read_raw(serde::kRecordBlock, swapped);
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("string offsets"), std::string::npos)
      << s.ToString();
}

TEST(SerdeCorruptionTest, StructuralLiesLeaveTheBlockUnchanged) {
  // Checksum-valid records whose first columns are sound and whose later
  // bytes lie, or that do not fit the destination block. The decoder must
  // name the problem and append nothing, so a destination that already holds
  // rows keeps them, and its footprint.
  Schema schema({{"k", nrc::Type::Int()},
                 {"k2", nrc::Type::Int()},
                 {"s", nrc::Type::String()}});
  const std::vector<Row> resident{
      Row{{Field::Int(7), Field::Int(70), Field::Str("resident")}},
      Row{{Field::Null(), Field::Int(71), Field::Str("")}},
      Row{{Field::Int(9), Field::Null(), Field::Null()}}};
  std::string payload;
  serde::AppendBlockPayload(
      column::PartitionBlock::FromRows(
          schema, {Row{{Field::Int(1), Field::Int(10), Field::Str("ab")}},
                   Row{{Field::Int(2), Field::Int(20), Field::Str("cd")}}}),
      0, 2, &payload);
  // Layout: 12-byte head; k: flags 2 + 16 values; k2: flags 2 + 16 values;
  // s: flags 2 + arena length 8 + 4 bytes + 16 offsets.
  ASSERT_EQ(payload.size(), 12u + 18u + 18u + 30u);
  const size_t k2_values = 12 + 18 + 2;
  const size_t k2_kind = 12 + 18 + 1;
  const size_t last_offset = 12 + 18 + 18 + 2 + 8 + 4 + 8;

  std::string past_arena = payload;
  uint64_t far = 4 + 100;
  std::memcpy(past_arena.data() + last_offset, &far, sizeof(far));
  std::string unknown_kind = payload;
  unknown_kind[k2_kind] = 9;
  // Sound records that do not fit: one column short, and a string where the
  // destination's column 1 is int.
  std::string short_record;
  serde::AppendBlockPayload(
      column::PartitionBlock::FromRows(
          Schema({{"k", nrc::Type::Int()}, {"k2", nrc::Type::Int()}}),
          {Row{{Field::Int(1), Field::Int(10)}}}),
      0, 1, &short_record);
  std::string string_for_int;
  serde::AppendBlockPayload(
      column::PartitionBlock::FromRows(
          Schema({{"k", nrc::Type::Int()},
                  {"s", nrc::Type::String()},
                  {"k2", nrc::Type::Int()}}),
          {Row{{Field::Int(1), Field::Str("ab"), Field::Int(10)}}}),
      0, 1, &string_for_int);

  const std::pair<std::string, std::string> lies[] = {
      {past_arena, "string offsets"},
      {payload.substr(0, k2_values + 8), "int column"},
      {unknown_kind, "unknown column kind"},
      {payload + "xyz", "trailing bytes"},
      {short_record,
       "record has 2 columns where the destination block has 3 (column 2 is "
       "missing from the record)"},
      {string_for_int,
       "record column 1 is string where the destination column is int64"},
  };
  for (const auto& [lie, problem] : lies) {
    SCOPED_TRACE(problem);
    column::PartitionBlock block =
        column::PartitionBlock::FromRows(schema, resident);
    const uint64_t footprint = block.ByteFootprint();
    Status s = ReadInto(RawRecordFile(serde::kRecordBlock, lie), &block);
    ASSERT_FALSE(s.ok());
    EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.ToString().find(problem), std::string::npos) << s.ToString();
    EXPECT_EQ(block.NumRows(), resident.size());
    EXPECT_EQ(block.ByteFootprint(), footprint);
    ExpectRowsBitEq(resident, block.ToRows());
  }
}

TEST(SerdeCorruptionTest, ImplausibleRecordLengthIsRejected) {
  std::string bytes;
  // Valid header...
  uint32_t magic = serde::kMagic;
  uint16_t version = serde::kFormatVersion, flags = 0;
  bytes.append(reinterpret_cast<const char*>(&magic), 4);
  bytes.append(reinterpret_cast<const char*>(&version), 2);
  bytes.append(reinterpret_cast<const char*>(&flags), 2);
  // ...then a frame claiming an absurd payload length.
  bytes.push_back(static_cast<char>(serde::kRecordBlock));
  uint64_t lie = uint64_t{1} << 50;
  bytes.append(reinterpret_cast<const char*>(&lie), 8);
  Status s = TryReadAll(bytes);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("implausible record length"), std::string::npos)
      << s.ToString();
}

TEST(SerdeFormatTest, HeaderBytesMatchTheSpec) {
  // docs/STORAGE.md promises the first 8 on-disk bytes: "TRNB", version 3
  // little-endian, flags 0.
  std::string bytes = SampleFile();
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 4), "TRNB");
  EXPECT_EQ(static_cast<uint8_t>(bytes[4]), 3);
  EXPECT_EQ(static_cast<uint8_t>(bytes[5]), 0);
  EXPECT_EQ(static_cast<uint8_t>(bytes[6]), 0);
  EXPECT_EQ(static_cast<uint8_t>(bytes[7]), 0);
}

TEST(SerdeFormatTest, WorkedExampleMatchesTheSpec) {
  // docs/STORAGE.md "Worked example", line for line: one block record of a
  // single string column holding "ab" and NULL.
  const char* const kSpec[] = {
      "54 52 4e 42 03 00 00 00",  // header: "TRNB", v3, flags 0
      "02",                       // record kind 2 (block)
      "30 00 00 00 00 00 00 00",  // payload_len = 48
      "01 00 00 00",              // num_cols = 1
      "02 00 00 00 00 00 00 00",  // num_rows = 2
      "01",                       // has_nulls = 1
      "02 00 00 00 00 00 00 00",  // null bitmap: row 1 is NULL
      "03",                       // col_kind 3 (string)
      "02 00 00 00 00 00 00 00",  // arena_len = 2
      "61 62",                    // arena: "ab"
      "02 00 00 00 00 00 00 00",  // end[0] = 2
      "02 00 00 00 00 00 00 00",  // end[1] = 2 (NULL: empty)
      "31 32 14 72 d1 31 4b c9",  // XXH64 of the payload
  };
  std::string expected;
  for (const char* line : kSpec) {
    for (const char* p = line; *p != '\0'; p += p[2] == ' ' ? 3 : 2) {
      expected.push_back(
          static_cast<char>(std::stoi(std::string(p, 2), nullptr, 16)));
    }
  }
  ASSERT_EQ(expected.size(), 73u);

  Schema schema({{"s", nrc::Type::String()}});
  const std::string bytes = FileOf({column::PartitionBlock::FromRows(
      schema, {Row{{Field::Str("ab")}}, Row{{Field::Null()}}})});
  ASSERT_EQ(bytes.size(), expected.size());
  for (size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(static_cast<uint8_t>(bytes[i]), static_cast<uint8_t>(expected[i]))
        << "byte " << i;
  }
}

TEST(SerdeFormatTest, Xxh64MatchesReferenceVectors) {
  // Public XXH64 vectors (seed 0). Between them they cover the empty input,
  // the 32-byte stripe loop (43 bytes), and the 8-byte (14 and 43 bytes),
  // 4-byte (14 bytes) and 1-byte (1, 3, 14 and 43 bytes) tail steps.
  auto h = [](const std::string& s) {
    return serde::Xxh64(s.data(), s.size());
  };
  EXPECT_EQ(h(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(h("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(h("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(h("message digest"), 0x066ed728fceeb3beull);
  EXPECT_EQ(h("The quick brown fox jumps over the lazy dog"),
            0x0b242d361fda71bcull);
}

TEST(SerdeFormatTest, RangePayloadMatchesBlockOfTheRange) {
  // AppendBlockPayload(block, b, e) must equal, byte for byte, the payload
  // of a block built from rows [b, e) alone: null bitmaps shifted to the
  // range (and absent when the range holds no NULL), string offsets rebased.
  Schema schema({{"i", nrc::Type::Int()},
                 {"r", nrc::Type::Real()},
                 {"b", nrc::Type::Bool()},
                 {"s", nrc::Type::String()},
                 {"g", BagOfInts()}});
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    Row r;
    r.fields.push_back(i % 7 == 3 ? Field::Null() : Field::Int(i * 11));
    r.fields.push_back(i < 40 && i % 9 == 0 ? Field::Null()
                                             : Field::Real(i * 0.5));
    r.fields.push_back(i % 13 == 1 ? Field::Null() : Field::Bool(i % 2 == 0));
    const char letter = static_cast<char>('a' + i % 26);
    r.fields.push_back(i % 5 == 2 ? Field::Null()
                                  : Field::Str(std::string(i % 4, letter)));
    r.fields.push_back(i % 6 == 0 ? Field::Null()
                                  : Field::Bag({Row{{Field::Int(i)}}}));
    rows.push_back(std::move(r));
  }
  column::PartitionBlock block = column::PartitionBlock::FromRows(schema, rows);
  const std::pair<size_t, size_t> ranges[] = {
      {0, 300}, {5, 70}, {63, 129}, {64, 128}, {70, 200},
      {100, 101}, {77, 77}, {131, 300}, {1, 299}};
  for (const auto& [b, e] : ranges) {
    SCOPED_TRACE("rows [" + std::to_string(b) + ", " + std::to_string(e) + ")");
    std::string range;
    serde::AppendBlockPayload(block, b, e, &range);
    std::vector<Row> slice(rows.begin() + b, rows.begin() + e);
    std::string expected;
    serde::AppendBlockPayload(column::PartitionBlock::FromRows(schema, slice),
                              0, slice.size(), &expected);
    EXPECT_EQ(range.size(), expected.size());
    EXPECT_TRUE(range == expected);
  }
}

}  // namespace
}  // namespace runtime
}  // namespace trance
