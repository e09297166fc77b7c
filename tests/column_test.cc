// Columnar partition-block tests (ctest label `columnar`).
//
// Part 1 — randomized round-trip property: rows drawn over every Field kind
// (ints, reals including -0.0, bools, strings of odd lengths, NULLs, and
// nested bags mixed with stray strings in the variant column) survive
// FromRows -> RowAt / ToRows byte-identically, every column keeps the kind
// its declared type gives it, and the block's accounting mirrors the row
// path exactly: CellHash == Field::Hash, CellBytes == Field::DeepSize,
// RowBytesAt == RowDeepSize, HashRowOn == RowHashOn, and the running
// TotalRowBytes equals the RowDeepSize sum on every fill path. The bulk
// copies (AppendRange, AppendGather with kNullRow) build the columns
// per-cell appends build, down to cell_bytes and the footprint; the
// footprint is the bytes the arrays hold on every fill path, a serde round
// trip included; and blocks the keyed operators assemble column-wise (join
// pairs, NULL padding, AppendColumns group emission) equal the blocks
// AppendRow builds.
// Rows that break the schema never reach a block:
// runtime::Source rejects them with a Status naming the source, the row and
// the column.
//
// Part 2 — the satellite APIs: the column-wise KeyEncoder
// Begin/Append/Finish and EncodeAt (the full-row key and repeated and
// permuted key lists included) produce byte- and hash-identical keys to the
// row encoder;
// Schema::FromBagType rejects null and non-bag types with its documented
// TypeError and Schema::Require names the missing column and the schema;
// Partitioning::IsHashOn handles permutations and duplicate column lists on
// both the small (alloc-free) and large (sorted) paths; Dataset::Collect is
// thread-count invariant, and a Dataset's blocks serve the same rows and byte
// accounting as the row vectors they hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/column.h"
#include "runtime/dataset.h"
#include "runtime/field.h"
#include "runtime/key_codec.h"
#include "runtime/ops.h"
#include "runtime/schema.h"
#include "runtime/serde.h"
#include "util/random.h"

namespace trance {
namespace {

using runtime::Dataset;
using runtime::Field;
using runtime::Partitioning;
using runtime::Row;
using runtime::Schema;
using runtime::column::AnyColumn;
using runtime::column::PartitionBlock;
namespace key_codec = runtime::key_codec;

Schema MixedSchema() {
  return Schema({{"i", nrc::Type::Int()},
                 {"r", nrc::Type::Real()},
                 {"b", nrc::Type::Bool()},
                 {"s", nrc::Type::String()},
                 {"g", nrc::Type::Bag(nrc::Type::Tuple(
                           {{"x", nrc::Type::Int()}}))}});
}

/// A random field for column `col` of MixedSchema: a value of the column's
/// declared type, or NULL with probability `null_rate`, including the hash
/// edge cases (-0.0, empty strings). The variant bag column also draws stray
/// strings, so variant accounting sees mixed Field kinds.
Field RandomField(Rng* rng, size_t col, double null_rate = 0.15) {
  if (rng->NextBool(null_rate)) return Field::Null();
  switch (col) {
    case 0:
      return Field::Int(static_cast<int64_t>(rng->NextU64()));
    case 1:
      if (rng->NextBool(0.1)) return Field::Real(-0.0);
      return Field::Real(rng->UniformReal(-1e6, 1e6));
    case 2:
      return Field::Bool(rng->NextBool());
    case 3:
      return Field::Str(rng->NextString(rng->Uniform(23)));
    default: {
      if (rng->NextBool(0.1)) {
        return Field::Str("stray-" + std::to_string(rng->Uniform(5)));
      }
      std::vector<Row> bag;
      for (uint64_t i = 0, n = rng->Uniform(3); i < n; ++i) {
        bag.push_back(Row({Field::Int(rng->UniformRange(0, 9))}));
      }
      return Field::Bag(std::move(bag));
    }
  }
}

std::vector<Row> RandomRows(Rng* rng, size_t n, size_t width,
                            double null_rate = 0.15) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Field> fields;
    for (size_t c = 0; c < width; ++c) {
      fields.push_back(RandomField(rng, c, null_rate));
    }
    rows.push_back(Row(std::move(fields)));
  }
  return rows;
}

/// The block's running byte total equals the RowDeepSize sum of `rows` (the
/// rows it holds) and its own RowBytesAt sum.
void ExpectByteTotals(const PartitionBlock& block,
                      const std::vector<Row>& rows) {
  uint64_t deep = 0, at = 0;
  for (const Row& r : rows) deep += runtime::RowDeepSize(r);
  for (size_t i = 0; i < block.NumRows(); ++i) at += block.RowBytesAt(i);
  EXPECT_EQ(block.TotalRowBytes(), deep);
  EXPECT_EQ(block.TotalRowBytes(), at);
}

void ExpectRowsEqual(const std::vector<Row>& a, const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].fields.size(), b[i].fields.size()) << "row " << i;
    for (size_t f = 0; f < a[i].fields.size(); ++f) {
      EXPECT_EQ(a[i].fields[f], b[i].fields[f]) << "row " << i << " field "
                                                << f;
    }
  }
}

// --- Part 1: round-trip and accounting equivalence -----------------------

TEST(ColumnBlockTest, RandomizedRoundTripAndAccounting) {
  Schema schema = MixedSchema();
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<Row> rows = RandomRows(&rng, 500, schema.size());
    PartitionBlock block = PartitionBlock::FromRows(schema, rows);
    ASSERT_EQ(block.NumRows(), rows.size());
    // Each column keeps the kind its declared type gives it.
    for (size_t c = 0; c < schema.size(); ++c) {
      EXPECT_EQ(block.col(c).kind(),
                AnyColumn::KindForType(schema.col(c).type))
          << "col " << c;
    }

    ExpectRowsEqual(block.ToRows(), rows);
    const std::vector<int> all_cols{0, 1, 2, 3, 4};
    for (size_t i = 0; i < rows.size(); ++i) {
      Row back = block.RowAt(i);
      ASSERT_EQ(back.fields.size(), rows[i].fields.size()) << "row " << i;
      for (size_t c = 0; c < rows[i].fields.size(); ++c) {
        const Field& want = rows[i].fields[c];
        EXPECT_EQ(block.FieldAt(i, c), want) << "row " << i << " col " << c;
        EXPECT_EQ(block.IsNull(i, c), want.is_null());
        EXPECT_EQ(block.col(c).CellHash(i), want.Hash())
            << "row " << i << " col " << c;
        EXPECT_EQ(block.col(c).CellBytes(i), want.DeepSize())
            << "row " << i << " col " << c;
      }
      EXPECT_EQ(block.RowBytesAt(i), runtime::RowDeepSize(rows[i]));
      EXPECT_EQ(block.HashRowOn(i, all_cols),
                runtime::RowHashOn(rows[i], all_cols));
      EXPECT_EQ(block.HashRowOn(i, {3, 0}),
                runtime::RowHashOn(rows[i], {3, 0}));
    }
    ExpectByteTotals(block, rows);
  }
}

TEST(ColumnBlockTest, TypedColumnsUseFlatStorage) {
  Schema schema({{"k", nrc::Type::Int()}, {"v", nrc::Type::Real()}});
  PartitionBlock block(schema);
  for (int64_t i = 0; i < 100; ++i) {
    block.AppendRow(Row({Field::Int(i), Field::Real(i * 0.5)}));
  }
  ASSERT_EQ(block.col(0).kind(), AnyColumn::Kind::kInt64);
  ASSERT_EQ(block.col(1).kind(), AnyColumn::Kind::kReal);
  const int64_t* ks = block.col(0).ints();
  const double* vs = block.col(1).reals();
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ks[i], i);
    EXPECT_EQ(vs[i], i * 0.5);
  }
  EXPECT_GT(block.ByteFootprint(), 0u);
}

/// The schema the Source tests feed: typed int and real columns and a
/// variant bag column.
Schema SourceSchema() {
  return Schema({{"k", nrc::Type::Int()},
                 {"v", nrc::Type::Real()},
                 {"g", nrc::Type::Bag(nrc::Type::Tuple(
                           {{"x", nrc::Type::Int()}}))}});
}

Field EmptyBag() { return Field::Bag(std::vector<Row>{}); }

/// Feeds a good row then `bad` to both Source and SourcePartitioned (keyed on
/// columns 0 and 2) and expects each to reject it with a TypeError naming
/// the source, row 1 and `column`. The partitioned source checks each row
/// before hashing it, so even a row that lacks its key column is a TypeError
/// rather than an abort.
void ExpectSourcesReject(const Row& bad, const std::string& column) {
  runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 3});
  const Row good({Field::Int(1), Field::Real(0.5), EmptyBag()});
  auto plain =
      runtime::Source(&cluster, SourceSchema(), {good, bad}, "plain");
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.status().code(), StatusCode::kTypeError);
  const std::string msg = plain.status().ToString();
  EXPECT_NE(msg.find("source(plain): row 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find(column), std::string::npos) << msg;

  auto part = runtime::SourcePartitioned(&cluster, SourceSchema(),
                                         {good, bad}, {0, 2}, "part");
  ASSERT_FALSE(part.ok());
  EXPECT_EQ(part.status().code(), StatusCode::kTypeError);
  const std::string pmsg = part.status().ToString();
  EXPECT_NE(pmsg.find("source_partitioned(part): row 1"), std::string::npos)
      << pmsg;
  EXPECT_NE(pmsg.find(column), std::string::npos) << pmsg;
}

TEST(ColumnBlockTest, SourceRejectsRowsOfTheWrongWidth) {
  {
    SCOPED_TRACE("short row");
    ExpectSourcesReject(Row({Field::Int(1), Field::Real(0.5)}), "column 'g'");
  }
  {
    SCOPED_TRACE("long row");
    ExpectSourcesReject(
        Row({Field::Int(1), Field::Real(0.5), EmptyBag(), Field::Int(4)}),
        "column 'g'");
  }

  // A key column outside the schema is Invalid and named, before any row is
  // hashed on it.
  runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 3});
  const std::vector<Row> rows{
      Row({Field::Int(1), Field::Real(0.5), EmptyBag()})};
  auto bad_key =
      runtime::SourcePartitioned(&cluster, SourceSchema(), rows, {5}, "keys");
  ASSERT_FALSE(bad_key.ok());
  EXPECT_EQ(bad_key.status().code(), StatusCode::kInvalidArgument);
  const std::string kmsg = bad_key.status().ToString();
  EXPECT_NE(kmsg.find("source_partitioned(keys): key column 5"),
            std::string::npos)
      << kmsg;
}

TEST(ColumnBlockTest, SourceRejectsCellsOfTheWrongKind) {
  // NULL is valid in every column, and the variant column takes any Field.
  runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 3});
  const std::vector<Row> fine{
      Row({Field::Int(1), Field::Real(0.5), EmptyBag()}),
      Row({Field::Null(), Field::Null(), Field::Null()}),
      Row({Field::Int(2), Field::Real(1.5), Field::Str("s")}),
      Row({Field::Int(3), Field::Real(2.5), Field::Int(7)})};
  auto ok = runtime::Source(&cluster, SourceSchema(), fine, "fine");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->NumRows(), fine.size());
  auto ok_part = runtime::SourcePartitioned(&cluster, SourceSchema(), fine,
                                            {0, 2}, "fine");
  ASSERT_TRUE(ok_part.ok()) << ok_part.status().ToString();

  {
    SCOPED_TRACE("string in an int column");
    ExpectSourcesReject(Row({Field::Str("one"), Field::Real(0.5), EmptyBag()}),
                        "column 'k' declared int cannot hold \"one\"");
  }
  {
    SCOPED_TRACE("int in a real column");
    ExpectSourcesReject(Row({Field::Int(1), Field::Int(2), EmptyBag()}),
                        "column 'v' declared real cannot hold 2");
  }
}

TEST(ColumnBlockTest, BulkCopiesMatchAppendRow) {
  Schema schema = MixedSchema();
  Rng rng(77);
  std::vector<Row> rows = RandomRows(&rng, 200, schema.size());
  PartitionBlock src = PartitionBlock::FromRows(schema, rows);
  PartitionBlock via_range(schema);
  PartitionBlock via_gather(schema);
  PartitionBlock via_rows(schema);
  std::vector<uint32_t> all;
  for (size_t i = 0; i < rows.size(); ++i) {
    all.push_back(static_cast<uint32_t>(i));
    via_rows.AppendRow(rows[i]);
  }
  via_range.AppendRange(src, 0, rows.size());
  via_gather.AppendGather(src, all.data(), all.size());
  ExpectRowsEqual(via_range.ToRows(), rows);
  ExpectRowsEqual(via_gather.ToRows(), rows);
  ExpectRowsEqual(via_rows.ToRows(), rows);
  ExpectByteTotals(via_range, rows);
  ExpectByteTotals(via_gather, rows);
  ExpectByteTotals(via_rows, rows);
}

/// `built` (filled column-wise) and `by_row` (filled by AppendRow) hold the
/// same cells as `rows`, with the same byte totals and the same footprint;
/// real columns also match bit for bit, so -0.0 stays -0.0.
void ExpectSameBlock(const PartitionBlock& built, const PartitionBlock& by_row,
                     const std::vector<Row>& rows) {
  ExpectRowsEqual(built.ToRows(), rows);
  ExpectRowsEqual(by_row.ToRows(), rows);
  ExpectByteTotals(built, rows);
  ExpectByteTotals(by_row, rows);
  EXPECT_EQ(built.ByteFootprint(), by_row.ByteFootprint());
  ASSERT_EQ(built.NumCols(), by_row.NumCols());
  for (size_t c = 0; c < built.NumCols(); ++c) {
    if (built.col(c).kind() != AnyColumn::Kind::kReal) continue;
    EXPECT_EQ(std::memcmp(built.col(c).reals(), by_row.col(c).reals(),
                          rows.size() * sizeof(double)),
              0)
        << "col " << c;
  }
}

TEST(ColumnBlockTest, ColumnWiseAssemblyMatchesAppendRow) {
  // The keyed operators build their output column by column: a join lists
  // each pair's left and right row (kNullRow on the right for a left-outer
  // miss) and gathers every column, and the aggregate, nest and cogroup emit
  // every group through AppendColumns, gathering its key cells. Each must
  // build the block AppendRow builds from the same rows, down to the byte
  // totals the work charges read and the footprint columnar_bytes reads.
  Schema schema = MixedSchema();
  Rng rng(31);
  std::vector<Row> left_rows = RandomRows(&rng, 150, schema.size());
  std::vector<Row> right_rows = RandomRows(&rng, 90, schema.size());
  PartitionBlock left = PartitionBlock::FromRows(schema, left_rows);
  PartitionBlock right = PartitionBlock::FromRows(schema, right_rows);

  {
    SCOPED_TRACE("join pairs");
    Schema pair_schema = schema;
    for (const auto& c : schema.columns()) {
      pair_schema.Append({c.name + "__r", c.type});
    }
    PartitionBlock pairs(pair_schema);
    std::vector<Row> rows;
    std::vector<uint32_t> lrows, rrows;
    for (size_t i = 0; i < left_rows.size(); ++i) {
      if (rng.NextBool(0.2)) {  // a left-outer miss
        lrows.push_back(static_cast<uint32_t>(i));
        rrows.push_back(runtime::column::kNullRow);
        Row r = left_rows[i];
        r.fields.resize(pair_schema.size());  // Field() is NULL
        rows.push_back(std::move(r));
        continue;
      }
      for (uint64_t k = 0, n = rng.Uniform(4); k < n; ++k) {
        const size_t j = rng.Uniform(right_rows.size());
        lrows.push_back(static_cast<uint32_t>(i));
        rrows.push_back(static_cast<uint32_t>(j));
        Row r = left_rows[i];
        r.fields.insert(r.fields.end(), right_rows[j].fields.begin(),
                        right_rows[j].fields.end());
        rows.push_back(std::move(r));
      }
    }
    pairs.AppendColumns(lrows.size(), [&](size_t c, AnyColumn* col) {
      if (c < schema.size()) {
        col->AppendGather(left.col(c), lrows.data(), lrows.size());
      } else {
        col->AppendGather(right.col(c - schema.size()), rrows.data(),
                          rrows.size());
      }
    });
    ExpectSameBlock(pairs, PartitionBlock::FromRows(pair_schema, rows), rows);
  }

  {
    SCOPED_TRACE("group emission");
    // Key cells copied from each group's first row (repeats allowed), then
    // an int and a real sum column (typed appends or NULL) and a bag column.
    const std::vector<int> keys{3, 0, 4, 1};
    Schema out;
    for (int k : keys) out.Append(schema.col(static_cast<size_t>(k)));
    out.Append({"isum", nrc::Type::Int()});
    out.Append({"rsum", nrc::Type::Real()});
    out.Append({"bag", schema.col(4).type});
    std::vector<uint32_t> first;
    std::vector<Row> rows;
    for (int g = 0; g < 70; ++g) {
      const size_t i = rng.Uniform(left_rows.size());
      first.push_back(static_cast<uint32_t>(i));
      Row r;
      for (int k : keys) r.fields.push_back(left_rows[i].fields[k]);
      const bool seen = !rng.NextBool(0.2);
      r.fields.push_back(seen ? Field::Int(rng.UniformRange(-50, 50))
                              : Field::Null());
      r.fields.push_back(
          !seen ? Field::Null()
                : Field::Real(rng.NextBool(0.2) ? -0.0
                                                : rng.UniformReal(-9, 9)));
      r.fields.push_back(RandomField(&rng, 4));
      rows.push_back(std::move(r));
    }
    PartitionBlock groups(out);
    groups.AppendColumns(first.size(), [&](size_t c, AnyColumn* col) {
      if (c < keys.size()) {
        col->AppendGather(left.col(static_cast<size_t>(keys[c])), first.data(),
                          first.size());
        return;
      }
      for (size_t g = 0; g < first.size(); ++g) {
        const Field& want = rows[g].fields[c];
        if (c == keys.size() + 2 || want.is_null()) {
          col->Append(want);
        } else if (c == keys.size()) {
          col->AppendInt64(want.AsInt());
        } else {
          col->AppendReal(want.AsReal());
        }
      }
    });
    ExpectSameBlock(groups, PartitionBlock::FromRows(out, rows), rows);
  }
}

/// `bulk` and `per_cell` hold the same cells, and each column the same
/// cell_bytes and ByteFootprint, as do the blocks' TotalRowBytes and
/// ByteFootprint.
void ExpectSameColumns(const PartitionBlock& bulk,
                       const PartitionBlock& per_cell) {
  ASSERT_EQ(bulk.NumRows(), per_cell.NumRows());
  ASSERT_EQ(bulk.NumCols(), per_cell.NumCols());
  for (size_t c = 0; c < bulk.NumCols(); ++c) {
    SCOPED_TRACE("col " + std::to_string(c));
    const AnyColumn& a = bulk.col(c);
    const AnyColumn& b = per_cell.col(c);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.IsNull(i), b.IsNull(i)) << "row " << i;
      EXPECT_EQ(a.At(i), b.At(i)) << "row " << i;
    }
    if (a.kind() == AnyColumn::Kind::kReal && a.size() > 0) {
      EXPECT_EQ(std::memcmp(a.reals(), b.reals(), a.size() * sizeof(double)),
                0);
    }
    EXPECT_EQ(a.cell_bytes(), b.cell_bytes());
    EXPECT_EQ(a.ByteFootprint(), b.ByteFootprint());
  }
  EXPECT_EQ(bulk.TotalRowBytes(), per_cell.TotalRowBytes());
  EXPECT_EQ(bulk.ByteFootprint(), per_cell.ByteFootprint());
}

TEST(ColumnBlockTest, BulkCopiesMatchPerCellAppends) {
  // AppendRange and AppendGather (kNullRow included) build exactly the
  // columns that per-cell Append(src.At(i)) and AppendNull build. Sources
  // hold all five column kinds, with NULLs and without (the zero-word
  // bitmap path); destinations start from a random prefix and take several
  // copies in a row, so each copy appends to a partly filled column.
  Schema schema = MixedSchema();
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const double null_rate = seed % 2 == 0 ? 0.0 : 0.15;
    const size_t n = rng.Uniform(300);
    PartitionBlock src = PartitionBlock::FromRows(
        schema, RandomRows(&rng, n, schema.size(), null_rate));
    const std::vector<Row> prefix =
        RandomRows(&rng, rng.Uniform(130), schema.size(), null_rate);
    PartitionBlock bulk = PartitionBlock::FromRows(schema, prefix);
    PartitionBlock per_cell = PartitionBlock::FromRows(schema, prefix);
    for (uint64_t op = 0, ops = 1 + rng.Uniform(4); op < ops; ++op) {
      std::vector<uint32_t> rows;
      if (rng.NextBool()) {
        const size_t begin = rng.Uniform(n + 1);
        const size_t end = begin + rng.Uniform(n - begin + 1);
        for (size_t i = begin; i < end; ++i) {
          rows.push_back(static_cast<uint32_t>(i));
        }
        bulk.AppendRange(src, begin, end);
      } else {
        const double miss = rng.NextBool() ? 0.0 : 0.1;
        for (uint64_t k = 0, len = rng.Uniform(2 * n + 2); k < len; ++k) {
          rows.push_back(n == 0 || rng.NextBool(miss)
                             ? runtime::column::kNullRow
                             : static_cast<uint32_t>(rng.Uniform(n)));
        }
        bulk.AppendGather(src, rows.data(), rows.size());
      }
      per_cell.AppendColumns(rows.size(), [&](size_t c, AnyColumn* col) {
        for (uint32_t r : rows) {
          if (r == runtime::column::kNullRow) {
            col->AppendNull();
          } else {
            col->Append(src.col(c).At(r));
          }
        }
      });
    }
    ExpectSameColumns(bulk, per_cell);
  }
}

/// ByteFootprint of a column of `kind` holding `cells`, in closed form: 8
/// per int or real cell, 1 per bool, the arena plus 8 per string (a NULL
/// holds an empty one), 8 per null-bitmap word, and sizeof(Field) plus the
/// deep size per variant cell.
uint64_t BytesHeld(AnyColumn::Kind kind, const std::vector<Field>& cells) {
  uint64_t bytes = 8 * ((cells.size() + 63) / 64);
  for (const Field& f : cells) {
    switch (kind) {
      case AnyColumn::Kind::kInt64:
      case AnyColumn::Kind::kReal:
        bytes += 8;
        break;
      case AnyColumn::Kind::kBool:
        bytes += 1;
        break;
      case AnyColumn::Kind::kString:
        bytes += 8 + (f.is_null() ? 0 : f.AsString().size());
        break;
      case AnyColumn::Kind::kVariant:
        bytes += sizeof(Field) + f.DeepSize();
        break;
    }
  }
  return bytes;
}

/// `block` holds `rows`, and each column's ByteFootprint, and the block's,
/// is BytesHeld of its cells.
void ExpectBytesHeld(const PartitionBlock& block,
                     const std::vector<Row>& rows) {
  ExpectRowsEqual(block.ToRows(), rows);
  uint64_t total = 0;
  for (size_t c = 0; c < block.NumCols(); ++c) {
    const AnyColumn& col = block.col(c);
    std::vector<Field> cells;
    for (const Row& r : rows) cells.push_back(r.fields[c]);
    const uint64_t want = BytesHeld(col.kind(), cells);
    EXPECT_EQ(col.ByteFootprint(), want) << AnyColumn::KindName(col.kind());
    total += want;
  }
  EXPECT_EQ(block.ByteFootprint(), total);
}

TEST(ColumnBlockTest, FootprintIsTheBytesHeld) {
  // The footprint columnar_bytes reads counts the bytes the arrays hold,
  // never their capacity, so every fill path gives the closed form: per-cell
  // appends, range and gather copies (kNullRow included) in several calls
  // onto a filled prefix, and a serde round trip (whole sections without
  // NULLs, value by value with them). 300 rows is no power of two, so
  // capacity slack would show in every kind.
  Schema schema = MixedSchema();
  for (const double null_rate : {0.0, 0.15}) {
    SCOPED_TRACE(null_rate == 0.0 ? "without NULLs" : "with NULLs");
    Rng rng(null_rate == 0.0 ? 5 : 6);
    const std::vector<Row> rows =
        RandomRows(&rng, 300, schema.size(), null_rate);
    const PartitionBlock src = PartitionBlock::FromRows(schema, rows);
    {
      SCOPED_TRACE("per-cell appends");
      ExpectBytesHeld(src, rows);
    }
    {
      SCOPED_TRACE("AppendRange");
      PartitionBlock block = PartitionBlock::FromRows(
          schema, std::vector<Row>(rows.begin(), rows.begin() + 37));
      block.AppendRange(src, 37, 200);
      block.AppendRange(src, 200, rows.size());
      ExpectBytesHeld(block, rows);
    }
    {
      SCOPED_TRACE("AppendGather");
      std::vector<uint32_t> list;
      std::vector<Row> want;
      for (int k = 0; k < 450; ++k) {
        if (rng.NextBool(0.1)) {
          list.push_back(runtime::column::kNullRow);
          want.push_back(Row(std::vector<Field>(schema.size())));
          continue;
        }
        list.push_back(static_cast<uint32_t>(rng.Uniform(rows.size())));
        want.push_back(rows[list.back()]);
      }
      PartitionBlock block(schema);
      block.AppendGather(src, list.data(), 100);
      block.AppendGather(src, list.data() + 100, list.size() - 100);
      ExpectBytesHeld(block, want);
    }
    {
      SCOPED_TRACE("serde round trip");
      std::string file;
      runtime::serde::AppendFileHeader(&file);
      runtime::serde::AppendBlockRecord(src, 0, 150, &file);
      runtime::serde::AppendBlockRecord(src, 150, rows.size(), &file);
      PartitionBlock back(schema);
      const Status s = runtime::serde::ReadBlockFile(file, "test.trs", &back);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ExpectBytesHeld(back, rows);
    }
  }
}

TEST(ColumnBlockTest, NullBitmapTracksNulls) {
  Schema schema({{"s", nrc::Type::String()}});
  PartitionBlock block(schema);
  block.AppendRow(Row({Field::Str("x")}));
  block.AppendRow(Row({Field::Null()}));
  block.AppendRow(Row({Field::Str("")}));
  EXPECT_FALSE(block.IsNull(0, 0));
  EXPECT_TRUE(block.IsNull(1, 0));
  EXPECT_FALSE(block.IsNull(2, 0));
  EXPECT_EQ(block.FieldAt(1, 0), Field::Null());
  EXPECT_EQ(block.col(0).CellHash(1), Field::Null().Hash());
  EXPECT_EQ(block.col(0).CellBytes(1), Field::Null().DeepSize());
}

// --- Part 2: satellite APIs ----------------------------------------------

TEST(KeyEncoderColumnTest, IncrementalMatchesEncode) {
  Schema schema = MixedSchema();
  Rng rng(99);
  // Keys over every column, the bag column included.
  const std::vector<int> cols{0, 1, 2, 3, 4};
  std::vector<Row> rows = RandomRows(&rng, 300, schema.size());
  PartitionBlock block = PartitionBlock::FromRows(schema, rows);
  key_codec::KeyEncoder whole;
  key_codec::KeyEncoder incremental;
  key_codec::KeyEncoder from_block;
  for (size_t i = 0; i < rows.size(); ++i) {
    key_codec::EncodedKey expected =
        key_codec::Materialize(whole.Encode(rows[i], cols));
    incremental.Begin();
    for (int c : cols) incremental.Append(rows[i].fields[c]);
    key_codec::EncodedKeyRef got = incremental.Finish();
    EXPECT_EQ(got.hash, expected.hash);
    EXPECT_EQ(std::string(got.bytes), expected.bytes);
    key_codec::EncodedKeyRef at = from_block.EncodeAt(block, i, cols);
    EXPECT_EQ(at.hash, expected.hash);
    EXPECT_EQ(std::string(at.bytes), expected.bytes);
  }
  // Byte accounting matches too: all encoders saw the same keys.
  EXPECT_EQ(incremental.bytes_encoded(), whole.bytes_encoded());
  EXPECT_EQ(from_block.bytes_encoded(), whole.bytes_encoded());

  // EncodeAt matches the row encoder on the full-row key (Distinct's, every
  // column in order) and on a repeated, permuted key list.
  ASSERT_EQ(cols.size(), schema.size());
  const std::vector<int> permuted{3, 0, 3, 1};
  key_codec::KeyEncoder row_whole, row_block, perm_whole, perm_block;
  for (size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    key_codec::EncodedKey want_row =
        key_codec::Materialize(row_whole.EncodeRow(rows[i]));
    key_codec::EncodedKeyRef got_row = row_block.EncodeAt(block, i, cols);
    EXPECT_EQ(got_row.hash, want_row.hash);
    EXPECT_EQ(std::string(got_row.bytes), want_row.bytes);
    key_codec::EncodedKey want_perm =
        key_codec::Materialize(perm_whole.Encode(rows[i], permuted));
    key_codec::EncodedKeyRef got_perm = perm_block.EncodeAt(block, i, permuted);
    EXPECT_EQ(got_perm.hash, want_perm.hash);
    EXPECT_EQ(std::string(got_perm.bytes), want_perm.bytes);
  }
  EXPECT_EQ(row_block.bytes_encoded(), row_whole.bytes_encoded());
  EXPECT_EQ(perm_block.bytes_encoded(), perm_whole.bytes_encoded());
}

TEST(SchemaTest, FromBagTypeRejectsNullAndNonBag) {
  auto null_result = Schema::FromBagType(nullptr);
  ASSERT_FALSE(null_result.ok());
  EXPECT_NE(null_result.status().ToString().find(
                "Schema::FromBagType: not a bag type"),
            std::string::npos)
      << null_result.status().ToString();

  auto scalar_result = Schema::FromBagType(nrc::Type::Int());
  ASSERT_FALSE(scalar_result.ok());
  EXPECT_NE(scalar_result.status().ToString().find(
                "Schema::FromBagType: not a bag type"),
            std::string::npos)
      << scalar_result.status().ToString();

  auto tuple_result =
      Schema::FromBagType(nrc::Type::Tuple({{"a", nrc::Type::Int()}}));
  ASSERT_FALSE(tuple_result.ok());

  // Bag of scalars is accepted as the single anonymous "_value" column.
  auto bag_of_scalars = Schema::FromBagType(nrc::Type::Bag(nrc::Type::Int()));
  ASSERT_TRUE(bag_of_scalars.ok());
  ASSERT_EQ(bag_of_scalars->size(), 1u);
  EXPECT_EQ(bag_of_scalars->col(0).name, "_value");
}

TEST(SchemaTest, RequireNamesColumnAndSchemaInError) {
  Schema s({{"a", nrc::Type::Int()}, {"b", nrc::Type::String()}});
  ASSERT_TRUE(s.Require("a").ok());
  EXPECT_EQ(s.Require("b").ValueOrDie(), 1);
  auto missing = s.Require("zzz");
  ASSERT_FALSE(missing.ok());
  std::string msg = missing.status().ToString();
  EXPECT_NE(msg.find("schema has no column 'zzz'"), std::string::npos) << msg;
  // The error names the schema so the caller can see what was available.
  EXPECT_NE(msg.find("a: "), std::string::npos) << msg;
  EXPECT_NE(msg.find("b: "), std::string::npos) << msg;
}

TEST(PartitioningTest, IsHashOnHandlesPermutationsAndDuplicates) {
  Partitioning h = Partitioning::Hash({1, 3});
  EXPECT_TRUE(h.IsHashOn({1, 3}));
  EXPECT_TRUE(h.IsHashOn({3, 1}));
  EXPECT_FALSE(h.IsHashOn({1, 2}));
  EXPECT_FALSE(h.IsHashOn({1}));
  EXPECT_FALSE(h.IsHashOn({1, 3, 3}));
  EXPECT_FALSE(Partitioning::None().IsHashOn({1, 3}));

  // Duplicate-bearing lists: {1,1,2} is not a permutation of {1,2,2}.
  Partitioning dup = Partitioning::Hash({1, 1, 2});
  EXPECT_TRUE(dup.IsHashOn({1, 2, 1}));
  EXPECT_TRUE(dup.IsHashOn({2, 1, 1}));
  EXPECT_FALSE(dup.IsHashOn({1, 2, 2}));

  // > 4 columns exercises the sorted fallback path.
  Partitioning wide = Partitioning::Hash({5, 4, 3, 2, 1});
  EXPECT_TRUE(wide.IsHashOn({1, 2, 3, 4, 5}));
  EXPECT_TRUE(wide.IsHashOn({5, 4, 3, 2, 1}));
  EXPECT_FALSE(wide.IsHashOn({1, 2, 3, 4, 6}));
  Partitioning wide_dup = Partitioning::Hash({1, 1, 2, 3, 4});
  EXPECT_TRUE(wide_dup.IsHashOn({4, 3, 2, 1, 1}));
  EXPECT_FALSE(wide_dup.IsHashOn({4, 3, 2, 2, 1}));
}

Dataset MakeDataset(Rng* rng, size_t nparts, size_t rows_per) {
  const Schema schema = MixedSchema();
  std::vector<PartitionBlock> blocks = runtime::EmptyBlocks(schema, nparts);
  for (size_t p = 0; p < nparts; ++p) {
    for (const Row& r : RandomRows(rng, rows_per, schema.size())) {
      blocks[p].AppendRow(r);
    }
  }
  return Dataset::FromBlocks(schema, std::move(blocks));
}

TEST(DatasetTest, CollectIsThreadCountInvariant) {
  Rng rng(5);
  Dataset d = MakeDataset(&rng, 7, 100);
  std::vector<Row> serial = d.Collect();
  ASSERT_EQ(serial.size(), d.NumRows());
  // Partition order: partition p's rows precede partition p+1's.
  size_t at = 0;
  for (size_t p = 0; p < d.NumPartitions(); ++p) {
    for (const Row& r : d.PartitionRows(p)) {
      ASSERT_EQ(serial[at].fields.size(), r.fields.size());
      for (size_t f = 0; f < r.fields.size(); ++f) {
        EXPECT_EQ(serial[at].fields[f], r.fields[f]);
      }
      ++at;
    }
  }
}

TEST(PartitionStoreTest, RowsBlocksRoundTrip) {
  // The storage under Dataset: a row sequence appended to a partition's
  // block serves identical reads through every accessor — RowCount, RowAt,
  // PartitionRows, Collect — including empty partitions, NULLs in every
  // column and mixed Field kinds in the variant column.
  Rng rng(11);
  Schema schema = MixedSchema();
  const size_t nparts = 5;
  std::vector<PartitionBlock> blocks = runtime::EmptyBlocks(schema, nparts);
  std::vector<std::vector<Row>> rows(nparts);
  for (size_t p = 0; p < nparts; ++p) {
    // Partition 2 stays empty on purpose.
    if (p != 2) rows[p] = RandomRows(&rng, 60 + 10 * p, schema.size());
    for (const Row& r : rows[p]) blocks[p].AppendRow(r);
  }
  Dataset d = Dataset::FromBlocks(schema, std::move(blocks));
  std::vector<Row> all;
  for (size_t p = 0; p < nparts; ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    ASSERT_EQ(d.PartitionRowCount(p), rows[p].size());
    ExpectRowsEqual(d.PartitionRows(p), rows[p]);
    for (size_t i = 0; i < rows[p].size(); ++i) {
      ExpectRowsEqual({d.RowAt(p, i)}, {rows[p][i]});
    }
    all.insert(all.end(), rows[p].begin(), rows[p].end());
  }
  EXPECT_EQ(d.NumRows(), all.size());
  ExpectRowsEqual(d.Collect(), all);
  // Replacing a partition's block with an empty schema-typed one resets it:
  // its byte total starts again from zero.
  for (size_t p = 0; p < nparts; ++p) {
    d.parts[p] = runtime::Publish(PartitionBlock(schema));
    EXPECT_EQ(d.PartitionRowCount(p), 0u);
    EXPECT_EQ(d.parts[p]->NumCols(), schema.size());
    EXPECT_EQ(d.parts[p]->TotalRowBytes(), 0u);
  }
  EXPECT_EQ(d.DeepSizeBytes(), 0u);
}

TEST(PartitionStoreTest, ByteAccountingParityBlockVsRow) {
  // Dataset::PartitionBytes / DeepSizeBytes report, from the blocks' running
  // totals, exactly the RowDeepSize sum of the rows they hold (RowBytesAt
  // mirrors RowDeepSize cell by cell). Randomized over the full Field-kind
  // mix, NULLs and the variant column included.
  Rng rng(12);
  Schema schema = MixedSchema();
  const size_t nparts = 6;
  std::vector<PartitionBlock> blocks = runtime::EmptyBlocks(schema, nparts);
  std::vector<uint64_t> row_bytes(nparts, 0);
  uint64_t total = 0;
  for (size_t p = 0; p < nparts; ++p) {
    const std::vector<Row> rows =
        RandomRows(&rng, 40 + 17 * p, schema.size());
    for (const Row& r : rows) {
      blocks[p].AppendRow(r);
      row_bytes[p] += runtime::RowDeepSize(r);
    }
    ExpectByteTotals(blocks[p], rows);
    total += row_bytes[p];
  }
  Dataset d = Dataset::FromBlocks(schema, std::move(blocks));
  EXPECT_EQ(d.PartitionBytes(), row_bytes);
  EXPECT_EQ(d.DeepSizeBytes(), total);
}

TEST(DatasetTest, ToBlocksFromBlocksRoundTrips) {
  // Rows taken out of a Dataset's blocks and packed into fresh blocks
  // reproduce every partition exactly.
  Rng rng(6);
  Dataset d = MakeDataset(&rng, 5, 80);
  Dataset back = Dataset::Empty(d.schema, d.NumPartitions());
  for (size_t p = 0; p < d.NumPartitions(); ++p) {
    back.parts[p] = runtime::Publish(
        PartitionBlock::FromRows(d.schema, d.PartitionRows(p)));
  }
  ExpectRowsEqual(back.Collect(), d.Collect());
  EXPECT_EQ(back.PartitionBytes(), d.PartitionBytes());
}

}  // namespace
}  // namespace trance
