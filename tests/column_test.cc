// Columnar partition-block tests (ctest label `columnar`).
//
// Part 1 — randomized round-trip property: rows drawn over every Field kind
// (ints, reals including -0.0, bools, strings of odd lengths, NULLs, and
// nested bags mixed with stray strings in the variant column) survive
// FromRows -> RowAt / ToRows byte-identically, every column keeps the kind
// its declared type gives it, and the block's accounting mirrors the row
// path exactly: CellHash == Field::Hash, CellBytes == Field::DeepSize,
// RowBytesAt == RowDeepSize, HashRowOn == RowHashOn. Rows that break the
// schema never reach a block: runtime::Source rejects them with a Status
// naming the source, the row and the column.
//
// Part 2 — the satellite APIs: the column-wise KeyEncoder
// Begin/Append/Finish and EncodeAt produce byte- and hash-identical keys to
// Encode(row, cols); Schema::FromBagType rejects null and non-bag types
// with its documented TypeError and Schema::Require names the missing
// column and the schema; Partitioning::IsHashOn handles permutations and
// duplicate column lists on both the small (alloc-free) and large (sorted)
// paths; Dataset::Collect is thread-count invariant, and a Dataset's blocks
// serve the same rows and byte accounting as the row vectors they hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/column.h"
#include "runtime/dataset.h"
#include "runtime/field.h"
#include "runtime/key_codec.h"
#include "runtime/ops.h"
#include "runtime/schema.h"
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
/// declared type or NULL, including the hash edge cases (-0.0, empty
/// strings). The variant bag column also draws stray strings, so variant
/// accounting sees mixed Field kinds.
Field RandomField(Rng* rng, size_t col) {
  if (rng->NextBool(0.15)) return Field::Null();
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

std::vector<Row> RandomRows(Rng* rng, size_t n, size_t width) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Field> fields;
    for (size_t c = 0; c < width; ++c) fields.push_back(RandomField(rng, c));
    rows.push_back(Row(std::move(fields)));
  }
  return rows;
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

TEST(ColumnBlockTest, AppendRowFromMatchesAppendRow) {
  Schema schema = MixedSchema();
  Rng rng(77);
  std::vector<Row> rows = RandomRows(&rng, 200, schema.size());
  PartitionBlock src = PartitionBlock::FromRows(schema, rows);
  PartitionBlock via_copy(schema);
  PartitionBlock via_rows(schema);
  for (size_t i = 0; i < rows.size(); ++i) {
    via_copy.AppendRowFrom(src, i);
    via_rows.AppendRow(rows[i]);
  }
  ExpectRowsEqual(via_copy.ToRows(), rows);
  ExpectRowsEqual(via_rows.ToRows(), rows);
  EXPECT_EQ(via_copy.TotalRowBytes(), via_rows.TotalRowBytes());
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
  Dataset d = Dataset::Empty(MixedSchema(), nparts);
  for (size_t p = 0; p < nparts; ++p) {
    for (const Row& r : RandomRows(rng, rows_per, d.schema.size())) {
      d.parts[p].AppendRow(r);
    }
  }
  return d;
}

TEST(DatasetTest, CollectIsThreadCountInvariant) {
  Rng rng(5);
  Dataset d = MakeDataset(&rng, 7, 100);
  std::vector<Row> serial = d.Collect();
  std::vector<Row> parallel4 = d.Collect(4);
  std::vector<Row> parallel8 = d.Collect(8);
  ASSERT_EQ(serial.size(), d.NumRows());
  ExpectRowsEqual(serial, parallel4);
  ExpectRowsEqual(serial, parallel8);
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
  Dataset d = Dataset::Empty(schema, nparts);
  std::vector<std::vector<Row>> rows(nparts);
  for (size_t p = 0; p < nparts; ++p) {
    // Partition 2 stays empty on purpose.
    if (p != 2) rows[p] = RandomRows(&rng, 60 + 10 * p, schema.size());
    for (const Row& r : rows[p]) d.parts[p].AppendRow(r);
  }
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
  // Clearing a partition resets it to an empty schema-typed block.
  for (size_t p = 0; p < nparts; ++p) {
    d.ClearPartition(p);
    EXPECT_EQ(d.PartitionRowCount(p), 0u);
    EXPECT_EQ(d.parts[p].NumCols(), schema.size());
  }
}

TEST(PartitionStoreTest, ByteAccountingParityBlockVsRow) {
  // Dataset::PartitionBytes / DeepSizeBytes report, from the blocks' own
  // accounting, exactly the RowDeepSize sum of the rows they hold (RowBytesAt
  // mirrors RowDeepSize cell by cell), at any thread count. Randomized over
  // the full Field-kind mix, NULLs and the variant column included.
  Rng rng(12);
  Schema schema = MixedSchema();
  const size_t nparts = 6;
  Dataset d = Dataset::Empty(schema, nparts);
  std::vector<uint64_t> row_bytes(nparts, 0);
  uint64_t total = 0;
  for (size_t p = 0; p < nparts; ++p) {
    for (const Row& r : RandomRows(&rng, 40 + 17 * p, schema.size())) {
      d.parts[p].AppendRow(r);
      row_bytes[p] += runtime::RowDeepSize(r);
    }
    total += row_bytes[p];
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(d.PartitionBytes(threads), row_bytes);
    EXPECT_EQ(d.DeepSizeBytes(threads), total);
  }
}

TEST(DatasetTest, ToBlocksFromBlocksRoundTrips) {
  // Rows taken out of a Dataset's blocks and packed into fresh blocks
  // reproduce every partition exactly.
  Rng rng(6);
  Dataset d = MakeDataset(&rng, 5, 80);
  Dataset back = Dataset::Empty(d.schema, d.NumPartitions());
  for (size_t p = 0; p < d.NumPartitions(); ++p) {
    back.parts[p] = PartitionBlock::FromRows(d.schema, d.PartitionRows(p));
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectRowsEqual(back.Collect(threads), d.Collect(threads));
    EXPECT_EQ(back.PartitionBytes(threads), d.PartitionBytes(threads));
  }
}

}  // namespace
}  // namespace trance
