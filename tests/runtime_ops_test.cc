// Unit tests for the distributed runtime simulator: partitioning guarantees,
// exact shuffle accounting, joins, nest/aggregate, unnest, memory caps, the
// summaries labels and bags store, and partition sharing.
#include <gtest/gtest.h>

#include <random>
#include <type_traits>

#include "exec/lowering.h"
#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "runtime/serde.h"
#include "skew/skew.h"

namespace trance {
namespace runtime {
namespace {

Schema KvSchema() {
  return Schema({{"k", nrc::Type::Int()}, {"v", nrc::Type::Int()}});
}

std::vector<Row> KvRows(std::vector<std::pair<int64_t, int64_t>> kv) {
  std::vector<Row> rows;
  rows.reserve(kv.size());
  for (auto [k, v] : kv) {
    rows.push_back(Row({Field::Int(k), Field::Int(v)}));
  }
  return rows;
}

/// One narrow transform run as its own stage (the unfused operator form).
StatusOr<Dataset> RunNarrow(Cluster* cluster, const Dataset& in,
                            RowTransform t) {
  const std::string name = t.op;
  return RunStagePipeline(cluster, in, {std::move(t)}, Partitioning::None(),
                          name);
}

TEST(FieldTest, EqualityAndHash) {
  EXPECT_EQ(Field::Int(3), Field::Int(3));
  EXPECT_NE(Field::Int(3), Field::Int(4));
  EXPECT_EQ(Field::Int(3), Field::Real(3.0));  // numeric cross-compare
  EXPECT_EQ(Field::Str("x"), Field::Str("x"));
  EXPECT_EQ(Field::Null(), Field::Null());
  EXPECT_NE(Field::Null(), Field::Int(0));
  Field l1 = MakeLabel({{"a", Field::Int(1)}});
  Field l2 = MakeLabel({{"a", Field::Int(1)}});
  EXPECT_EQ(l1, l2);
  EXPECT_EQ(l1.Hash(), l2.Hash());
}

TEST(FieldTest, LabelCollapse) {
  Field inner = MakeLabel({{"id", Field::Int(5)}});
  Field wrapped = MakeLabel({{"x", inner}});
  EXPECT_EQ(inner, wrapped);
}

TEST(FieldTest, BagMultisetEquality) {
  Field a = Field::Bag({Row({Field::Int(1)}), Row({Field::Int(2)})});
  Field b = Field::Bag({Row({Field::Int(2)}), Row({Field::Int(1)})});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  // A NULL and an empty inner bag are different elements, in either order.
  Field empty_bag = Field::Bag(std::vector<Row>{});
  Field c = Field::Bag({Row({Field::Null()}), Row({empty_bag})});
  Field d = Field::Bag({Row({empty_bag}), Row({Field::Null()})});
  EXPECT_EQ(c, d);
  EXPECT_EQ(c.Hash(), d.Hash());
  EXPECT_NE(c, Field::Bag({Row({empty_bag}), Row({empty_bag})}));
  EXPECT_NE(empty_bag, Field::Null());
}

TEST(FieldDeathTest, LabelAndBagCellsHoldAnObject) {
  // NULL has one form, Field::Null(): a label or bag cell of a null pointer
  // is a bug at the site that builds it. Thread-safe style: the ops label
  // also runs under TSan.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(Field::Label(nullptr), "Field::Label of a null pointer");
  EXPECT_DEATH(Field::Bag(BagPtr()), "Field::Bag of a null pointer");
}

TEST(FieldTest, DeepSizeCountsNestedBags) {
  Field shallow = Field::Int(1);
  Field deep = Field::Bag(
      {Row({Field::Str(std::string(100, 'x'))}), Row({Field::Int(2)})});
  EXPECT_GT(deep.DeepSize(), shallow.DeepSize() + 100);
}

// --- Stored summaries -------------------------------------------------------
//
// A label stores its hash and deep size, a bag its deep size, all computed
// at construction. The reference below is the recursive walk Field::DeepSize
// and RtLabel::Hash made before they were stored: it recomputes every nested
// value from scratch, so a stale or miscomputed summary anywhere shows.

uint64_t WalkDeepSize(const Field& f);
uint64_t WalkHash(const Field& f);

uint64_t WalkRowDeepSize(const Row& r) {
  uint64_t s = 8;
  for (const Field& f : r.fields) s += WalkDeepSize(f);
  return s;
}

uint64_t WalkDeepSize(const Field& f) {
  if (f.is_string()) return 32 + f.AsString().size();
  if (f.is_label()) {
    uint64_t s = 16;
    for (const auto& [n, v] : f.AsLabel()->params()) s += 8 + WalkDeepSize(v);
    return s;
  }
  if (f.is_bag()) {
    uint64_t s = 32;
    for (const Row& r : *f.AsBag()) s += WalkRowDeepSize(r);
    return s;
  }
  return 8;
}

uint64_t WalkRowHash(const Row& r) {
  uint64_t h = 0x5EED;
  for (const Field& f : r.fields) h = HashCombine(h, WalkHash(f));
  return h;
}

uint64_t WalkHash(const Field& f) {
  if (f.is_label()) {
    uint64_t h = 0x1AB;
    for (const auto& [n, v] : f.AsLabel()->params()) {
      h = HashCombine(h, HashString(n));
      h = HashCombine(h, WalkHash(v));
    }
    return h;
  }
  if (f.is_bag()) {
    uint64_t h = 0xBA6;
    for (const Row& r : *f.AsBag()) h += Mix64(WalkRowHash(r));
    return Mix64(h);
  }
  return f.Hash();  // scalars store nothing
}

/// Checks `f`'s summaries, and those of every label and bag inside it,
/// against the walk.
void ExpectSummariesMatchWalk(const Field& f, const std::string& at) {
  EXPECT_EQ(f.DeepSize(), WalkDeepSize(f)) << at << ": " << f.ToString();
  EXPECT_EQ(f.Hash(), WalkHash(f)) << at << ": " << f.ToString();
  if (f.is_label()) {
    for (const auto& [n, v] : f.AsLabel()->params()) {
      ExpectSummariesMatchWalk(v, at + "." + n);
    }
  }
  if (f.is_bag()) {
    for (size_t i = 0; i < f.AsBag()->size(); ++i) {
      const Row& r = (*f.AsBag())[i];
      for (size_t c = 0; c < r.fields.size(); ++c) {
        ExpectSummariesMatchWalk(r.fields[c], at + "[" + std::to_string(i) +
                                                  "][" + std::to_string(c) +
                                                  "]");
      }
    }
  }
}

/// A random nested value built with Field::Bag and MakeLabel: scalars, NULL
/// (also where a bag would go), empty bags, bags of rows holding labels and
/// bags, labels over scalars and labels, and single-label labels that
/// MakeLabel collapses.
Field RandomNested(std::mt19937_64* rng, int depth) {
  const int kind = static_cast<int>((*rng)() % (depth > 0 ? 10 : 5));
  switch (kind) {
    case 0: return Field::Null();
    case 1: return Field::Int(static_cast<int64_t>((*rng)() % 1000) - 500);
    case 2: return Field::Real(static_cast<double>((*rng)() % 1000) / 8.0);
    case 3:
      return Field::Str(
          std::string((*rng)() % 20, static_cast<char>('a' + (*rng)() % 26)));
    case 4: return Field::Bool(((*rng)() & 1) != 0);
    case 5: return Field::Null();
    case 6: {  // a label over 0-3 parameters
      std::vector<std::pair<std::string, Field>> params;
      const size_t n = (*rng)() % 4;
      for (size_t i = 0; i < n; ++i) {
        params.emplace_back("p" + std::to_string(i),
                            RandomNested(rng, depth - 1));
      }
      return MakeLabel(std::move(params));
    }
    case 7: {  // one label parameter: collapses to the inner label
      Field inner = MakeLabel({{"id", Field::Int(static_cast<int64_t>(
                                           (*rng)() % 100))},
                               {"s", RandomNested(rng, 0)}});
      return MakeLabel({{"x", inner}});
    }
    default: {  // a bag of 0-4 rows, each 1-3 nested fields
      std::vector<Row> rows;
      const size_t n = (*rng)() % 5;
      const size_t width = 1 + (*rng)() % 3;
      for (size_t i = 0; i < n; ++i) {
        Row r;
        for (size_t c = 0; c < width; ++c) {
          r.fields.push_back(RandomNested(rng, depth - 1));
        }
        rows.push_back(std::move(r));
      }
      return Field::Bag(std::move(rows));
    }
  }
}

TEST(FieldTest, StoredSummariesMatchAFreshWalk) {
  // One value computed by hand: a bag of two rows, (1, "ab") and
  // (Label(id=5)). Row 1: 8 + 8 + (32 + 2) = 50. Row 2: 8 + (16 + 8 + 8) =
  // 40. The bag: 32 + 50 + 40 = 122.
  const Field label = MakeLabel({{"id", Field::Int(5)}});
  EXPECT_EQ(label.DeepSize(), 32u);
  EXPECT_EQ(label.Hash(),
            HashCombine(HashCombine(0x1AB, HashString("id")),
                        Field::Int(5).Hash()));
  const Field bag =
      Field::Bag({Row({Field::Int(1), Field::Str("ab")}), Row({label})});
  EXPECT_EQ(bag.DeepSize(), 122u);
  ExpectSummariesMatchWalk(bag, "hand");

  // NULL, empty and nested bags, empty labels and labels inside bags, and
  // the collapse.
  const Field empty = Field::Bag(std::vector<Row>{});
  const Field empty_label = MakeLabel({});
  EXPECT_EQ(empty.DeepSize(), 32u);
  EXPECT_EQ(Field::Null().DeepSize(), 8u);
  EXPECT_EQ(empty_label.DeepSize(), 16u);
  EXPECT_EQ(empty_label.Hash(), 0x1ABu);
  const Field nested =
      Field::Bag({Row({empty, Field::Null(), empty_label}),
                  Row({bag, label, Field::Null()})});
  ExpectSummariesMatchWalk(nested, "nested");
  const Field collapsed = MakeLabel({{"x", label}});
  EXPECT_EQ(collapsed.AsLabel(), label.AsLabel());
  ExpectSummariesMatchWalk(MakeLabel({{"bag", nested}, {"l", label}}),
                           "label over a bag");

  // Randomized values, as built and after a serde round trip (the decoder
  // builds labels and bags itself and never collapses).
  std::mt19937_64 rng(26);
  for (int i = 0; i < 300; ++i) {
    const std::string at = "value " + std::to_string(i);
    const Field f = RandomNested(&rng, 4);
    ExpectSummariesMatchWalk(f, at);
    std::string bytes;
    serde::AppendField(f, &bytes);
    size_t pos = 0;
    Field back;
    ASSERT_TRUE(serde::ParseField(bytes.data(), bytes.size(), &pos, &back).ok())
        << at;
    ExpectSummariesMatchWalk(back, at + " after serde");
  }
}

TEST(FieldTest, OperatorBuiltBagsStoreTheirSummaries) {
  // NestGroup and CoGroup build their bags from rows of label and bag
  // cells; CoGroup's left rows with the same key share one bag. Every bag
  // cell's summaries, and the blocks' byte totals, equal a fresh walk.
  Cluster cluster(ClusterConfig{.num_partitions = 3});
  const nrc::TypePtr bag_t =
      nrc::Type::Bag(nrc::Type::Tuple({{"x", nrc::Type::Int()}}));
  const Schema nested_schema({{"k", nrc::Type::Int()},
                              {"l", nrc::Type::Label()},
                              {"b", bag_t}});
  std::mt19937_64 rng(7);
  std::vector<Row> rows;
  for (int i = 0; i < 60; ++i) {
    Field l = MakeLabel({{"i", Field::Int(i)}, {"v", RandomNested(&rng, 2)}});
    rows.push_back(Row({Field::Int(i % 7), l, RandomNested(&rng, 3)}));
  }
  rows.push_back(Row({Field::Int(3), Field::Null(), Field::Null()}));
  auto walk_bytes = [](const Dataset& d) {
    uint64_t s = 0;
    for (const Row& r : d.Collect()) s += WalkRowDeepSize(r);
    return s;
  };

  const Dataset in =
      Source(&cluster, nested_schema, rows, "in").ValueOrDie();
  const Dataset nested =
      NestGroup(&cluster, in, {0}, {1, 2}, "g", "nest").ValueOrDie();
  ASSERT_EQ(nested.NumRows(), 7u);
  for (const Row& r : nested.Collect()) {
    ExpectSummariesMatchWalk(r.fields[1], "nest key " + r.fields[0].ToString());
  }
  EXPECT_EQ(nested.DeepSizeBytes(), walk_bytes(nested));

  const Dataset left =
      Source(&cluster, KvSchema(),
             KvRows({{1, 10}, {1, 11}, {2, 20}, {3, 30}, {9, 90}}), "l")
          .ValueOrDie();
  const Dataset cg =
      CoGroup(&cluster, left, in, {0}, {0}, {1, 2}, "m", "cogroup")
          .ValueOrDie();
  ASSERT_EQ(cg.NumRows(), 5u);
  const RtBag* key1 = nullptr;
  for (const Row& r : cg.Collect()) {
    const Field& b = r.fields[2];
    ExpectSummariesMatchWalk(b, "cogroup key " + r.fields[0].ToString());
    if (r.fields[0].AsInt() == 1) {
      if (key1 == nullptr) key1 = b.AsBag().get();
      EXPECT_EQ(b.AsBag().get(), key1) << "same key, same bag";
    }
    if (r.fields[0].AsInt() == 9) {
      EXPECT_TRUE(b.AsBag()->empty());
    }
  }
  EXPECT_NE(key1, nullptr);
  EXPECT_EQ(cg.DeepSizeBytes(), walk_bytes(cg));
}

// --- Shared partitions ------------------------------------------------------

static_assert(!std::is_copy_constructible_v<column::PartitionBlock>,
              "a partition block is built once and shared, never copied");

TEST(PartitionSharingTest, ScansAndAllLightMergesShareTheRegisteredBlocks) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  const Dataset in =
      Source(&cluster, KvSchema(), KvRows({{1, 1}, {2, 2}, {3, 3}, {4, 4}}),
             "in")
          .ValueOrDie();
  exec::Executor ex(&cluster, {});
  ex.Register("in", in);

  const skew::SkewTriple t = ex.Get("in").ValueOrDie();
  const Dataset got = ex.GetDataset("in").ValueOrDie();
  const Dataset merged = skew::MergeTriple(&cluster, t, "m").ValueOrDie();
  ASSERT_EQ(got.NumPartitions(), in.NumPartitions());
  ASSERT_EQ(merged.NumPartitions(), in.NumPartitions());
  for (size_t p = 0; p < in.NumPartitions(); ++p) {
    EXPECT_EQ(t.light.parts[p], in.parts[p]) << "partition " << p;
    EXPECT_EQ(got.parts[p], in.parts[p]) << "partition " << p;
    EXPECT_EQ(merged.parts[p], in.parts[p]) << "partition " << p;
  }
}

TEST(PartitionSharingTest, SpillOnTheReusePathLeavesTheSharedInputAlone) {
  // The input is hash-partitioned on k already, so Repartition on k moves
  // nothing and shares the input's blocks. Key 0 puts one partition over
  // the cap: the barrier spills it and swaps in a restored block, while the
  // other partitions stay shared and the input keeps its blocks untouched.
  ClusterConfig cfg{.num_partitions = 4, .partition_memory_cap = 4096};
  cfg.spill.dir = ::testing::TempDir();
  Cluster cluster(cfg);
  const Schema schema({{"k", nrc::Type::Int()}, {"s", nrc::Type::String()}});
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(Row({Field::Int(0), Field::Str(std::string(40, 'x'))}));
  }
  for (int k = 1; k <= 12; ++k) {
    rows.push_back(Row({Field::Int(k), Field::Str("small")}));
  }
  const Dataset in =
      SourcePartitioned(&cluster, schema, rows, {0}, "in").ValueOrDie();
  const std::vector<BlockPtr> blocks = in.parts;
  std::vector<std::vector<Row>> in_rows;
  std::vector<uint64_t> footprints;
  for (size_t p = 0; p < in.NumPartitions(); ++p) {
    in_rows.push_back(in.PartitionRows(p));
    footprints.push_back(in.parts[p]->ByteFootprint());
  }

  const Dataset out = Repartition(&cluster, in, {0}, "regroup").ValueOrDie();
  EXPECT_EQ(cluster.stats().stages().back().shuffle_bytes, 0u);
  EXPECT_GT(cluster.stats().totals().spill_runs, 0u);
  size_t spilled = 0, shared = 0;
  for (size_t p = 0; p < in.NumPartitions(); ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    if (in.parts[p]->TotalRowBytes() > cfg.partition_memory_cap) {
      ++spilled;
      EXPECT_NE(out.parts[p], in.parts[p]) << "a spilled partition is fresh";
    } else {
      ++shared;
      EXPECT_EQ(out.parts[p], in.parts[p]) << "the rest are shared";
    }
    const std::vector<Row> out_rows = out.PartitionRows(p);
    ASSERT_EQ(out_rows.size(), in_rows[p].size());
    for (size_t i = 0; i < out_rows.size(); ++i) {
      EXPECT_TRUE(RowEquals(out_rows[i], in_rows[p][i])) << "row " << i;
    }
    // The input is as it was: same block, same rows, same footprint.
    EXPECT_EQ(in.parts[p], blocks[p]);
    EXPECT_EQ(in.parts[p]->ByteFootprint(), footprints[p]);
    const std::vector<Row> now = in.PartitionRows(p);
    ASSERT_EQ(now.size(), in_rows[p].size());
    for (size_t i = 0; i < now.size(); ++i) {
      EXPECT_TRUE(RowEquals(now[i], in_rows[p][i])) << "row " << i;
    }
  }
  EXPECT_EQ(spilled, 1u);
  EXPECT_GT(shared, 0u);
}

TEST(OpsTest, SourceDistributesRoundRobin) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto ds = Source(&cluster, KvSchema(), KvRows({{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}),
                   "in");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->NumRows(), 5u);
  EXPECT_EQ(ds->NumPartitions(), 4u);
  EXPECT_EQ(ds->partitioning.kind, Partitioning::Kind::kNone);
}

TEST(OpsTest, RepartitionColocatesKeys) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto ds = Source(&cluster, KvSchema(),
                   KvRows({{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}}), "in")
                .ValueOrDie();
  auto parted = Repartition(&cluster, ds, {0}, "repart");
  ASSERT_TRUE(parted.ok());
  // All rows with the same key must land in one partition.
  for (size_t pi = 0; pi < parted->NumPartitions(); ++pi) {
    const std::vector<Row> p = parted->PartitionRows(pi);
    std::set<int64_t> keys;
    for (const auto& r : p) keys.insert(r.fields[0].AsInt());
    for (int64_t k : keys) {
      size_t count = 0;
      for (size_t qi = 0; qi < parted->NumPartitions(); ++qi) {
        for (const auto& r : parted->PartitionRows(qi)) {
          if (r.fields[0].AsInt() == k) ++count;
        }
      }
      size_t local = 0;
      for (const auto& r : p) {
        if (r.fields[0].AsInt() == k) ++local;
      }
      EXPECT_EQ(local, count);
    }
  }
  EXPECT_TRUE(parted->partitioning.IsHashOn({0}));
}

TEST(OpsTest, RepartitionOnExistingGuaranteeShufflesNothing) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto ds = Source(&cluster, KvSchema(), KvRows({{1, 1}, {2, 2}, {3, 3}}), "in")
                .ValueOrDie();
  auto p1 = Repartition(&cluster, ds, {0}, "r1").ValueOrDie();
  uint64_t before = cluster.stats().totals().shuffle_bytes;
  auto p2 = Repartition(&cluster, p1, {0}, "r2").ValueOrDie();
  EXPECT_EQ(cluster.stats().totals().shuffle_bytes, before);
}

TEST(OpsTest, RepartitionOnPermutedKeysShufflesNothing) {
  // The partitioner combines per-column hashes commutatively, so a hash
  // guarantee on {a,b} covers a request for {b,a}: same placement, no
  // movement.
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  Schema schema({{"a", nrc::Type::Int()},
                 {"b", nrc::Type::Int()},
                 {"v", nrc::Type::Int()}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 40; ++i) {
    rows.push_back(Row({Field::Int(i % 7), Field::Int(i % 5), Field::Int(i)}));
  }
  auto ds = Source(&cluster, schema, std::move(rows), "in").ValueOrDie();
  auto p1 = Repartition(&cluster, ds, {0, 1}, "r1").ValueOrDie();
  EXPECT_TRUE(p1.partitioning.IsHashOn({1, 0}));
  uint64_t before = cluster.stats().totals().shuffle_bytes;
  auto p2 = Repartition(&cluster, p1, {1, 0}, "r2").ValueOrDie();
  EXPECT_EQ(cluster.stats().totals().shuffle_bytes, before);
  // Placement under the permuted guarantee must match hashing on the
  // permuted key list exactly (reuse must not mis-place any row).
  for (size_t p = 0; p < p2.NumPartitions(); ++p) {
    for (const auto& r : p2.PartitionRows(p)) {
      EXPECT_EQ(static_cast<size_t>(cluster.PartitionOf(RowHashOn(r, {1, 0}))),
                p);
    }
  }
}

TEST(OpsTest, HashJoinReusesPermutedPartitioning) {
  // A left side already hashed on {1,0} joins on keys {0,1} without moving:
  // the permuted guarantee is accepted and the join still colocates equal
  // keys from the right side.
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  Schema ls({{"a", nrc::Type::Int()},
             {"b", nrc::Type::Int()},
             {"v", nrc::Type::Int()}});
  std::vector<Row> lrows;
  for (int64_t i = 0; i < 30; ++i) {
    lrows.push_back(
        Row({Field::Int(i % 6), Field::Int(i % 4), Field::Int(i)}));
  }
  auto l = Source(&cluster, ls, std::move(lrows), "l").ValueOrDie();
  auto lp = Repartition(&cluster, l, {1, 0}, "lp").ValueOrDie();
  Schema rs({{"x", nrc::Type::Int()},
             {"y", nrc::Type::Int()},
             {"w", nrc::Type::Int()}});
  std::vector<Row> rrows;
  for (int64_t i = 0; i < 24; ++i) {
    rrows.push_back(
        Row({Field::Int(i % 6), Field::Int(i % 4), Field::Int(100 + i)}));
  }
  auto r = Source(&cluster, rs, std::move(rrows), "r").ValueOrDie();
  uint64_t before = cluster.stats().totals().shuffle_bytes;
  auto j =
      HashJoin(&cluster, lp, r, {0, 1}, {0, 1}, JoinType::kInner, "join");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  // Only the right side moved; the permuted left guarantee was reused.
  uint64_t right_size = r.DeepSizeBytes();
  EXPECT_LE(cluster.stats().totals().shuffle_bytes - before, right_size);
  // Exact expected multiplicity: keys match when (a,b) == (x,y).
  size_t expected = 0;
  for (const auto& lr : l.Collect()) {
    for (const auto& rr : r.Collect()) {
      if (lr.fields[0] == rr.fields[0] && lr.fields[1] == rr.fields[1]) {
        ++expected;
      }
    }
  }
  EXPECT_EQ(j->NumRows(), expected);
}

TEST(OpsTest, HashJoinInner) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto l = Source(&cluster, KvSchema(), KvRows({{1, 10}, {2, 20}, {3, 30}}),
                  "l")
               .ValueOrDie();
  auto r = Source(&cluster,
                  Schema({{"k2", nrc::Type::Int()}, {"w", nrc::Type::Int()}}),
                  KvRows({{1, 100}, {1, 101}, {4, 400}}), "r")
               .ValueOrDie();
  auto j = HashJoin(&cluster, l, r, {0}, {0}, JoinType::kInner, "join");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ(j->NumRows(), 2u);  // key 1 matches twice
  EXPECT_EQ(j->schema.size(), 4u);
  EXPECT_EQ(j->schema.col(2).name, "k2");
}

TEST(OpsTest, HashJoinLeftOuterNullPads) {
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  auto l = Source(&cluster, KvSchema(), KvRows({{1, 10}, {2, 20}}), "l")
               .ValueOrDie();
  auto r = Source(&cluster,
                  Schema({{"k2", nrc::Type::Int()}, {"w", nrc::Type::Int()}}),
                  KvRows({{1, 100}}), "r")
               .ValueOrDie();
  auto j = HashJoin(&cluster, l, r, {0}, {0}, JoinType::kLeftOuter, "join");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->NumRows(), 2u);
  bool saw_null = false;
  for (const auto& row : j->Collect()) {
    if (row.fields[0].AsInt() == 2) {
      EXPECT_TRUE(row.fields[2].is_null());
      EXPECT_TRUE(row.fields[3].is_null());
      saw_null = true;
    }
  }
  EXPECT_TRUE(saw_null);
}

TEST(OpsTest, JoinNameCollisionSuffixed) {
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  auto l = Source(&cluster, KvSchema(), KvRows({{1, 10}}), "l").ValueOrDie();
  auto r = Source(&cluster, KvSchema(), KvRows({{1, 20}}), "r").ValueOrDie();
  auto j = HashJoin(&cluster, l, r, {0}, {0}, JoinType::kInner, "join")
               .ValueOrDie();
  EXPECT_EQ(j.schema.col(2).name, "k__r");
  EXPECT_EQ(j.schema.col(3).name, "v__r");
}

TEST(OpsTest, BroadcastJoinLeavesLeftInPlace) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto l = Source(&cluster, KvSchema(),
                  KvRows({{1, 10}, {2, 20}, {3, 30}, {4, 40}}), "l")
               .ValueOrDie();
  auto lp = Repartition(&cluster, l, {1}, "by_v").ValueOrDie();
  auto r = Source(&cluster,
                  Schema({{"k2", nrc::Type::Int()}, {"w", nrc::Type::Int()}}),
                  KvRows({{1, 100}, {2, 200}}), "r")
               .ValueOrDie();
  auto j = BroadcastJoin(&cluster, lp, r, {0}, {0}, JoinType::kInner, "bjoin");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->NumRows(), 2u);
  // Left partitioning guarantee (on v) preserved.
  EXPECT_TRUE(j->partitioning.IsHashOn({1}));
}

TEST(OpsTest, NestGroupBuildsBags) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto ds = Source(&cluster, KvSchema(),
                   KvRows({{1, 10}, {1, 11}, {2, 20}}), "in")
                .ValueOrDie();
  auto nested = NestGroup(&cluster, ds, {0}, {1}, "vals", "nest");
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->NumRows(), 2u);
  for (const auto& row : nested->Collect()) {
    if (row.fields[0].AsInt() == 1) {
      EXPECT_EQ(row.fields[1].AsBag()->size(), 2u);
    } else {
      EXPECT_EQ(row.fields[1].AsBag()->size(), 1u);
    }
  }
}

TEST(OpsTest, NestGroupCastsNullToEmptyBag) {
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  std::vector<Row> rows;
  rows.push_back(Row({Field::Int(1), Field::Int(10)}));
  rows.push_back(Row({Field::Int(2), Field::Null()}));  // outer-join miss
  auto ds = Source(&cluster, KvSchema(), std::move(rows), "in").ValueOrDie();
  auto nested = NestGroup(&cluster, ds, {0}, {1}, "vals", "nest").ValueOrDie();
  for (const auto& row : nested.Collect()) {
    if (row.fields[0].AsInt() == 2) {
      EXPECT_TRUE(row.fields[1].AsBag()->empty());
    } else {
      EXPECT_EQ(row.fields[1].AsBag()->size(), 1u);
    }
  }
}

TEST(OpsTest, SumAggregateMissMarkers) {
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  std::vector<Row> rows;
  rows.push_back(Row({Field::Int(1), Field::Int(10)}));
  rows.push_back(Row({Field::Int(1), Field::Int(5)}));
  // All-NULL values: an outer-operator miss — the group must exist but carry
  // NULL so a downstream Gamma-union can cast it to an empty bag.
  rows.push_back(Row({Field::Int(2), Field::Null()}));
  auto ds = Source(&cluster, KvSchema(), std::move(rows), "in").ValueOrDie();
  auto agg = SumAggregate(&cluster, ds, {0}, {1}, true, "sum").ValueOrDie();
  EXPECT_EQ(agg.NumRows(), 2u);
  for (const auto& row : agg.Collect()) {
    if (row.fields[0].AsInt() == 1) {
      EXPECT_EQ(row.fields[1].AsInt(), 15);
    } else {
      EXPECT_TRUE(row.fields[1].is_null());
    }
  }
}

TEST(OpsTest, SumAggregateMissMarkersSurviveCombine) {
  // The miss-marker rule must behave identically with and without map-side
  // combine, including when markers and real rows land in different
  // partitions pre-shuffle.
  for (bool combine : {true, false}) {
    Cluster cluster(ClusterConfig{.num_partitions = 4});
    std::vector<Row> rows;
    for (int i = 0; i < 8; ++i) {
      rows.push_back(Row({Field::Int(1), Field::Int(1)}));
      rows.push_back(Row({Field::Int(1), Field::Null()}));
    }
    rows.push_back(Row({Field::Int(2), Field::Null()}));
    auto ds = Source(&cluster, KvSchema(), std::move(rows), "in").ValueOrDie();
    auto agg =
        SumAggregate(&cluster, ds, {0}, {1}, combine, "sum").ValueOrDie();
    EXPECT_EQ(agg.NumRows(), 2u);
    for (const auto& row : agg.Collect()) {
      if (row.fields[0].AsInt() == 1) {
        EXPECT_EQ(row.fields[1].AsInt(), 8) << "combine=" << combine;
      } else {
        EXPECT_TRUE(row.fields[1].is_null()) << "combine=" << combine;
      }
    }
  }
}

TEST(OpsTest, AddIndexColumnUniqueIds) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto ds = Source(&cluster, KvSchema(),
                   KvRows({{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}), "in")
                .ValueOrDie();
  auto idx = AddIndexColumn(&cluster, ds, "uid", "idx").ValueOrDie();
  EXPECT_EQ(idx.schema.size(), 3u);
  std::set<int64_t> ids;
  for (const auto& row : idx.Collect()) {
    ids.insert(row.fields[2].AsInt());
  }
  EXPECT_EQ(ids.size(), 5u);
}

TEST(OpsTest, MapSideCombineShufflesLess) {
  ClusterConfig cfg{.num_partitions = 8};
  // Many duplicate keys: combining should cut shuffle volume.
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int i = 0; i < 1000; ++i) kv.push_back({i % 4, 1});
  {
    Cluster c1(cfg);
    auto ds = Source(&c1, KvSchema(), KvRows(kv), "in").ValueOrDie();
    uint64_t base = c1.stats().totals().shuffle_bytes;
    SumAggregate(&c1, ds, {0}, {1}, true, "sum").ValueOrDie();
    uint64_t combined = c1.stats().totals().shuffle_bytes - base;
    Cluster c2(cfg);
    auto ds2 = Source(&c2, KvSchema(), KvRows(kv), "in").ValueOrDie();
    uint64_t base2 = c2.stats().totals().shuffle_bytes;
    SumAggregate(&c2, ds2, {0}, {1}, false, "sum").ValueOrDie();
    uint64_t uncombined = c2.stats().totals().shuffle_bytes - base2;
    EXPECT_LT(combined * 10, uncombined);
  }
}

TEST(OpsTest, UnnestFlattens) {
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  Schema nested_schema(
      {{"k", nrc::Type::Int()},
       {"bag", nrc::Type::Bag(nrc::Type::Tuple({{"x", nrc::Type::Int()}}))}});
  std::vector<Row> rows;
  rows.push_back(Row({Field::Int(1),
                      Field::Bag({Row({Field::Int(10)}),
                                  Row({Field::Int(11)})})}));
  rows.push_back(Row({Field::Int(2), Field::Bag(std::vector<Row>{})}));
  auto ds =
      Source(&cluster, nested_schema, std::move(rows), "in").ValueOrDie();
  Schema out = UnnestedSchema(ds.schema, 1, "").ValueOrDie();
  auto flat =
      RunNarrow(&cluster, ds, RowTransform::Unnest("unnest", std::move(out), 1))
          .ValueOrDie();
  EXPECT_EQ(flat.NumRows(), 2u);  // empty bag disappears
  EXPECT_EQ(flat.schema.size(), 2u);
  EXPECT_EQ(flat.schema.col(1).name, "x");
}

TEST(OpsTest, OuterUnnestKeepsEmptyAndAddsIds) {
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  Schema nested_schema(
      {{"k", nrc::Type::Int()},
       {"bag", nrc::Type::Bag(nrc::Type::Tuple({{"x", nrc::Type::Int()}}))}});
  std::vector<Row> rows;
  rows.push_back(Row({Field::Int(1),
                      Field::Bag({Row({Field::Int(10)}),
                                  Row({Field::Int(11)})})}));
  rows.push_back(Row({Field::Int(2), Field::Bag(std::vector<Row>{})}));
  auto ds =
      Source(&cluster, nested_schema, std::move(rows), "in").ValueOrDie();
  Schema out = UnnestedSchema(ds.schema, 1, "uid").ValueOrDie();
  auto flat = RunNarrow(&cluster, ds,
                        RowTransform::OuterUnnest("ou", std::move(out), 1,
                                                  /*with_id=*/true))
                  .ValueOrDie();
  EXPECT_EQ(flat.NumRows(), 3u);
  EXPECT_EQ(flat.schema.col(0).name, "uid");
  // The two rows of k=1 share a uid; the k=2 row has NULL x.
  std::map<int64_t, std::vector<const Row*>> by_uid;
  int nulls = 0;
  const std::vector<Row> flat_rows = flat.Collect();
  for (const auto& r : flat_rows) {
    by_uid[r.fields[0].AsInt()].push_back(&r);
    if (r.fields[2].is_null()) ++nulls;
  }
  EXPECT_EQ(by_uid.size(), 2u);
  EXPECT_EQ(nulls, 1);
}

TEST(OpsTest, DistinctRemovesDuplicates) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto ds = Source(&cluster, KvSchema(),
                   KvRows({{1, 1}, {1, 1}, {1, 2}, {2, 2}, {2, 2}}), "in")
                .ValueOrDie();
  auto d = Distinct(&cluster, ds, "dedup").ValueOrDie();
  EXPECT_EQ(d.NumRows(), 3u);
}

TEST(OpsTest, CoGroupAttachesMatchBags) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto l = Source(&cluster, KvSchema(), KvRows({{1, 10}, {2, 20}}), "l")
               .ValueOrDie();
  auto r = Source(&cluster,
                  Schema({{"k2", nrc::Type::Int()}, {"w", nrc::Type::Int()}}),
                  KvRows({{1, 100}, {1, 101}}), "r")
               .ValueOrDie();
  auto cg =
      CoGroup(&cluster, l, r, {0}, {0}, {1}, "matches", "cogroup").ValueOrDie();
  EXPECT_EQ(cg.NumRows(), 2u);
  for (const auto& row : cg.Collect()) {
    if (row.fields[0].AsInt() == 1) {
      EXPECT_EQ(row.fields[2].AsBag()->size(), 2u);
    } else {
      EXPECT_TRUE(row.fields[2].AsBag()->empty());
    }
  }
}

TEST(OpsTest, ColumnIndicesOutsideTheSchemaAreRejected) {
  // The operators take column indices from their callers: an index outside
  // the input's schema is Invalid naming the operator, the list, the index
  // and the schema, and is caught before any stage runs. A union of inputs
  // whose columns differ in kind is a TypeError naming the column.
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto in = Source(&cluster, KvSchema(), KvRows({{1, 10}, {2, 20}, {1, 30}}),
                   "in");
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  const size_t stages = cluster.stats().stages().size();
  auto expect_invalid = [&](const Status& s, const std::string& what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    const std::string msg = s.ToString();
    EXPECT_NE(msg.find(what + " is not a column of " + KvSchema().ToString()),
              std::string::npos)
        << msg;
  };
  const Dataset& d = *in;
  expect_invalid(Repartition(&cluster, d, {5}, "repart").status(),
                 "repart: key column 5");
  expect_invalid(
      HashJoin(&cluster, d, d, {5}, {0}, JoinType::kInner, "join").status(),
      "join: left key column 5");
  expect_invalid(
      HashJoin(&cluster, d, d, {0}, {5}, JoinType::kInner, "join").status(),
      "join: right key column 5");
  expect_invalid(
      BroadcastJoin(&cluster, d, d, {5}, {0}, JoinType::kInner, "bjoin")
          .status(),
      "bjoin: left key column 5");
  expect_invalid(
      BroadcastJoin(&cluster, d, d, {0}, {-1}, JoinType::kInner, "bjoin")
          .status(),
      "bjoin: right key column -1");
  expect_invalid(NestGroup(&cluster, d, {0}, {9}, "vs", "nest").status(),
                 "nest: value column 9");
  expect_invalid(NestGroup(&cluster, d, {7}, {1}, "vs", "nest").status(),
                 "nest: key column 7");
  expect_invalid(NestGroup(&cluster, d, {0}, {1}, "vs", "nest", {4}).status(),
                 "nest: indicator column 4");
  expect_invalid(SumAggregate(&cluster, d, {0}, {9}, true, "agg").status(),
                 "agg: value column 9");
  expect_invalid(SumAggregate(&cluster, d, {3}, {1}, false, "agg").status(),
                 "agg: key column 3");
  expect_invalid(
      CoGroup(&cluster, d, d, {0}, {0}, {9}, "m", "cogroup").status(),
      "cogroup: right value column 9");
  expect_invalid(
      CoGroup(&cluster, d, d, {2}, {0}, {1}, "m", "cogroup").status(),
      "cogroup: left key column 2");
  expect_invalid(UnnestedSchema(KvSchema(), 7, "").status(),
                 "unnest: bag column 7");
  EXPECT_EQ(cluster.stats().stages().size(), stages);

  Schema str_key({{"k", nrc::Type::String()}, {"v", nrc::Type::Int()}});
  auto strs =
      Source(&cluster, str_key, {Row({Field::Str("a"), Field::Int(1)})}, "s");
  ASSERT_TRUE(strs.ok()) << strs.status().ToString();
  auto u = UnionAll(&cluster, d, *strs, "union");
  ASSERT_FALSE(u.ok());
  EXPECT_EQ(u.status().code(), StatusCode::kTypeError);
  EXPECT_NE(u.status().ToString().find(
                "union: column 0 'k' is int64 in the first input and string "
                "in the second"),
            std::string::npos)
      << u.status().ToString();
}

TEST(OpsTest, NonNumericSumColumnsAreRejected) {
  // SumAggregate reads its sums from int and real columns, so a value column
  // of any other declared type, or of none, is a TypeError naming the
  // operator, the column, its name and its type, caught before any stage
  // runs. UnnestedSchema treats an untyped column as a non-bag.
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  const nrc::TypePtr bag =
      nrc::Type::Bag(nrc::Type::Tuple({{"x", nrc::Type::Int()}}));
  struct Case {
    nrc::TypePtr type;
    Field value;
    std::string named;
  };
  const std::vector<Case> cases = {
      {nrc::Type::String(), Field::Str("a"), nrc::Type::String()->ToString()},
      {nrc::Type::Bool(), Field::Bool(true), nrc::Type::Bool()->ToString()},
      // A date column is stored as int64 but does not sum.
      {nrc::Type::Date(), Field::Int(9000), nrc::Type::Date()->ToString()},
      {bag, Field::Bag(std::vector<Row>{Row({Field::Int(1)})}),
       bag->ToString()},
      {nullptr, Field::Int(1), "untyped"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.named);
    Schema schema({{"k", nrc::Type::Int()}, {"v", c.type}});
    auto in = Source(&cluster, schema,
                     {Row({Field::Int(1), c.value}),
                      Row({Field::Int(1), c.value})},
                     "in");
    ASSERT_TRUE(in.ok()) << in.status().ToString();
    const size_t stages = cluster.stats().stages().size();
    for (bool combine : {true, false}) {
      auto agg = SumAggregate(&cluster, *in, {0}, {1}, combine, "agg");
      ASSERT_FALSE(agg.ok());
      EXPECT_EQ(agg.status().code(), StatusCode::kTypeError);
      EXPECT_NE(agg.status().ToString().find("agg: value column 1 'v' is " +
                                             c.named + ", not int or real"),
                std::string::npos)
          << agg.status().ToString();
    }
    EXPECT_EQ(cluster.stats().stages().size(), stages);
  }

  auto unnest = UnnestedSchema(
      Schema({{"k", nrc::Type::Int()}, {"g", nullptr}}), 1, "");
  ASSERT_FALSE(unnest.ok());
  EXPECT_EQ(unnest.status().code(), StatusCode::kTypeError);
  EXPECT_NE(unnest.status().ToString().find("unnest on non-bag column g"),
            std::string::npos)
      << unnest.status().ToString();
}

TEST(OpsTest, PeakPartitionBytesCoversTheFailedStage) {
  // Both partitions are over the cap, and the spill byte budget admits no
  // run, so the stage fails spilling the first of them; the reported peak
  // is still the largest partition the stage emitted, here the one after it.
  ClusterConfig cfg{.num_partitions = 2, .partition_memory_cap = 512};
  cfg.spill.dir = ::testing::TempDir();
  cfg.spill.max_spill_bytes = 256;
  Cluster cluster(cfg);
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    // Round-robin placement: partition 1 receives the longer strings.
    const size_t len = i % 2 == 0 ? 64 : 128;
    rows.push_back(Row({Field::Int(i), Field::Str(std::string(len, 'x'))}));
  }
  Schema s({{"k", nrc::Type::Int()}, {"s", nrc::Type::String()}});
  auto ds = Source(&cluster, s, std::move(rows), "in");
  ASSERT_TRUE(ds.ok());
  const std::vector<uint64_t> bytes = ds->PartitionBytes();
  ASSERT_EQ(bytes.size(), 2u);
  ASSERT_GT(bytes[0], cfg.partition_memory_cap);
  ASSERT_GT(bytes[1], bytes[0]);
  cluster.stats().Reset();
  auto copied = RunNarrow(
      &cluster, *ds,
      RowTransform::Filter("copy", s, [](const column::PartitionBlock&,
                                         size_t) { return true; }));
  ASSERT_TRUE(copied.status().IsResourceExhausted())
      << copied.status().ToString();
  EXPECT_NE(copied.status().ToString().find("spill byte budget exhausted"),
            std::string::npos)
      << copied.status().ToString();
  EXPECT_NE(copied.status().ToString().find("-p0-r0.trs"), std::string::npos)
      << copied.status().ToString();
  EXPECT_EQ(cluster.stats().peak_partition_bytes(), bytes[1]);
  EXPECT_EQ(cluster.stats().peak_partition_bytes(),
            cluster.stats().totals().mem_high_water_bytes);
}

TEST(OpsTest, SkewedKeysOverloadOnePartitionInStats) {
  // One heavy key: max receive bytes should dominate total/num_partitions.
  Cluster cluster(ClusterConfig{.num_partitions = 8});
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int i = 0; i < 2000; ++i) kv.push_back({7, i});
  for (int i = 0; i < 100; ++i) kv.push_back({i + 100, i});
  auto ds = Source(&cluster, KvSchema(), KvRows(kv), "in").ValueOrDie();
  cluster.stats().Reset();
  Repartition(&cluster, ds, {0}, "skewed_shuffle").ValueOrDie();
  const auto& st = cluster.stats().stages().back();
  EXPECT_GT(st.max_partition_recv_bytes * 2,
            st.shuffle_bytes);  // one partition got most of the data
}

TEST(OpsTest, SimulatedTimeReflectsStragglers) {
  // Same total data, skewed vs uniform keys: the skewed shuffle must cost
  // more simulated time despite equal row counts.
  auto run = [](bool skewed) {
    ClusterConfig cfg{.num_partitions = 8};
    cfg.stage_overhead_seconds = 0;  // isolate the straggler term
    Cluster cluster(cfg);
    std::vector<std::pair<int64_t, int64_t>> kv;
    for (int i = 0; i < 4000; ++i) {
      kv.push_back({skewed ? 1 : i, i});
    }
    auto ds = Source(&cluster, KvSchema(), KvRows(kv), "in").ValueOrDie();
    cluster.stats().Reset();
    Repartition(&cluster, ds, {0}, "shuffle").ValueOrDie();
    return cluster.stats().totals().sim_seconds;
  };
  EXPECT_GT(run(true), run(false) * 2);
}

}  // namespace
}  // namespace runtime
}  // namespace trance
