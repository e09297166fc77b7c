// Unit tests for the distributed runtime simulator: partitioning guarantees,
// exact shuffle accounting, joins, nest/aggregate, unnest, memory caps.
#include <gtest/gtest.h>

#include "runtime/cluster.h"
#include "runtime/ops.h"

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
  // A null and an empty inner bag are different elements, in either order.
  Field null_bag = Field::Bag(BagPtr(nullptr));
  Field empty_bag = Field::Bag(std::vector<Row>{});
  Field c = Field::Bag({Row({null_bag}), Row({empty_bag})});
  Field d = Field::Bag({Row({empty_bag}), Row({null_bag})});
  EXPECT_EQ(c, d);
  EXPECT_NE(c, Field::Bag({Row({empty_bag}), Row({empty_bag})}));
}

TEST(FieldTest, DeepSizeCountsNestedBags) {
  Field shallow = Field::Int(1);
  Field deep = Field::Bag(
      {Row({Field::Str(std::string(100, 'x'))}), Row({Field::Int(2)})});
  EXPECT_GT(deep.DeepSize(), shallow.DeepSize() + 100);
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

TEST(OpsTest, MemoryCapTriggersResourceExhausted) {
  // Inputs are exempt (pre-cached), but the first real operator over them
  // must hit the cap.
  ClusterConfig cfg{.num_partitions = 2, .partition_memory_cap = 512};
  Cluster cluster(cfg);
  // Spilling (on by default) would turn this overflow into disk runs and
  // succeed; this test is about the historical hard failure.
  cluster.set_spill_enabled(false);
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(Row({Field::Int(i), Field::Str(std::string(64, 'x'))}));
  }
  Schema s({{"k", nrc::Type::Int()}, {"s", nrc::Type::String()}});
  auto ds = Source(&cluster, s, std::move(rows), "in");
  ASSERT_TRUE(ds.ok()) << "inputs are exempt from the cap";
  auto filtered = RunNarrow(
      &cluster, *ds,
      RowTransform::Filter("copy", s, [](const column::PartitionBlock&,
                                         size_t) { return true; }));
  ASSERT_FALSE(filtered.ok());
  EXPECT_TRUE(filtered.status().IsResourceExhausted());
}

TEST(OpsTest, PeakPartitionBytesCoversTheFailedStage) {
  // With spilling off the memory check fails at the first partition over
  // the cap; the reported peak is still the largest partition the stage
  // emitted, here the one after it.
  ClusterConfig cfg{.num_partitions = 2, .partition_memory_cap = 512};
  Cluster cluster(cfg);
  cluster.set_spill_enabled(false);
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
  ASSERT_TRUE(copied.status().IsResourceExhausted());
  EXPECT_NE(copied.status().ToString().find("partition 0 holds"),
            std::string::npos)
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
