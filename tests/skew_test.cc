// Unit tests for the skew module (Section 5, Fig. 6): heavy-key detection
// thresholds, skew-triple splitting, skew-aware join correctness and
// shuffle behaviour, and skew-aware BagToDict.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "skew/skew.h"
#include "util/hash.h"
#include "util/random.h"

namespace trance {
namespace skew {
namespace {

using runtime::Cluster;
using runtime::ClusterConfig;
using runtime::Dataset;
using runtime::Field;
using runtime::JoinType;
using runtime::Row;
using runtime::Schema;

Schema KvSchema() {
  return Schema({{"k", nrc::Type::Int()}, {"v", nrc::Type::Int()}});
}

Dataset Skewed(Cluster* cluster, int64_t heavy_count, int64_t light_keys) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < heavy_count; ++i) {
    rows.push_back(Row({Field::Int(7), Field::Int(i)}));
  }
  for (int64_t k = 0; k < light_keys; ++k) {
    rows.push_back(Row({Field::Int(100 + k), Field::Int(k)}));
  }
  return runtime::Source(cluster, KvSchema(), std::move(rows), "skewed")
      .ValueOrDie();
}

TEST(SkewTest, DetectsDominantKey) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  Dataset ds = Skewed(&cluster, 900, 50);
  HeavyKeySet hk = DetectHeavyKeys(&cluster, ds, {0});
  ASSERT_EQ(hk.size(), 1u);
  EXPECT_TRUE(hk.IsHeavy(Row({Field::Int(7), Field::Int(0)}), {0}));
  EXPECT_FALSE(hk.IsHeavy(Row({Field::Int(100), Field::Int(0)}), {0}));
}

TEST(SkewTest, UniformDataHasNoHeavyKeys) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 2000; ++i) {
    rows.push_back(Row({Field::Int(i), Field::Int(i)}));  // all keys distinct
  }
  auto ds =
      runtime::Source(&cluster, KvSchema(), std::move(rows), "u").ValueOrDie();
  HeavyKeySet hk = DetectHeavyKeys(&cluster, ds, {0});
  EXPECT_TRUE(hk.empty());
}

TEST(SkewTest, ThresholdBoundsHeavyKeyCount) {
  // With threshold t, at most 1/t heavy keys per partition can exist.
  ClusterConfig cfg{.num_partitions = 1};
  cfg.heavy_key_threshold = 0.10;
  cfg.skew_sample_rate = 1.0;  // sample everything
  Cluster cluster(cfg);
  std::vector<Row> rows;
  for (int64_t k = 0; k < 20; ++k) {
    for (int64_t i = 0; i < 50; ++i) {
      rows.push_back(Row({Field::Int(k), Field::Int(i)}));
    }
  }
  auto ds =
      runtime::Source(&cluster, KvSchema(), std::move(rows), "b").ValueOrDie();
  HeavyKeySet hk = DetectHeavyKeys(&cluster, ds, {0});
  EXPECT_LE(hk.size(), 10u);  // 1 / 0.10
}

TEST(SkewTest, EncodedAndLegacySamplingAgree) {
  // The encoded heavy set agrees with a reference sampler keyed by the
  // legacy container identity (Field::operator== plus Field::Hash): same
  // hash-selected sample, same per-partition counts and cutoff, same heavy
  // keys; the sampling stage's telemetry is thread-count-invariant.
  ClusterConfig cfg{.num_partitions = 4};
  auto detect = [&](int threads) {
    ClusterConfig c = cfg;
    c.num_threads = threads;
    Cluster cluster(c);
    Dataset ds = Skewed(&cluster, 900, 50);
    cluster.stats().Reset();
    HeavyKeySet hk = DetectHeavyKeys(&cluster, ds, {0});
    return std::make_tuple(std::move(hk), cluster.stats().stages().back(),
                           std::move(ds));
  };
  auto [hk, stage, ds] = detect(1);
  auto [hk4, stage4, ds4] = detect(4);

  std::vector<int64_t> reference;  // heavy keys by the legacy identity
  uint64_t sampled_total = 0;
  const uint64_t stride = static_cast<uint64_t>(1.0 / cfg.skew_sample_rate);
  for (size_t p = 0; p < ds.NumPartitions(); ++p) {
    std::vector<std::pair<Field, size_t>> counts;
    size_t sampled = 0;
    for (size_t i = 0; i < ds.PartitionRowCount(p); ++i) {
      if (Mix64((static_cast<uint64_t>(p) << 32) ^ i ^ cfg.seed) % stride !=
          0) {
        continue;
      }
      ++sampled;
      Field k = ds.RowAt(p, i).fields[0];
      auto it = std::find_if(counts.begin(), counts.end(), [&](const auto& e) {
        return e.first == k && e.first.Hash() == k.Hash();
      });
      if (it == counts.end()) {
        counts.emplace_back(k, 1);
      } else {
        ++it->second;
      }
    }
    sampled_total += sampled;
    size_t cutoff = static_cast<size_t>(cfg.heavy_key_threshold *
                                        static_cast<double>(sampled));
    if (cutoff < 2) cutoff = 2;
    for (const auto& [k, n] : counts) {
      if (n >= cutoff &&
          std::find(reference.begin(), reference.end(), k.AsInt()) ==
              reference.end()) {
        reference.push_back(k.AsInt());
      }
    }
  }
  EXPECT_EQ(hk.size(), reference.size());
  EXPECT_EQ(stage.rows_in, sampled_total);
  for (int64_t k = 0; k < 200; ++k) {
    Row probe({Field::Int(k), Field::Int(0)});
    bool want = std::find(reference.begin(), reference.end(), k) !=
                reference.end();
    EXPECT_EQ(hk.IsHeavy(probe, {0}), want) << "key " << k;
    EXPECT_EQ(hk4.IsHeavy(probe, {0}), want) << "key " << k;
  }
  EXPECT_EQ(stage.heavy_key_count, stage4.heavy_key_count);
  EXPECT_EQ(stage.shuffle_bytes, stage4.shuffle_bytes);
  EXPECT_EQ(stage.hash_build_rows, stage4.hash_build_rows);
  EXPECT_EQ(stage.hash_probe_hits, stage4.hash_probe_hits);
  EXPECT_EQ(stage.hash_max_chain, stage4.hash_max_chain);
  EXPECT_EQ(stage.key_encode_bytes, stage4.key_encode_bytes);
  EXPECT_GT(stage.key_encode_bytes, 0u);
}

TEST(SkewTest, SplitPartitionsRowsExactly) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  Dataset ds = Skewed(&cluster, 500, 40);
  auto triple = SplitByHeavyKeys(&cluster, ds, {0}, std::nullopt, "t");
  ASSERT_TRUE(triple.ok());
  EXPECT_EQ(triple->light.NumRows() + triple->heavy.NumRows(), 540u);
  for (const auto& r : triple->heavy.Collect()) {
    EXPECT_EQ(r.fields[0].AsInt(), 7);
  }
  for (const auto& r : triple->light.Collect()) {
    EXPECT_NE(r.fields[0].AsInt(), 7);
  }
}

TEST(SkewTest, SkewAwareJoinMatchesPlainJoin) {
  ClusterConfig cfg{.num_partitions = 4};
  Cluster cluster(cfg);
  Dataset l = Skewed(&cluster, 300, 30);
  std::vector<Row> rrows;
  rrows.push_back(Row({Field::Int(7), Field::Int(1000)}));
  for (int64_t k = 0; k < 30; ++k) {
    rrows.push_back(Row({Field::Int(100 + k), Field::Int(k)}));
  }
  Schema rs({{"k2", nrc::Type::Int()}, {"w", nrc::Type::Int()}});
  auto r = runtime::Source(&cluster, rs, rrows, "r").ValueOrDie();

  auto plain = runtime::HashJoin(&cluster, l, r, {0}, {0}, JoinType::kInner,
                                 "plain")
                   .ValueOrDie();
  auto aware = SkewAwareJoin(&cluster, SkewTriple::AllLight(l),
                             SkewTriple::AllLight(r), {0}, {0},
                             JoinType::kInner, "aware")
                   .ValueOrDie();
  auto merged = MergeTriple(&cluster, aware, "m").ValueOrDie();
  EXPECT_EQ(plain.NumRows(), merged.NumRows());
  // Multiset equality of results.
  auto histogram = [](const Dataset& ds) {
    std::map<std::pair<int64_t, int64_t>, int> h;
    for (const auto& row : ds.Collect()) {
      ++h[{row.fields[0].AsInt(), row.fields[1].AsInt()}];
    }
    return h;
  };
  EXPECT_EQ(histogram(plain), histogram(merged));
}

TEST(SkewTest, SkewAwareJoinWithoutHeavyKeysRunsNoHeavyJoin) {
  // Uniform keys have no heavy keys: the skew-aware join is the light hash
  // join alone, and its heavy component is empty with the join schema.
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  std::vector<Row> lrows;
  std::vector<Row> rrows;
  for (int64_t i = 0; i < 2000; ++i) {
    lrows.push_back(Row({Field::Int(i), Field::Int(i)}));
    if (i % 3 == 0) rrows.push_back(Row({Field::Int(i), Field::Int(-i)}));
  }
  auto l = runtime::Source(&cluster, KvSchema(), std::move(lrows), "l")
               .ValueOrDie();
  Schema rs({{"k2", nrc::Type::Int()}, {"w", nrc::Type::Int()}});
  auto r = runtime::Source(&cluster, rs, std::move(rrows), "r").ValueOrDie();

  auto plain = runtime::HashJoin(&cluster, l, r, {0}, {0}, JoinType::kInner,
                                 "plain")
                   .ValueOrDie();
  cluster.stats().Reset();
  auto aware = SkewAwareJoin(&cluster, SkewTriple::AllLight(l),
                             SkewTriple::AllLight(r), {0}, {0},
                             JoinType::kInner, "aware")
                   .ValueOrDie();
  for (const auto& s : cluster.stats().stages()) {
    EXPECT_NE(s.op, "aware.heavy");
  }
  EXPECT_EQ(aware.heavy.NumRows(), 0u);
  EXPECT_EQ(aware.heavy.schema.ToString(), plain.schema.ToString());
  ASSERT_EQ(aware.light.NumPartitions(), plain.NumPartitions());
  for (size_t p = 0; p < plain.NumPartitions(); ++p) {
    ASSERT_EQ(aware.light.PartitionRowCount(p), plain.PartitionRowCount(p));
    for (size_t i = 0; i < plain.PartitionRowCount(p); ++i) {
      EXPECT_TRUE(aware.light.RowAt(p, i).fields == plain.RowAt(p, i).fields)
          << "partition " << p << " row " << i;
    }
  }
}

TEST(SkewTest, SkewAwareOuterJoinKeepsMisses) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  Dataset l = Skewed(&cluster, 200, 20);  // key 7 heavy; no match on right
  Schema rs({{"k2", nrc::Type::Int()}, {"w", nrc::Type::Int()}});
  std::vector<Row> rrows{Row({Field::Int(100), Field::Int(5)})};
  auto r = runtime::Source(&cluster, rs, rrows, "r").ValueOrDie();
  auto aware = SkewAwareJoin(&cluster, SkewTriple::AllLight(l),
                             SkewTriple::AllLight(r), {0}, {0},
                             JoinType::kLeftOuter, "aware")
                   .ValueOrDie();
  EXPECT_EQ(aware.NumRows(), 220u);  // every left row survives
  size_t nulls = 0;
  auto merged = MergeTriple(&cluster, aware, "m").ValueOrDie();
  for (const auto& row : merged.Collect()) {
    if (row.fields[2].is_null()) ++nulls;
  }
  EXPECT_EQ(nulls, 219u);  // all but the single key-100 match
}

TEST(SkewTest, SkewAwareJoinShufflesLessOnSkew) {
  ClusterConfig cfg{.num_partitions = 8};
  auto run = [&](bool aware) {
    Cluster cluster(cfg);
    Dataset l = Skewed(&cluster, 5000, 100);
    Schema rs({{"k2", nrc::Type::Int()}, {"w", nrc::Type::Int()}});
    std::vector<Row> rrows{Row({Field::Int(7), Field::Int(0)})};
    for (int64_t k = 0; k < 100; ++k) {
      rrows.push_back(Row({Field::Int(100 + k), Field::Int(k)}));
    }
    auto r = runtime::Source(&cluster, rs, rrows, "r").ValueOrDie();
    cluster.stats().Reset();
    if (aware) {
      SkewAwareJoin(&cluster, SkewTriple::AllLight(l),
                    SkewTriple::AllLight(r), {0}, {0}, JoinType::kInner,
                    "j")
          .ValueOrDie();
    } else {
      runtime::HashJoin(&cluster, l, r, {0}, {0}, JoinType::kInner, "j")
          .ValueOrDie();
    }
    return cluster.stats().totals().shuffle_bytes;
  };
  EXPECT_LT(run(true) * 5, run(false));
}

TEST(SkewTest, BagToDictLeavesHeavyLabelsInPlace) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  // Rows keyed by labels, one heavy.
  std::vector<Row> rows;
  Field heavy = runtime::MakeLabel({{"id", Field::Int(1)}});
  for (int i = 0; i < 400; ++i) {
    rows.push_back(Row({heavy, Field::Int(i)}));
  }
  for (int i = 0; i < 40; ++i) {
    rows.push_back(Row({runtime::MakeLabel({{"id", Field::Int(100 + i)}}),
                        Field::Int(i)}));
  }
  Schema s({{"label", nrc::Type::Label()}, {"v", nrc::Type::Int()}});
  auto ds =
      runtime::Source(&cluster, s, std::move(rows), "d").ValueOrDie();
  cluster.stats().Reset();
  auto triple =
      SkewAwareBagToDict(&cluster, SkewTriple::AllLight(ds), 0, "b2d")
          .ValueOrDie();
  EXPECT_EQ(triple.heavy.NumRows(), 400u);
  EXPECT_EQ(triple.light.NumRows(), 40u);
  EXPECT_TRUE(triple.light.partitioning.IsHashOn({0}));
  // The heavy rows did not move: their shuffle contribution is zero beyond
  // the light repartition.
  uint64_t heavy_bytes = triple.heavy.DeepSizeBytes();
  EXPECT_LT(cluster.stats().totals().shuffle_bytes, heavy_bytes);
}

}  // namespace
}  // namespace skew
}  // namespace trance
