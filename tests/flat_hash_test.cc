// Flat open-addressing hash-table tests (ctest label `flathash`).
//
// Part 1 — table properties: on randomized encoded keys (with enough
// distinct keys to force several slot-array doublings) FlatKeyIndex agrees
// with a std::unordered_map oracle on membership, dense-index assignment,
// and FindOrInsert insert/hit classification; forced hash collisions
// (identical 64-bit hash, different bytes) stay distinct; the empty key
// (zero-length bytes) is a valid key; dense indices are stable for the
// table's lifetime (erase-less semantics) and KeyAt round-trips every
// inserted key byte-exactly through arena growth. KeyTable, the keyed
// operators' table, writes exactly the seven keyed counters that the same
// Add/Find sequence run by hand on a FlatKeyIndex and a KeyEncoder yields.
//
// Part 2 — every Fig-7 narrow-suite query, through both compilation routes,
// produces identical per-partition rows (hence identical placement) and
// identical JobStats with partition parallelism on (4 and 8 worker threads)
// and off (the sequential one-thread path) — the flat-table counters
// (hash_table_bytes / hash_resizes / hash_probe_len_max) included, since
// per-partition tables are slot-merged in partition order. The counters
// flow into EXPLAIN ANALYZE ("flat(tbl=") and the JSON export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fig7_suite.h"
#include "obs/export.h"
#include "runtime/flat_hash.h"
#include "runtime/key_codec.h"
#include "util/random.h"

namespace trance {
namespace {

using runtime::Field;
using runtime::Row;
using runtime::StageStats;
namespace key_codec = runtime::key_codec;
using runtime::flat_hash::FlatKeyIndex;
using runtime::flat_hash::KeyTable;

// --- Part 1: table properties -------------------------------------------

/// A hand-built owning key; hash is chosen by the test, not derived from the
/// bytes, so collisions can be forced at will.
key_codec::EncodedKey MakeKey(uint64_t hash, std::string bytes) {
  return key_codec::EncodedKey{hash, std::move(bytes)};
}

key_codec::EncodedKeyRef View(const key_codec::EncodedKey& k) {
  return key_codec::EncodedKeyRef{k.hash, k.bytes};
}

/// Random key material with odd, varied lengths (0..40 bytes) so arena
/// offsets land on every alignment and sanitizer builds would catch any
/// out-of-bounds memcmp against arena memory.
key_codec::EncodedKey RandomKey(Rng* rng, uint64_t key_space) {
  uint64_t id = rng->UniformRange(0, static_cast<int64_t>(key_space) - 1);
  std::string bytes = "key-" + std::to_string(id);
  size_t pad = static_cast<size_t>(id % 37);
  bytes.append(pad, static_cast<char>('a' + id % 26));
  return MakeKey(SplitMix64(id) ^ 0x9e3779b97f4a7c15ull, std::move(bytes));
}

void OracleParityRun(uint64_t seed, uint64_t key_space, int ops) {
  Rng rng(static_cast<int64_t>(seed));
  FlatKeyIndex idx;
  std::unordered_map<std::string, uint32_t> oracle;
  std::vector<std::string> dense_bytes;  // oracle for KeyAt / index stability
  for (int i = 0; i < ops; ++i) {
    key_codec::EncodedKey k = RandomKey(&rng, key_space);
    if (rng.UniformRange(0, 3) == 0) {
      // Probe-only path: must agree with the oracle and never insert.
      uint32_t got = idx.Find(View(k));
      auto it = oracle.find(k.bytes);
      if (it == oracle.end()) {
        EXPECT_EQ(got, FlatKeyIndex::kNotFound) << "op " << i;
      } else {
        EXPECT_EQ(got, it->second) << "op " << i;
      }
      continue;
    }
    auto [gi, inserted] = idx.FindOrInsert(View(k));
    auto [it, fresh] = oracle.emplace(k.bytes, gi);
    EXPECT_EQ(inserted, fresh) << "op " << i;
    EXPECT_EQ(gi, it->second) << "op " << i;
    if (fresh) {
      // Dense first-insertion order: the i-th distinct key gets index i.
      EXPECT_EQ(gi, dense_bytes.size()) << "op " << i;
      dense_bytes.push_back(k.bytes);
    }
  }
  EXPECT_EQ(idx.size(), oracle.size());
  // Erase-less stable indices: every key still maps to its original index
  // and KeyAt round-trips the bytes even after all intervening resizes.
  for (uint32_t gi = 0; gi < dense_bytes.size(); ++gi) {
    key_codec::EncodedKeyRef k = idx.KeyAt(gi);
    EXPECT_EQ(std::string(k.bytes), dense_bytes[gi]) << "index " << gi;
    EXPECT_EQ(idx.Find(k), gi) << "index " << gi;
  }
}

TEST(FlatHashTest, OracleParityWithResizes) {
  // 40k ops over ~6k distinct keys: the table doubles from 16 slots many
  // times while the probe/insert mix exercises every growth boundary.
  OracleParityRun(42, 6000, 40000);
}

TEST(FlatHashTest, ForcedHashCollisionsStayDistinct) {
  // Every key shares one 64-bit hash; the table must fall back to byte
  // comparison and keep all of them distinct via linear probing.
  FlatKeyIndex idx;
  constexpr uint64_t kHash = 0xDEADBEEFCAFEBABEull;
  constexpr int kKeys = 200;  // > kMinSlots, so collisions survive resizes
  for (int i = 0; i < kKeys; ++i) {
    key_codec::EncodedKey k = MakeKey(kHash, "collide-" + std::to_string(i));
    auto [gi, inserted] = idx.FindOrInsert(View(k));
    ASSERT_TRUE(inserted) << i;
    ASSERT_EQ(gi, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(idx.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    key_codec::EncodedKey k = MakeKey(kHash, "collide-" + std::to_string(i));
    EXPECT_EQ(idx.Find(View(k)), static_cast<uint32_t>(i));
    auto [gi, inserted] = idx.FindOrInsert(View(k));
    EXPECT_FALSE(inserted);
    EXPECT_EQ(gi, static_cast<uint32_t>(i));
  }
  // Same hash, absent bytes: the whole collision chain is walked to a miss.
  key_codec::EncodedKey miss = MakeKey(kHash, "not-present");
  EXPECT_EQ(idx.Find(View(miss)), FlatKeyIndex::kNotFound);
  EXPECT_GE(idx.max_probe_len(), static_cast<uint64_t>(kKeys) - 1);
}

TEST(FlatHashTest, EmptyKeyIsAValidKey) {
  FlatKeyIndex idx;
  key_codec::EncodedKey empty = MakeKey(0, "");
  EXPECT_EQ(idx.Find(View(empty)), FlatKeyIndex::kNotFound);
  auto [gi, inserted] = idx.FindOrInsert(View(empty));
  EXPECT_TRUE(inserted);
  EXPECT_EQ(gi, 0u);
  auto [gi2, inserted2] = idx.FindOrInsert(View(empty));
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(gi2, 0u);
  EXPECT_EQ(idx.Find(View(empty)), 0u);
  EXPECT_EQ(idx.KeyAt(0).bytes.size(), 0u);
  // Zero-hash empty key must not merge with a nonempty zero-hash key.
  key_codec::EncodedKey other = MakeKey(0, "x");
  auto [gi3, inserted3] = idx.FindOrInsert(View(other));
  EXPECT_TRUE(inserted3);
  EXPECT_EQ(gi3, 1u);
  EXPECT_EQ(idx.size(), 2u);
}

TEST(FlatHashTest, TelemetryCountsResizesAndFootprint) {
  FlatKeyIndex idx;
  EXPECT_EQ(idx.table_bytes(), 0u);
  EXPECT_EQ(idx.resizes(), 0u);
  uint64_t arena_bytes = 0;
  for (int i = 0; i < 5000; ++i) {
    key_codec::EncodedKey k =
        MakeKey(SplitMix64(static_cast<uint64_t>(i)), "k" + std::to_string(i));
    auto [gi, inserted] = idx.FindOrInsert(View(k));
    ASSERT_TRUE(inserted);
    arena_bytes += k.bytes.size();
  }
  // 5000 keys at 3/4 load need 8192 slots: 16 -> 8192 is 9 doublings.
  EXPECT_EQ(idx.resizes(), 9u);
  EXPECT_GT(idx.table_bytes(), arena_bytes);
  // Footprint is deterministic: an identical insertion sequence reproduces
  // it bit-exactly (the bench_diff kExact gate relies on this).
  FlatKeyIndex again;
  for (int i = 0; i < 5000; ++i) {
    key_codec::EncodedKey k =
        MakeKey(SplitMix64(static_cast<uint64_t>(i)), "k" + std::to_string(i));
    again.FindOrInsert(View(k));
  }
  EXPECT_EQ(again.table_bytes(), idx.table_bytes());
  EXPECT_EQ(again.resizes(), idx.resizes());

  // The pre-sized constructor absorbs the growth the default path performs.
  FlatKeyIndex sized(5000);
  for (int i = 0; i < 5000; ++i) {
    key_codec::EncodedKey k =
        MakeKey(SplitMix64(static_cast<uint64_t>(i)), "k" + std::to_string(i));
    sized.FindOrInsert(View(k));
  }
  EXPECT_EQ(sized.resizes(), 0u);
  EXPECT_EQ(sized.table_bytes(), idx.table_bytes());
}

TEST(FlatHashTest, ArenaStressOddLengthsManyResizes) {
  // Adversarial arena layout: key lengths cycle through every residue mod
  // 37 (never aligned), with enough keys for ~12 slot-array doublings.
  // Sanitizer builds (ci/sanitize.sh runs this label) verify every memcmp
  // stays inside the arena; here we verify byte-exact round-trips.
  FlatKeyIndex idx;
  constexpr int kKeys = 30000;
  for (int i = 0; i < kKeys; ++i) {
    std::string bytes(static_cast<size_t>(i % 37), static_cast<char>(i % 251));
    bytes += std::to_string(i);
    auto [gi, inserted] =
        idx.FindOrInsert(View(MakeKey(SplitMix64(i * 2654435761ull), bytes)));
    ASSERT_TRUE(inserted) << i;
    ASSERT_EQ(gi, static_cast<uint32_t>(i));
  }
  EXPECT_GE(idx.resizes(), 11u);
  Rng rng(13);
  for (int t = 0; t < 2000; ++t) {
    uint32_t i = static_cast<uint32_t>(rng.UniformRange(0, kKeys - 1));
    std::string bytes(static_cast<size_t>(i % 37), static_cast<char>(i % 251));
    bytes += std::to_string(i);
    key_codec::EncodedKeyRef got = idx.KeyAt(i);
    ASSERT_EQ(std::string(got.bytes), bytes) << i;
    EXPECT_EQ(idx.Find(View(MakeKey(SplitMix64(i * 2654435761ull), bytes))),
              i);
  }
}

/// The bag {x: a, x: b} (order as given).
Field PairBag(int64_t a, int64_t b) {
  return Field::Bag({Row({Field::Int(a)}), Row({Field::Int(b)})});
}

runtime::Schema KeyedSchema() {
  return runtime::Schema(
      {{"k", nrc::Type::Int()},
       {"b", nrc::Type::Bag(nrc::Type::Tuple({{"x", nrc::Type::Int()}}))}});
}

/// A (k: int, b: bag) block keyed on both columns: rows 0-47 hold 16 keys
/// (k = i % 16, NULL for 5; the bag {i % 16, 1} in alternating element
/// order), three rows each; rows 48-52 pair k = 0, 1, 2, 3, 0 with a NULL
/// bag (four keys); rows 53-56 repeat key 7, which ends with 7 rows. That
/// is 20 keys, more than a 16-slot table holds at 3/4 load.
runtime::column::PartitionBlock KeyedBlock() {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 48; ++i) {
    const int64_t k = i % 16;
    rows.push_back(Row({k == 5 ? Field::Null() : Field::Int(k),
                        i % 2 == 0 ? PairBag(k, 1) : PairBag(1, k)}));
  }
  for (int64_t k : {0, 1, 2, 3, 0}) {
    rows.push_back(Row({Field::Int(k), Field::Null()}));
  }
  for (int i = 0; i < 4; ++i) {
    rows.push_back(Row({Field::Int(7), PairBag(7, 1)}));
  }
  return runtime::column::PartitionBlock::FromRows(KeyedSchema(), rows);
}

TEST(KeyTableTest, CountersMatchTheHandWrittenLoop) {
  const runtime::column::PartitionBlock block = KeyedBlock();
  const std::vector<int> cols{0, 1};
  // Probes: rows 0-15 (one per bag key, all hits) and rows whose k is
  // shifted out of the key domain (misses).
  std::vector<Row> probe_rows;
  for (size_t i = 0; i < 16; ++i) probe_rows.push_back(block.RowAt(i));
  for (int64_t k = 100; k < 104; ++k) {
    probe_rows.push_back(Row({Field::Int(k), PairBag(k, 1)}));
  }
  const runtime::column::PartitionBlock probes =
      runtime::column::PartitionBlock::FromRows(KeyedSchema(), probe_rows);

  // The parent's loop, by hand: encode, find-or-insert, count.
  StageStats want;
  std::vector<std::pair<uint32_t, bool>> want_adds;
  std::vector<uint32_t> want_finds;
  {
    FlatKeyIndex idx;
    key_codec::KeyEncoder enc;
    std::vector<uint64_t> group_rows;
    for (size_t i = 0; i < block.NumRows(); ++i) {
      auto [g, inserted] = idx.FindOrInsert(enc.EncodeAt(block, i, cols));
      if (inserted) {
        group_rows.push_back(0);
        want.hash_build_rows++;
      } else {
        want.hash_probe_hits++;
      }
      want.hash_max_chain = std::max(want.hash_max_chain, ++group_rows[g]);
      want_adds.emplace_back(g, inserted);
    }
    for (size_t j = 0; j < probes.NumRows(); ++j) {
      const uint32_t g = idx.Find(enc.EncodeAt(probes, j, cols));
      if (g != FlatKeyIndex::kNotFound) want.hash_probe_hits++;
      want_finds.push_back(g);
    }
    want.key_encode_bytes = enc.bytes_encoded();
    want.hash_table_bytes = idx.table_bytes();
    want.hash_resizes = idx.resizes();
    want.hash_probe_len_max = idx.max_probe_len();
  }

  StageStats got;
  {
    KeyTable table(&got);
    for (size_t i = 0; i < block.NumRows(); ++i) {
      EXPECT_EQ(table.Add(block, i, cols), want_adds[i]) << "add " << i;
    }
    for (size_t j = 0; j < probes.NumRows(); ++j) {
      EXPECT_EQ(table.Find(probes, j, cols), want_finds[j]) << "find " << j;
    }
    EXPECT_EQ(table.size(), 20u);
    EXPECT_EQ(table.rows(want_adds[7].first), 7u);
    // The table-level counters land when the table goes away.
    EXPECT_EQ(got.key_encode_bytes, 0u);
    EXPECT_EQ(got.hash_table_bytes, 0u);
  }
  // 20 keys; 37 repeated adds and 16 found probes; key 7 holds 7 rows.
  EXPECT_EQ(want.hash_build_rows, 20u);
  EXPECT_EQ(want.hash_probe_hits, 37u + 16u);
  EXPECT_EQ(want.hash_max_chain, 7u);
  EXPECT_GE(want.hash_resizes, 1u);
  EXPECT_EQ(got.hash_build_rows, want.hash_build_rows);
  EXPECT_EQ(got.hash_probe_hits, want.hash_probe_hits);
  EXPECT_EQ(got.hash_max_chain, want.hash_max_chain);
  EXPECT_EQ(got.key_encode_bytes, want.key_encode_bytes);
  EXPECT_EQ(got.hash_table_bytes, want.hash_table_bytes);
  EXPECT_EQ(got.hash_resizes, want.hash_resizes);
  EXPECT_EQ(got.hash_probe_len_max, want.hash_probe_len_max);

  // A second table on the same slot (as the heavy-key sampler runs one per
  // partition) adds its sums and keeps the larger maxima.
  {
    KeyTable again(&got);
    for (size_t i = 0; i < block.NumRows(); ++i) again.Add(block, i, cols);
    for (size_t j = 0; j < probes.NumRows(); ++j) again.Find(probes, j, cols);
  }
  EXPECT_EQ(got.hash_build_rows, 2 * want.hash_build_rows);
  EXPECT_EQ(got.hash_probe_hits, 2 * want.hash_probe_hits);
  EXPECT_EQ(got.key_encode_bytes, 2 * want.key_encode_bytes);
  EXPECT_EQ(got.hash_table_bytes, 2 * want.hash_table_bytes);
  EXPECT_EQ(got.hash_resizes, 2 * want.hash_resizes);
  EXPECT_EQ(got.hash_max_chain, want.hash_max_chain);
  EXPECT_EQ(got.hash_probe_len_max, want.hash_probe_len_max);
}

// --- Part 2: the Fig-7 suite with partition parallelism on and off -------

class FlatHashSuiteTest
    : public ::testing::TestWithParam<fig7_suite::SuiteParam> {};

TEST_P(FlatHashSuiteTest, StandardRouteOnOffIdentical) {
  auto [kind, depth] = GetParam();
  auto q = fig7_suite::Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = fig7_suite::Inputs(kind, depth);

  fig7_suite::StandardRun seq =
      fig7_suite::RunStandard(*q, values, fig7_suite::Config(1));
  ASSERT_TRUE(seq.ok()) << seq.status;
  for (int threads : {4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    fig7_suite::StandardRun par =
        fig7_suite::RunStandard(*q, values, fig7_suite::Config(threads));
    ASSERT_TRUE(par.ok()) << par.status;
    fig7_suite::ExpectSameRows(seq.out, par.out);
    fig7_suite::ExpectSameStats(seq.stats, par.stats);
  }
  // Every keyed build runs on a flat table.
  EXPECT_EQ(seq.stats.totals().hash_build_rows > 0,
            seq.stats.totals().hash_table_bytes > 0);
}

TEST_P(FlatHashSuiteTest, ShreddedRouteOnOffIdentical) {
  auto [kind, depth] = GetParam();
  auto q = fig7_suite::Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = fig7_suite::Inputs(kind, depth);

  fig7_suite::ShreddedRun seq =
      fig7_suite::RunShredded(*q, values, fig7_suite::Config(1));
  ASSERT_TRUE(seq.ok()) << seq.status;
  for (int threads : {4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    fig7_suite::ShreddedRun par =
        fig7_suite::RunShredded(*q, values, fig7_suite::Config(threads));
    ASSERT_TRUE(par.ok()) << par.status;
    fig7_suite::ExpectSameShreddedRows(seq.out, par.out);
    fig7_suite::ExpectSameStats(seq.stats, par.stats);
  }
  EXPECT_EQ(seq.stats.totals().hash_build_rows > 0,
            seq.stats.totals().hash_table_bytes > 0);
}

INSTANTIATE_TEST_SUITE_P(
    Fig7NarrowSuite, FlatHashSuiteTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 2, 4)),
    fig7_suite::ParamName);

// --- Counter plumbing ----------------------------------------------------

TEST(FlatHashRuntimeTest, DistinctOnOffIdenticalAndCounted) {
  // On/off is partition parallelism, as in the suite above.
  auto run = [](int threads) {
    runtime::Cluster cluster(fig7_suite::Config(threads));
    std::vector<Row> rows;
    for (int64_t i = 0; i < 1000; ++i) {
      rows.push_back(Row({Field::Int(i % 100),
                          Field::Str("v" + std::to_string(i % 100))}));
    }
    runtime::Schema s(
        {{"k", nrc::Type::Int()}, {"v", nrc::Type::String()}});
    auto ds = runtime::Source(&cluster, s, std::move(rows), "in").ValueOrDie();
    cluster.stats().Reset();
    auto out = runtime::Distinct(&cluster, ds, "dedup").ValueOrDie();
    return std::make_pair(std::move(out), cluster.stats());
  };
  auto [seq_out, seq_stats] = run(1);
  auto [par_out, par_stats] = run(8);
  fig7_suite::ExpectSameRows(seq_out, par_out);
  fig7_suite::ExpectSameStats(seq_stats, par_stats);
  EXPECT_EQ(seq_out.NumRows(), 100u);
  const StageStats& stage = seq_stats.stages().back();
  EXPECT_EQ(stage.hash_build_rows, 100u);
  EXPECT_GT(stage.hash_table_bytes, 0u);
  EXPECT_EQ(stage.hash_resizes, par_stats.stages().back().hash_resizes);
  EXPECT_EQ(stage.hash_probe_len_max,
            par_stats.stages().back().hash_probe_len_max);
}

TEST(FlatHashRuntimeTest, CountersVisibleInJsonAndExplain) {
  auto q = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto values = fig7_suite::TpchValues(tpch::Generate(cfg));
  fig7_suite::StandardRun r =
      fig7_suite::RunStandard(*q, values, fig7_suite::Config(1));
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_GT(r.stats.totals().hash_table_bytes, 0u);

  std::string json = obs::JobStatsToJson(r.stats);
  EXPECT_NE(json.find("\"hash_table_bytes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_resizes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_probe_len_max\""), std::string::npos) << json;

  EXPECT_NE(r.explain.find("flat(tbl="), std::string::npos) << r.explain;
}

}  // namespace
}  // namespace trance
