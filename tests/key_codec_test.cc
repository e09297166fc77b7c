// Encoded-key codec tests (ctest label `keys`).
//
// Part 1 — codec properties: on randomized field values (NULLs, int/real
// numeric edges, empty strings, nested and collapsed labels, empty and
// nested bags, NULL in bag positions) the binary encoding's byte equality
// coincides with the
// legacy container identity (Field::operator== AND Field::Hash per
// column), and the encoder's hash equals RowHashOn (so the commutative,
// order-insensitive guarantee survives — permuted key columns hash and
// place identically). Bags encode canonically: element order never matters,
// multiplicity, Int-vs-Real elements and NULL-vs-empty always do.
//
// Part 2 — bag-valued keys end to end: Distinct, NestGroup, SumAggregate,
// HashJoin and CoGroup keyed on a bag column produce the hand-computed
// multiset results at 1 and 4 threads, with identical placement.
//
// Part 3 — every Fig-7 narrow-suite query, through both compilation routes,
// produces identical per-partition rows and identical JobStats with
// partition parallelism on (4 worker threads) and off (the sequential
// one-thread path); the keyed counters are visible in EXPLAIN ANALYZE and
// the JSON export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "fig7_suite.h"
#include "obs/export.h"
#include "runtime/cluster.h"
#include "runtime/key_codec.h"
#include "runtime/ops.h"
#include "util/random.h"

namespace trance {
namespace {

using runtime::Dataset;
using runtime::Field;
using runtime::Row;
using runtime::StageStats;
namespace key_codec = runtime::key_codec;

// --- Part 1: codec properties -------------------------------------------

Field RandomBag(Rng* rng, int depth);

/// A randomized key field drawn from every kind, biased toward the edge
/// cases the codec must keep distinct (or merge): repeated small integers,
/// int-valued reals, signed zeros, empty strings, NULLs, and (at depth > 0)
/// labels capturing nested parameters and bags over small element domains.
Field RandomField(Rng* rng, int depth) {
  switch (rng->UniformRange(0, depth > 0 ? 7 : 5)) {
    case 0:
      return Field::Null();
    case 1:
      return Field::Int(rng->UniformRange(-3, 3));
    case 2: {
      // Int-valued and signed-zero reals collide with ints under
      // Field::operator== but hash apart; the codec must track the hash.
      static const double kReals[] = {0.0, -0.0, 1.0, -2.0, 0.5, 1e300};
      return Field::Real(kReals[rng->UniformRange(0, 5)]);
    }
    case 3:
      return Field::Str(rng->UniformRange(0, 2) == 0
                            ? ""
                            : "s" + std::to_string(rng->UniformRange(0, 3)));
    case 4:
      return Field::Bool(rng->UniformRange(0, 1) == 1);
    case 5:
      return Field::Int(rng->UniformRange(0, 1) == 0
                            ? std::numeric_limits<int64_t>::min()
                            : std::numeric_limits<int64_t>::max());
    case 6: {
      std::vector<std::pair<std::string, Field>> params;
      int n = static_cast<int>(rng->UniformRange(0, 2));
      for (int i = 0; i < n; ++i) {
        params.emplace_back("p" + std::to_string(i),
                            RandomField(rng, depth - 1));
      }
      return runtime::MakeLabel(std::move(params));
    }
    default:
      return RandomBag(rng, depth - 1);
  }
}

/// NULL, or an empty or small bag of one- or two-field rows. Elements come
/// from a tiny domain (0/1 as Int or Real, "", NULL, nested bags) so equal,
/// permuted, and Int-vs-Real-differing bags are all common.
Field RandomBag(Rng* rng, int depth) {
  if (rng->UniformRange(0, 7) == 0) return Field::Null();
  std::vector<Row> elems;
  for (int64_t i = 0, n = rng->UniformRange(0, 3); i < n; ++i) {
    Row r;
    for (int64_t f = 0, w = rng->UniformRange(1, 2); f < w; ++f) {
      switch (rng->UniformRange(0, depth > 0 ? 4 : 3)) {
        case 0:
          r.fields.push_back(Field::Int(rng->UniformRange(0, 1)));
          break;
        case 1:
          r.fields.push_back(
              Field::Real(static_cast<double>(rng->UniformRange(0, 1))));
          break;
        case 2:
          r.fields.push_back(Field::Str(""));
          break;
        case 3:
          r.fields.push_back(Field::Null());
          break;
        default:
          r.fields.push_back(RandomBag(rng, depth - 1));
      }
    }
    elems.push_back(std::move(r));
  }
  return Field::Bag(std::move(elems));
}

/// The same runtime value with every bag's elements (recursively) in
/// reversed order: operator== and Field::Hash treat it as the same value.
Field Permuted(const Field& f) {
  if (!f.is_bag()) return f;
  std::vector<Row> elems;
  const std::vector<Row>& members = f.AsBag()->rows();
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    Row r;
    for (const Field& ef : it->fields) r.fields.push_back(Permuted(ef));
    elems.push_back(std::move(r));
  }
  return Field::Bag(std::move(elems));
}

/// The legacy container identity: two fields land in the same hash-map slot
/// iff they compare equal AND hash equal (Int(1) vs Real(1.0) compare equal
/// but hash apart, so the containers keep them distinct).
bool LegacySameKey(const Row& a, const Row& b) {
  if (a.fields.size() != b.fields.size()) return false;
  for (size_t i = 0; i < a.fields.size(); ++i) {
    if (!(a.fields[i] == b.fields[i])) return false;
    if (a.fields[i].Hash() != b.fields[i].Hash()) return false;
  }
  return true;
}

TEST(KeyCodecTest, ByteEqualityMatchesLegacyContainerIdentity) {
  Rng rng(42);
  key_codec::KeyEncoder enc;
  std::vector<int> cols{0, 1};
  int equal_bag_pairs = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    Row a({RandomField(&rng, 2), RandomField(&rng, 2)});
    // A third of the pairs compare a row against its bag-permuted copy,
    // so equal multisets in different orders are exercised constantly.
    Row b = rng.UniformRange(0, 2) == 0
                ? Row({Permuted(a.fields[0]), Permuted(a.fields[1])})
                : Row({RandomField(&rng, 2), RandomField(&rng, 2)});
    key_codec::EncodedKey ea = key_codec::Materialize(enc.Encode(a, cols));
    key_codec::EncodedKeyRef kb = enc.Encode(b, cols);
    bool bytes_equal = ea.bytes == kb.bytes;
    EXPECT_EQ(bytes_equal, LegacySameKey(a, b))
        << "trial " << trial << ": " << runtime::RowToString(a) << " vs "
        << runtime::RowToString(b);
    if (bytes_equal) {
      EXPECT_EQ(ea.hash, kb.hash);
      if (a.fields[0].is_bag()) ++equal_bag_pairs;
    }
  }
  EXPECT_GT(equal_bag_pairs, 100);
}

TEST(KeyCodecTest, EncoderHashEqualsRowHashOn) {
  Rng rng(7);
  key_codec::KeyEncoder enc;
  std::vector<int> cols{0, 1, 2};
  for (int trial = 0; trial < 5000; ++trial) {
    Row r({RandomField(&rng, 2), RandomField(&rng, 2), RandomField(&rng, 2)});
    EXPECT_EQ(enc.Encode(r, cols).hash, runtime::RowHashOn(r, cols));
  }
}

TEST(KeyCodecTest, PermutedKeyColumnsHashAndPlaceIdentically) {
  runtime::ClusterConfig cfg;
  cfg.num_partitions = 8;
  runtime::Cluster cluster(cfg);
  Rng rng(11);
  key_codec::KeyEncoder enc;
  for (int trial = 0; trial < 2000; ++trial) {
    Row r({RandomField(&rng, 1), RandomField(&rng, 1), RandomField(&rng, 1)});
    uint64_t a = enc.Encode(r, {0, 1, 2}).hash;
    uint64_t b = enc.Encode(r, {2, 0, 1}).hash;
    // The per-column sum is commutative (the RowHashOn guarantee), so hash
    // — and therefore partition placement — ignores column order.
    EXPECT_EQ(a, b);
    EXPECT_EQ(cluster.PartitionOf(a), cluster.PartitionOf(b));
  }
}

TEST(KeyCodecTest, CollapsedLabelsEncodeIdentically) {
  // MakeLabel collapses a single label-valued parameter to that label, so
  // the wrapped and unwrapped forms are the same runtime value and must be
  // the same key.
  Field inner = runtime::MakeLabel({{"id", Field::Int(3)}});
  Field wrapped = runtime::MakeLabel({{"x", inner}});
  key_codec::KeyEncoder enc;
  key_codec::EncodedKey ea = key_codec::Materialize(enc.Encode(Row({inner}), {0}));
  key_codec::EncodedKeyRef b = enc.Encode(Row({wrapped}), {0});
  EXPECT_EQ(ea.bytes, b.bytes);
  EXPECT_EQ(ea.hash, b.hash);
}

TEST(KeyCodecTest, SignedZeroMergesNullLabelStaysDistinct) {
  key_codec::KeyEncoder enc;
  key_codec::EncodedKey pos =
      key_codec::Materialize(enc.Encode(Row({Field::Real(0.0)}), {0}));
  // 0.0 == -0.0 and their hashes agree.
  EXPECT_EQ(pos.bytes, enc.Encode(Row({Field::Real(-0.0)}), {0}).bytes);

  // NULL in a label column and a label with zero captured params are
  // distinct runtime values (distinct hashes) and must not merge.
  key_codec::EncodedKey null_label =
      key_codec::Materialize(enc.Encode(Row({Field::Null()}), {0}));
  EXPECT_NE(null_label.bytes,
            enc.Encode(Row({runtime::MakeLabel({})}), {0}).bytes);
}

/// Bytes of the one-column key `f`.
std::string KeyBytes(const Field& f) {
  key_codec::KeyEncoder enc;
  return std::string(enc.Encode(Row({f}), {0}).bytes);
}

Field IntBag(std::vector<int64_t> xs) {
  std::vector<Row> rows;
  for (int64_t x : xs) rows.push_back(Row({Field::Int(x)}));
  return Field::Bag(std::move(rows));
}

TEST(KeyCodecTest, BagEncodingIsCanonical) {
  // Element order never reaches the bytes; multiplicity, element type, and
  // NULL-vs-empty always do (each mirrors Field::operator== plus
  // Field::Hash).
  EXPECT_EQ(KeyBytes(IntBag({1, 2, 3})), KeyBytes(IntBag({3, 1, 2})));
  EXPECT_NE(KeyBytes(IntBag({1, 2})), KeyBytes(IntBag({1, 1, 2})));
  EXPECT_NE(KeyBytes(IntBag({1})),
            KeyBytes(Field::Bag({Row({Field::Real(1.0)})})));
  EXPECT_NE(KeyBytes(IntBag({})), KeyBytes(Field::Null()));
  // Nested bags canonicalize at every level; a NULL inner bag and an empty
  // one stay distinct.
  Field nested_a = Field::Bag({Row({IntBag({1, 2})}), Row({IntBag({})})});
  Field nested_b = Field::Bag({Row({IntBag({})}), Row({IntBag({2, 1})})});
  EXPECT_EQ(KeyBytes(nested_a), KeyBytes(nested_b));
  EXPECT_NE(KeyBytes(nested_a),
            KeyBytes(Field::Bag({Row({IntBag({1, 2})}), Row({IntBag({0})})})));
  EXPECT_NE(KeyBytes(nested_a), KeyBytes(Field::Bag({Row({IntBag({1, 2})}),
                                                    Row({Field::Null()})})));
  // A bag is never confused with the flat value it contains.
  EXPECT_NE(KeyBytes(IntBag({1})), KeyBytes(Field::Int(1)));
}

// --- Part 2: bag-valued keys end to end -----------------------------------

/// A canonical rendering that is strict where Field::operator== is lenient:
/// Int and Real cells render differently, and bag elements are sorted so
/// element order does not matter.
std::string Canon(const Row& r);

std::string Canon(const Field& f) {
  if (f.is_null()) return "N";
  if (f.is_int()) return "i" + std::to_string(f.AsInt());
  if (f.is_real()) return "r" + std::to_string(f.AsReal());
  if (f.is_string()) return "s'" + f.AsString() + "'";
  if (f.is_bool()) return f.AsBool() ? "T" : "F";
  if (f.is_label()) return "L" + f.ToString();
  std::vector<std::string> elems;
  for (const Row& r : *f.AsBag()) elems.push_back(Canon(r));
  std::sort(elems.begin(), elems.end());
  std::string out = "{";
  for (const std::string& e : elems) out += e + ";";
  return out + "}";
}

std::string Canon(const Row& r) {
  std::string out = "(";
  for (const Field& f : r.fields) out += Canon(f) + ",";
  return out + ")";
}

/// Order-insensitive, Int/Real- and null/empty-strict multiset equality.
void ExpectSameMultiset(const std::vector<Row>& actual,
                        const std::vector<Row>& expected) {
  std::vector<std::string> a, e;
  for (const Row& r : actual) a.push_back(Canon(r));
  for (const Row& r : expected) e.push_back(Canon(r));
  std::sort(a.begin(), a.end());
  std::sort(e.begin(), e.end());
  EXPECT_EQ(a, e);
}

// The key domain: K1 and K1p differ only in element order (one key); K2
// adds a duplicate element; K3 holds Real(1.0) where K1 holds Int(1); K4 is
// empty and K5 a one-element bag (two keys; not NULL, which a join or
// cogroup never matches); K6 and K6p nest K1 and K1p (one key).
Field K1() { return IntBag({1, 2}); }
Field K1p() { return IntBag({2, 1}); }
Field K2() { return IntBag({1, 1, 2}); }
Field K3() { return Field::Bag({Row({Field::Real(1.0)}), Row({Field::Int(2)})}); }
Field K4() { return IntBag({}); }
Field K5() { return IntBag({2}); }
Field K6() { return Field::Bag({Row({K1()}), Row({K4()})}); }
Field K6p() { return Field::Bag({Row({K4()}), Row({K1p()})}); }

runtime::Schema BagKeySchema(const std::string& key, const std::string& val,
                             nrc::TypePtr val_type) {
  return runtime::Schema(
      {{key, nrc::Type::Bag(nrc::Type::Tuple({{"x", nrc::Type::Int()}}))},
       {val, std::move(val_type)}});
}

/// R(k, v): every key of the domain, with exact duplicate rows for K1, K4
/// and K5.
std::vector<Row> RRows() {
  return {Row({K1(), Field::Int(10)}),  Row({K1p(), Field::Int(20)}),
          Row({K2(), Field::Int(30)}),  Row({K3(), Field::Int(40)}),
          Row({K4(), Field::Int(50)}),  Row({K5(), Field::Int(60)}),
          Row({K6(), Field::Int(70)}),  Row({K6p(), Field::Int(80)}),
          Row({K1(), Field::Int(10)}),  Row({K4(), Field::Int(50)}),
          Row({K5(), Field::Int(60)})};
}

/// S(k2, w): one row per distinct key (in a different element order where
/// the key allows it) plus a key R never holds.
std::vector<Row> SRows() {
  return {Row({K1p(), Field::Str("a")}), Row({K2(), Field::Str("b")}),
          Row({K3(), Field::Str("c")}),  Row({K4(), Field::Str("d")}),
          Row({K5(), Field::Str("e")}),  Row({K6p(), Field::Str("f")}),
          Row({IntBag({3}), Field::Str("z")})};
}

/// Runs `op` on fresh R and S at 1 and 4 threads, checks the two results
/// hold identical rows in identical partitions, and returns the 1-thread
/// result's rows.
template <class Op>
std::vector<Row> RunOnBagKeys(Op op) {
  std::vector<Dataset> results;
  for (int threads : {1, 4}) {
    runtime::ClusterConfig cfg = fig7_suite::Config(threads);
    cfg.num_partitions = 4;
    runtime::Cluster cluster(cfg);
    Dataset r = runtime::Source(&cluster,
                                BagKeySchema("k", "v", nrc::Type::Int()),
                                RRows(), "r")
                    .ValueOrDie();
    Dataset s = runtime::Source(&cluster,
                                BagKeySchema("k2", "w", nrc::Type::String()),
                                SRows(), "s")
                    .ValueOrDie();
    StatusOr<Dataset> out = op(&cluster, r, s);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    if (!out.ok()) return {};
    EXPECT_GT(cluster.stats().totals().key_encode_bytes, 0u);
    results.push_back(std::move(out).value());
  }
  fig7_suite::ExpectSameRows(results[0], results[1]);
  return results[0].Collect();
}

TEST(BagKeyTest, DistinctKeepsOneRowPerMultiset) {
  std::vector<Row> got =
      RunOnBagKeys([](runtime::Cluster* c, const Dataset& r, const Dataset&) {
        // Dedup R's key column alone: K1/K1p and K6/K6p are one key each.
        runtime::Schema keys({r.schema.col(0)});
        StatusOr<Dataset> k = runtime::RunStagePipeline(
            c, r, {runtime::RowTransform::Project("keys", keys, {{0, nullptr}})},
            runtime::Partitioning::None(), "keys");
        if (!k.ok()) return k;
        return runtime::Distinct(c, *k, "dedup");
      });
  ExpectSameMultiset(got, {Row({K1()}), Row({K2()}), Row({K3()}),
                           Row({K4()}), Row({K5()}), Row({K6()})});
}

TEST(BagKeyTest, NestGroupGroupsEqualMultisets) {
  std::vector<Row> got =
      RunOnBagKeys([](runtime::Cluster* c, const Dataset& r, const Dataset&) {
        return runtime::NestGroup(c, r, {0}, {1}, "vs", "nest");
      });
  auto vs = [](std::vector<int64_t> xs) { return IntBag(std::move(xs)); };
  ExpectSameMultiset(got, {Row({K1(), vs({10, 20, 10})}),
                           Row({K2(), vs({30})}), Row({K3(), vs({40})}),
                           Row({K4(), vs({50, 50})}),
                           Row({K5(), vs({60, 60})}),
                           Row({K6(), vs({70, 80})})});
}

TEST(BagKeyTest, SumAggregateSumsPerMultiset) {
  for (bool combine : {true, false}) {
    SCOPED_TRACE(combine ? "map-side combine" : "no combine");
    std::vector<Row> got = RunOnBagKeys(
        [combine](runtime::Cluster* c, const Dataset& r, const Dataset&) {
          return runtime::SumAggregate(c, r, {0}, {1}, combine, "sum");
        });
    ExpectSameMultiset(
        got, {Row({K1(), Field::Int(40)}), Row({K2(), Field::Int(30)}),
              Row({K3(), Field::Int(40)}), Row({K4(), Field::Int(100)}),
              Row({K5(), Field::Int(120)}), Row({K6(), Field::Int(150)})});
  }
}

/// The join of R with S on the bag key: each R row pairs with the one S row
/// holding an equal multiset.
std::vector<Row> ExpectedJoin() {
  const std::pair<int64_t, const char*> kMatches[] = {
      {10, "a"}, {20, "a"}, {30, "b"}, {40, "c"}, {50, "d"}, {60, "e"},
      {70, "f"}, {80, "f"}, {10, "a"}, {50, "d"}, {60, "e"}};
  std::vector<Row> r = RRows();
  std::vector<Row> s = SRows();
  std::vector<Row> out;
  for (size_t i = 0; i < r.size(); ++i) {
    for (const Row& srow : s) {
      if (srow.fields[1].AsString() != kMatches[i].second) continue;
      out.push_back(Row({r[i].fields[0], r[i].fields[1], srow.fields[0],
                         srow.fields[1]}));
    }
  }
  return out;
}

TEST(BagKeyTest, HashJoinMatchesEqualMultisets) {
  std::vector<Row> got =
      RunOnBagKeys([](runtime::Cluster* c, const Dataset& r, const Dataset& s) {
        return runtime::HashJoin(c, r, s, {0}, {0}, runtime::JoinType::kInner,
                                 "join");
      });
  ExpectSameMultiset(got, ExpectedJoin());
}

TEST(BagKeyTest, CoGroupAttachesEqualMultisetMatches) {
  std::vector<Row> got =
      RunOnBagKeys([](runtime::Cluster* c, const Dataset& r, const Dataset& s) {
        return runtime::CoGroup(c, r, s, {0}, {0}, {1}, "ws", "cogroup");
      });
  std::vector<Row> expected;
  for (const Row& j : ExpectedJoin()) {
    expected.push_back(
        Row({j.fields[0], j.fields[1], Field::Bag({Row({j.fields[3]})})}));
  }
  ExpectSameMultiset(got, expected);
}

// --- Part 3: the Fig-7 suite with partition parallelism on and off -------

class KeyCodecSuiteTest
    : public ::testing::TestWithParam<fig7_suite::SuiteParam> {};

TEST_P(KeyCodecSuiteTest, StandardRouteOnOffIdentical) {
  auto [kind, depth] = GetParam();
  auto q = fig7_suite::Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = fig7_suite::Inputs(kind, depth);

  fig7_suite::StandardRun seq =
      fig7_suite::RunStandard(*q, values, fig7_suite::Config(1));
  ASSERT_TRUE(seq.ok()) << seq.status;
  fig7_suite::StandardRun par =
      fig7_suite::RunStandard(*q, values, fig7_suite::Config(4));
  ASSERT_TRUE(par.ok()) << par.status;
  // Identical rows in identical partitions (placement) and identical
  // stats, the keyed counters and encode bytes included.
  fig7_suite::ExpectSameRows(seq.out, par.out);
  fig7_suite::ExpectSameStats(seq.stats, par.stats);
  // Every keyed build encodes its keys.
  EXPECT_EQ(seq.stats.totals().hash_build_rows > 0,
            seq.stats.totals().key_encode_bytes > 0);
}

TEST_P(KeyCodecSuiteTest, ShreddedRouteOnOffIdentical) {
  auto [kind, depth] = GetParam();
  auto q = fig7_suite::Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = fig7_suite::Inputs(kind, depth);

  fig7_suite::ShreddedRun seq =
      fig7_suite::RunShredded(*q, values, fig7_suite::Config(1));
  ASSERT_TRUE(seq.ok()) << seq.status;
  fig7_suite::ShreddedRun par =
      fig7_suite::RunShredded(*q, values, fig7_suite::Config(4));
  ASSERT_TRUE(par.ok()) << par.status;
  fig7_suite::ExpectSameShreddedRows(seq.out, par.out);
  fig7_suite::ExpectSameStats(seq.stats, par.stats);
  EXPECT_EQ(seq.stats.totals().hash_build_rows > 0,
            seq.stats.totals().key_encode_bytes > 0);
}

INSTANTIATE_TEST_SUITE_P(
    Fig7NarrowSuite, KeyCodecSuiteTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1, 2, 3, 4)),
    fig7_suite::ParamName);

// --- Counter plumbing ----------------------------------------------------

TEST(KeyCodecRuntimeTest, DistinctOnOffIdenticalAndCounted) {
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
  auto [par_out, par_stats] = run(4);
  fig7_suite::ExpectSameRows(seq_out, par_out);
  fig7_suite::ExpectSameStats(seq_stats, par_stats);
  EXPECT_EQ(seq_out.NumRows(), 100u);
  // The dedup stage is the last recorded; 100 distinct keys built, 900
  // duplicate membership hits, 10 rows per key. Every row's key is an int
  // (9 bytes) and a string (5 bytes and "v0".."v99"): 10 keys of 16 bytes
  // and 90 of 17, each encoded 10 times.
  const StageStats& stage = seq_stats.stages().back();
  EXPECT_EQ(stage.hash_build_rows, 100u);
  EXPECT_EQ(stage.hash_probe_hits, 900u);
  EXPECT_EQ(stage.hash_max_chain, 10u);
  EXPECT_EQ(stage.key_encode_bytes, 10u * (10 * 16 + 90 * 17));
}

TEST(KeyCodecRuntimeTest, CountersVisibleInJsonAndExplain) {
  auto q = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto values = fig7_suite::TpchValues(tpch::Generate(cfg));
  fig7_suite::StandardRun r =
      fig7_suite::RunStandard(*q, values, fig7_suite::Config(1));
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_GT(r.stats.totals().hash_build_rows, 0u);
  EXPECT_GT(r.stats.totals().key_encode_bytes, 0u);

  std::string json = obs::JobStatsToJson(r.stats);
  EXPECT_NE(json.find("\"key_encode_bytes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_build_rows\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_probe_hits\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_max_chain\""), std::string::npos) << json;

  EXPECT_NE(r.explain.find("ht(build="), std::string::npos) << r.explain;
  EXPECT_NE(r.explain.find("key_bytes="), std::string::npos) << r.explain;
}

}  // namespace
}  // namespace trance
