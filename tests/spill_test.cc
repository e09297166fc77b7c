// Out-of-core spill tests (ctest label `spill`).
//
// The acceptance contract of runtime/spill.h: a Fig-7 query that hard-fails
// with ResourceExhausted under a reduced partition_memory_cap completes when
// ExecOptions::enable_spill is on, with rows, placement, and every
// pre-existing JobStats counter bit-identical to an uncapped run — at 1, 4,
// and 8 threads, on both compilation routes. Spill cost appears only in the
// spill-only counters (and EXPLAIN ANALYZE / JSON export), which are exactly
// 0 when nothing spills. Plus SpillManager unit coverage: deterministic run
// naming, order-preserving spill-and-restore, and the spill byte budget.
#include "runtime/spill.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "exec/bridge.h"
#include "exec/pipeline.h"
#include "nrc/interp.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "stats_testing.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace trance {
namespace {

using nrc::Value;
using runtime::Dataset;
using runtime::JobStats;
using runtime::Row;
using runtime::StatGroup;
using stats_testing::ExpectSameStats;
using runtime::Field;

// The forced cap: far below the working set of every suite query at scale
// 0.0005 (partitions run tens of KB), so a spill-off capped run FAILs and a
// spill-on capped run must actually hit the disk.
constexpr uint64_t kTinyCap = 4ull << 10;

runtime::ClusterConfig Config(int num_threads, uint64_t cap) {
  runtime::ClusterConfig c;
  c.num_partitions = 8;
  c.num_threads = num_threads;
  if (cap > 0) c.partition_memory_cap = cap;
  return c;
}

void ExpectSameRows(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.NumPartitions(), b.NumPartitions());
  for (size_t p = 0; p < a.NumPartitions(); ++p) {
    ASSERT_EQ(a.PartitionRowCount(p), b.PartitionRowCount(p))
        << "partition " << p;
    for (size_t i = 0; i < a.PartitionRowCount(p); ++i) {
      const Row ra = a.RowAt(p, i);
      const Row rb = b.RowAt(p, i);
      ASSERT_EQ(ra.fields.size(), rb.fields.size())
          << "partition " << p << " row " << i;
      for (size_t f = 0; f < ra.fields.size(); ++f) {
        EXPECT_EQ(ra.fields[f], rb.fields[f])
            << "partition " << p << " row " << i << " field " << f;
      }
    }
  }
}

std::map<std::string, Value> TpchValues(const tpch::TpchData& d) {
  auto conv = [](const tpch::Table& t) {
    auto v = exec::RowsToValue(t.rows, t.schema);
    TRANCE_CHECK(v.ok(), "table conversion");
    return std::move(v).value();
  };
  return {{"Region", conv(d.region)},     {"Nation", conv(d.nation)},
          {"Customer", conv(d.customer)}, {"Orders", conv(d.orders)},
          {"Lineitem", conv(d.lineitem)}, {"Part", conv(d.part)},
          {"Supplier", conv(d.supplier)}, {"Partsupp", conv(d.partsupp)}};
}

struct ModeRun {
  bool ok = false;
  Status status = Status::OK();
  Dataset out;
  JobStats stats;
  std::string explain;
};

/// Runs the standard route with a configurable cap and spill flag, without
/// aborting on failure (capped spill-off runs are SUPPOSED to fail).
ModeRun RunStandardMode(const nrc::Program& q,
                        const std::map<std::string, Value>& values,
                        int threads, uint64_t cap, bool spill) {
  runtime::Cluster cluster(Config(threads, cap));
  exec::PipelineOptions opts;
  opts.exec.enable_spill = spill;
  exec::Executor executor(&cluster, opts.exec);
  ModeRun r;
  for (const auto& in : q.inputs) {
    auto v = values.find(in.name);
    TRANCE_CHECK(v != values.end(), "missing input");
    auto schema = runtime::Schema::FromBagType(in.type).ValueOrDie();
    auto rows = exec::ValueToRows(v->second, schema).ValueOrDie();
    auto ds = runtime::Source(&cluster, schema, std::move(rows), in.name);
    if (!ds.ok()) {
      r.status = ds.status();
      r.stats = cluster.stats();
      return r;
    }
    executor.Register(in.name, std::move(ds).value());
  }
  plan::PlanProgram compiled;
  auto out = exec::RunStandard(q, &executor, opts, &compiled);
  r.stats = cluster.stats();
  if (!out.ok()) {
    r.status = out.status();
    return r;
  }
  r.ok = true;
  r.out = std::move(out).value();
  r.explain = obs::ExplainAnalyze(compiled, r.stats);
  return r;
}

struct ShreddedModeRun {
  bool ok = false;
  Status status = Status::OK();
  exec::ShreddedRun run;
  JobStats stats;
};

ShreddedModeRun RunShreddedMode(const nrc::Program& q,
                                const std::map<std::string, Value>& values,
                                int threads, uint64_t cap, bool spill) {
  runtime::Cluster cluster(Config(threads, cap));
  exec::PipelineOptions opts;
  opts.exec.enable_spill = spill;
  exec::Executor executor(&cluster, opts.exec);
  ShreddedModeRun r;
  int64_t seed = 0;
  for (const auto& in : q.inputs) {
    auto v = values.find(in.name);
    TRANCE_CHECK(v != values.end(), "missing input");
    Status reg = exec::RegisterShreddedInput(&executor, in.name, in.type,
                                             v->second, seed);
    if (!reg.ok()) {
      r.status = reg;
      r.stats = cluster.stats();
      return r;
    }
    seed += 1000000;
  }
  auto run = exec::RunShredded(q, &executor, opts);
  r.stats = cluster.stats();
  if (!run.ok()) {
    r.status = run.status();
    return r;
  }
  r.ok = true;
  r.run = std::move(run).value();
  return r;
}

void ExpectSameShreddedRows(const exec::ShreddedRun& a,
                            const exec::ShreddedRun& b) {
  ExpectSameRows(a.top, b.top);
  ASSERT_EQ(a.dicts.size(), b.dicts.size());
  for (size_t i = 0; i < a.dicts.size(); ++i) {
    SCOPED_TRACE("dict " + a.dicts[i].first);
    EXPECT_EQ(a.dicts[i].first, b.dicts[i].first);
    ExpectSameRows(a.dicts[i].second, b.dicts[i].second);
  }
}

size_t RegularFilesUnder(const std::string& dir) {
  size_t files = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file()) ++files;
  }
  return files;
}

void ExpectZeroSpill(const JobStats& s) {
  EXPECT_EQ(s.totals().spill_bytes_written, 0u);
  EXPECT_EQ(s.totals().spill_bytes_read, 0u);
  EXPECT_EQ(s.totals().spill_runs, 0u);
  EXPECT_EQ(s.totals().spill_merge_passes, 0u);
}

class SpillSuiteTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  enum Kind { kFlatToNested = 0, kNestedToNested = 1, kNestedToFlat = 2 };

  StatusOr<nrc::Program> Query(Kind kind, int depth) {
    switch (kind) {
      case kFlatToNested:
        return tpch::FlatToNested(depth, tpch::Width::kNarrow);
      case kNestedToNested:
        return tpch::NestedToNested(depth, tpch::Width::kNarrow);
      case kNestedToFlat:
        return tpch::NestedToFlat(depth, tpch::Width::kNarrow);
    }
    return Status::Internal("bad kind");
  }

  std::map<std::string, Value> Inputs(Kind kind, int depth) {
    tpch::TpchConfig cfg;
    cfg.scale = 0.0005;
    auto values = TpchValues(tpch::Generate(cfg));
    if (kind == kFlatToNested) return values;
    auto prep = tpch::FlatToNested(depth, tpch::Width::kNarrow).ValueOrDie();
    nrc::Interpreter interp;
    auto nested = interp.EvalProgram(prep, values);
    TRANCE_CHECK(nested.ok(), "nested input prep");
    return {{"COP", nested->at("Q")}, {"Part", values.at("Part")}};
  }
};

TEST_P(SpillSuiteTest, CappedStandardRunMatchesUncapped) {
  auto [k, depth] = GetParam();
  Kind kind = static_cast<Kind>(k);
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  // The paper's FAIL cell: the tiny cap hard-fails without spilling.
  ModeRun fail = RunStandardMode(*q, values, 1, kTinyCap, false);
  ASSERT_FALSE(fail.ok);
  EXPECT_TRUE(fail.status.IsResourceExhausted()) << fail.status.ToString();
  EXPECT_NE(fail.status.ToString().find("worker memory saturated"),
            std::string::npos)
      << fail.status.ToString();

  // The same cap with spilling on completes...
  ModeRun uncapped = RunStandardMode(*q, values, 1, 0, true);
  ASSERT_TRUE(uncapped.ok) << uncapped.status.ToString();
  ModeRun spill1 = RunStandardMode(*q, values, 1, kTinyCap, true);
  ASSERT_TRUE(spill1.ok) << spill1.status.ToString();

  // ...with identical rows in identical partitions and identical
  // pre-existing stats, and real spill traffic.
  ExpectSameRows(uncapped.out, spill1.out);
  ExpectSameStats(uncapped.stats, spill1.stats, StatGroup::kSpill);
  EXPECT_GT(spill1.stats.totals().spill_runs, 0u);
  EXPECT_GT(spill1.stats.totals().spill_bytes_written, 0u);
  EXPECT_EQ(spill1.stats.totals().spill_bytes_read,
            spill1.stats.totals().spill_bytes_written);
  EXPECT_GT(spill1.stats.totals().spill_merge_passes, 0u);
  // The uncapped run (256 MiB default cap) never touches the disk.
  ExpectZeroSpill(uncapped.stats);

  // Thread-count invariance covers the spill counters too: spill decisions
  // are byte-threshold-driven and folded in partition order.
  ModeRun spill4 = RunStandardMode(*q, values, 4, kTinyCap, true);
  ModeRun spill8 = RunStandardMode(*q, values, 8, kTinyCap, true);
  ASSERT_TRUE(spill4.ok) << spill4.status.ToString();
  ASSERT_TRUE(spill8.ok) << spill8.status.ToString();
  ExpectSameRows(spill1.out, spill4.out);
  ExpectSameRows(spill1.out, spill8.out);
  ExpectSameStats(spill1.stats, spill4.stats);
  ExpectSameStats(spill1.stats, spill8.stats);
  EXPECT_EQ(spill1.stats.totals().spill_bytes_written,
            spill4.stats.totals().spill_bytes_written);
  EXPECT_EQ(spill1.stats.totals().spill_bytes_written,
            spill8.stats.totals().spill_bytes_written);
  EXPECT_EQ(spill1.stats.totals().spill_runs, spill4.stats.totals().spill_runs);
  EXPECT_EQ(spill1.stats.totals().spill_runs, spill8.stats.totals().spill_runs);
  EXPECT_EQ(spill1.stats.totals().spill_merge_passes,
            spill4.stats.totals().spill_merge_passes);
  EXPECT_EQ(spill1.stats.totals().spill_merge_passes,
            spill8.stats.totals().spill_merge_passes);
}

TEST_P(SpillSuiteTest, CappedShreddedRunMatchesUncapped) {
  auto [k, depth] = GetParam();
  Kind kind = static_cast<Kind>(k);
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  ShreddedModeRun uncapped = RunShreddedMode(*q, values, 1, 0, true);
  ASSERT_TRUE(uncapped.ok) << uncapped.status.ToString();
  ShreddedModeRun spill1 = RunShreddedMode(*q, values, 1, kTinyCap, true);
  ASSERT_TRUE(spill1.ok) << spill1.status.ToString();
  ShreddedModeRun spill4 = RunShreddedMode(*q, values, 4, kTinyCap, true);
  ASSERT_TRUE(spill4.ok) << spill4.status.ToString();
  ShreddedModeRun spill8 = RunShreddedMode(*q, values, 8, kTinyCap, true);
  ASSERT_TRUE(spill8.ok) << spill8.status.ToString();

  ExpectSameShreddedRows(uncapped.run, spill1.run);
  ExpectSameStats(uncapped.stats, spill1.stats, StatGroup::kSpill);
  EXPECT_GT(spill1.stats.totals().spill_runs, 0u);
  ExpectZeroSpill(uncapped.stats);

  ExpectSameShreddedRows(spill1.run, spill4.run);
  ExpectSameShreddedRows(spill1.run, spill8.run);
  ExpectSameStats(spill1.stats, spill4.stats);
  ExpectSameStats(spill1.stats, spill8.stats);
  EXPECT_EQ(spill1.stats.totals().spill_bytes_written,
            spill4.stats.totals().spill_bytes_written);
  EXPECT_EQ(spill1.stats.totals().spill_bytes_written,
            spill8.stats.totals().spill_bytes_written);
}

std::string SpillParamName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kKinds[] = {"flat_to_nested", "nested_to_nested",
                                 "nested_to_flat"};
  return std::string(kKinds[std::get<0>(info.param)]) + "_depth" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Fig7NarrowSuite, SpillSuiteTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0, 2)),
                         SpillParamName);

// --- observability plumbing ----------------------------------------------

TEST(SpillRuntimeTest, CountersVisibleInJsonAndExplain) {
  auto q = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto values = TpchValues(tpch::Generate(cfg));

  ModeRun forced = RunStandardMode(*q, values, 1, kTinyCap, true);
  ASSERT_TRUE(forced.ok) << forced.status.ToString();
  EXPECT_GT(forced.stats.totals().spill_bytes_written, 0u);

  std::string json = obs::JobStatsToJson(forced.stats);
  EXPECT_NE(json.find("\"spill_bytes_written\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"spill_bytes_read\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"spill_runs\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"spill_merge_passes\""), std::string::npos) << json;

  EXPECT_NE(forced.explain.find(" spill("), std::string::npos)
      << forced.explain;

  // Unforced: no spill clause in EXPLAIN, but the JSON totals still carry
  // the (zero) keys so bench_diff can gate on them.
  ModeRun easy = RunStandardMode(*q, values, 1, 0, true);
  ASSERT_TRUE(easy.ok) << easy.status.ToString();
  ExpectZeroSpill(easy.stats);
  EXPECT_EQ(easy.explain.find(" spill("), std::string::npos) << easy.explain;
  std::string easy_json = obs::JobStatsToJson(easy.stats);
  EXPECT_NE(easy_json.find("\"spill_bytes_written\""), std::string::npos)
      << easy_json;
}

TEST(SpillRuntimeTest, BlockResidentSpillAvoidsRowification) {
  // Block-resident partitions spill as columnar serde records and come back
  // resident; the capped run completes through disk at 1 and 4 threads.
  auto q = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto values = TpchValues(tpch::Generate(cfg));

  ModeRun col = RunStandardMode(*q, values, 1, kTinyCap, true);
  ASSERT_TRUE(col.ok) << col.status.ToString();
  EXPECT_GT(col.stats.totals().spill_runs, 0u);

  ModeRun col4 = RunStandardMode(*q, values, 4, kTinyCap, true);
  ASSERT_TRUE(col4.ok) << col4.status.ToString();
}

TEST(SpillRuntimeTest, FailedFetchSpillRemovesItsRuns) {
  // Every row shares one key, so one shuffle target receives all four
  // source buckets: above the spill threshold, while each source partition
  // stays below it. The target's fetch-side spill writes one run per bucket
  // until the budget refuses one; the failed spill must leave no run on
  // disk or in the budget.
  runtime::ClusterConfig cfg = Config(1, 0);
  cfg.num_partitions = 4;
  cfg.spill.dir = ::testing::TempDir();
  cfg.spill.threshold_bytes = 12ull << 10;
  cfg.spill.max_spill_bytes = 6ull << 10;
  runtime::Cluster cluster(cfg);
  std::vector<Row> rows;
  for (int i = 0; i < 400; ++i) {
    rows.push_back(
        Row{{Field::Int(0), Field::Str("value-" + std::to_string(i))}});
  }
  runtime::Schema schema(
      {{"k", nrc::Type::Int()}, {"s", nrc::Type::String()}});
  auto src = runtime::Source(&cluster, schema, std::move(rows), "src");
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  ExpectZeroSpill(cluster.stats());
  auto out = runtime::Repartition(&cluster, *src, {0}, "regroup");
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsResourceExhausted()) << out.status().ToString();
  EXPECT_NE(out.status().ToString().find("shuffle_fetch"), std::string::npos)
      << out.status().ToString();
  runtime::spill::SpillManager* m = cluster.spill_manager();
  EXPECT_GT(m->total_runs(), 0u);
  EXPECT_EQ(m->on_disk_bytes(), 0u);
  EXPECT_EQ(RegularFilesUnder(m->root_dir()), 0u) << "under " << m->root_dir();
}

TEST(SpillRuntimeTest, DisabledSpillKeepsHistoricalFailureShape) {
  // enable_spill=false must reproduce the pre-spill world exactly: the
  // ResourceExhausted message names the stage, the partition, the observed
  // bytes, and the configured cap.
  auto q = tpch::FlatToNested(1, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto values = TpchValues(tpch::Generate(cfg));
  ModeRun fail = RunStandardMode(*q, values, 1, kTinyCap, false);
  ASSERT_FALSE(fail.ok);
  std::string msg = fail.status.ToString();
  EXPECT_TRUE(fail.status.IsResourceExhausted()) << msg;
  EXPECT_NE(msg.find("worker memory saturated in"), std::string::npos) << msg;
  EXPECT_NE(msg.find("partition"), std::string::npos) << msg;
  EXPECT_NE(msg.find("holds"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bytes) > cap"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(" + std::to_string(kTinyCap) + " bytes)"),
            std::string::npos)
      << msg;
  ExpectZeroSpill(fail.stats);
}

// --- SpillManager unit tests ----------------------------------------------

runtime::Schema RowsSchema() {
  return runtime::Schema({{"k", nrc::Type::Int()},
                          {"s", nrc::Type::String()},
                          {"r", nrc::Type::Real()}});
}

std::vector<Row> MakeRows(size_t n, const std::string& salt) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Row{{Field::Int(static_cast<int64_t>(i)),
                        Field::Str(salt + std::to_string(i)),
                        Field::Real(i * 0.5)}});
  }
  return rows;
}

runtime::column::PartitionBlock MakeBlock(size_t n, const std::string& salt) {
  return runtime::column::PartitionBlock::FromRows(RowsSchema(),
                                                   MakeRows(n, salt));
}

/// Every column kind, NULLs in each: int, string, real, bool, and a bag
/// column (variant storage).
runtime::Schema AllKindsSchema() {
  return runtime::Schema(
      {{"k", nrc::Type::Int()},
       {"s", nrc::Type::String()},
       {"r", nrc::Type::Real()},
       {"b", nrc::Type::Bool()},
       {"g", nrc::Type::Bag(nrc::Type::Tuple({{"x", nrc::Type::Int()}}))}});
}

std::vector<Row> MakeAllKindsRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(i);
    rows.push_back(Row{
        {i % 7 == 0 ? Field::Null() : Field::Int(v),
         i % 5 == 1 ? Field::Null() : Field::Str("value-" + std::to_string(i)),
         i % 11 == 2 ? Field::Null() : Field::Real(i * 0.5),
         i % 3 == 0 ? Field::Null() : Field::Bool(i % 2 == 0),
         i % 4 == 3 ? Field::Null()
                    : Field::Bag({Row{{Field::Int(v)}},
                                  Row{{Field::Null()}}})}});
  }
  return rows;
}

void ExpectBlockRows(const runtime::column::PartitionBlock& block,
                     const std::vector<Row>& expected) {
  ASSERT_EQ(block.NumRows(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const Row got = block.RowAt(i);
    ASSERT_EQ(got.fields.size(), expected[i].fields.size()) << i;
    for (size_t f = 0; f < got.fields.size(); ++f) {
      EXPECT_EQ(got.fields[f], expected[i].fields[f])
          << "row " << i << " field " << f;
    }
  }
}

TEST(SpillManagerTest, RunNamingIsDeterministicAndSanitized) {
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  runtime::spill::SpillManager m(cfg);
  std::string p = m.RunPath(7, "shuffle(join/x y)", 3, 2);
  // Same inputs, same path; hostile characters flattened to '_'.
  EXPECT_EQ(p, m.RunPath(7, "shuffle(join/x y)", 3, 2));
  EXPECT_NE(p.find("job7/"), std::string::npos) << p;
  EXPECT_NE(p.find("shuffle_join_x_y_-p3-r2.trs"), std::string::npos) << p;
  EXPECT_EQ(p.find(' ', m.root_dir().size()), std::string::npos) << p;
}

TEST(SpillManagerTest, SpillAndRestorePreservesOrderAndReleasesDisk) {
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  cfg.max_run_bytes = 1024;  // force several runs
  runtime::spill::SpillManager m(cfg);
  runtime::column::PartitionBlock block =
      runtime::column::PartitionBlock::FromRows(AllKindsSchema(),
                                                MakeAllKindsRows(500));
  runtime::spill::SpillCounters c;
  Status s =
      m.SpillAndRestoreBlock(1, "stage(x)", 0, AllKindsSchema(), &block, &c);
  ASSERT_TRUE(s.ok()) << s.ToString();

  ExpectBlockRows(block, MakeAllKindsRows(500));
  // The restore appends one value at a time per column, so the block's own
  // footprint is that of a block built the same way without spilling.
  runtime::column::PartitionBlock appended(AllKindsSchema());
  for (const Row& r : MakeAllKindsRows(500)) appended.AppendRow(r);
  EXPECT_EQ(block.ByteFootprint(), appended.ByteFootprint());
  EXPECT_GT(c.runs, 1u);  // max_run_bytes forced a split
  EXPECT_EQ(c.merge_passes, 1u);
  EXPECT_GT(c.bytes_written, 0u);
  EXPECT_EQ(c.bytes_read, c.bytes_written);
  // Runs are removed after restore: nothing left on disk or in the budget.
  EXPECT_EQ(m.on_disk_bytes(), 0u);
  EXPECT_EQ(m.total_runs(), c.runs);
}

TEST(SpillManagerTest, ByteBudgetExhaustionNamesBudgetAndUsage) {
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  cfg.max_spill_bytes = 64;  // smaller than any real run
  runtime::spill::SpillManager m(cfg);
  runtime::column::PartitionBlock block = MakeBlock(100, "big-");
  runtime::spill::SpillCounters c;
  Status s =
      m.SpillAndRestoreBlock(2, "stage(y)", 0, RowsSchema(), &block, &c);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_NE(s.ToString().find("spill byte budget exhausted"),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("budget"), std::string::npos) << s.ToString();
}

TEST(SpillManagerTest, FailedSpillRemovesItsRuns) {
  // The budget admits five runs and refuses the sixth. The failed call must
  // never create the sixth file and must take the five it wrote off the
  // disk and out of the budget.
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  cfg.max_run_bytes = 1024;
  cfg.max_spill_bytes = 3000;
  runtime::spill::SpillManager m(cfg);
  runtime::column::PartitionBlock block = MakeBlock(500, "value-");
  runtime::spill::SpillCounters c;
  Status s =
      m.SpillAndRestoreBlock(5, "stage(z)", 0, RowsSchema(), &block, &c);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_EQ(c.runs, 5u);
  EXPECT_EQ(m.on_disk_bytes(), 0u);
  EXPECT_EQ(RegularFilesUnder(m.root_dir()), 0u) << "under " << m.root_dir();
}

TEST(SpillManagerTest, RemoveRunReleasesBudget) {
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  cfg.max_spill_bytes = 16ull << 10;
  runtime::spill::SpillManager m(cfg);
  runtime::column::PartitionBlock block = MakeBlock(50, "r-");
  runtime::spill::SpillCounters c;
  std::string path = m.RunPath(3, "budget", 0, 0);
  ASSERT_TRUE(m.WriteBlockRun(path, block, &c).ok());
  EXPECT_GT(m.on_disk_bytes(), 0u);
  // A second identical run would fit or not — irrelevant; removing the first
  // must return the budget to zero either way.
  m.RemoveRun(path);
  EXPECT_EQ(m.on_disk_bytes(), 0u);
  // With the budget released the same run can be written again.
  ASSERT_TRUE(m.WriteBlockRun(path, block, &c).ok());
  m.RemoveRun(path);
}

TEST(SpillManagerTest, BlockRunsRoundTripThroughReadRun) {
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  runtime::spill::SpillManager m(cfg);
  runtime::Schema schema(
      {{"k", nrc::Type::Int()}, {"s", nrc::Type::String()}});
  std::vector<Row> rows = MakeRows(64, "blk-");
  for (auto& r : rows) r.fields.pop_back();  // match the two-column schema
  runtime::column::PartitionBlock block =
      runtime::column::PartitionBlock::FromRows(schema, rows);

  runtime::spill::SpillCounters c;
  std::string path = m.RunPath(4, "blocks", 1, 0);
  ASSERT_TRUE(m.WriteBlockRun(path, block, &c).ok());
  runtime::column::PartitionBlock back(schema);
  ASSERT_TRUE(m.ReadRunIntoBlock(path, &back, &c).ok());
  m.RemoveRun(path);

  ExpectBlockRows(back, rows);
  EXPECT_EQ(c.bytes_read, c.bytes_written);
}

}  // namespace
}  // namespace trance
