// Out-of-core spill tests (ctest label `spill`).
//
// The acceptance contract of runtime/spill.h: a Fig-7 query whose partitions
// outgrow a reduced partition_memory_cap completes through disk runs, with
// rows, placement, and every pre-existing JobStats counter bit-identical to
// an uncapped run — at 1, 4, and 8 threads, on both compilation routes.
// Spill cost appears only in the spill-only counters (and EXPLAIN ANALYZE /
// JSON export), which are exactly 0 when nothing spills. A stage spills
// exactly when its uncapped twin emits a partition over the cap: the stage
// barrier is the one spill site. Plus SpillManager unit coverage:
// deterministic run naming, order-preserving spill-and-restore, the spill
// byte budget, and an I/O failure that surfaces as a Status.
#include "runtime/spill.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fig7_suite.h"
#include "obs/export.h"
#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "stats_testing.h"
#include "util/file.h"

namespace trance {
namespace {

using fig7_suite::ExpectSameRows;
using fig7_suite::ExpectSameShreddedRows;
using fig7_suite::FlatInputs;
using fig7_suite::Inputs;
using fig7_suite::Kind;
using fig7_suite::KindName;
using fig7_suite::kFlatToNested;
using fig7_suite::kNestedToFlat;
using fig7_suite::kNestedToNested;
using fig7_suite::Query;
using fig7_suite::RunShredded;
using fig7_suite::RunStandard;
using fig7_suite::ShreddedRun;
using fig7_suite::StandardRun;
using runtime::JobStats;
using runtime::Row;
using runtime::StageStats;
using runtime::StatGroup;
using stats_testing::ExpectSameStats;
using runtime::Field;

// The forced cap: far below the working set of every suite query at scale
// 0.0005 (partitions run tens of KB), so a capped run must actually hit the
// disk.
constexpr uint64_t kTinyCap = 4ull << 10;

/// The suite's cluster at `num_threads`, with memory cap `cap` (0: the
/// default).
runtime::ClusterConfig Config(int num_threads, uint64_t cap) {
  runtime::ClusterConfig c;
  c.num_partitions = 8;
  c.num_threads = num_threads;
  if (cap > 0) c.partition_memory_cap = cap;
  return c;
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

class SpillSuiteTest
    : public ::testing::TestWithParam<fig7_suite::SuiteParam> {};

TEST_P(SpillSuiteTest, CappedStandardRunMatchesUncapped) {
  auto [kind, depth] = GetParam();
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  StandardRun uncapped = RunStandard(*q, values, Config(1, 0));
  ASSERT_TRUE(uncapped.ok()) << uncapped.status.ToString();
  // The paper's FAIL cell: under the tiny cap the run completes...
  StandardRun spill1 = RunStandard(*q, values, Config(1, kTinyCap));
  ASSERT_TRUE(spill1.ok()) << spill1.status.ToString();

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
  StandardRun spill4 = RunStandard(*q, values, Config(4, kTinyCap));
  StandardRun spill8 = RunStandard(*q, values, Config(8, kTinyCap));
  ASSERT_TRUE(spill4.ok()) << spill4.status.ToString();
  ASSERT_TRUE(spill8.ok()) << spill8.status.ToString();
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
  auto [kind, depth] = GetParam();
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  ShreddedRun uncapped = RunShredded(*q, values, Config(1, 0));
  ASSERT_TRUE(uncapped.ok()) << uncapped.status.ToString();
  ShreddedRun spill1 = RunShredded(*q, values, Config(1, kTinyCap));
  ASSERT_TRUE(spill1.ok()) << spill1.status.ToString();
  ShreddedRun spill4 = RunShredded(*q, values, Config(4, kTinyCap));
  ASSERT_TRUE(spill4.ok()) << spill4.status.ToString();
  ShreddedRun spill8 = RunShredded(*q, values, Config(8, kTinyCap));
  ASSERT_TRUE(spill8.ok()) << spill8.status.ToString();

  ExpectSameShreddedRows(uncapped.out, spill1.out);
  ExpectSameStats(uncapped.stats, spill1.stats, StatGroup::kSpill);
  EXPECT_GT(spill1.stats.totals().spill_runs, 0u);
  ExpectZeroSpill(uncapped.stats);

  ExpectSameShreddedRows(spill1.out, spill4.out);
  ExpectSameShreddedRows(spill1.out, spill8.out);
  ExpectSameStats(spill1.stats, spill4.stats);
  ExpectSameStats(spill1.stats, spill8.stats);
  EXPECT_EQ(spill1.stats.totals().spill_bytes_written,
            spill4.stats.totals().spill_bytes_written);
  EXPECT_EQ(spill1.stats.totals().spill_bytes_written,
            spill8.stats.totals().spill_bytes_written);
}

INSTANTIATE_TEST_SUITE_P(Fig7NarrowSuite, SpillSuiteTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0, 2)),
                         fig7_suite::ParamName);

// --- observability plumbing ----------------------------------------------

TEST(SpillRuntimeTest, CountersVisibleInJsonAndExplain) {
  auto q = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = FlatInputs();

  StandardRun forced = RunStandard(*q, values, Config(1, kTinyCap));
  ASSERT_TRUE(forced.ok()) << forced.status.ToString();
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
  StandardRun easy = RunStandard(*q, values, Config(1, 0));
  ASSERT_TRUE(easy.ok()) << easy.status.ToString();
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
  auto values = FlatInputs();

  StandardRun col = RunStandard(*q, values, Config(1, kTinyCap));
  ASSERT_TRUE(col.ok()) << col.status.ToString();
  EXPECT_GT(col.stats.totals().spill_runs, 0u);

  StandardRun col4 = RunStandard(*q, values, Config(4, kTinyCap));
  ASSERT_TRUE(col4.ok()) << col4.status.ToString();
}

TEST(SpillRuntimeTest, SpillsExactlyWhenTheCapWouldFail) {
  // The paper's cluster crashed on a partition over the memory cap; the
  // stage barrier spills exactly those. Across the narrow Fig-7 suite under
  // three caps, the capped run completes, and each of its stages writes
  // spill runs exactly when the same stage of the uncapped run emitted a
  // partition over the cap.
  const auto flat = FlatInputs();
  for (int depth = 0; depth <= 3; ++depth) {
    // Both nested-input kinds read the same nested input.
    const auto nested = Inputs(kNestedToNested, depth, flat);
    for (Kind kind : {kFlatToNested, kNestedToNested, kNestedToFlat}) {
      auto q = Query(kind, depth);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      const auto& values = kind == kFlatToNested ? flat : nested;
      StandardRun uncapped = RunStandard(*q, values, Config(1, 0));
      ASSERT_TRUE(uncapped.ok()) << uncapped.status.ToString();
      const std::vector<StageStats>& twins = uncapped.stats.stages();
      for (uint64_t cap : {4ull << 10, 32ull << 10, 128ull << 10}) {
        SCOPED_TRACE(std::string(KindName(kind)) + " depth " +
                     std::to_string(depth) + " cap " + std::to_string(cap));
        StandardRun capped = RunStandard(*q, values, Config(1, cap));
        ASSERT_TRUE(capped.ok()) << capped.status.ToString();
        const std::vector<StageStats>& stages = capped.stats.stages();
        ASSERT_EQ(stages.size(), twins.size());
        for (size_t i = 0; i < stages.size(); ++i) {
          EXPECT_EQ(stages[i].spill_runs > 0,
                    twins[i].mem_high_water_bytes > cap)
              << "stage " << i << " (" << stages[i].op << "): "
              << stages[i].spill_runs << " spill runs, uncapped peak "
              << twins[i].mem_high_water_bytes << " bytes";
        }
      }
    }
  }
}

TEST(SpillRuntimeTest, FailedStageSpillRemovesItsRuns) {
  // Every row shares one key, so the shuffle sends all of them to one
  // partition: above the memory cap, while each source partition stays
  // below it. The stage barrier spills that partition in 2 KiB runs until
  // the budget refuses one; the failed spill must leave no run on disk or
  // in the budget.
  runtime::ClusterConfig cfg = Config(1, 0);
  cfg.num_partitions = 4;
  cfg.partition_memory_cap = 12ull << 10;
  cfg.spill.dir = ::testing::TempDir();
  cfg.spill.max_run_bytes = 2ull << 10;
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
  EXPECT_NE(out.status().ToString().find("regroup"), std::string::npos)
      << out.status().ToString();
  runtime::spill::SpillManager* m = cluster.spill_manager();
  EXPECT_GT(m->total_runs(), 0u);
  EXPECT_EQ(m->on_disk_bytes(), 0u);
  EXPECT_EQ(RegularFilesUnder(m->root_dir()), 0u) << "under " << m->root_dir();
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

/// The block holds exactly `expected`, and its running byte total equals
/// their RowDeepSize sum and its own RowBytesAt sum.
void ExpectBlockRows(const runtime::column::PartitionBlock& block,
                     const std::vector<Row>& expected) {
  ASSERT_EQ(block.NumRows(), expected.size());
  uint64_t deep = 0, at = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Row got = block.RowAt(i);
    ASSERT_EQ(got.fields.size(), expected[i].fields.size()) << i;
    for (size_t f = 0; f < got.fields.size(); ++f) {
      EXPECT_EQ(got.fields[f], expected[i].fields[f])
          << "row " << i << " field " << f;
    }
    deep += runtime::RowDeepSize(expected[i]);
    at += block.RowBytesAt(i);
  }
  EXPECT_EQ(block.TotalRowBytes(), deep);
  EXPECT_EQ(block.TotalRowBytes(), at);
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
  runtime::StageStats c;
  auto restored =
      m.SpillAndRestoreBlock(1, "stage(x)", 0, AllKindsSchema(), block, &c);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  ExpectBlockRows(*restored, MakeAllKindsRows(500));
  ExpectBlockRows(block, MakeAllKindsRows(500));  // the input is untouched
  // A footprint is the bytes a block holds, so the restored block's is that
  // of a block built from the same rows without spilling.
  runtime::column::PartitionBlock appended(AllKindsSchema());
  for (const Row& r : MakeAllKindsRows(500)) appended.AppendRow(r);
  EXPECT_EQ(restored->ByteFootprint(), appended.ByteFootprint());
  EXPECT_GT(c.spill_runs, 1u);  // max_run_bytes forced a split
  EXPECT_EQ(c.spill_merge_passes, 1u);
  EXPECT_GT(c.spill_bytes_written, 0u);
  EXPECT_EQ(c.spill_bytes_read, c.spill_bytes_written);
  // Runs are removed after restore: nothing left on disk or in the budget.
  EXPECT_EQ(m.on_disk_bytes(), 0u);
  EXPECT_EQ(m.total_runs(), c.spill_runs);
}

TEST(SpillManagerTest, NullEmptyAndNestedCellsSurviveASpill) {
  // Label and bag columns holding NULL, empty and nested cells (NULL and
  // empty inside the nesting too) come back equal under operator==, and
  // NULL stays distinct from empty.
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  runtime::spill::SpillManager m(cfg);
  const nrc::TypePtr inner_t =
      nrc::Type::Bag(nrc::Type::Tuple({{"y", nrc::Type::Int()}}));
  const runtime::Schema schema(
      {{"l", nrc::Type::Label()},
       {"g", nrc::Type::Bag(nrc::Type::Tuple(
                 {{"x", nrc::Type::Int()}, {"inner", inner_t}}))}});
  const Field empty_bag = Field::Bag(std::vector<Row>{});
  const Field inner = Field::Bag({Row({Field::Int(3)}), Row({Field::Null()})});
  const Field nested_bag =
      Field::Bag({Row({Field::Int(1), empty_bag}),
                  Row({Field::Int(2), Field::Null()}),
                  Row({Field::Null(), inner})});
  const Field nested_label = runtime::MakeLabel(
      {{"id", Field::Int(1)},
       {"in", runtime::MakeLabel({{"k", Field::Str("a")},
                                  {"n", Field::Null()},
                                  {"e", runtime::MakeLabel({})}})},
       {"b", nested_bag}});
  const std::vector<Row> rows = {
      Row({Field::Null(), Field::Null()}),
      Row({runtime::MakeLabel({}), empty_bag}),
      Row({nested_label, nested_bag}),
      Row({nested_label, Field::Bag({Row({Field::Null(), empty_bag})})}),
  };
  runtime::StageStats c;
  auto restored = m.SpillAndRestoreBlock(
      1, "stage(cells)", 0, schema,
      runtime::column::PartitionBlock::FromRows(schema, rows), &c);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(c.spill_runs, 0u);
  ExpectBlockRows(*restored, rows);
  EXPECT_TRUE(restored->IsNull(0, 0));
  EXPECT_TRUE(restored->IsNull(0, 1));
  EXPECT_FALSE(restored->IsNull(1, 0));
  EXPECT_FALSE(restored->IsNull(1, 1));
  EXPECT_NE(restored->FieldAt(1, 1), Field::Null());
}

TEST(SpillManagerTest, ByteBudgetExhaustionNamesBudgetAndUsage) {
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  cfg.max_spill_bytes = 64;  // smaller than any real run
  runtime::spill::SpillManager m(cfg);
  runtime::column::PartitionBlock block = MakeBlock(100, "big-");
  runtime::StageStats c;
  Status s =
      m.SpillAndRestoreBlock(2, "stage(y)", 0, RowsSchema(), block, &c)
          .status();
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
  runtime::StageStats c;
  Status s =
      m.SpillAndRestoreBlock(5, "stage(z)", 0, RowsSchema(), block, &c)
          .status();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_EQ(c.spill_runs, 5u);
  EXPECT_EQ(m.on_disk_bytes(), 0u);
  EXPECT_EQ(RegularFilesUnder(m.root_dir()), 0u) << "under " << m.root_dir();

  // The released budget takes the same rows again: the block's first 80
  // rows, which would not fit beside the failed call's runs, spill and
  // restore within the budget, and their runs leave it in turn.
  runtime::column::PartitionBlock again = MakeBlock(80, "value-");
  runtime::StageStats c2;
  auto restored =
      m.SpillAndRestoreBlock(5, "stage(z)", 1, RowsSchema(), again, &c2);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(c.spill_bytes_written + c2.spill_bytes_written,
            cfg.max_spill_bytes);
  ExpectBlockRows(*restored, MakeRows(80, "value-"));
  EXPECT_EQ(m.on_disk_bytes(), 0u);
  EXPECT_EQ(RegularFilesUnder(m.root_dir()), 0u) << "under " << m.root_dir();
}

TEST(SpillManagerTest, UnwritableRunDirectoryFailsCleanly) {
  // SpillConfig::dir sits under a regular file, so no run directory can be
  // created (ENOTDIR, even as root). The failed spill is a Status naming the
  // run, not a loss: nothing stays charged and the block keeps its rows. A
  // capped stage on such a cluster returns that Status from its barrier.
  const std::string not_a_dir = ::testing::TempDir() +
                                "/trance-spill-not-a-dir-" +
                                std::to_string(::getpid());
  ASSERT_TRUE(WriteFile(not_a_dir, "a regular file").ok());
  runtime::spill::SpillConfig cfg;
  cfg.dir = not_a_dir + "/spill";
  runtime::spill::SpillManager m(cfg);
  runtime::column::PartitionBlock block = MakeBlock(100, "kept-");
  runtime::StageStats c;
  Status s =
      m.SpillAndRestoreBlock(3, "stage(w)", 0, RowsSchema(), block, &c)
          .status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find(m.RunPath(3, "stage(w)", 0, 0)),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(m.on_disk_bytes(), 0u);
  EXPECT_EQ(c.spill_runs, 0u);
  ExpectBlockRows(block, MakeRows(100, "kept-"));

  // One key, so the shuffle sends every row to one partition, over the cap.
  runtime::ClusterConfig ccfg = Config(1, 0);
  ccfg.num_partitions = 4;
  ccfg.partition_memory_cap = 12ull << 10;
  ccfg.spill.dir = cfg.dir;
  runtime::Cluster cluster(ccfg);
  std::vector<Row> rows;
  for (int i = 0; i < 400; ++i) {
    rows.push_back(
        Row{{Field::Int(0), Field::Str("value-" + std::to_string(i))}});
  }
  runtime::Schema schema(
      {{"k", nrc::Type::Int()}, {"s", nrc::Type::String()}});
  auto src = runtime::Source(&cluster, schema, std::move(rows), "src");
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  auto out = runtime::Repartition(&cluster, *src, {0}, "regroup");
  ASSERT_FALSE(out.ok());
  const std::string msg = out.status().ToString();
  EXPECT_FALSE(out.status().IsResourceExhausted()) << msg;
  EXPECT_NE(msg.find(cluster.spill_manager()->root_dir() + "/job"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("/regroup-p"), std::string::npos) << msg;
  EXPECT_EQ(cluster.spill_manager()->on_disk_bytes(), 0u);
  std::remove(not_a_dir.c_str());
}

}  // namespace
}  // namespace trance
