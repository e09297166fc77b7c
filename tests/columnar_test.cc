// End-to-end columnar-block tests (ctest label `columnar`).
//
// Every Fig-7 narrow-suite query, through both compilation routes, produces
// identical per-partition rows (hence identical placement) and identical
// JobStats — the columnar_bytes footprint included, since per-partition
// slots are folded in partition order — with partition parallelism on (4
// and 8 worker threads) and off (the sequential one-thread path). Every
// stage that outputs rows holds them as resident blocks, and the footprint
// flows into EXPLAIN ANALYZE ("col(blocks=") and the JSON export.
#include <gtest/gtest.h>

#include <string>

#include "fig7_suite.h"
#include "obs/export.h"

namespace trance {
namespace {

class ColumnarSuiteTest
    : public ::testing::TestWithParam<fig7_suite::SuiteParam> {};

TEST_P(ColumnarSuiteTest, StandardRouteOnOffIdentical) {
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
  EXPECT_GT(seq.stats.totals().columnar_bytes, 0u);
}

TEST_P(ColumnarSuiteTest, ShreddedRouteOnOffIdentical) {
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
  EXPECT_GT(seq.stats.totals().columnar_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Fig7NarrowSuite, ColumnarSuiteTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 2, 4)),
    fig7_suite::ParamName);

// --- Block residence and counter plumbing --------------------------------

TEST(ColumnarRuntimeTest, BlockResidentRouteConvertsNothing) {
  // Partitions are resident blocks end to end: every stage that outputs
  // rows built typed blocks for them (a nonzero columnar footprint), on
  // both routes across the suite — no operator hands rows to the next
  // stage in another form.
  for (int kind = 0; kind <= 2; ++kind) {
    for (int depth : {0, 2}) {
      SCOPED_TRACE("kind " + std::to_string(kind) + " depth " +
                   std::to_string(depth));
      auto q = fig7_suite::Query(kind, depth);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      auto values = fig7_suite::Inputs(kind, depth);
      fig7_suite::StandardRun standard =
          fig7_suite::RunStandard(*q, values, fig7_suite::Config(1));
      ASSERT_TRUE(standard.ok()) << standard.status;
      fig7_suite::ShreddedRun shredded =
          fig7_suite::RunShredded(*q, values, fig7_suite::Config(1));
      ASSERT_TRUE(shredded.ok()) << shredded.status;
      for (const runtime::JobStats* stats :
           {&standard.stats, &shredded.stats}) {
        for (const runtime::StageStats& s : stats->stages()) {
          // A bag-to-dict repartition whose input already holds the label
          // partitioning moves nothing: it passes the input's blocks on.
          const bool reused = s.op.rfind("bag_to_dict", 0) == 0 &&
                              s.movement == runtime::DataMovement::kLocal;
          if (s.rows_out == 0 || reused) continue;
          EXPECT_GT(s.columnar_bytes, 0u) << "stage " << s.op;
        }
      }
    }
  }
}

TEST(ColumnarRuntimeTest, CountersVisibleInJsonAndExplain) {
  auto q = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto values = fig7_suite::TpchValues(tpch::Generate(cfg));
  fig7_suite::StandardRun r =
      fig7_suite::RunStandard(*q, values, fig7_suite::Config(1));
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_GT(r.stats.totals().columnar_bytes, 0u);

  std::string json = obs::JobStatsToJson(r.stats);
  EXPECT_NE(json.find("\"columnar_bytes\""), std::string::npos) << json;

  EXPECT_NE(r.explain.find("col(blocks="), std::string::npos) << r.explain;
}

}  // namespace
}  // namespace trance
