// Stage-fusion equivalence: every Fig-7 narrow-suite query, through both
// compilation routes, must produce identical per-partition rows, identical
// shuffle bytes, and identical EXPLAIN ANALYZE per-operator row counts with
// fusion on and off, at 1 and 4 threads. Fusion is purely an execution
// strategy — it changes how many stages run, never what they compute.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exec/bridge.h"
#include "exec/pipeline.h"
#include "nrc/interp.h"
#include "obs/explain.h"
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
using runtime::StageStats;
using stats_testing::ExpectSameStats;

runtime::ClusterConfig Config(int num_threads) {
  runtime::ClusterConfig c;
  c.num_partitions = 8;
  c.num_threads = num_threads;
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

/// (operator label, rows) pairs extracted from EXPLAIN ANALYZE, in tree
/// order. The per-operator row counts must not depend on the fusion mode.
std::vector<std::pair<std::string, long long>> ExplainRowCounts(
    const std::string& explain) {
  std::vector<std::pair<std::string, long long>> out;
  std::istringstream is(explain);
  std::string line;
  while (std::getline(is, line)) {
    size_t bracket = line.find("  [rows=");
    if (bracket == std::string::npos) continue;
    std::string label = line.substr(0, bracket);
    size_t start = label.find_first_not_of(' ');
    label = start == std::string::npos ? "" : label.substr(start);
    long long rows = std::strtoll(line.c_str() + bracket + 8, nullptr, 10);
    out.emplace_back(std::move(label), rows);
  }
  return out;
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

struct StandardModeRun {
  Dataset out;
  JobStats stats;
  std::string explain;
};

StandardModeRun RunStandardMode(const nrc::Program& q,
                                const std::map<std::string, Value>& values,
                                bool fusion, int threads) {
  runtime::Cluster cluster(Config(threads));
  exec::PipelineOptions opts;
  opts.exec.enable_stage_fusion = fusion;
  exec::Executor executor(&cluster, opts.exec);
  for (const auto& in : q.inputs) {
    auto v = values.find(in.name);
    TRANCE_CHECK(v != values.end(), "missing input");
    auto schema = runtime::Schema::FromBagType(in.type).ValueOrDie();
    auto rows = exec::ValueToRows(v->second, schema).ValueOrDie();
    auto ds = runtime::Source(&cluster, schema, std::move(rows), in.name)
                  .ValueOrDie();
    executor.Register(in.name, std::move(ds));
  }
  plan::PlanProgram compiled;
  StandardModeRun r;
  auto out = exec::RunStandard(q, &executor, opts, &compiled);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (out.ok()) r.out = std::move(out).value();
  r.stats = cluster.stats();
  r.explain = obs::ExplainAnalyze(compiled, r.stats);
  return r;
}

struct ShreddedModeRun {
  exec::ShreddedRun run;
  JobStats stats;
  std::string explain;
};

ShreddedModeRun RunShreddedMode(const nrc::Program& q,
                                const std::map<std::string, Value>& values,
                                bool fusion, int threads) {
  runtime::Cluster cluster(Config(threads));
  exec::PipelineOptions opts;
  opts.exec.enable_stage_fusion = fusion;
  exec::Executor executor(&cluster, opts.exec);
  int64_t seed = 0;
  for (const auto& in : q.inputs) {
    auto v = values.find(in.name);
    TRANCE_CHECK(v != values.end(), "missing input");
    TRANCE_CHECK(
        exec::RegisterShreddedInput(&executor, in.name, in.type, v->second,
                                    seed)
            .ok(),
        "register shredded input");
    seed += 1000000;
  }
  plan::PlanProgram compiled;
  ShreddedModeRun r;
  auto run = exec::RunShredded(q, &executor, opts,
                               shred::MaterializeMode::kDomainElimination,
                               &compiled);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (run.ok()) r.run = std::move(run).value();
  r.stats = cluster.stats();
  r.explain = obs::ExplainAnalyze(compiled, r.stats);
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

class FusionSuiteTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  /// The three Fig-7 narrow-suite query kinds; nested-input kinds prepare
  /// COP by interpreting the flat-to-nested query of the same depth.
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

TEST_P(FusionSuiteTest, StandardRouteOnOffIdentical) {
  auto [k, depth] = GetParam();
  Kind kind = static_cast<Kind>(k);
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  StandardModeRun on1 = RunStandardMode(*q, values, true, 1);
  StandardModeRun on4 = RunStandardMode(*q, values, true, 4);
  StandardModeRun off1 = RunStandardMode(*q, values, false, 1);
  StandardModeRun off4 = RunStandardMode(*q, values, false, 4);

  // Each mode keeps the thread-count-independence contract in full.
  ExpectSameRows(on1.out, on4.out);
  ExpectSameStats(on1.stats, on4.stats);
  ExpectSameRows(off1.out, off4.out);
  ExpectSameStats(off1.stats, off4.stats);

  // Across modes: same rows in the same partitions, same shuffle volume,
  // same per-operator row counts in EXPLAIN ANALYZE.
  ExpectSameRows(on1.out, off1.out);
  EXPECT_EQ(on1.stats.totals().shuffle_bytes,
            off1.stats.totals().shuffle_bytes);
  EXPECT_EQ(on1.stats.max_stage_shuffle_bytes(),
            off1.stats.max_stage_shuffle_bytes());
  EXPECT_EQ(ExplainRowCounts(on1.explain), ExplainRowCounts(off1.explain))
      << "fusion ON:\n" << on1.explain << "fusion OFF:\n" << off1.explain;

  EXPECT_EQ(off1.stats.fused_stages(), 0u);
  EXPECT_EQ(off1.stats.totals().intermediate_bytes_avoided, 0u);
  if (depth >= 1) {
    EXPECT_GT(on1.stats.fused_stages(), 0u) << on1.explain;
    EXPECT_GT(on1.stats.totals().intermediate_bytes_avoided, 0u);
  }
}

TEST_P(FusionSuiteTest, ShreddedRouteOnOffIdentical) {
  auto [k, depth] = GetParam();
  Kind kind = static_cast<Kind>(k);
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  ShreddedModeRun on1 = RunShreddedMode(*q, values, true, 1);
  ShreddedModeRun on4 = RunShreddedMode(*q, values, true, 4);
  ShreddedModeRun off1 = RunShreddedMode(*q, values, false, 1);
  ShreddedModeRun off4 = RunShreddedMode(*q, values, false, 4);

  ExpectSameShreddedRows(on1.run, on4.run);
  ExpectSameStats(on1.stats, on4.stats);
  ExpectSameShreddedRows(off1.run, off4.run);
  ExpectSameStats(off1.stats, off4.stats);

  ExpectSameShreddedRows(on1.run, off1.run);
  EXPECT_EQ(on1.stats.totals().shuffle_bytes,
            off1.stats.totals().shuffle_bytes);
  EXPECT_EQ(on1.stats.max_stage_shuffle_bytes(),
            off1.stats.max_stage_shuffle_bytes());
  EXPECT_EQ(ExplainRowCounts(on1.explain), ExplainRowCounts(off1.explain))
      << "fusion ON:\n" << on1.explain << "fusion OFF:\n" << off1.explain;

  EXPECT_EQ(off1.stats.fused_stages(), 0u);
  EXPECT_EQ(off1.stats.totals().intermediate_bytes_avoided, 0u);
}

std::string FusionParamName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kKinds[] = {"flat_to_nested", "nested_to_nested",
                                 "nested_to_flat"};
  return std::string(kKinds[std::get<0>(info.param)]) + "_depth" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Fig7NarrowSuite, FusionSuiteTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1, 2, 3, 4)),
    FusionParamName);

}  // namespace
}  // namespace trance
