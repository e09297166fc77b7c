// Stage-fusion equivalence: every Fig-7 narrow-suite query, through both
// compilation routes, must produce identical per-partition rows, identical
// shuffle bytes, and identical EXPLAIN ANALYZE per-operator row counts with
// fusion on and off, at 1 and 4 threads. Fusion is purely an execution
// strategy — it changes how many stages run, never what they compute.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exec/bridge.h"
#include "exec/pipeline.h"
#include "exec/scalar_compiler.h"
#include "fig7_suite.h"
#include "nrc/builder.h"
#include "obs/explain.h"
#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "stats_testing.h"

namespace trance {
namespace {

using fig7_suite::Config;
using fig7_suite::ExpectSameRows;
using fig7_suite::ExpectSameShreddedRows;
using nrc::Value;
using runtime::Dataset;
using runtime::JobStats;
using runtime::Row;
using runtime::StageStats;
using stats_testing::ExpectSameStats;
using stats_testing::IsHeavyStage;

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

/// The skew-unaware route never holds heavy rows, so it records no stage
/// over a heavy component.
void ExpectNoHeavyStages(const JobStats& stats) {
  for (const StageStats& s : stats.stages()) {
    EXPECT_FALSE(IsHeavyStage(s)) << s.op;
  }
}

/// The three Fig-7 narrow-suite query kinds at depths 0-4; nested-input
/// kinds prepare COP by interpreting the flat-to-nested query of the same
/// depth.
class FusionSuiteTest
    : public ::testing::TestWithParam<fig7_suite::SuiteParam> {};

TEST_P(FusionSuiteTest, StandardRouteOnOffIdentical) {
  auto [kind, depth] = GetParam();
  auto q = fig7_suite::Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = fig7_suite::Inputs(kind, depth);

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
  ExpectNoHeavyStages(on1.stats);
  ExpectNoHeavyStages(off1.stats);

  EXPECT_EQ(off1.stats.fused_stages(), 0u);
  EXPECT_EQ(off1.stats.totals().intermediate_bytes_avoided, 0u);
  if (depth >= 1) {
    EXPECT_GT(on1.stats.fused_stages(), 0u) << on1.explain;
    EXPECT_GT(on1.stats.totals().intermediate_bytes_avoided, 0u);
  }
}

TEST_P(FusionSuiteTest, ShreddedRouteOnOffIdentical) {
  auto [kind, depth] = GetParam();
  auto q = fig7_suite::Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = fig7_suite::Inputs(kind, depth);

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
  ExpectNoHeavyStages(on1.stats);
  ExpectNoHeavyStages(off1.stats);

  EXPECT_EQ(off1.stats.fused_stages(), 0u);
  EXPECT_EQ(off1.stats.totals().intermediate_bytes_avoided, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Fig7NarrowSuite, FusionSuiteTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1, 2, 3, 4)),
    fig7_suite::ParamName);

// --- One chain across batch boundaries ------------------------------------

using runtime::Field;
using runtime::RowTransform;
using runtime::Schema;
using runtime::column::PartitionBlock;

constexpr size_t kBatchPartitions = 4;
// Two full batches and a partial third in every partition (the source deals
// rows round-robin).
constexpr size_t kBatchRowsPerPartition =
    2 * runtime::kChainBatchRows + runtime::kChainBatchRows / 2 + 37;

/// Row i: key i, a string, and a bag of i % 4 (x, y) members.
Schema BatchSourceSchema() {
  return Schema({{"k", nrc::Type::Int()},
                 {"s", nrc::Type::String()},
                 {"items", nrc::Type::Bag(nrc::Type::Tuple(
                               {{"x", nrc::Type::Int()},
                                {"y", nrc::Type::String()}}))}});
}

std::vector<Row> BatchSourceRows() {
  std::vector<Row> rows;
  for (int64_t i = 0;
       i < static_cast<int64_t>(kBatchPartitions * kBatchRowsPerPartition);
       ++i) {
    std::vector<Row> items;
    for (int64_t j = 0; j < i % 4; ++j) {
      items.push_back(
          Row({Field::Int(i + j), Field::Str("y" + std::to_string(j))}));
    }
    rows.push_back(Row({Field::Int(i), Field::Str("s" + std::to_string(i)),
                        Field::Bag(std::move(items))}));
  }
  return rows;
}

/// outer-unnest with id -> filter -> outer-select -> extend -> add-index.
std::vector<RowTransform> BatchChain(const Schema& in) {
  Schema unnested = runtime::UnnestedSchema(in, 2, "uid").ValueOrDie();
  std::vector<RowTransform> chain;
  chain.push_back(RowTransform::OuterUnnest("unnest", unnested, 2,
                                            /*with_id=*/true));
  chain.push_back(RowTransform::Filter(
      "select", unnested, [](const PartitionBlock& b, size_t i) {
        return b.col(1).ints()[i] % 7 != 3;
      }));
  using namespace nrc::dsl;
  // Member j of row k has x = k + j: the first member of each bag fails.
  auto pred = exec::CompilePredicate(Gt(V("x"), V("k")), unnested).ValueOrDie();
  std::vector<bool> keep(unnested.size(), false);
  keep[0] = keep[1] = true;  // uid, k
  chain.push_back(
      RowTransform::OuterSelect("outer_select", unnested, pred, keep));
  Schema extended = unnested;
  extended.Append({"kx", nrc::Type::Int()});
  std::vector<RowTransform::OutCol> cols;
  for (size_t c = 0; c < unnested.size(); ++c) {
    cols.push_back({static_cast<int>(c), nullptr});
  }
  cols.push_back(
      {-1, exec::CompileScalar(Add(Mul(V("k"), I(10)), V("x")), unnested)
               .ValueOrDie()});
  chain.push_back(RowTransform::Project("extend", extended, std::move(cols)));
  Schema indexed = extended;
  indexed.Append({"id", nrc::Type::Int()});
  chain.push_back(RowTransform::AddIndex("add_index", indexed));
  return chain;
}

struct ChainRun {
  Dataset src;
  /// Fused: the chain's output alone. Unfused: every transform's output.
  std::vector<Dataset> outs;
  JobStats stats;
};

ChainRun RunBatchChain(bool fused, int threads, double fault_rate) {
  runtime::ClusterConfig c = Config(threads);
  c.num_partitions = kBatchPartitions;
  c.faults.fault_rate = fault_rate;
  runtime::Cluster cluster(c);
  ChainRun r;
  r.src = runtime::Source(&cluster, BatchSourceSchema(), BatchSourceRows(),
                          "nested")
              .ValueOrDie();
  const std::vector<RowTransform> chain = BatchChain(r.src.schema);
  if (fused) {
    r.outs.push_back(runtime::RunStagePipeline(&cluster, r.src, chain,
                                               runtime::Partitioning::None(),
                                               "fused")
                         .ValueOrDie());
  } else {
    for (const RowTransform& t : chain) {
      const Dataset& in = r.outs.empty() ? r.src : r.outs.back();
      r.outs.push_back(runtime::RunStagePipeline(
                           &cluster, in, {t}, runtime::Partitioning::None(),
                           t.op)
                           .ValueOrDie());
    }
  }
  r.stats = cluster.stats();
  return r;
}

// A fused chain runs each partition in batches of kChainBatchRows input
// rows. Its rows, ids and per-transform counts must equal those of the same
// transforms run one stage each, and the ids must number every row of a
// partition once, across all of its batches.
TEST(FusionTest, ChainAcrossBatchesMatchesUnfused) {
  const ChainRun fused = RunBatchChain(true, 1, 0.0);
  const ChainRun unfused = RunBatchChain(false, 1, 0.0);
  ASSERT_EQ(unfused.outs.size(), 5u);
  ExpectSameRows(fused.outs.back(), unfused.outs.back());

  const StageStats& stage = fused.stats.stages().back();
  ASSERT_EQ(stage.fused_transforms.size(), 5u);
  uint64_t intermediate = 0;
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(stage.fused_transforms[i].rows_out, unfused.outs[i].NumRows())
        << stage.fused_transforms[i].op;
    if (i + 1 < 5) intermediate += unfused.outs[i].DeepSizeBytes();
  }
  EXPECT_EQ(stage.intermediate_bytes_avoided, intermediate);

  // Counted from the generator, not the runner: outer-unnest emits one row
  // per bag member and one per empty bag, for every input row.
  uint64_t unnested = 0;
  for (size_t i = 0; i < kBatchPartitions * kBatchRowsPerPartition; ++i) {
    unnested += std::max<size_t>(1, i % 4);
  }
  EXPECT_EQ(stage.fused_transforms[0].rows_out, unnested);

  for (size_t p = 0; p < kBatchPartitions; ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    const int64_t base = static_cast<int64_t>(p) << 40;
    // Outer-unnest numbers each input row once: ids base .. base + n - 1.
    const size_t n = fused.src.PartitionRowCount(p);
    ASSERT_EQ(n, kBatchRowsPerPartition);
    std::set<int64_t> uids;
    const PartitionBlock& u = *unfused.outs[0].parts[p];
    for (size_t i = 0; i < u.NumRows(); ++i) uids.insert(u.col(0).ints()[i]);
    ASSERT_EQ(uids.size(), n);
    EXPECT_EQ(*uids.begin(), base);
    EXPECT_EQ(*uids.rbegin(), base + static_cast<int64_t>(n) - 1);
    // Add-index numbers each of its input rows once, in order.
    const PartitionBlock& out = *fused.outs.back().parts[p];
    const size_t id_col = out.NumCols() - 1;
    for (size_t i = 0; i < out.NumRows(); ++i) {
      ASSERT_EQ(out.col(id_col).ints()[i], base + static_cast<int64_t>(i))
          << "row " << i;
    }
  }

  // The same at 4 threads, and with faults injected and recovered.
  for (bool f : {true, false}) {
    SCOPED_TRACE(f ? "fused" : "unfused");
    const ChainRun& base = f ? fused : unfused;
    const ChainRun threaded = RunBatchChain(f, 4, 0.0);
    ExpectSameRows(base.outs.back(), threaded.outs.back());
    ExpectSameStats(base.stats, threaded.stats);
    const ChainRun faulted = RunBatchChain(f, 4, 1.0);
    uint64_t crashes = 0;
    for (const StageStats& s : faulted.stats.stages()) {
      for (const auto& e : s.fault_events) {
        if (e.kind == runtime::FaultKind::kWorkerCrash) ++crashes;
      }
    }
    EXPECT_GT(crashes, 0u);
    ExpectSameRows(base.outs.back(), faulted.outs.back());
    ExpectSameStats(base.stats, faulted.stats, runtime::StatGroup::kFaults);
  }
}

}  // namespace
}  // namespace trance
