// Sequential-vs-parallel determinism: every bulk operator, and a full
// Figure-7 query through both compilation routes, must produce identical
// per-partition rows AND identical JobStats (shuffle bytes, per-partition
// histograms, simulated time) for any thread count. This is the contract
// that makes the thread pool a pure wall-clock optimization: the simulated
// cluster's behavior is a function of the data only. The same operator set
// run under injected faults must match the fault-free run outside the fault
// counters, which checks every operator's recovery.
#include <gtest/gtest.h>

#include <deque>

#include "exec/pipeline.h"
#include "fig7_suite.h"
#include "nrc/interp.h"
#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "stats_testing.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace trance {
namespace runtime {
namespace {

using fig7_suite::ExpectSameRows;
using stats_testing::ExpectSameStats;
using stats_testing::IsHeavyStage;

// Thread counts under test: 1 is the inline sequential path, 4 and 8
// exercise the pool (oversubscribed on small machines, which is fine — the
// contract is independence from the thread count, not from the core count).
const int kThreadCounts[] = {1, 4, 8};

ClusterConfig Config(int num_threads, double fault_rate = 0.0) {
  ClusterConfig c;
  c.num_partitions = 8;
  c.num_threads = num_threads;
  c.faults.fault_rate = fault_rate;
  return c;
}

Schema KvSchema() {
  return Schema({{"k", nrc::Type::Int()}, {"v", nrc::Type::Int()}});
}

/// Deterministic test relation: keys cycle with deliberate repeats (so
/// joins/groups have fan-out), values are distinct.
std::vector<Row> KvRows(int n, int key_mod) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row({Field::Int(i % key_mod), Field::Int(i)}));
  }
  return rows;
}

/// Runs one instance of every bulk operator on a cluster with the given
/// thread budget and fault rate; returns every intermediate dataset plus the
/// job stats.
struct OpsRun {
  // deque: later keep() calls must not invalidate references to earlier
  // outputs (operators chain off them).
  std::deque<Dataset> outputs;
  JobStats stats;
};

/// One narrow transform run as its own stage (the unfused operator form).
StatusOr<Dataset> RunNarrow(Cluster* cluster, const Dataset& in,
                            RowTransform t) {
  const std::string name = t.op;
  return RunStagePipeline(cluster, in, {std::move(t)}, Partitioning::None(),
                          name);
}

OpsRun RunAllOps(int num_threads, double fault_rate = 0.0) {
  Cluster cluster(Config(num_threads, fault_rate));
  OpsRun run;
  auto keep = [&run](StatusOr<Dataset> ds) -> const Dataset& {
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    run.outputs.push_back(std::move(ds).value());
    return run.outputs.back();
  };

  const Dataset& src =
      keep(Source(&cluster, KvSchema(), KvRows(200, 17), "in"));
  const Dataset& src2 = keep(SourcePartitioned(
      &cluster, KvSchema(), KvRows(120, 11), {0}, "in2"));

  Schema mapped_schema(
      {{"k", nrc::Type::Int()}, {"v2", nrc::Type::Int()}});
  const Dataset& mapped = keep(RunNarrow(
      &cluster, src,
      RowTransform::Project(
          "map", mapped_schema,
          {{0, nullptr},
           {-1, [](const column::PartitionBlock& b, size_t i) {
              return Field::Int(b.col(1).ints()[i] * 3);
            }}})));
  const Dataset& filtered = keep(RunNarrow(
      &cluster, mapped,
      RowTransform::Filter("filter", mapped_schema,
                           [](const column::PartitionBlock& b, size_t i) {
                             return b.col(1).ints()[i] % 2 == 0;
                           })));
  // A fused project + unnest chain fans each row out into its value and,
  // for keys divisible by 3, a second row (k, -1): duplicate keys for the
  // repartition and dedup below.
  Schema fan_schema(
      {{"k", nrc::Type::Int()},
       {"vs", nrc::Type::Bag(nrc::Type::Tuple({{"v", nrc::Type::Int()}}))}});
  const Dataset& flat = keep(RunStagePipeline(
      &cluster, filtered,
      {RowTransform::Project(
           "fan_out", fan_schema,
           {{0, nullptr},
            {-1,
             [](const column::PartitionBlock& b, size_t i) {
               std::vector<Row> vs{Row({Field::Int(b.col(1).ints()[i])})};
               if (b.col(0).ints()[i] % 3 == 0) {
                 vs.push_back(Row({Field::Int(-1)}));
               }
               return Field::Bag(std::move(vs));
             }}}),
       RowTransform::Unnest("unnest_fan_out",
                            UnnestedSchema(fan_schema, 1, "").ValueOrDie(),
                            1)},
      Partitioning::None(), "fan_out"));
  const Dataset& parted = keep(Repartition(&cluster, flat, {0}, "repart"));
  keep(Repartition(&cluster, parted, {0}, "repart_noop"));

  keep(HashJoin(&cluster, src, src2, {0}, {0}, JoinType::kInner, "join"));
  keep(HashJoin(&cluster, src, src2, {0}, {0}, JoinType::kLeftOuter,
                "outer_join"));
  keep(BroadcastJoin(&cluster, src, src2, {0}, {0}, JoinType::kInner,
                     "bcast_join"));

  const Dataset& nested =
      keep(NestGroup(&cluster, src, {0}, {1}, "vs", "nest"));
  keep(AddIndexColumn(&cluster, nested, "id", "index"));
  keep(SumAggregate(&cluster, src, {0}, {1}, /*map_side_combine=*/true,
                    "agg_combine"));
  keep(SumAggregate(&cluster, src, {0}, {1}, /*map_side_combine=*/false,
                    "agg_plain"));

  int bag_col = nested.schema.IndexOf("vs");
  EXPECT_GE(bag_col, 0);
  keep(RunNarrow(
      &cluster, nested,
      RowTransform::Unnest(
          "unnest", UnnestedSchema(nested.schema, bag_col, "").ValueOrDie(),
          bag_col)));
  keep(RunNarrow(
      &cluster, nested,
      RowTransform::OuterUnnest(
          "outer_unnest",
          UnnestedSchema(nested.schema, bag_col, "uid").ValueOrDie(), bag_col,
          /*with_id=*/true)));

  keep(UnionAll(&cluster, src, src2, "union"));
  keep(Distinct(&cluster, flat, "distinct"));
  keep(CoGroup(&cluster, src, src2, {0}, {0}, {1}, "matches", "cogroup"));

  run.stats = cluster.stats();
  return run;
}

TEST(ParallelDeterminismTest, AllBulkOperators) {
  OpsRun baseline = RunAllOps(1);
  for (int threads : kThreadCounts) {
    if (threads == 1) continue;
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    OpsRun parallel = RunAllOps(threads);
    ASSERT_EQ(baseline.outputs.size(), parallel.outputs.size());
    for (size_t i = 0; i < baseline.outputs.size(); ++i) {
      SCOPED_TRACE("output " + std::to_string(i));
      ExpectSameRows(baseline.outputs[i], parallel.outputs[i]);
    }
    ExpectSameStats(baseline.stats, parallel.stats);
  }
}

// Every operator's recovery discards a crashed attempt's rows and telemetry:
// with half of all task attempts faulting (at most twice per task, within
// the default retry budget), every output and every non-recovery statistic
// equals the fault-free run's, at any thread count.
TEST(ParallelDeterminismTest, AllBulkOperatorsRecoverFromFaults) {
  OpsRun baseline = RunAllOps(1);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    OpsRun faulted = RunAllOps(threads, /*fault_rate=*/0.5);
    EXPECT_GT(faulted.stats.totals().injected_faults, 0u);
    ASSERT_EQ(baseline.outputs.size(), faulted.outputs.size());
    for (size_t i = 0; i < baseline.outputs.size(); ++i) {
      SCOPED_TRACE("output " + std::to_string(i));
      ExpectSameRows(baseline.outputs[i], faulted.outputs[i]);
    }
    ExpectSameStats(baseline.stats, faulted.stats, StatGroup::kFaults);
  }
}

// --- Full Figure-7 query through both compilation routes ------------------

std::map<std::string, nrc::Value> SmallTpch() {
  tpch::TpchConfig cfg;
  cfg.scale = 0.002;
  return fig7_suite::TpchValues(tpch::Generate(cfg));
}

TEST(ParallelDeterminismTest, Fig7StandardRoute) {
  const auto values = SmallTpch();
  auto program = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  fig7_suite::StandardRun baseline;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    fig7_suite::StandardRun run =
        fig7_suite::RunStandard(*program, values, Config(threads));
    ASSERT_TRUE(run.ok()) << run.status;
    if (threads == 1) {
      baseline = std::move(run);
    } else {
      ExpectSameRows(baseline.out, run.out);
      ExpectSameStats(baseline.stats, run.stats);
    }
  }
}

TEST(ParallelDeterminismTest, Fig7ShreddedRoute) {
  const auto values = SmallTpch();
  auto program = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  fig7_suite::ShreddedRun baseline;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    fig7_suite::ShreddedRun run =
        fig7_suite::RunShredded(*program, values, Config(threads));
    ASSERT_TRUE(run.ok()) << run.status;
    if (threads == 1) {
      baseline = std::move(run);
    } else {
      fig7_suite::ExpectSameShreddedRows(baseline.out, run.out);
      ExpectSameStats(baseline.stats, run.stats);
    }
  }
}

TEST(ParallelDeterminismTest, SkewAwareShreddedRoute) {
  // The wide nested-to-nested depth-2 query over Zipf-skewed keys on the
  // skew-aware shredded route: heavy-key sampling, skew-aware joins and
  // BagToDict, and narrow chains over heavy components. The interpreter
  // builds the nested COP input.
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  cfg.skew = 2.0;
  auto tables = fig7_suite::TpchValues(tpch::Generate(cfg));
  auto prep = tpch::FlatToNested(2, tpch::Width::kWide);
  auto program = tpch::NestedToNested(2, tpch::Width::kWide);
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  nrc::Interpreter interp;
  auto nested = interp.EvalProgram(*prep, tables);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  tables["COP"] = nested->at(prep->result().var);

  exec::ExecOptions skew;
  skew.skew_aware = true;
  fig7_suite::ShreddedRun baseline;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    fig7_suite::ShreddedRun run =
        fig7_suite::RunShredded(*program, tables, Config(threads), skew);
    ASSERT_TRUE(run.ok()) << run.status;
    // Heavy stages run only over heavy rows.
    size_t heavy_stages = 0;
    for (const StageStats& s : run.stats.stages()) {
      if (!IsHeavyStage(s)) continue;
      ++heavy_stages;
      EXPECT_GT(s.rows_in, 0u) << s.op;
    }
    EXPECT_GT(heavy_stages, 0u);
    if (threads == 1) {
      baseline = std::move(run);
    } else {
      fig7_suite::ExpectSameShreddedRows(baseline.out, run.out);
      ExpectSameStats(baseline.stats, run.stats);
    }
  }
}

}  // namespace
}  // namespace runtime
}  // namespace trance
