// Sequential-vs-parallel determinism: every bulk operator, and a full
// Figure-7 query through both compilation routes, must produce identical
// per-partition rows AND identical JobStats (shuffle bytes, per-partition
// histograms, simulated time) for any thread count. This is the contract
// that makes the thread pool a pure wall-clock optimization: the simulated
// cluster's behavior is a function of the data only.
#include <gtest/gtest.h>

#include <deque>

#include "exec/pipeline.h"
#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "stats_testing.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace trance {
namespace runtime {
namespace {

using stats_testing::ExpectSameStats;

// Thread counts under test: 1 is the inline sequential path, 4 and 8
// exercise the pool (oversubscribed on small machines, which is fine — the
// contract is independence from the thread count, not from the core count).
const int kThreadCounts[] = {1, 4, 8};

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

ClusterConfig Config(int num_threads) {
  ClusterConfig c;
  c.num_partitions = 8;
  c.num_threads = num_threads;
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
/// thread budget; returns every intermediate dataset plus the job stats.
struct OpsRun {
  // deque: later keep() calls must not invalidate references to earlier
  // outputs (operators chain off them).
  std::deque<Dataset> outputs;
  JobStats stats;
};

/// One narrow transform run as its own stage (the unfused operator form).
StatusOr<Dataset> RunNarrow(Cluster* cluster, const Dataset& in, Schema out,
                            RowTransform t) {
  const std::string name = t.op;
  return RunStagePipeline(cluster, in, std::move(out), {std::move(t)},
                          Partitioning::None(), name);
}

OpsRun RunAllOps(int num_threads) {
  Cluster cluster(Config(num_threads));
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
  const Dataset& mapped = keep(MapRows(
      &cluster, src, mapped_schema,
      [](const Row& r) {
        return Row({r.fields[0], Field::Int(r.fields[1].AsInt() * 3)});
      },
      "map"));
  const Dataset& filtered = keep(RunNarrow(
      &cluster, mapped, mapped_schema,
      RowTransform::Filter("filter", [](const Row& r) {
        return r.fields[1].AsInt() % 2 == 0;
      })));
  const Dataset& flat = keep(RunNarrow(
      &cluster, filtered, KvSchema(),
      RowTransform::FlatMap("flatmap", [](const Row& r,
                                          std::vector<Row>* out) {
        out->push_back(r);
        if (r.fields[0].AsInt() % 3 == 0) {
          out->push_back(Row({r.fields[0], Field::Int(-1)}));
        }
      })));
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
  keep(RunNarrow(&cluster, nested,
                 UnnestedSchema(nested.schema, bag_col, "").ValueOrDie(),
                 RowTransform::Unnest("unnest", bag_col)));
  keep(RunNarrow(&cluster, nested,
                 UnnestedSchema(nested.schema, bag_col, "uid").ValueOrDie(),
                 RowTransform::OuterUnnest("outer_unnest", bag_col,
                                           /*with_id=*/true,
                                           /*inner_width=*/1)));

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

// --- Full Figure-7 query through both compilation routes ------------------

Status RegisterTpch(exec::Executor* executor, const tpch::TpchData& d) {
  struct Entry {
    const tpch::Table* t;
    const char* name;
  };
  for (const Entry& e :
       {Entry{&d.region, "Region"}, Entry{&d.nation, "Nation"},
        Entry{&d.customer, "Customer"}, Entry{&d.orders, "Orders"},
        Entry{&d.lineitem, "Lineitem"}, Entry{&d.part, "Part"}}) {
    TRANCE_ASSIGN_OR_RETURN(
        Dataset ds,
        Source(executor->cluster(), e.t->schema, e.t->rows, e.name));
    executor->Register(e.name, std::move(ds));
    TRANCE_ASSIGN_OR_RETURN(Dataset shredded,
                            Source(executor->cluster(), e.t->schema,
                                   e.t->rows, shred::FlatInputName(e.name)));
    executor->Register(shred::FlatInputName(e.name), std::move(shredded));
  }
  return Status::OK();
}

tpch::TpchData SmallTpch() {
  tpch::TpchConfig cfg;
  cfg.scale = 0.002;
  return tpch::Generate(cfg);
}

TEST(ParallelDeterminismTest, Fig7StandardRoute) {
  tpch::TpchData data = SmallTpch();
  auto program = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  Dataset baseline;
  JobStats baseline_stats;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    Cluster cluster(Config(threads));
    exec::Executor executor(&cluster, {});
    ASSERT_TRUE(RegisterTpch(&executor, data).ok());
    auto out = exec::RunStandard(*program, &executor, {});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (threads == 1) {
      baseline = std::move(out).value();
      baseline_stats = cluster.stats();
    } else {
      ExpectSameRows(baseline, *out);
      ExpectSameStats(baseline_stats, cluster.stats());
    }
  }
}

TEST(ParallelDeterminismTest, Fig7ShreddedRoute) {
  tpch::TpchData data = SmallTpch();
  auto program = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  exec::ShreddedRun baseline;
  JobStats baseline_stats;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    Cluster cluster(Config(threads));
    exec::Executor executor(&cluster, {});
    ASSERT_TRUE(RegisterTpch(&executor, data).ok());
    auto run = exec::RunShredded(*program, &executor, {});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    if (threads == 1) {
      baseline = std::move(run).value();
      baseline_stats = cluster.stats();
    } else {
      ExpectSameRows(baseline.top, run->top);
      ASSERT_EQ(baseline.dicts.size(), run->dicts.size());
      for (size_t i = 0; i < baseline.dicts.size(); ++i) {
        SCOPED_TRACE("dict " + baseline.dicts[i].first);
        EXPECT_EQ(baseline.dicts[i].first, run->dicts[i].first);
        ExpectSameRows(baseline.dicts[i].second, run->dicts[i].second);
      }
      ExpectSameStats(baseline_stats, cluster.stats());
    }
  }
}

}  // namespace
}  // namespace runtime
}  // namespace trance
