// Shared fixture for the Fig-7 narrow-suite tests: builds each query kind
// at a given depth with its inputs, runs it through the standard or the
// shredded route on a fresh cluster, and compares two runs row by row
// (partition placement included) and stat by stat (stats_testing.h).
#ifndef TRANCE_TESTS_FIG7_SUITE_H_
#define TRANCE_TESTS_FIG7_SUITE_H_

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>

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
namespace fig7_suite {

using stats_testing::ExpectSameStats;

inline runtime::ClusterConfig Config(int num_threads) {
  runtime::ClusterConfig c;
  c.num_partitions = 8;
  c.num_threads = num_threads;
  return c;
}

inline void ExpectSameRows(const runtime::Dataset& a,
                           const runtime::Dataset& b) {
  ASSERT_EQ(a.NumPartitions(), b.NumPartitions());
  for (size_t p = 0; p < a.NumPartitions(); ++p) {
    ASSERT_EQ(a.PartitionRowCount(p), b.PartitionRowCount(p))
        << "partition " << p;
    for (size_t i = 0; i < a.PartitionRowCount(p); ++i) {
      const runtime::Row ra = a.RowAt(p, i);
      const runtime::Row rb = b.RowAt(p, i);
      ASSERT_EQ(ra.fields.size(), rb.fields.size())
          << "partition " << p << " row " << i;
      for (size_t f = 0; f < ra.fields.size(); ++f) {
        EXPECT_EQ(ra.fields[f], rb.fields[f])
            << "partition " << p << " row " << i << " field " << f;
      }
    }
  }
}

inline std::map<std::string, nrc::Value> TpchValues(const tpch::TpchData& d) {
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

struct StandardRun {
  runtime::Dataset out;
  runtime::JobStats stats;
  std::string explain;
};

inline StandardRun RunStandard(const nrc::Program& q,
                               const std::map<std::string, nrc::Value>& values,
                               int threads) {
  runtime::Cluster cluster(Config(threads));
  exec::PipelineOptions opts;
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
  StandardRun r;
  auto out = exec::RunStandard(q, &executor, opts, &compiled);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (out.ok()) r.out = std::move(out).value();
  r.stats = cluster.stats();
  r.explain = obs::ExplainAnalyze(compiled, r.stats);
  return r;
}

struct ShreddedRun {
  exec::ShreddedRun run;
  runtime::JobStats stats;
};

inline ShreddedRun RunShredded(const nrc::Program& q,
                               const std::map<std::string, nrc::Value>& values,
                               int threads) {
  runtime::Cluster cluster(Config(threads));
  exec::PipelineOptions opts;
  exec::Executor executor(&cluster, opts.exec);
  int64_t seed = 0;
  for (const auto& in : q.inputs) {
    auto v = values.find(in.name);
    TRANCE_CHECK(v != values.end(), "missing input");
    TRANCE_CHECK(exec::RegisterShreddedInput(&executor, in.name, in.type,
                                             v->second, seed)
                     .ok(),
                 "register shredded input");
    seed += 1000000;
  }
  plan::PlanProgram compiled;
  ShreddedRun r;
  auto run = exec::RunShredded(q, &executor, opts,
                               shred::MaterializeMode::kDomainElimination,
                               &compiled);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (run.ok()) r.run = std::move(run).value();
  r.stats = cluster.stats();
  return r;
}

inline void ExpectSameShreddedRows(const exec::ShreddedRun& a,
                                   const exec::ShreddedRun& b) {
  ExpectSameRows(a.top, b.top);
  ASSERT_EQ(a.dicts.size(), b.dicts.size());
  for (size_t i = 0; i < a.dicts.size(); ++i) {
    SCOPED_TRACE("dict " + a.dicts[i].first);
    EXPECT_EQ(a.dicts[i].first, b.dicts[i].first);
    ExpectSameRows(a.dicts[i].second, b.dicts[i].second);
  }
}

enum Kind { kFlatToNested = 0, kNestedToNested = 1, kNestedToFlat = 2 };

inline const char* KindName(int kind) {
  static const char* kKinds[] = {"flat_to_nested", "nested_to_nested",
                                 "nested_to_flat"};
  return kKinds[kind];
}

inline StatusOr<nrc::Program> Query(int kind, int depth) {
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

/// The flat TPC-H tables at scale 0.0005.
inline std::map<std::string, nrc::Value> FlatInputs() {
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  return TpchValues(tpch::Generate(cfg));
}

/// The query's inputs: the flat tables `flat`, or for the nested-to-* kinds
/// the nested COP relation (the flat-to-nested query of the same depth,
/// evaluated by the interpreter) plus Part.
inline std::map<std::string, nrc::Value> Inputs(
    int kind, int depth,
    const std::map<std::string, nrc::Value>& flat = FlatInputs()) {
  if (kind == kFlatToNested) return flat;
  auto prep = tpch::FlatToNested(depth, tpch::Width::kNarrow).ValueOrDie();
  nrc::Interpreter interp;
  auto nested = interp.EvalProgram(prep, flat);
  TRANCE_CHECK(nested.ok(), "nested input prep");
  return {{"COP", nested->at("Q")}, {"Part", flat.at("Part")}};
}

/// Parameters are (kind, depth).
using SuiteParam = std::tuple<int, int>;

inline std::string ParamName(const ::testing::TestParamInfo<SuiteParam>& info) {
  return std::string(KindName(std::get<0>(info.param))) + "_depth" +
         std::to_string(std::get<1>(info.param));
}

}  // namespace fig7_suite
}  // namespace trance

#endif  // TRANCE_TESTS_FIG7_SUITE_H_
