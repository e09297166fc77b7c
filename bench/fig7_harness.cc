#include "fig7_harness.h"

#include "util/strings.h"

namespace trance {
namespace bench {

namespace {

enum class QueryKind { kFlatToNested, kNestedToNested, kNestedToFlat };

const char* KindName(QueryKind k) {
  switch (k) {
    case QueryKind::kFlatToNested:
      return "flat_to_nested";
    case QueryKind::kNestedToNested:
      return "nested_to_nested";
    case QueryKind::kNestedToFlat:
      return "nested_to_flat";
  }
  return "?";
}

StatusOr<nrc::Program> Query(QueryKind kind, int depth, tpch::Width width) {
  switch (kind) {
    case QueryKind::kFlatToNested:
      return tpch::FlatToNested(depth, width);
    case QueryKind::kNestedToNested:
      return tpch::NestedToNested(depth, width);
    case QueryKind::kNestedToFlat:
      return tpch::NestedToFlat(depth, width);
  }
  return Status::Internal("bad query kind");
}

}  // namespace

std::vector<RunResult> RunFig7(const Fig7Config& cfg) {
  std::vector<RunResult> all;
  tpch::TpchConfig tcfg;
  tcfg.scale = cfg.scale;
  tcfg.skew = cfg.skew;
  tpch::TpchData data = tpch::Generate(tcfg);
  runtime::ClusterConfig cluster =
      BenchClusterConfig(cfg.num_partitions, cfg.partition_memory_cap,
                         cfg.broadcast_threshold);
  cluster.num_threads = cfg.num_threads;

  std::string title =
      std::string("Figure 7") +
      (cfg.width == tpch::Width::kNarrow ? "a (narrow" : "b (wide") +
      " TPC-H), scale=" + FormatDouble(cfg.scale, 4) +
      ", skew=" + FormatDouble(cfg.skew, 1);
  PrintHeader(title);

  const Strategy kStrategies[] = {Strategy::kSparkSql, Strategy::kStandard,
                                  Strategy::kShred, Strategy::kUnshred};

  for (QueryKind kind :
       {QueryKind::kFlatToNested, QueryKind::kNestedToNested,
        QueryKind::kNestedToFlat}) {
    for (int depth = 0; depth <= cfg.max_depth; ++depth) {
      StatusOr<nrc::Program> program = Query(kind, depth, cfg.width);
      TRANCE_CHECK(program.ok(), program.status().ToString());
      NestedInput nested;
      if (kind != QueryKind::kFlatToNested) {
        nested = PrepareNestedInput(data, depth, cfg.width, cluster);
      }
      for (Strategy s : kStrategies) {
        std::string name = std::string(KindName(kind)) + " d" +
                           std::to_string(depth) + " " + StrategyName(s);
        RunResult r = RunTpchCell(name, data, nested, *program, s, cluster,
                                  OptionsFor(s));
        PrintResult(r);
        all.push_back(std::move(r));
      }
    }
  }
  return all;
}

}  // namespace bench
}  // namespace trance
