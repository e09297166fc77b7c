// Figure 8: the narrow nested-to-nested TPC-H query with two levels of
// nesting on increasingly skewed datasets (skew factor 0-4), comparing all
// seven strategies: UNSHRED / SHRED / STANDARD, their skew-aware variants,
// and SPARKSQL. Expected shape: skew-aware SHRED degrades gracefully while
// the flattening methods crash at higher skew.
#include "bench_common.h"
#include "tpch/queries.h"

namespace trance {
namespace bench {
namespace {

constexpr int kDepth = 2;
constexpr double kScale = 0.004;
constexpr uint64_t kCap = 1100ull << 10;

void RunSkewFactor(int skew_factor, std::vector<RunResult>* all) {
  tpch::TpchConfig tcfg;
  tcfg.scale = kScale;
  tcfg.skew = static_cast<double>(skew_factor);
  tpch::TpchData data = tpch::Generate(tcfg);
  auto query = tpch::NestedToNested(kDepth, tpch::Width::kNarrow).ValueOrDie();
  const runtime::ClusterConfig cluster = BenchClusterConfig(8, kCap, 48 << 10);
  const NestedInput nested =
      PrepareNestedInput(data, kDepth, tpch::Width::kNarrow, cluster);

  const Strategy kStrategies[] = {
      Strategy::kSparkSql,   Strategy::kStandard, Strategy::kStandardSkew,
      Strategy::kShred,      Strategy::kShredSkew, Strategy::kUnshred,
      Strategy::kUnshredSkew};
  for (Strategy s : kStrategies) {
    // Section 6: aggregation pushing benefits the skew-unaware methods
    // (collapsing duplicated heavy values diminishes skew); the skew-aware
    // ones instead maintain the distribution of heavy keys.
    exec::PipelineOptions opts = OptionsFor(s);
    if (!IsSkewAware(s)) opts.optimizer.enable_agg_pushdown = true;
    RunResult r = RunTpchCell(
        "skew" + std::to_string(skew_factor) + " " + StrategyName(s), data,
        nested, query, s, cluster, opts);
    PrintResult(r);
    all->push_back(std::move(r));
  }
}

}  // namespace

std::vector<RunResult> RunFig8() {
  PrintHeader("Figure 8: nested-to-nested narrow, 2 nesting levels, "
              "increasing skew");
  std::vector<RunResult> all;
  for (int z = 0; z <= 4; ++z) {
    RunSkewFactor(z, &all);
  }
  return all;
}

}  // namespace bench
}  // namespace trance

int main() {
  trance::bench::EnableBenchObservability();
  auto results = trance::bench::RunFig8();
  TRANCE_CHECK(trance::bench::WriteBenchReport("fig8_skew", results).ok(),
               "bench report");
  return 0;
}
