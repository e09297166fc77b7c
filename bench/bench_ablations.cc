// Ablations of the design choices DESIGN.md calls out:
//   1. domain elimination on/off (materialization mode) — shredded
//      nested-to-nested, 2 levels;
//   2. join+nest -> cogroup fusion on/off — standard flat-to-nested;
//   3. map-side combine for Gamma-plus on/off — nested-to-flat;
//   4. aggregation pushdown past joins on/off — shredded nested-to-nested
//      on skewed data;
//   5. column pruning on/off — shredded nested-to-flat, 4 levels;
//   6. heavy-key threshold sweep — skew-aware join at skew factor 3;
//   7. narrow-stage fusion on/off — standard flat-to-nested, both the fused
//      single-pass chains and the per-operator materializing baseline;
//   8. fault injection & recovery sweep — standard flat-to-nested across
//      fault rates (sim stays fault-invariant; recovery columns grow).
#include <cstdio>

#include "bench_common.h"
#include "tpch/queries.h"
#include "util/strings.h"

namespace trance {
namespace bench {
namespace {

constexpr double kScale = 0.004;
constexpr uint64_t kCap = 64ull << 20;  // uncapped: measure costs, not FAILs

tpch::TpchData Tables(double skew) {
  tpch::TpchConfig tcfg;
  tcfg.scale = kScale;
  tcfg.skew = skew;
  return tpch::Generate(tcfg);
}

runtime::ClusterConfig BaseCluster() {
  return BenchClusterConfig(8, kCap, 48 << 10);
}

/// COP for the nested-input ablations, prepared on the base cluster (an
/// ablation that varies the cluster varies only its own runs).
NestedInput Nested(const tpch::TpchData& data, int depth) {
  return PrepareNestedInput(data, depth, tpch::Width::kNarrow, BaseCluster());
}

}  // namespace
}  // namespace bench
}  // namespace trance

int main() {
  using namespace trance;
  using namespace trance::bench;

  EnableBenchObservability();
  std::vector<RunResult> all;
  auto rec = [&all](RunResult r) {
    PrintResult(r);
    all.push_back(std::move(r));
  };

  // 1. Domain elimination.
  {
    PrintHeader("Ablation 1: domain elimination (shredded nested-to-nested d2)");
    const tpch::TpchData data = Tables(0.0);
    const NestedInput nested = Nested(data, 2);
    auto q = tpch::NestedToNested(2, tpch::Width::kNarrow).ValueOrDie();
    rec(RunTpchCell("domain elimination ON (rules 1/2/3)", data, nested, q,
                    Strategy::kShred, BaseCluster(), {},
                    shred::MaterializeMode::kDomainElimination));
    rec(RunTpchCell("domain elimination OFF (Fig. 5 label domains)", data,
                    nested, q, Strategy::kShred, BaseCluster(), {},
                    shred::MaterializeMode::kBaseline));
  }

  // 2. Cogroup fusion.
  {
    PrintHeader("Ablation 2: join+nest -> cogroup fusion (standard flat-to-nested d2)");
    const tpch::TpchData data = Tables(0.0);
    auto q = tpch::FlatToNested(2, tpch::Width::kNarrow).ValueOrDie();
    exec::PipelineOptions on;
    rec(RunTpchCell("cogroup fusion ON", data, {}, q, Strategy::kStandard,
                    BaseCluster(), on));
    exec::PipelineOptions off;
    off.optimizer.enable_cogroup = false;
    rec(RunTpchCell("cogroup fusion OFF (the SparkSQL restriction)", data, {},
                    q, Strategy::kStandard, BaseCluster(), off));
  }

  // 3. Map-side combine.
  {
    PrintHeader("Ablation 3: map-side combine for Gamma-plus (nested-to-flat d2)");
    const tpch::TpchData data = Tables(0.0);
    const NestedInput nested = Nested(data, 2);
    auto q = tpch::NestedToFlat(2, tpch::Width::kNarrow).ValueOrDie();
    exec::PipelineOptions on;
    rec(RunTpchCell("map-side combine ON", data, nested, q, Strategy::kStandard,
                    BaseCluster(), on));
    exec::PipelineOptions off;
    off.exec.map_side_combine = false;
    rec(RunTpchCell("map-side combine OFF", data, nested, q,
                    Strategy::kStandard, BaseCluster(), off));
  }

  // 4. Aggregation pushdown on skewed data.
  {
    PrintHeader("Ablation 4: aggregation pushdown past joins (shredded "
                "nested-to-nested d2, skew 3)");
    const tpch::TpchData data = Tables(3.0);
    const NestedInput nested = Nested(data, 2);
    auto q = tpch::NestedToNested(2, tpch::Width::kNarrow).ValueOrDie();
    exec::PipelineOptions on;
    on.optimizer.enable_agg_pushdown = true;
    rec(RunTpchCell("agg pushdown ON", data, nested, q, Strategy::kShred,
                    BaseCluster(), on));
    rec(RunTpchCell("agg pushdown OFF", data, nested, q, Strategy::kShred,
                    BaseCluster(), {}));
  }

  // 5. Column pruning.
  {
    PrintHeader("Ablation 5: column pruning (shredded nested-to-flat d4)");
    const tpch::TpchData data = Tables(0.0);
    const NestedInput nested = Nested(data, 4);
    auto q = tpch::NestedToFlat(4, tpch::Width::kNarrow).ValueOrDie();
    exec::PipelineOptions on;
    rec(RunTpchCell("column pruning ON", data, nested, q, Strategy::kShred,
                    BaseCluster(), on));
    exec::PipelineOptions off;
    off.optimizer.enable_column_pruning = false;
    rec(RunTpchCell("column pruning OFF", data, nested, q, Strategy::kShred,
                    BaseCluster(), off));
  }

  // 6. Heavy-key threshold sweep.
  {
    PrintHeader("Ablation 6: heavy-key threshold (skew-aware shredded "
                "nested-to-nested d2, skew 3)");
    const tpch::TpchData data = Tables(3.0);
    const NestedInput nested = Nested(data, 2);
    auto q = tpch::NestedToNested(2, tpch::Width::kNarrow).ValueOrDie();
    for (double threshold : {0.01, 0.025, 0.05, 0.10}) {
      runtime::ClusterConfig ccfg = BaseCluster();
      ccfg.heavy_key_threshold = threshold;
      exec::PipelineOptions opts;
      opts.exec.skew_aware = true;
      rec(RunTpchCell("threshold " + FormatDouble(threshold, 3), data, nested,
                      q, Strategy::kShred, ccfg, opts));
    }
  }
  // 7. Narrow-stage fusion.
  {
    PrintHeader("Ablation 7: narrow-stage fusion (standard flat-to-nested d2)");
    const tpch::TpchData data = Tables(0.0);
    auto q = tpch::FlatToNested(2, tpch::Width::kNarrow).ValueOrDie();
    exec::PipelineOptions on;
    rec(RunTpchCell("stage fusion ON", data, {}, q, Strategy::kStandard,
                    BaseCluster(), on));
    exec::PipelineOptions off;
    off.exec.enable_stage_fusion = false;
    rec(RunTpchCell("stage fusion OFF (materialize between narrow ops)", data,
                    {}, q, Strategy::kStandard, BaseCluster(), off));
  }
  // 8. Fault injection & recovery.
  {
    PrintHeader("Ablation 8: fault injection & recovery (standard "
                "flat-to-nested d2)");
    const tpch::TpchData data = Tables(0.0);
    auto q = tpch::FlatToNested(2, tpch::Width::kNarrow).ValueOrDie();
    for (double rate : {0.0, 0.05, 0.2}) {
      runtime::ClusterConfig ccfg = BaseCluster();
      ccfg.faults.fault_rate = rate;
      RunResult r = RunTpchCell("fault rate " + FormatDouble(rate, 2), data,
                                {}, q, Strategy::kStandard, ccfg, {});
      // Recovery is stats-transparent: shuffle/sim are identical across
      // rates; only the recovery columns grow.
      std::printf(
          "    faults=%llu retries=%llu recovery=%ss (sim unchanged)\n",
          static_cast<unsigned long long>(r.stats.totals().injected_faults),
          static_cast<unsigned long long>(r.stats.totals().retries),
          FormatDouble(r.stats.totals().recovery_sim_seconds, 2).c_str());
      rec(std::move(r));
    }
  }
  TRANCE_CHECK(WriteBenchReport("ablations", all).ok(), "bench report");
  return 0;
}
