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
#include <optional>

#include "bench_common.h"
#include "tpch/queries.h"
#include "util/strings.h"

namespace trance {
namespace bench {
namespace {

constexpr double kScale = 0.004;
constexpr uint64_t kCap = 64ull << 20;  // uncapped: measure costs, not FAILs

Status RegisterFlat(exec::Executor* executor, const tpch::TpchData& d) {
  struct E {
    const tpch::Table* t;
    const char* n;
  };
  for (const E& e : {E{&d.region, "Region"}, E{&d.nation, "Nation"},
                     E{&d.customer, "Customer"}, E{&d.orders, "Orders"},
                     E{&d.lineitem, "Lineitem"}, E{&d.part, "Part"}}) {
    TRANCE_RETURN_NOT_OK(RegisterTable(executor, *e.t, e.n));
    TRANCE_RETURN_NOT_OK(
        RegisterTable(executor, *e.t, shred::FlatInputName(e.n)));
  }
  return Status::OK();
}

struct Prepared {
  tpch::TpchData data;
  std::optional<runtime::Dataset> nested;
  std::optional<exec::ShreddedRun> shredded;
};

Prepared Prepare(int depth, double skew) {
  Prepared p;
  tpch::TpchConfig tcfg;
  tcfg.scale = kScale;
  tcfg.skew = skew;
  p.data = tpch::Generate(tcfg);
  auto prep = tpch::FlatToNested(depth, tpch::Width::kNarrow).ValueOrDie();
  {
    runtime::Cluster c(BenchClusterConfig(8, kCap, 48 << 10));
    exec::Executor e(&c, {});
    TRANCE_CHECK(RegisterFlat(&e, p.data).ok(), "register");
    p.nested = exec::RunStandard(prep, &e, {}).ValueOrDie();
  }
  {
    runtime::Cluster c(BenchClusterConfig(8, kCap, 48 << 10));
    exec::Executor e(&c, {});
    TRANCE_CHECK(RegisterFlat(&e, p.data).ok(), "register");
    p.shredded = exec::RunShredded(prep, &e, {}).ValueOrDie();
  }
  return p;
}

RunResult RunShred(const std::string& name, const Prepared& p,
                   const nrc::Program& q, exec::PipelineOptions opts,
                   shred::MaterializeMode mode,
                   runtime::ClusterConfig ccfg) {
  runtime::Cluster cluster(ccfg);
  exec::Executor executor(&cluster, opts.exec);
  TRANCE_CHECK(RegisterFlat(&executor, p.data).ok(), "register");
  TRANCE_CHECK(RegisterShreddedRun(&executor, "COP", *p.shredded).ok(),
               "register shredded");
  return TimedRun(name, &cluster, [&]() -> Status {
    TRANCE_ASSIGN_OR_RETURN(exec::ShreddedRun run,
                            exec::RunShredded(q, &executor, opts, mode));
    (void)run;
    return Status::OK();
  });
}

RunResult RunStdCfg(const std::string& name, const Prepared& p,
                    const nrc::Program& q, exec::PipelineOptions opts,
                    bool needs_nested, runtime::ClusterConfig ccfg) {
  runtime::Cluster cluster(ccfg);
  exec::Executor executor(&cluster, opts.exec);
  TRANCE_CHECK(RegisterFlat(&executor, p.data).ok(), "register");
  if (needs_nested) executor.Register("COP", *p.nested);
  return TimedRun(name, &cluster, [&]() -> Status {
    TRANCE_ASSIGN_OR_RETURN(runtime::Dataset out,
                            exec::RunStandard(q, &executor, opts));
    (void)out;
    return Status::OK();
  });
}

RunResult RunStd(const std::string& name, const Prepared& p,
                 const nrc::Program& q, exec::PipelineOptions opts,
                 bool needs_nested) {
  return RunStdCfg(name, p, q, opts, needs_nested,
                   BenchClusterConfig(8, kCap, 48 << 10));
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
    Prepared p = Prepare(2, 0.0);
    auto q = tpch::NestedToNested(2, tpch::Width::kNarrow).ValueOrDie();
    auto ccfg = BenchClusterConfig(8, kCap, 48 << 10);
    rec(RunShred("domain elimination ON (rules 1/2/3)", p, q, {},
                 shred::MaterializeMode::kDomainElimination, ccfg));
    rec(RunShred("domain elimination OFF (Fig. 5 label domains)", p,
                 q, {}, shred::MaterializeMode::kBaseline, ccfg));
  }

  // 2. Cogroup fusion.
  {
    PrintHeader("Ablation 2: join+nest -> cogroup fusion (standard flat-to-nested d2)");
    Prepared p = Prepare(2, 0.0);
    auto q = tpch::FlatToNested(2, tpch::Width::kNarrow).ValueOrDie();
    exec::PipelineOptions on;
    rec(RunStd("cogroup fusion ON", p, q, on, false));
    exec::PipelineOptions off;
    off.optimizer.enable_cogroup = false;
    rec(RunStd("cogroup fusion OFF (the SparkSQL restriction)", p, q,
               off, false));
  }

  // 3. Map-side combine.
  {
    PrintHeader("Ablation 3: map-side combine for Gamma-plus (nested-to-flat d2)");
    Prepared p = Prepare(2, 0.0);
    auto q = tpch::NestedToFlat(2, tpch::Width::kNarrow).ValueOrDie();
    exec::PipelineOptions on;
    rec(RunStd("map-side combine ON", p, q, on, true));
    exec::PipelineOptions off;
    off.exec.map_side_combine = false;
    rec(RunStd("map-side combine OFF", p, q, off, true));
  }

  // 4. Aggregation pushdown on skewed data.
  {
    PrintHeader("Ablation 4: aggregation pushdown past joins (shredded "
                "nested-to-nested d2, skew 3)");
    Prepared p = Prepare(2, 3.0);
    auto q = tpch::NestedToNested(2, tpch::Width::kNarrow).ValueOrDie();
    auto ccfg = BenchClusterConfig(8, kCap, 48 << 10);
    exec::PipelineOptions on;
    on.optimizer.enable_agg_pushdown = true;
    rec(RunShred("agg pushdown ON", p, q, on,
                 shred::MaterializeMode::kDomainElimination, ccfg));
    rec(RunShred("agg pushdown OFF", p, q, {},
                 shred::MaterializeMode::kDomainElimination, ccfg));
  }

  // 5. Column pruning.
  {
    PrintHeader("Ablation 5: column pruning (shredded nested-to-flat d4)");
    Prepared p = Prepare(4, 0.0);
    auto q = tpch::NestedToFlat(4, tpch::Width::kNarrow).ValueOrDie();
    auto ccfg = BenchClusterConfig(8, kCap, 48 << 10);
    exec::PipelineOptions on;
    rec(RunShred("column pruning ON", p, q, on,
                 shred::MaterializeMode::kDomainElimination, ccfg));
    exec::PipelineOptions off;
    off.optimizer.enable_column_pruning = false;
    rec(RunShred("column pruning OFF", p, q, off,
                 shred::MaterializeMode::kDomainElimination, ccfg));
  }

  // 6. Heavy-key threshold sweep.
  {
    PrintHeader("Ablation 6: heavy-key threshold (skew-aware shredded "
                "nested-to-nested d2, skew 3)");
    Prepared p = Prepare(2, 3.0);
    auto q = tpch::NestedToNested(2, tpch::Width::kNarrow).ValueOrDie();
    for (double threshold : {0.01, 0.025, 0.05, 0.10}) {
      auto ccfg = BenchClusterConfig(8, kCap, 48 << 10);
      ccfg.heavy_key_threshold = threshold;
      exec::PipelineOptions opts;
      opts.exec.skew_aware = true;
      rec(RunShred("threshold " + FormatDouble(threshold, 3), p, q,
                   opts, shred::MaterializeMode::kDomainElimination,
                   ccfg));
    }
  }
  // 7. Narrow-stage fusion.
  {
    PrintHeader("Ablation 7: narrow-stage fusion (standard flat-to-nested d2)");
    Prepared p = Prepare(2, 0.0);
    auto q = tpch::FlatToNested(2, tpch::Width::kNarrow).ValueOrDie();
    exec::PipelineOptions on;
    rec(RunStd("stage fusion ON", p, q, on, false));
    exec::PipelineOptions off;
    off.exec.enable_stage_fusion = false;
    rec(RunStd("stage fusion OFF (materialize between narrow ops)", p, q,
               off, false));
  }
  // 8. Fault injection & recovery.
  {
    PrintHeader("Ablation 8: fault injection & recovery (standard "
                "flat-to-nested d2)");
    Prepared p = Prepare(2, 0.0);
    auto q = tpch::FlatToNested(2, tpch::Width::kNarrow).ValueOrDie();
    for (double rate : {0.0, 0.05, 0.2}) {
      auto ccfg = BenchClusterConfig(8, kCap, 48 << 10);
      ccfg.faults.enabled = rate > 0;
      ccfg.faults.fault_rate = rate;
      RunResult r = RunStdCfg("fault rate " + FormatDouble(rate, 2), p, q, {},
                              false, ccfg);
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
