// Figure 9: the end-to-end biomedical pipeline (5 steps) on the small and
// full datasets, comparing SPARKSQL / STANDARD / SHRED. Each route chains
// its own per-step outputs; once a step FAILs, the rest of that route's
// pipeline is dead (as in the paper, where Standard and SparkSQL fail during
// Step2 on the full dataset while Shred survives the whole pipeline).
#include <iterator>
#include <optional>

#include "bench_common.h"
#include "exec/bridge.h"
#include "biomed/generator.h"
#include "biomed/pipeline.h"
#include "util/strings.h"

namespace trance {
namespace bench {
namespace {

Status RegisterBase(exec::Executor* executor, const biomed::BiomedData& d) {
  // Flat inputs serve both routes; nested inputs (BN2, BN1) are registered
  // in standard form and, for the shredded route, pre-shredded via the
  // dataset shredder below.
  struct E {
    const runtime::Schema* s;
    const std::vector<runtime::Row>* r;
    const char* name;
    bool flat;
  };
  for (const E& e : {E{&d.bn2_schema, &d.bn2, "BN2", false},
                     E{&d.bn1_schema, &d.bn1, "BN1", false},
                     E{&d.bf1_schema, &d.bf1, "BF1", true},
                     E{&d.bf2_schema, &d.bf2, "BF2", true},
                     E{&d.bf3_schema, &d.bf3, "BF3", true}}) {
    TRANCE_ASSIGN_OR_RETURN(
        runtime::Dataset ds,
        runtime::Source(executor->cluster(), *e.s, *e.r, e.name));
    executor->Register(e.name, ds);
    if (e.flat) {
      executor->Register(shred::FlatInputName(e.name), std::move(ds));
    }
  }
  return Status::OK();
}

/// Registers nested input `name`, already registered in standard form, in
/// shredded form too (untimed): the value shredder over the dataset's rows.
/// Each call takes the next label seed, 50,000,000 apart, so no two inputs
/// share a label.
Status RegisterShreddedNestedInput(exec::Executor* executor,
                                   const std::string& name,
                                   const nrc::TypePtr& type) {
  TRANCE_ASSIGN_OR_RETURN(runtime::Dataset ds, executor->GetDataset(name));
  TRANCE_ASSIGN_OR_RETURN(nrc::Value v,
                          exec::RowsToValue(ds.Collect(), ds.schema));
  static int64_t seed = 0;
  seed += 50000000;
  return exec::RegisterShreddedInput(executor, name, type, v, seed);
}

}  // namespace

std::vector<RunResult> RunDataset(const char* label,
                                  const biomed::BiomedConfig& cfg,
                                  uint64_t cap) {
  std::vector<RunResult> all;
  biomed::BiomedData data = biomed::Generate(cfg);
  const Strategy kStrategies[] = {Strategy::kSparkSql, Strategy::kStandard,
                                  Strategy::kShred};
  for (Strategy s : kStrategies) {
    runtime::Cluster cluster(BenchClusterConfig(8, cap, 48 << 10));
    exec::Executor executor(&cluster, OptionsFor(s).exec);
    Status setup = RegisterBase(&executor, data);
    if (setup.ok() && IsShredded(s)) {
      setup = RegisterShreddedNestedInput(&executor, "BN2",
                                          biomed::Bn2Type());
      if (setup.ok()) {
        setup = RegisterShreddedNestedInput(&executor, "BN1",
                                            biomed::Bn1Type());
      }
    }
    TRANCE_CHECK(setup.ok(), setup.ToString());

    bool dead = false;
    std::string dead_reason;
    double total = 0;
    for (int step = 1; step <= biomed::kNumSteps; ++step) {
      std::string name = std::string(label) + " Step" +
                         std::to_string(step) + " " + StrategyName(s);
      if (dead) {
        RunResult r;
        r.name = name;
        r.ok = false;
        r.fail_reason = "pipeline dead: " + dead_reason;
        PrintResult(r);
        all.push_back(std::move(r));
        continue;
      }
      auto program = biomed::StepProgram(step).ValueOrDie();
      std::string out_var = "Step" + std::to_string(step);
      size_t out_rows = 0;
      RunResult r = TimedRun(name, &cluster, [&]() -> Status {
        if (IsShredded(s)) {
          TRANCE_ASSIGN_OR_RETURN(
              exec::ShreddedRun run,
              exec::RunShredded(program, &executor, OptionsFor(s)));
          // The next step consumes the shredded output directly (Section 6:
          // an aggregation pipeline never needs to reassociate dictionaries).
          exec::RegisterShreddedRun(&executor, out_var, run);
          out_rows = run.top.NumRows();
          return Status::OK();
        }
        TRANCE_ASSIGN_OR_RETURN(
            runtime::Dataset out,
            exec::RunStandard(program, &executor, OptionsFor(s)));
        out_rows = out.NumRows();
        executor.Register(out_var, std::move(out));
        return Status::OK();
      });
      r.out_rows = out_rows;
      total += r.ok ? r.stats.totals().sim_seconds : 0;
      PrintResult(r);
      if (!r.ok) {
        dead = true;
        dead_reason = "Step" + std::to_string(step) + " " + r.fail_reason;
      }
      all.push_back(std::move(r));
    }
    std::printf("%-44s %9s %9.2f\n",
                (std::string(label) + " TOTAL " + StrategyName(s) +
                 (dead ? " (FAILED)" : ""))
                    .c_str(),
                "", total);
  }
  return all;
}

}  // namespace bench
}  // namespace trance

int main() {
  using namespace trance;
  bench::EnableBenchObservability();
  bench::PrintHeader("Figure 9: biomedical end-to-end pipeline (E2E)");
  biomed::BiomedConfig small = biomed::BiomedConfig::Small();
  biomed::BiomedConfig full = biomed::BiomedConfig::Full();
  auto results = bench::RunDataset("small", small, 3ull << 20);
  auto full_results = bench::RunDataset("full", full, 3ull << 20);
  results.insert(results.end(),
                 std::make_move_iterator(full_results.begin()),
                 std::make_move_iterator(full_results.end()));
  TRANCE_CHECK(bench::WriteBenchReport("fig9_biomed", results).ok(),
               "bench report");
  // Shape checks (Section 6): SHRED runs the whole pipeline in memory on
  // both datasets, and the flattening routes spill exactly at full Step2.
  bench::CheckRunsInMemory("fig9_biomed", results, {bench::Strategy::kShred});
  for (const bench::RunResult& r : results) {
    const bool flattening = bench::RanStrategy(r, bench::Strategy::kStandard) ||
                            bench::RanStrategy(r, bench::Strategy::kSparkSql);
    const bool want_spill = flattening && r.name.starts_with("full Step2 ");
    const uint64_t spills = r.stats.totals().spill_runs;
    TRANCE_CHECK((spills > 0) == want_spill,
                 "fig9_biomed shape: " + r.name + " has " +
                     std::to_string(spills) + " spill runs");
  }
  return 0;
}
