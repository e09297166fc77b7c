// A tiny Figure-7 run for CI smoke checks (ci/bench_smoke.sh): one
// flat-to-nested depth-0/1 pass per compilation route at a very small scale,
// single-threaded, writing BENCH_fig7_smoke.json. The point is not the
// numbers but that every route executes and the report schema stays in sync
// with docs/METRICS.md.
//
// TRANCE_SPILL_FORCE=1 shrinks the per-partition memory cap to a few KB so
// the out-of-core spill path (runtime/spill.h) engages on every route and
// renames the report fig7_smoke_spill: every run must complete through
// disk runs, and the pass must report spill_runs > 0.
#include <cstdlib>
#include <cstring>

#include "fig7_harness.h"

int main() {
  trance::bench::EnableBenchObservability();
  trance::bench::Fig7Config cfg;
  cfg.width = trance::tpch::Width::kNarrow;
  cfg.scale = 0.001;
  cfg.max_depth = 1;
  cfg.num_threads = 1;
  const char* spill_force = std::getenv("TRANCE_SPILL_FORCE");
  std::string report = "fig7_smoke";
  bool forced_spill = spill_force != nullptr && std::strcmp(spill_force, "1") == 0;
  if (forced_spill) {
    cfg.partition_memory_cap = 8ull << 10;  // spills at this scale
    report = "fig7_smoke_spill";
  }
  auto results = trance::bench::RunFig7(cfg);
  TRANCE_CHECK(!results.empty(), "fig7 smoke produced no runs");
  if (forced_spill) {
    uint64_t spill_runs = 0;
    for (const auto& r : results) {
      TRANCE_CHECK(r.ok, "forced-spill smoke: " + r.name + " failed: " +
                             r.fail_reason);
      spill_runs += r.stats.totals().spill_runs;
    }
    TRANCE_CHECK(spill_runs > 0, "forced-spill smoke spilled nothing");
  }
  TRANCE_CHECK(trance::bench::WriteBenchReport(report, results).ok(),
               "bench report");
  return 0;
}
