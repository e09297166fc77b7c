// Figure 7a: performance of the narrow TPC-H benchmark queries with varying
// levels of nesting (0-4), comparing UNSHRED / SHRED / STANDARD / SPARKSQL.
//
// The suite runs twice: once with num_threads = 1 (the sequential baseline)
// and once with the auto thread budget (TRANCE_THREADS / hardware
// concurrency), so the report carries per-run and total speedup_vs_1thread.
// Simulated metrics are identical between the two passes by construction.
#include "fig7_harness.h"

#include "util/thread_pool.h"

int main() {
  trance::bench::EnableBenchObservability();
  trance::bench::Fig7Config cfg;
  cfg.width = trance::tpch::Width::kNarrow;
  cfg.partition_memory_cap = 700ull << 10;
  cfg.num_threads = 1;
  auto baseline = trance::bench::RunFig7(cfg);
  cfg.num_threads = trance::util::DefaultNumThreads();
  auto results = trance::bench::RunFig7(cfg);
  TRANCE_CHECK(
      trance::bench::WriteBenchReport("fig7_narrow", results, &baseline).ok(),
      "bench report");
  // Shape check (Section 6), on both passes: SHRED completes every query
  // in memory.
  for (const auto* pass : {&baseline, &results}) {
    trance::bench::CheckRunsInMemory("fig7_narrow", *pass,
                                     {trance::bench::Strategy::kShred});
  }
  return 0;
}
