// Figure 7b: performance of the wide TPC-H benchmark queries with varying
// levels of nesting (0-4), comparing UNSHRED / SHRED / STANDARD / SPARKSQL.
//
// Like fig7_narrow, the suite runs at num_threads = 1 and at the auto
// thread budget so the report records thread-scaling wall times.
#include "fig7_harness.h"

#include "util/thread_pool.h"

int main() {
  trance::bench::EnableBenchObservability();
  trance::bench::Fig7Config cfg;
  cfg.width = trance::tpch::Width::kWide;
  cfg.partition_memory_cap = 2ull << 20;
  cfg.num_threads = 1;
  auto baseline = trance::bench::RunFig7(cfg);
  cfg.num_threads = trance::util::DefaultNumThreads();
  auto results = trance::bench::RunFig7(cfg);
  TRANCE_CHECK(
      trance::bench::WriteBenchReport("fig7_wide", results, &baseline).ok(),
      "bench report");
  // Shape check (Section 6), on both passes: SHRED completes every query
  // in memory.
  for (const auto* pass : {&baseline, &results}) {
    trance::bench::CheckRunsInMemory("fig7_wide", *pass,
                                     {trance::bench::Strategy::kShred});
  }
  return 0;
}
