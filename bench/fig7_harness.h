// Harness for Figure 7 (a: narrow, b: wide): the TPC-H micro-benchmark —
// flat-to-nested / nested-to-nested / nested-to-flat queries with 0-4
// nesting levels, run with SPARKSQL / STANDARD / SHRED / SHRED+UNSHRED.
#ifndef TRANCE_BENCH_FIG7_HARNESS_H_
#define TRANCE_BENCH_FIG7_HARNESS_H_

#include "bench_common.h"
#include "tpch/queries.h"

namespace trance {
namespace bench {

struct Fig7Config {
  tpch::Width width = tpch::Width::kNarrow;
  double scale = 0.004;
  double skew = 0.0;
  int num_partitions = 8;
  uint64_t partition_memory_cap = 3ull << 20;
  uint64_t broadcast_threshold = 48ull << 10;
  int max_depth = 4;
  /// Thread budget forwarded to ClusterConfig::num_threads (0 = auto).
  int num_threads = 0;
};

/// Runs the whole Figure-7 suite and prints the result table. Returns the
/// per-run results (used by the shuffle-table benchmark).
std::vector<RunResult> RunFig7(const Fig7Config& config);

}  // namespace bench
}  // namespace trance

#endif  // TRANCE_BENCH_FIG7_HARNESS_H_
