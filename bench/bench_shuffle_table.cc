// The shuffle-volume comparisons quoted in Section 6's text:
//  - flat-to-nested: Standard/Unshred max-stage shuffle ~20x Shred's;
//  - nested-to-nested: Standard total shuffle ~3x Shred's;
//  - nested-to-flat (wide): Standard total shuffle >2x Shred's;
//  - the skew-aware join shuffles far less than the skew-unaware one at
//    moderate (factor 2) and high (factor 4) skew.
// Exact multipliers depend on the simulator scale; the table reports who
// shuffles more and by what factor.
#include <cstdio>

#include "bench_common.h"
#include "fig7_harness.h"
#include "tpch/queries.h"
#include "util/strings.h"

namespace trance {
namespace bench {
namespace {

const RunResult* Find(const std::vector<RunResult>& rs,
                      const std::string& name) {
  for (const auto& r : rs) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

uint64_t MaxStageShuffle(const RunResult& r) {
  return r.stats.max_stage_shuffle_bytes();
}
uint64_t TotalShuffle(const RunResult& r) {
  return r.stats.totals().shuffle_bytes;
}

/// `runs` with every name prefixed by `prefix`: the narrow and wide Fig-7
/// passes name their runs alike, and the report needs unique names.
std::vector<RunResult> Prefixed(std::vector<RunResult> runs,
                                const std::string& prefix) {
  for (RunResult& r : runs) r.name = prefix + r.name;
  return runs;
}

void Compare(const char* label, const std::vector<RunResult>& rs,
             const std::string& a, const std::string& b, RunMetric metric) {
  const RunResult* ra = Find(rs, a);
  const RunResult* rb = Find(rs, b);
  if (ra == nullptr || rb == nullptr) {
    std::printf("%-58s  (missing runs)\n", label);
    return;
  }
  std::printf("%-58s  %s  (%s vs %s)\n", label,
              Ratio(*ra, *rb, metric).c_str(),
              ra->ok ? FormatBytes(metric(*ra)).c_str() : "FAIL",
              rb->ok ? FormatBytes(metric(*rb)).c_str() : "FAIL");
}

}  // namespace
}  // namespace bench
}  // namespace trance

int main() {
  using namespace trance;
  using namespace trance::bench;

  EnableBenchObservability();
  Fig7Config narrow;
  narrow.width = tpch::Width::kNarrow;
  narrow.partition_memory_cap = 64ull << 20;  // uncapped: measure volumes
  std::vector<RunResult> all = Prefixed(RunFig7(narrow), "narrow/");
  Fig7Config wide = narrow;
  wide.width = tpch::Width::kWide;
  std::vector<RunResult> wruns = Prefixed(RunFig7(wide), "wide/");
  all.insert(all.end(), wruns.begin(), wruns.end());

  std::printf("\n=== Shuffle comparisons (Section 6 text) ===\n");
  Compare("flat-to-nested wide d2: STANDARD vs SHRED (max stage)", all,
          "wide/flat_to_nested d2 STANDARD", "wide/flat_to_nested d2 SHRED",
          MaxStageShuffle);
  Compare("flat-to-nested wide d4: STANDARD vs SHRED (max stage)", all,
          "wide/flat_to_nested d4 STANDARD", "wide/flat_to_nested d4 SHRED",
          MaxStageShuffle);
  Compare("nested-to-nested narrow d2: STANDARD vs SHRED (total)", all,
          "narrow/nested_to_nested d2 STANDARD",
          "narrow/nested_to_nested d2 SHRED", TotalShuffle);
  Compare("nested-to-nested wide d2: STANDARD vs SHRED (total)", all,
          "wide/nested_to_nested d2 STANDARD", "wide/nested_to_nested d2 SHRED",
          TotalShuffle);
  Compare("nested-to-flat wide d2: STANDARD vs SHRED (total)", all,
          "wide/nested_to_flat d2 STANDARD", "wide/nested_to_flat d2 SHRED",
          TotalShuffle);
  std::printf(
      "\n(skew join shuffle reductions: see bench_fig8_skew — SHRED vs "
      "SHRED_SKEW at skew 2 and 4)\n");

  TRANCE_CHECK(WriteBenchReport("shuffle_table", all).ok(), "bench report");
  return 0;
}
