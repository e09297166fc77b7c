// Biomedical end-to-end pipeline: runs all five steps of the E2E analysis
// (Section 6's real-world benchmark shape) on the shredded route, keeping
// every intermediate in shredded form — the pattern the paper recommends for
// pipelines whose final output is flat.
#include <cstdio>

#include "biomed/generator.h"
#include "biomed/pipeline.h"
#include "exec/bridge.h"
#include "exec/pipeline.h"
#include "shred/shredded_type.h"
#include "util/strings.h"

using namespace trance;

namespace {

Status Run() {
  biomed::BiomedConfig cfg = biomed::BiomedConfig::Small();
  biomed::BiomedData data = biomed::Generate(cfg);
  std::printf("Synthetic ICGC-shaped inputs: %zu samples, %zu network edges, "
              "%zu expression rows\n\n",
              data.bn2.size(), data.bf2.size(), data.bf1.size());

  runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 8});
  exec::Executor executor(&cluster, {});

  // Flat inputs (they are their own shredded form).
  struct E {
    const runtime::Schema* s;
    const std::vector<runtime::Row>* r;
    const char* n;
  };
  for (const E& e : {E{&data.bf1_schema, &data.bf1, "BF1"},
                     E{&data.bf2_schema, &data.bf2, "BF2"},
                     E{&data.bf3_schema, &data.bf3, "BF3"}}) {
    TRANCE_ASSIGN_OR_RETURN(
        runtime::Dataset ds,
        runtime::Source(&cluster, *e.s, *e.r, e.n));
    executor.Register(e.n, ds);
    executor.Register(shred::FlatInputName(e.n), std::move(ds));
  }
  // Nested inputs, shredded.
  {
    TRANCE_ASSIGN_OR_RETURN(nrc::Value bn2,
                            exec::RowsToValue(data.bn2, data.bn2_schema));
    TRANCE_RETURN_NOT_OK(exec::RegisterShreddedInput(
        &executor, "BN2", biomed::Bn2Type(), bn2, 0));
    TRANCE_ASSIGN_OR_RETURN(nrc::Value bn1,
                            exec::RowsToValue(data.bn1, data.bn1_schema));
    TRANCE_RETURN_NOT_OK(exec::RegisterShreddedInput(
        &executor, "BN1", biomed::Bn1Type(), bn1, 90000000));
  }

  for (int step = 1; step <= biomed::kNumSteps; ++step) {
    TRANCE_ASSIGN_OR_RETURN(nrc::Program program, biomed::StepProgram(step));
    cluster.stats().Reset();
    TRANCE_ASSIGN_OR_RETURN(exec::ShreddedRun run,
                            exec::RunShredded(program, &executor, {}));
    exec::RegisterShreddedRun(&executor, "Step" + std::to_string(step), run);
    std::printf("Step%d: top=%zu rows", step, run.top.NumRows());
    for (const auto& [path, ds] : run.dicts) {
      std::printf(", dict[%s]=%zu rows", path.c_str(), ds.NumRows());
    }
    std::printf("  (shuffle %s, sim %.2fs)\n",
                FormatBytes(cluster.stats().totals().shuffle_bytes).c_str(),
                cluster.stats().totals().sim_seconds);
    if (step == biomed::kNumSteps) {
      std::printf("\ntop driver-gene candidates (gene, hub score):\n");
      for (const auto& row : runtime::Take(run.top, 8)) {
        std::printf("  %s\n", runtime::RowToString(row).c_str());
      }
    }
  }
  return Status::OK();
}

}  // namespace

int main() {
  Status st = Run();
  if (!st.ok()) {
    std::printf("FAILED: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
