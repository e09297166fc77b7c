// Observability tour: runs a nested TPC-H query on the standard and
// shredded routes with tracing enabled, prints EXPLAIN ANALYZE for both
// (the compiled plan with per-operator runtime stats joined on), and writes
// a Chrome trace_event JSON loadable in chrome://tracing or Perfetto.
#include <cstdio>

#include "exec/pipeline.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "shred/shredded_type.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "util/file.h"

using namespace trance;

namespace {

Status RegisterAll(exec::Executor* executor, const tpch::TpchData& d) {
  struct E {
    const tpch::Table* t;
    const char* n;
  };
  for (const E& e : {E{&d.region, "Region"}, E{&d.nation, "Nation"},
                     E{&d.customer, "Customer"}, E{&d.orders, "Orders"},
                     E{&d.lineitem, "Lineitem"}, E{&d.part, "Part"}}) {
    TRANCE_ASSIGN_OR_RETURN(
        runtime::Dataset ds,
        runtime::Source(executor->cluster(), e.t->schema, e.t->rows, e.n));
    executor->Register(e.n, ds);
    executor->Register(shred::FlatInputName(e.n), std::move(ds));
  }
  return Status::OK();
}

Status Run() {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.set_enabled(true);

  tpch::TpchConfig cfg;
  cfg.scale = 0.004;
  tpch::TpchData data = tpch::Generate(cfg);

  const int depth = 2;  // customer -> orders -> lineitems
  TRANCE_ASSIGN_OR_RETURN(nrc::Program build_nested,
                          tpch::FlatToNested(depth, tpch::Width::kNarrow));

  // --- Standard route ---
  {
    runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 8});
    exec::Executor executor(&cluster, {});
    TRANCE_RETURN_NOT_OK(RegisterAll(&executor, data));
    plan::PlanProgram compiled;
    TRANCE_ASSIGN_OR_RETURN(
        runtime::Dataset out,
        exec::RunStandard(build_nested, &executor, {}, &compiled));
    std::printf("=== EXPLAIN ANALYZE (standard, flat-to-nested d%d, "
                "%zu rows) ===\n%s\n",
                depth, out.NumRows(),
                obs::ExplainAnalyze(compiled, cluster.stats()).c_str());
    obs::AppendJobStagesToTrace(cluster.stats(), &tracer, "standard");
  }

  // --- Shredded route ---
  {
    runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 8});
    exec::Executor executor(&cluster, {});
    TRANCE_RETURN_NOT_OK(RegisterAll(&executor, data));
    plan::PlanProgram compiled;
    TRANCE_ASSIGN_OR_RETURN(
        exec::ShreddedRun run,
        exec::RunShredded(build_nested, &executor, {},
                          shred::MaterializeMode::kDomainElimination,
                          &compiled));
    std::printf("=== EXPLAIN ANALYZE (shredded, flat-to-nested d%d, "
                "top %zu rows, %zu dicts) ===\n%s\n",
                depth, run.top.NumRows(), run.dicts.size(),
                obs::ExplainAnalyze(compiled, cluster.stats()).c_str());
    obs::AppendJobStagesToTrace(cluster.stats(), &tracer, "shredded");
  }

  const char* trace_path = "explain_analyze_trace.json";
  TRANCE_RETURN_NOT_OK(WriteFile(trace_path, tracer.ToChromeTraceJson()));
  std::printf("wrote %s (%zu events) — open in chrome://tracing\n",
              trace_path, tracer.events().size());
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
