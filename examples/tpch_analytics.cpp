// TPC-H nested analytics: builds the micro-benchmark's customer->orders->
// lineitems hierarchy from the flat TPC-H relations, then answers a
// nested-to-flat question ("total spend per part name, per customer") on the
// standard and shredded routes, comparing execution statistics.
//
// This is the workload family of Figure 7 driven through the public API.
#include <cstdio>

#include "exec/pipeline.h"
#include "shred/shredded_type.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "util/stopwatch.h"
#include "util/strings.h"

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
  tpch::TpchConfig cfg;
  cfg.scale = 0.002;
  tpch::TpchData data = tpch::Generate(cfg);
  std::printf("Generated TPC-H at scale %.3f: %zu lineitems, %zu orders, "
              "%zu customers, %zu parts\n\n",
              cfg.scale, data.lineitem.rows.size(), data.orders.rows.size(),
              data.customer.rows.size(), data.part.rows.size());

  const int depth = 2;  // customer -> orders -> lineitems
  TRANCE_ASSIGN_OR_RETURN(nrc::Program build_nested,
                          tpch::FlatToNested(depth, tpch::Width::kNarrow));
  TRANCE_ASSIGN_OR_RETURN(nrc::Program to_flat,
                          tpch::NestedToFlat(depth, tpch::Width::kNarrow));

  // --- Standard route ---
  runtime::Cluster std_cluster(runtime::ClusterConfig{.num_partitions = 8});
  exec::Executor std_exec(&std_cluster, {});
  TRANCE_RETURN_NOT_OK(RegisterAll(&std_exec, data));
  TRANCE_ASSIGN_OR_RETURN(runtime::Dataset nested,
                          exec::RunStandard(build_nested, &std_exec, {}));
  std_exec.Register("COP", std::move(nested));
  std_cluster.stats().Reset();
  Stopwatch w1;
  TRANCE_ASSIGN_OR_RETURN(runtime::Dataset flat_std,
                          exec::RunStandard(to_flat, &std_exec, {}));
  std::printf("STANDARD: %zu result rows, wall %.3fs\n  %s\n\n",
              flat_std.NumRows(), w1.ElapsedSeconds(),
              std_cluster.stats().ToString().c_str());

  // --- Shredded route (no unshredding needed: flat output) ---
  runtime::Cluster sh_cluster(runtime::ClusterConfig{.num_partitions = 8});
  exec::Executor sh_exec(&sh_cluster, {});
  TRANCE_RETURN_NOT_OK(RegisterAll(&sh_exec, data));
  TRANCE_ASSIGN_OR_RETURN(exec::ShreddedRun nested_sh,
                          exec::RunShredded(build_nested, &sh_exec, {}));
  exec::RegisterShreddedRun(&sh_exec, "COP", nested_sh);
  sh_cluster.stats().Reset();
  Stopwatch w2;
  TRANCE_ASSIGN_OR_RETURN(exec::ShreddedRun flat_sh,
                          exec::RunShredded(to_flat, &sh_exec, {}));
  std::printf("SHRED: %zu result rows, wall %.3fs\n  %s\n\n",
              flat_sh.top.NumRows(), w2.ElapsedSeconds(),
              sh_cluster.stats().ToString().c_str());

  // Show a few result rows.
  std::printf("sample rows (name, pname, total):\n");
  for (const auto& row : runtime::Take(flat_sh.top, 5)) {
    std::printf("  %s\n", runtime::RowToString(row).c_str());
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
