// Stage execution: the partition-task runner and barrier every stage that
// builds a Dataset shares (detail::RunPartitionTasks and FinishStage — the
// keyed operators of runtime/ops.cc, the shuffle's fetch phase and
// RunStagePipeline; only the shuffle's map phase, whose buckets are not a
// Dataset, calls Cluster::RunRecoverableTasks itself), and fused
// narrow-stage execution. FinishStage is the one place a partition spills:
// exactly where the memory cap would fail it with spilling off.
//
// A RowTransform is one partition-local ("narrow") operator expressed as a
// reusable row-level rewrite: map, filter, unnest, outer-unnest or
// add-index. RunStagePipeline runs a *chain* of transforms as one stage:
// every input row is fed through the whole chain in a single per-partition
// pass, so nothing between two narrow operators is ever materialized as a
// Dataset — only the chain's final output is. This mirrors how Spark fuses
// narrow dependencies into one pipelined stage (only shuffle boundaries
// materialize), which the paper's generated bulk programs rely on.
//
// Every narrow operator runs through this runner: unfused execution (and
// the MapRows / AddIndexColumn helpers in runtime/ops.h) runs
// single-transform chains, so fused and unfused stages share one
// implementation and one stats discipline.
//
// Stats contract:
//  - A single-transform chain records one StageStats named after the
//    operator, charging its input and (per ChargesEmitted) its output, with
//    no `fused_transforms`.
//  - A multi-transform chain records ONE StageStats whose work charge is the
//    input footprint plus the final transform's emitted bytes; the bytes the
//    unfused pipeline would have materialized between transforms are summed
//    into `intermediate_bytes_avoided`, and each transform reports its own
//    emitted-row count in `fused_transforms` (EXPLAIN ANALYZE expands these
//    back into one line per plan operator).
//  - Work charges are read off the input and output blocks' byte totals
//    after the stage barrier; the other accounting lands in the runner's
//    per-partition slots, merged in partition order after the barrier, so
//    outputs and stats are identical at any thread count. Per-partition uid
//    counters make the ids of outer-unnest and add-index transforms
//    identical fused or unfused.
//  - The memory cap is enforced against the fused chain's peak — the final
//    output partitions, the only rows the chain holds at once (intermediate
//    rows stream through one at a time).
#ifndef TRANCE_RUNTIME_STAGE_PIPELINE_H_
#define TRANCE_RUNTIME_STAGE_PIPELINE_H_

#include <functional>
#include <string>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/dataset.h"
#include "util/status.h"

namespace trance {
namespace runtime {

using MapFn = std::function<Row(const Row&)>;
using PredFn = std::function<bool(const Row&)>;

/// One narrow operator as a row-level rewrite, runnable standalone or fused.
struct RowTransform {
  enum class Kind { kMap, kFilter, kUnnest, kOuterUnnest, kAddIndex };

  Kind kind = Kind::kMap;
  /// Display name of the operator (e.g. "select", "project"): the
  /// fused_transforms entry of a multi-transform chain. The lowering also
  /// builds stage names from it (a heavy-component stage adds ".h").
  std::string op;
  /// Plan-node attribution for EXPLAIN ANALYZE; empty outside plan execution.
  std::string scope;

  MapFn map;            // kMap
  PredFn pred;          // kFilter
  int bag_col = -1;     // kUnnest / kOuterUnnest
  bool with_id = false;     // kOuterUnnest: prepend a unique id column
  size_t inner_width = 0;   // kOuterUnnest: NULL pad width for empty bags

  static RowTransform Map(std::string op, MapFn fn);
  static RowTransform Filter(std::string op, PredFn fn);
  static RowTransform Unnest(std::string op, int bag_col);
  static RowTransform OuterUnnest(std::string op, int bag_col, bool with_id,
                                  size_t inner_width);
  static RowTransform AddIndex(std::string op);
};

/// Runs `chain` (non-empty) over `in` as one fused stage. `out_schema` is the
/// schema after the whole chain; `out_partitioning` the guarantee the caller
/// derived for the chain's output. `stage_name` is the recorded op and the
/// name memory-cap failures report.
StatusOr<Dataset> RunStagePipeline(Cluster* cluster, const Dataset& in,
                                   Schema out_schema,
                                   const std::vector<RowTransform>& chain,
                                   Partitioning out_partitioning,
                                   const std::string& stage_name);

namespace detail {
/// One partition's task of a Dataset-building stage: task(p, slot) appends
/// partition p's rows to the output's block p and writes its telemetry into
/// `slot`, a StageStats of its own.
using PartitionTask = std::function<void(size_t, StageStats*)>;

/// Runs task(p, slot) for every partition p of `out` through the cluster's
/// recovery loop, which appends injected faults to `stage` and names `name`
/// when a task exhausts its retries. A crashed attempt's block and slot are
/// discarded before the retry. After the barrier the slots fold into `stage`
/// in partition order (FoldStage) and the blocks' ByteFootprint is added to
/// columnar_bytes, so outputs and stats are identical at any thread count
/// and with or without recovered faults.
Status RunPartitionTasks(Cluster* cluster, const std::string& name,
                         StageStats* stage, Dataset* out,
                         const PartitionTask& task);

/// Sets the stage's per-partition work histogram to work_of(p) for p in
/// [0, n), and its total and max. Called after the stage's barriers, so
/// work_of reads finished blocks.
void SetWork(StageStats* stage, size_t n,
             const std::function<uint64_t(size_t)>& work_of);

/// Stage barrier shared by the bulk operators and the fused-stage runner:
/// finalizes row counts, stamps the memory high-water mark from the result
/// blocks' byte totals, records the stage and enforces the per-partition
/// cap. With spilling on, each partition over the cap is first written to
/// disk runs tagged `name` and streamed back, the same rows in the same
/// order (runtime/spill.h), in partition order; its spill counters fold
/// into the stage and a `spill` event names it.
Status FinishStage(Cluster* cluster, StageStats stage, Dataset* result,
                   const std::string& name);
}  // namespace detail

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_STAGE_PIPELINE_H_
