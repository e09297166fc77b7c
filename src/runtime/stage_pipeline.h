// Stage execution: the partition-task runner and barrier every stage that
// builds a Dataset shares (detail::RunPartitionTasks and FinishStage — the
// keyed operators of runtime/ops.cc, the shuffle's fetch phase and
// RunStagePipeline; only the shuffle's map phase, whose buckets are not a
// Dataset, calls Cluster::RunRecoverableTasks itself), and fused
// narrow-stage execution. FinishStage is the one place a partition spills:
// every stage-output partition over the memory cap does.
//
// A RowTransform is one partition-local ("narrow") operator expressed as a
// block-to-block rewrite: project, filter, outer-select, unnest,
// outer-unnest or add-index. RunStagePipeline runs a *chain* of transforms as
// one stage: each partition's input block is cut into batches of
// kChainBatchRows rows, and each batch runs through the whole chain, every
// transform reading its input block and appending to its output block
// column by column. Pass-through columns are typed cell copies; only
// computed scalars read cells, and only the cells they reference. A
// non-final transform's output block lives for one batch; only the chain's
// final output is materialized as a Dataset. This mirrors how Spark fuses
// narrow dependencies into one pipelined stage (only shuffle boundaries
// materialize), which the paper's generated bulk programs rely on.
//
// Every narrow operator runs through this runner: unfused execution (and
// the AddIndexColumn helper in runtime/ops.h) runs single-transform chains,
// so fused and unfused stages share one implementation and one stats
// discipline.
//
// Stats contract:
//  - A single-transform chain records one StageStats named after the
//    operator, charging its input and (per ChargesEmitted) its output, with
//    no `fused_transforms`.
//  - A multi-transform chain records ONE StageStats whose work charge is the
//    input footprint plus the final transform's emitted bytes; the bytes the
//    unfused pipeline would have materialized between transforms (the byte
//    totals of the per-batch intermediate blocks) are summed into
//    `intermediate_bytes_avoided`, and each transform reports its own
//    emitted-row count in `fused_transforms` (EXPLAIN ANALYZE expands these
//    back into one line per plan operator).
//  - Work charges are read off the input and output blocks' byte totals
//    after the stage barrier; the other accounting lands in the runner's
//    per-partition slots, merged in partition order after the barrier, so
//    outputs and stats are identical at any thread count. Per-partition uid
//    counters, which carry across batches, make the ids of outer-unnest and
//    add-index transforms identical fused or unfused.
//  - The memory cap is enforced against the fused chain's peak — the final
//    output partitions; an intermediate block holds one batch's rows and is
//    never charged.
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

/// A compiled scalar evaluated at one row of a block (exec/scalar_compiler);
/// it reads only the cells it references.
using ScalarFn =
    std::function<Field(const column::PartitionBlock&, size_t row)>;
/// A compiled predicate at one row of a block; NULL counts as false.
using PredicateFn =
    std::function<bool(const column::PartitionBlock&, size_t row)>;

/// Input rows a fused chain runs through all of its transforms at once.
constexpr size_t kChainBatchRows = 1024;

/// One narrow operator as a block-to-block rewrite, runnable standalone or
/// fused.
struct RowTransform {
  enum class Kind {
    kProject,
    kFilter,
    kOuterSelect,
    kUnnest,
    kOuterUnnest,
    kAddIndex
  };

  /// One output column of a projection: a typed copy of input column `src`,
  /// or, when `src` is negative, the compiled scalar `fn`.
  struct OutCol {
    int src = -1;
    ScalarFn fn;
  };

  Kind kind = Kind::kProject;
  /// Display name of the operator (e.g. "select", "project"): the
  /// fused_transforms entry of a multi-transform chain. The lowering also
  /// builds stage names from it (a heavy-component stage adds ".h").
  std::string op;
  /// Plan-node attribution for EXPLAIN ANALYZE; empty outside plan execution.
  std::string scope;
  /// Schema of the rows this transform emits.
  Schema schema;

  std::vector<OutCol> cols;  // kProject: one per output column
  PredicateFn pred;          // kFilter / kOuterSelect
  std::vector<bool> keep;    // kOuterSelect: columns a failing row keeps
  int bag_col = -1;          // kUnnest / kOuterUnnest
  bool with_id = false;      // kOuterUnnest: prepend a unique id column

  static RowTransform Project(std::string op, Schema schema,
                              std::vector<OutCol> cols);
  static RowTransform Filter(std::string op, Schema schema, PredicateFn pred);
  /// Rows failing `pred` keep the `keep` columns and go NULL elsewhere.
  static RowTransform OuterSelect(std::string op, Schema schema,
                                  PredicateFn pred, std::vector<bool> keep);
  static RowTransform Unnest(std::string op, Schema schema, int bag_col);
  static RowTransform OuterUnnest(std::string op, Schema schema, int bag_col,
                                  bool with_id);
  static RowTransform AddIndex(std::string op, Schema schema);
};

/// Runs `chain` (non-empty) over `in` as one fused stage; the output takes
/// the last transform's schema. `out_partitioning` is the guarantee the
/// caller derived for the chain's output. `stage_name` is the recorded op
/// and the name memory-cap failures report.
StatusOr<Dataset> RunStagePipeline(Cluster* cluster, const Dataset& in,
                                   const std::vector<RowTransform>& chain,
                                   Partitioning out_partitioning,
                                   const std::string& stage_name);

namespace detail {
/// One partition's task of a Dataset-building stage: task(p, block, slot)
/// appends partition p's rows to `block`, a fresh block of the output's
/// schema that only this task touches, and writes its telemetry into
/// `slot`, a StageStats of its own.
using PartitionTask =
    std::function<void(size_t, column::PartitionBlock*, StageStats*)>;

/// Runs task(p, block, slot) for every partition p of `out` through the
/// cluster's recovery loop, which appends injected faults to `stage` and
/// names `name` when a task exhausts its retries. A crashed attempt's block
/// is replaced by an empty one and its slot discarded before the retry.
/// After the barrier the blocks are published as out->parts, the slots fold
/// into `stage` in partition order (FoldStage) and the blocks' ByteFootprint
/// is added to columnar_bytes, so outputs and stats are identical at any
/// thread count and with or without recovered faults. `out` brings the
/// schema and partition count.
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
/// blocks' byte totals, spills and records the stage. Each partition over
/// the per-partition cap is written to disk runs tagged `name` and streamed
/// back into a new block, the same rows in the same order
/// (runtime/spill.h), in partition order, which replaces the partition's
/// block in *result (a block shared with the stage's input stays as it
/// was); its spill counters fold into the stage and a `spill` event names
/// it. The only error is a failed spill (the spill byte budget, an I/O
/// error), returned after the stage is recorded.
Status FinishStage(Cluster* cluster, StageStats stage, Dataset* result,
                   const std::string& name);
}  // namespace detail

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_STAGE_PIPELINE_H_
