// Fused narrow-stage execution.
//
// A RowTransform is one partition-local ("narrow") operator expressed as a
// reusable row-level rewrite: map, filter, flatmap, unnest, outer-unnest or
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
//  - All accounting uses per-partition slots merged in partition order after
//    the stage barrier, so outputs and stats are identical at any thread
//    count. Per-partition uid counters make the ids of outer-unnest and
//    add-index transforms identical fused or unfused.
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
using FlatMapFn = std::function<void(const Row&, std::vector<Row>*)>;
using PredFn = std::function<bool(const Row&)>;

/// One narrow operator as a row-level rewrite, runnable standalone or fused.
struct RowTransform {
  enum class Kind { kMap, kFilter, kFlatMap, kUnnest, kOuterUnnest, kAddIndex };

  Kind kind = Kind::kMap;
  /// Display name of the operator (e.g. "select", "project.h"); becomes the
  /// stage op for single-transform chains and a fused_transforms entry
  /// otherwise.
  std::string op;
  /// Plan-node attribution for EXPLAIN ANALYZE; empty outside plan execution.
  std::string scope;

  MapFn map;            // kMap
  PredFn pred;          // kFilter
  FlatMapFn flat_map;   // kFlatMap
  int bag_col = -1;     // kUnnest / kOuterUnnest
  bool with_id = false;     // kOuterUnnest: prepend a unique id column
  size_t inner_width = 0;   // kOuterUnnest: NULL pad width for empty bags

  static RowTransform Map(std::string op, MapFn fn);
  static RowTransform Filter(std::string op, PredFn fn);
  static RowTransform FlatMap(std::string op, FlatMapFn fn);
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
/// Folds one partition's spill telemetry into the stage and emits its spill
/// event. Driver-side only (post-barrier or sequential loops), in partition
/// order, so spill counters and the event sequence are thread-count-invariant.
void NoteSpill(Cluster* cluster, StageStats* stage, const std::string& op,
               size_t partition, uint64_t partition_bytes,
               const spill::SpillCounters& c);

/// Stage barrier shared by the bulk operators and the fused-stage runner:
/// finalizes row counts, stamps the memory high-water mark, records the
/// stage and enforces the per-partition cap. `part_bytes`, when provided, is
/// the precomputed footprint of `result`'s partitions (from the operator's
/// own single sizing pass); when empty the result is walked here (in
/// parallel).
Status FinishStage(Cluster* cluster, StageStats stage, Dataset* result,
                   const std::string& name,
                   std::vector<uint64_t> part_bytes = {});
}  // namespace detail

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_STAGE_PIPELINE_H_
