// Compilation-route drivers: the standard pipeline (Section 3) and, layered
// on top of the shredding module, the shredded pipeline (Section 4) with
// materialization and unshredding. These are the top-level entry points the
// examples and benchmarks use.
#ifndef TRANCE_EXEC_PIPELINE_H_
#define TRANCE_EXEC_PIPELINE_H_

#include <map>
#include <string>

#include "exec/lowering.h"
#include "nrc/expr.h"
#include "nrc/value.h"
#include "plan/optimizer.h"
#include "shred/materialize.h"
#include "shred/value_shredder.h"
#include "util/status.h"

namespace trance {
namespace exec {

struct PipelineOptions {
  plan::OptimizerOptions optimizer;
  ExecOptions exec;

  /// The SparkSQL competitor mode of Section 6: no cogroup fusion (the
  /// optimizer restriction the paper identifies for SparkSQL).
  static PipelineOptions SparkSql() {
    PipelineOptions o;
    o.optimizer.enable_cogroup = false;
    return o;
  }
};

/// Compiles `program` through unnesting + optimization and executes it on
/// `executor` (inputs must be registered under the program's input names).
/// Returns the final assignment's dataset. When `compiled_out` is non-null
/// it receives the optimized plan program actually executed (the input to
/// obs::ExplainAnalyze). Compilation phases and execution emit nested spans
/// on obs::Tracer::Global() when tracing is enabled.
StatusOr<runtime::Dataset> RunStandard(const nrc::Program& program,
                                       Executor* executor,
                                       const PipelineOptions& options,
                                       plan::PlanProgram* compiled_out =
                                           nullptr);

/// Registers `program`'s inputs from `values` (one nested value per input
/// name). Standard form: each value goes through ValueToRows and Source under
/// the input's name. Shredded form (`shredded`): RegisterShreddedInput, the
/// k-th input shredded with label seed shred::InputLabelSeed(k). A missing
/// input, or a value that does not fit its declared type, is an error Status.
Status RegisterInputs(Executor* executor, const nrc::Program& program,
                      const std::map<std::string, nrc::Value>& values,
                      bool shredded);

/// Convenience for tests: feeds nested nrc::Values as inputs, runs the
/// standard route on a fresh executor over `cluster`, and converts the
/// result back to a nested value.
StatusOr<nrc::Value> RunStandardOnValues(
    const nrc::Program& program,
    const std::map<std::string, nrc::Value>& inputs,
    runtime::Cluster* cluster, const PipelineOptions& options);

// --- Shredded pipeline (Section 4) --------------------------------------

/// Result of the shredded route: the materialized top bag and relational
/// dictionaries (label-partitioned), plus the nested output type for
/// unshredding.
struct ShreddedRun {
  runtime::Dataset top;
  std::vector<std::pair<std::string, runtime::Dataset>> dicts;  // path -> ds
  nrc::TypePtr output_type;
};

/// Registers the shredded representation of nested input `name` (value
/// shredding + conversion to datasets; dictionaries label-partitioned).
Status RegisterShreddedInput(Executor* executor, const std::string& name,
                             const nrc::TypePtr& type, const nrc::Value& value,
                             int64_t label_seed);

/// Registers a shredded run's output as the shredded input `name` (its top
/// bag as name_F, each dictionary as name_D_<path>), so a later program on
/// the shredded route reads it without unshredding.
void RegisterShreddedRun(Executor* executor, const std::string& name,
                         const ShreddedRun& run);

/// Shreds + materializes `program` (Section 4), compiles the materialized
/// assignments through the same unnesting/optimization stages, and executes
/// them. Dictionary assignments end in BagToDict, giving them the label
/// partitioning guarantee (skew-aware in skew mode). Inputs must be
/// registered in shredded form (X_F / X_D_<path>).
StatusOr<ShreddedRun> RunShredded(const nrc::Program& program,
                                  Executor* executor,
                                  const PipelineOptions& options,
                                  shred::MaterializeMode mode =
                                      shred::MaterializeMode::kDomainElimination,
                                  plan::PlanProgram* compiled_out = nullptr);

/// Restores the nested output from a shredded run: bottom-up cogroups of
/// each dictionary with its parent on labels (the regrouping whose cost the
/// paper reports as Unshred).
StatusOr<runtime::Dataset> UnshredRun(Executor* executor,
                                      const ShreddedRun& run);

/// Convenience for tests: shreds the nested inputs, runs the shredded route,
/// unshreds, and converts back to a nested value.
StatusOr<nrc::Value> RunShreddedOnValues(
    const nrc::Program& program,
    const std::map<std::string, nrc::Value>& inputs,
    runtime::Cluster* cluster, const PipelineOptions& options,
    shred::MaterializeMode mode =
        shred::MaterializeMode::kDomainElimination);

}  // namespace exec
}  // namespace trance

#endif  // TRANCE_EXEC_PIPELINE_H_
