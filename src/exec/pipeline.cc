#include "exec/pipeline.h"

#include <set>

#include "exec/bridge.h"
#include "nrc/typecheck.h"
#include "obs/trace.h"
#include "plan/unnest.h"

namespace trance {
namespace exec {

namespace {
using TraceSpan = obs::Tracer::Span;
obs::Tracer* Trc() { return &obs::Tracer::Global(); }

/// The compile steps both routes share: typecheck, unnest to plans and
/// optimize, each under its own trace span.
StatusOr<plan::PlanProgram> CompilePlans(const nrc::Program& program,
                                         const PipelineOptions& options) {
  nrc::TypeEnv env;
  {
    TraceSpan span(Trc(), "typecheck");
    nrc::Typechecker tc;
    TRANCE_ASSIGN_OR_RETURN(env, tc.CheckProgram(program));
  }
  plan::PlanProgram plans;
  {
    TraceSpan span(Trc(), "unnest");
    nrc::TypeEnv input_env;
    for (const auto& in : program.inputs) input_env[in.name] = in.type;
    plan::Unnester unnester(input_env);
    TRANCE_ASSIGN_OR_RETURN(plans, unnester.CompileProgram(program));
  }
  TraceSpan span(Trc(), "optimize");
  return plan::OptimizeProgram(plans, env, options.optimizer);
}
}  // namespace

StatusOr<runtime::Dataset> RunStandard(const nrc::Program& program,
                                       Executor* executor,
                                       const PipelineOptions& options,
                                       plan::PlanProgram* compiled_out) {
  TraceSpan pipeline_span(Trc(), "standard_pipeline");
  TRANCE_ASSIGN_OR_RETURN(plan::PlanProgram plans,
                          CompilePlans(program, options));
  if (compiled_out != nullptr) *compiled_out = plans;

  TraceSpan span(Trc(), "execute");
  TRANCE_ASSIGN_OR_RETURN(std::string final_var,
                          executor->ExecuteProgram(plans));
  return executor->GetDataset(final_var);
}

namespace {

StatusOr<runtime::Dataset> ValueToDataset(runtime::Cluster* cluster,
                                          const nrc::Value& bag,
                                          const nrc::TypePtr& bag_type,
                                          const std::string& name) {
  TRANCE_ASSIGN_OR_RETURN(runtime::Schema schema,
                          runtime::Schema::FromBagType(bag_type));
  TRANCE_ASSIGN_OR_RETURN(std::vector<runtime::Row> rows,
                          ValueToRows(bag, schema));
  return runtime::Source(cluster, schema, std::move(rows), name);
}

}  // namespace

Status RegisterInputs(Executor* executor, const nrc::Program& program,
                      const std::map<std::string, nrc::Value>& values,
                      bool shredded) {
  for (size_t k = 0; k < program.inputs.size(); ++k) {
    const nrc::InputDecl& in = program.inputs[k];
    auto v = values.find(in.name);
    if (v == values.end()) return Status::Invalid("missing input " + in.name);
    if (shredded) {
      TRANCE_RETURN_NOT_OK(RegisterShreddedInput(
          executor, in.name, in.type, v->second, shred::InputLabelSeed(k)));
      continue;
    }
    TRANCE_ASSIGN_OR_RETURN(
        runtime::Dataset ds,
        ValueToDataset(executor->cluster(), v->second, in.type, in.name));
    executor->Register(in.name, std::move(ds));
  }
  return Status::OK();
}

Status RegisterShreddedInput(Executor* executor, const std::string& name,
                             const nrc::TypePtr& type, const nrc::Value& value,
                             int64_t label_seed) {
  TRANCE_ASSIGN_OR_RETURN(shred::ShreddedValue sv,
                          shred::ShredValue(value, type, label_seed));
  TRANCE_ASSIGN_OR_RETURN(shred::ShreddedType st, shred::ShredType(type));
  std::string flat_name = shred::FlatInputName(name);
  TRANCE_ASSIGN_OR_RETURN(
      runtime::Dataset flat,
      ValueToDataset(executor->cluster(), sv.flat, st.flat, flat_name));
  executor->Register(flat_name, std::move(flat));

  TRANCE_ASSIGN_OR_RETURN(std::vector<shred::DictEntry> walk,
                          shred::DictTreeWalk(type));
  for (const auto& entry : walk) {
    const nrc::Value* dict = sv.Dict(entry.path);
    if (dict == nullptr) return Status::Internal("missing shredded dict");
    TRANCE_ASSIGN_OR_RETURN(nrc::TypePtr rel,
                            shred::RelationalDictType(entry.flat_elem));
    std::string dict_name = shred::DictInputName(name, entry.path);
    TRANCE_ASSIGN_OR_RETURN(runtime::Schema schema,
                            runtime::Schema::FromBagType(rel));
    TRANCE_ASSIGN_OR_RETURN(std::vector<runtime::Row> rows,
                            ValueToRows(*dict, schema));
    // Dictionaries carry the label-based partitioning guarantee.
    TRANCE_ASSIGN_OR_RETURN(
        runtime::Dataset ds,
        runtime::SourcePartitioned(executor->cluster(), schema,
                                   std::move(rows), {0}, dict_name));
    executor->Register(dict_name, std::move(ds));
  }
  return Status::OK();
}

void RegisterShreddedRun(Executor* executor, const std::string& name,
                         const ShreddedRun& run) {
  executor->Register(shred::FlatInputName(name), run.top);
  for (const auto& [path, ds] : run.dicts) {
    executor->Register(shred::DictInputName(name, path), ds);
  }
}

StatusOr<ShreddedRun> RunShredded(const nrc::Program& program,
                                  Executor* executor,
                                  const PipelineOptions& options,
                                  shred::MaterializeMode mode,
                                  plan::PlanProgram* compiled_out) {
  TraceSpan pipeline_span(Trc(), "shredded_pipeline");
  shred::MaterializedProgram mat;
  {
    TraceSpan span(Trc(), "shred_materialize");
    TRANCE_ASSIGN_OR_RETURN(mat, shred::ShredAndMaterialize(program, mode));
  }
  if (mat.interpreter_only) {
    return Status::NotImplemented(
        "baseline materialization kept a match construct; only the "
        "interpreter can evaluate this program");
  }
  TRANCE_ASSIGN_OR_RETURN(plan::PlanProgram plans,
                          CompilePlans(mat.program, options));

  // Dictionary assignments get the BagToDict cast: label partitioning
  // guarantee, skew-aware in skew mode (Fig. 6).
  std::set<std::string> dict_vars;
  for (const auto& d : mat.dicts) dict_vars.insert(d.var);
  for (auto& a : plans.assignments) {
    if (dict_vars.count(a.var)) {
      a.plan = plan::PlanNode::BagToDict(a.plan, "label");
    }
  }
  if (compiled_out != nullptr) *compiled_out = plans;

  TraceSpan span(Trc(), "execute");
  TRANCE_ASSIGN_OR_RETURN(std::string final_var,
                          executor->ExecuteProgram(plans));
  (void)final_var;
  ShreddedRun run;
  TRANCE_ASSIGN_OR_RETURN(run.top, executor->GetDataset(mat.top_var));
  for (const auto& d : mat.dicts) {
    TRANCE_ASSIGN_OR_RETURN(runtime::Dataset ds, executor->GetDataset(d.var));
    run.dicts.emplace_back(d.path, std::move(ds));
  }
  run.output_type = mat.output_type;
  return run;
}

StatusOr<runtime::Dataset> UnshredRun(Executor* executor,
                                      const ShreddedRun& run) {
  TraceSpan span(Trc(), "unshred");
  runtime::Cluster* cluster = executor->cluster();
  TRANCE_ASSIGN_OR_RETURN(std::vector<shred::DictEntry> walk,
                          shred::DictTreeWalk(run.output_type));
  std::map<std::string, runtime::Dataset> ds_map;
  ds_map[""] = run.top;
  for (const auto& [path, ds] : run.dicts) ds_map[path] = ds;

  // Deepest-first: cogroup each dictionary into its parent, replacing the
  // parent's label column with the collected bag.
  for (auto it = walk.rbegin(); it != walk.rend(); ++it) {
    auto dit = ds_map.find(it->path);
    auto pit = ds_map.find(it->parent_path);
    if (dit == ds_map.end() || pit == ds_map.end()) {
      return Status::Internal("unshred: missing dataset for path " + it->path);
    }
    const runtime::Dataset& dict = dit->second;
    const runtime::Dataset& parent = pit->second;
    TRANCE_ASSIGN_OR_RETURN(int attr_col, parent.schema.Require(it->attr));
    TRANCE_ASSIGN_OR_RETURN(int label_col, dict.schema.Require("label"));
    std::vector<int> value_cols;
    for (size_t i = 0; i < dict.schema.size(); ++i) {
      if (static_cast<int>(i) != label_col) {
        value_cols.push_back(static_cast<int>(i));
      }
    }
    TRANCE_ASSIGN_OR_RETURN(
        runtime::Dataset cg,
        runtime::CoGroup(cluster, parent, dict, {attr_col}, {label_col},
                         value_cols, "_unshred_bag",
                         "unshred(" + it->path + ")"));
    // Replace the label column by the bag, in place: a projection of
    // column copies.
    runtime::Schema out_schema;
    std::vector<runtime::RowTransform::OutCol> cols;
    const int bag_col = static_cast<int>(cg.schema.size()) - 1;
    for (int i = 0; i < bag_col; ++i) {
      if (i == attr_col) {
        out_schema.Append(
            {it->attr, cg.schema.col(static_cast<size_t>(bag_col)).type});
        cols.push_back({bag_col, nullptr});
      } else {
        out_schema.Append(cg.schema.col(static_cast<size_t>(i)));
        cols.push_back({i, nullptr});
      }
    }
    const std::string name = "unshred_project(" + it->path + ")";
    TRANCE_ASSIGN_OR_RETURN(
        runtime::Dataset replaced,
        runtime::RunStagePipeline(
            cluster, cg,
            {runtime::RowTransform::Project(name, std::move(out_schema),
                                            std::move(cols))},
            runtime::Partitioning::None(), name));
    ds_map[it->parent_path] = std::move(replaced);
  }
  return ds_map[""];
}

StatusOr<nrc::Value> RunShreddedOnValues(
    const nrc::Program& program,
    const std::map<std::string, nrc::Value>& inputs,
    runtime::Cluster* cluster, const PipelineOptions& options,
    shred::MaterializeMode mode) {
  Executor executor(cluster, options.exec);
  TRANCE_RETURN_NOT_OK(
      RegisterInputs(&executor, program, inputs, /*shredded=*/true));
  TRANCE_ASSIGN_OR_RETURN(ShreddedRun run,
                          RunShredded(program, &executor, options, mode));
  TRANCE_ASSIGN_OR_RETURN(runtime::Dataset nested, UnshredRun(&executor, run));
  return RowsToValue(nested.Collect(), nested.schema);
}

StatusOr<nrc::Value> RunStandardOnValues(
    const nrc::Program& program,
    const std::map<std::string, nrc::Value>& inputs,
    runtime::Cluster* cluster, const PipelineOptions& options) {
  Executor executor(cluster, options.exec);
  TRANCE_RETURN_NOT_OK(
      RegisterInputs(&executor, program, inputs, /*shredded=*/false));
  TRANCE_ASSIGN_OR_RETURN(runtime::Dataset result,
                          RunStandard(program, &executor, options));
  return RowsToValue(result.Collect(), result.schema);
}

}  // namespace exec
}  // namespace trance
