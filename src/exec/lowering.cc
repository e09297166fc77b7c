#include "exec/lowering.h"

#include <algorithm>
#include <utility>

#include "exec/scalar_compiler.h"
#include "obs/explain.h"
#include "util/strings.h"

namespace trance {
namespace exec {

namespace {

using plan::NestAgg;
using plan::PlanNode;
using plan::PlanPtr;
using runtime::Dataset;
using runtime::JoinType;
using runtime::Partitioning;
using runtime::Schema;
using skew::SkewTriple;

StatusOr<std::vector<int>> ResolveCols(const Schema& schema,
                                       const std::vector<std::string>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const auto& n : names) {
    TRANCE_ASSIGN_OR_RETURN(int i, schema.Require(n));
    out.push_back(i);
  }
  return out;
}

/// Partitioning of a projection output: keys survive iff every key column is
/// projected as a pure column reference.
Partitioning ProjectPartitioning(
    const Partitioning& in, const std::vector<plan::NamedColumnExpr>& cols,
    const Schema& in_schema) {
  if (in.kind != Partitioning::Kind::kHash) return Partitioning::None();
  std::vector<int> mapped;
  for (int key : in.key_cols) {
    const std::string& key_name =
        in_schema.col(static_cast<size_t>(key)).name;
    int found = -1;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i].expr->kind() == nrc::Expr::Kind::kVarRef &&
          cols[i].expr->var_name() == key_name) {
        found = static_cast<int>(i);
        break;
      }
    }
    if (found < 0) return Partitioning::None();
    mapped.push_back(found);
  }
  return Partitioning::Hash(std::move(mapped));
}

/// Renames the trailing `count` columns of `schema` to `names`.
void RenameTail(Schema* schema, size_t count,
                const std::vector<std::string>& names) {
  TRANCE_CHECK(names.size() == count && schema->size() >= count,
               "RenameTail arity");
  std::vector<runtime::Column> cols = schema->columns();
  for (size_t i = 0; i < count; ++i) {
    cols[schema->size() - count + i].name = names[i];
  }
  *schema = Schema(std::move(cols));
}

/// Rewrites a bag column's element-tuple attribute names (metadata only).
Status RenameBagColumn(Schema* schema, const std::string& bag_col,
                       const std::vector<std::string>& names) {
  std::vector<runtime::Column> cols = schema->columns();
  for (auto& c : cols) {
    if (c.name != bag_col) continue;
    if (!c.type->is_bag() || !c.type->element()->is_tuple()) {
      return Status::Internal("RenameBagColumn on non-bag-of-tuples");
    }
    const auto& fields = c.type->element()->fields();
    if (fields.size() != names.size()) {
      return Status::Internal("RenameBagColumn arity mismatch");
    }
    std::vector<nrc::Field> renamed;
    for (size_t i = 0; i < fields.size(); ++i) {
      renamed.push_back({names[i], fields[i].type});
    }
    c.type = nrc::Type::Bag(nrc::Type::Tuple(std::move(renamed)));
    *schema = Schema(std::move(cols));
    return Status::OK();
  }
  return Status::KeyError("RenameBagColumn: no column " + bag_col);
}

}  // namespace

StatusOr<SkewTriple> Executor::Get(const std::string& name) const {
  auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::KeyError("no dataset registered under '" + name + "'");
  }
  return it->second;
}

StatusOr<Dataset> Executor::GetDataset(const std::string& name) {
  TRANCE_ASSIGN_OR_RETURN(SkewTriple t, Get(name));
  return skew::MergeTriple(cluster_, t, name);
}

StatusOr<Dataset> Executor::ExecuteToDataset(const plan::PlanPtr& p) {
  TRANCE_ASSIGN_OR_RETURN(SkewTriple t, Exec(p));
  return skew::MergeTriple(cluster_, t, "result");
}

StatusOr<std::string> Executor::ExecuteProgram(
    const plan::PlanProgram& program) {
  // One program execution is one "job" for telemetry: every event the
  // stages below emit carries this id, so an event-log consumer can slice
  // the log per query exactly like EXPLAIN ANALYZE does.
  const uint64_t job = cluster_->BeginJob();
  const size_t stages_before = cluster_->stats().stages().size();
  obs::EventLog& log = obs::GlobalEventLog();
  if (log.enabled()) {
    obs::Event(&log, "job_start")
        .U64("job", job)
        .U64("assignments", program.assignments.size())
        .Emit();
  }
  cluster_->metrics()
      .GetCounter("trance_jobs_total", "plan programs executed")
      ->Increment();
  auto finish = [&](const char* status) {
    if (!log.enabled()) return;
    obs::Event(&log, "job_finish")
        .U64("job", job)
        .U64("stages", cluster_->stats().stages().size() - stages_before)
        .Str("status", status)
        .Emit();
  };
  std::string last;
  for (const auto& a : program.assignments) {
    scope_var_ = a.var;
    next_node_id_ = 0;
    StatusOr<SkewTriple> t = Exec(a.plan);
    if (!t.ok()) {
      finish("error");
      return t.status();
    }
    registry_[a.var] = std::move(t).value();
    last = a.var;
  }
  if (last.empty()) {
    finish("error");
    return Status::Invalid("program has no assignments");
  }
  finish("ok");
  return last;
}

/// One fusible narrow operator chain accumulated over a materialized input.
/// `chain` runs over the light component and, when it holds rows, the heavy
/// one; the last transform's schema, the partitionings and `heavy_keys`
/// track what the chain's output will look like.
struct Executor::Pending {
  SkewTriple input;
  std::vector<runtime::RowTransform> chain;
  Partitioning light_part;
  Partitioning heavy_part;
  std::optional<skew::HeavyKeySet> heavy_keys;

  /// Schema of the rows the chain emits (the input's when it is empty).
  Schema schema() const {
    return chain.empty() ? input.schema() : chain.back().schema;
  }
};

Executor::Pending Executor::PendingFromTriple(SkewTriple t) {
  Pending pd;
  pd.light_part = t.light.partitioning;
  pd.heavy_part = t.heavy.partitioning;
  pd.heavy_keys = t.heavy_keys;
  pd.input = std::move(t);
  return pd;
}

StatusOr<SkewTriple> Executor::Exec(const plan::PlanPtr& p) {
  TRANCE_ASSIGN_OR_RETURN(Pending pd, ExecPending(p));
  return Flush(std::move(pd));
}

StatusOr<SkewTriple> Executor::Flush(Pending pd) {
  if (pd.chain.empty()) return std::move(pd.input);
  std::vector<std::string> ops;
  for (const auto& t : pd.chain) ops.push_back(t.op);
  const std::string base =
      ops.size() == 1 ? ops[0] : "fused(" + Join(ops, "+") + ")";
  SkewTriple out;
  TRANCE_ASSIGN_OR_RETURN(
      out.light, runtime::RunStagePipeline(cluster_, pd.input.light, pd.chain,
                                           pd.light_part, base));
  if (pd.input.heavy.NumRows() == 0) {
    // No heavy rows, no heavy stage: the heavy component stays empty, typed
    // with the chain's output schema.
    out.heavy = Dataset::Empty(pd.chain.back().schema,
                               pd.input.heavy.NumPartitions(), pd.heavy_part);
  } else {
    TRANCE_ASSIGN_OR_RETURN(
        out.heavy,
        runtime::RunStagePipeline(cluster_, pd.input.heavy, pd.chain,
                                  pd.heavy_part, base + ".h"));
  }
  out.heavy_keys = std::move(pd.heavy_keys);
  return out;
}

StatusOr<Executor::Pending> Executor::ExecPending(const plan::PlanPtr& p) {
  using K = PlanNode::Kind;
  switch (p->kind()) {
    case K::kSelect:
    case K::kOuterSelect:
    case K::kProject:
    case K::kExtend:
    case K::kUnnest:
    case K::kAddIndex: {
      TRANCE_ASSIGN_OR_RETURN(Pending pd, ExecPendingNarrow(p));
      if (options_.enable_stage_fusion || pd.chain.empty()) return pd;
      // Fusion off: the node's transform runs at once as a one-transform
      // chain, attributed to the node's scope like any unfused operator.
      runtime::StageScope stage_scope(cluster_, pd.chain.back().scope);
      TRANCE_ASSIGN_OR_RETURN(SkewTriple t, Flush(std::move(pd)));
      return PendingFromTriple(std::move(t));
    }
    default:
      break;
  }
  // Wide boundary: materialize.
  TRANCE_ASSIGN_OR_RETURN(SkewTriple t, ExecNode(p));
  return PendingFromTriple(std::move(t));
}

StatusOr<Executor::Pending> Executor::ExecPendingNarrow(
    const plan::PlanPtr& p) {
  using K = PlanNode::Kind;
  // Pre-order node numbering (the EXPLAIN re-walk's order): take this
  // node's scope before descending into the child.
  const std::string scope = obs::StageScopeName(scope_var_, next_node_id_++);
  TRANCE_ASSIGN_OR_RETURN(Pending pd, ExecPending(p->child()));

  // The schema of the rows this node's transform reads.
  const Schema in = pd.schema();
  auto add = [&pd, &scope](runtime::RowTransform t) {
    t.scope = scope;
    pd.chain.push_back(std::move(t));
  };

  switch (p->kind()) {
    case K::kSelect: {
      TRANCE_ASSIGN_OR_RETURN(auto pred, CompilePredicate(p->cond(), in));
      add(runtime::RowTransform::Filter("select", in, std::move(pred)));
      return pd;
    }

    case K::kOuterSelect: {
      TRANCE_ASSIGN_OR_RETURN(auto pred, CompilePredicate(p->cond(), in));
      // Failing rows keep only the grouping-prefix columns; everything else
      // goes NULL so the enclosing Gammas treat the row as a miss.
      std::vector<bool> keep(in.size(), false);
      for (const auto& name : p->keep_cols()) {
        TRANCE_ASSIGN_OR_RETURN(int i, in.Require(name));
        keep[static_cast<size_t>(i)] = true;
      }
      add(runtime::RowTransform::OuterSelect("outer_select", in,
                                             std::move(pred),
                                             std::move(keep)));
      return pd;
    }

    case K::kProject:
    case K::kExtend: {
      // Extend copies every input column, then adds the computed ones. A
      // bare column reference is a typed copy; anything else is compiled.
      const bool extend = p->kind() == K::kExtend;
      std::vector<runtime::RowTransform::OutCol> cols;
      Schema out_schema;
      if (extend) {
        out_schema = in;
        for (size_t i = 0; i < in.size(); ++i) {
          cols.push_back({static_cast<int>(i), nullptr});
        }
      }
      for (const auto& c : p->columns()) {
        TRANCE_ASSIGN_OR_RETURN(nrc::TypePtr t, ScalarResultType(c.expr, in));
        out_schema.Append({c.name, t});
        if (c.expr->kind() == nrc::Expr::Kind::kVarRef) {
          TRANCE_ASSIGN_OR_RETURN(int src, in.Require(c.expr->var_name()));
          cols.push_back({src, nullptr});
        } else {
          TRANCE_ASSIGN_OR_RETURN(ScalarFn f, CompileScalar(c.expr, in));
          cols.push_back({-1, std::move(f)});
        }
      }
      if (!extend) {
        pd.light_part = ProjectPartitioning(pd.light_part, p->columns(), in);
        pd.heavy_part = ProjectPartitioning(pd.heavy_part, p->columns(), in);
        if (pd.heavy_keys.has_value()) {
          Partitioning mapped = ProjectPartitioning(
              Partitioning::Hash(pd.heavy_keys->key_cols), p->columns(), in);
          if (mapped.kind == Partitioning::Kind::kHash) {
            pd.heavy_keys->key_cols = mapped.key_cols;
          } else {
            pd.heavy_keys = std::nullopt;
          }
        }
      }
      add(runtime::RowTransform::Project(extend ? "extend" : "project",
                                         std::move(out_schema),
                                         std::move(cols)));
      return pd;
    }

    case K::kUnnest: {
      TRANCE_ASSIGN_OR_RETURN(int bag, in.Require(p->bag_col()));
      const nrc::TypePtr& bag_t = in.col(static_cast<size_t>(bag)).type;
      if (!bag_t->is_bag()) {
        return Status::TypeError("unnest over non-bag column " + p->bag_col());
      }
      std::vector<std::string> inner_names;
      if (bag_t->element()->is_tuple()) {
        for (const auto& f : bag_t->element()->fields()) {
          inner_names.push_back(p->alias() + "." + f.name);
        }
      } else {
        inner_names.push_back(p->alias());
      }
      const std::string id_attr = p->outer() ? p->unnest_id_attr() : "";
      TRANCE_ASSIGN_OR_RETURN(Schema out_schema,
                              runtime::UnnestedSchema(in, bag, id_attr));
      RenameTail(&out_schema, inner_names.size(), inner_names);
      if (p->outer()) {
        add(runtime::RowTransform::OuterUnnest(
            "unnest", std::move(out_schema), bag, !id_attr.empty()));
      } else {
        add(runtime::RowTransform::Unnest("unnest", std::move(out_schema),
                                          bag));
      }
      pd.light_part = Partitioning::None();
      pd.heavy_part = Partitioning::None();
      // Unnest removes the bag column: recorded heavy-key positions after it
      // shift; conservatively drop them.
      pd.heavy_keys = std::nullopt;
      return pd;
    }

    case K::kAddIndex: {
      if (pd.input.heavy.NumRows() == 0) {
        // Merging an empty heavy component is a no-op, so add-index fuses:
        // ids come from per-partition counters over the light rows in
        // order.
        Schema out_schema = in;
        out_schema.Append({p->id_attr(), nrc::Type::Int()});
        add(runtime::RowTransform::AddIndex("add_index",
                                            std::move(out_schema)));
        pd.heavy_part = Partitioning::None();
        pd.heavy_keys = std::nullopt;
        return pd;
      }
      // A non-empty heavy component must be concatenated into the light
      // partitions before numbering — a real merge, which breaks fusion.
      TRANCE_ASSIGN_OR_RETURN(SkewTriple in, Flush(std::move(pd)));
      runtime::StageScope stage_scope(cluster_, scope);
      TRANCE_ASSIGN_OR_RETURN(Dataset merged,
                              skew::MergeTriple(cluster_, in, "addindex"));
      TRANCE_ASSIGN_OR_RETURN(
          Dataset out, runtime::AddIndexColumn(cluster_, merged, p->id_attr(),
                                               "add_index"));
      return PendingFromTriple(SkewTriple::AllLight(std::move(out)));
    }

    default:
      return Status::Internal("ExecPendingNarrow on wide plan node");
  }
}

StatusOr<SkewTriple> Executor::ExecNode(const plan::PlanPtr& p) {
  // Pre-order node numbering within the current assignment; every stage the
  // node's operators record is attributed to this scope.
  runtime::StageScope stage_scope(
      cluster_, obs::StageScopeName(scope_var_, next_node_id_++));
  using K = PlanNode::Kind;
  switch (p->kind()) {
    case K::kScan:
      return Get(p->relation());

    case K::kJoin: {
      TRANCE_ASSIGN_OR_RETURN(SkewTriple l, Exec(p->child(0)));
      TRANCE_ASSIGN_OR_RETURN(SkewTriple r, Exec(p->child(1)));
      TRANCE_ASSIGN_OR_RETURN(std::vector<int> lk,
                              ResolveCols(l.schema(), p->left_keys()));
      TRANCE_ASSIGN_OR_RETURN(std::vector<int> rk,
                              ResolveCols(r.schema(), p->right_keys()));
      JoinType type = p->outer() ? JoinType::kLeftOuter : JoinType::kInner;
      if (options_.skew_aware && !lk.empty()) {
        return skew::SkewAwareJoin(cluster_, l, r, lk, rk, type, "skewjoin");
      }
      TRANCE_ASSIGN_OR_RETURN(Dataset lm, skew::MergeTriple(cluster_, l, "j"));
      TRANCE_ASSIGN_OR_RETURN(Dataset rm, skew::MergeTriple(cluster_, r, "j"));
      // Join sides under the cluster's broadcast_threshold are broadcast
      // ("Broadcast operations are deferred to Spark, which broadcasts
      // anything under 10MB").
      if (rm.DeepSizeBytes() <= cluster_->config().broadcast_threshold) {
        TRANCE_ASSIGN_OR_RETURN(
            Dataset out, runtime::BroadcastJoin(cluster_, lm, rm, lk, rk,
                                                type, "broadcast_join"));
        return SkewTriple::AllLight(std::move(out));
      }
      TRANCE_ASSIGN_OR_RETURN(
          Dataset out,
          runtime::HashJoin(cluster_, lm, rm, lk, rk, type, "join"));
      return SkewTriple::AllLight(std::move(out));
    }

    case K::kNest: {
      TRANCE_ASSIGN_OR_RETURN(SkewTriple in, Exec(p->child()));
      // "All nest operations merge the light and heavy components and follow
      // the standard implementation" (Section 5).
      TRANCE_ASSIGN_OR_RETURN(Dataset merged,
                              skew::MergeTriple(cluster_, in, "nest"));
      TRANCE_ASSIGN_OR_RETURN(std::vector<int> keys,
                              ResolveCols(merged.schema, p->keys()));
      TRANCE_ASSIGN_OR_RETURN(std::vector<int> values,
                              ResolveCols(merged.schema, p->values()));
      if (p->agg() == NestAgg::kSum) {
        TRANCE_ASSIGN_OR_RETURN(
            Dataset out,
            runtime::SumAggregate(cluster_, merged, keys, values,
                                  options_.map_side_combine, "nest_sum"));
        return SkewTriple::AllLight(std::move(out));
      }
      std::vector<int> indicator;
      if (!p->nest_indicator().empty()) {
        TRANCE_ASSIGN_OR_RETURN(int ind,
                                merged.schema.Require(p->nest_indicator()));
        indicator.push_back(ind);
      }
      TRANCE_ASSIGN_OR_RETURN(
          Dataset out,
          runtime::NestGroup(cluster_, merged, keys, values, p->out_attr(),
                             "nest_bag", indicator));
      TRANCE_RETURN_NOT_OK(
          RenameBagColumn(&out.schema, p->out_attr(), p->value_names()));
      return SkewTriple::AllLight(std::move(out));
    }

    case K::kDedup: {
      TRANCE_ASSIGN_OR_RETURN(SkewTriple in, Exec(p->child()));
      TRANCE_ASSIGN_OR_RETURN(Dataset merged,
                              skew::MergeTriple(cluster_, in, "dedup"));
      TRANCE_ASSIGN_OR_RETURN(Dataset out,
                              runtime::Distinct(cluster_, merged, "dedup"));
      return SkewTriple::AllLight(std::move(out));
    }

    case K::kUnionAll: {
      TRANCE_ASSIGN_OR_RETURN(SkewTriple a, Exec(p->child(0)));
      TRANCE_ASSIGN_OR_RETURN(SkewTriple b, Exec(p->child(1)));
      TRANCE_ASSIGN_OR_RETURN(Dataset am, skew::MergeTriple(cluster_, a, "u"));
      TRANCE_ASSIGN_OR_RETURN(Dataset bm, skew::MergeTriple(cluster_, b, "u"));
      TRANCE_ASSIGN_OR_RETURN(Dataset out,
                              runtime::UnionAll(cluster_, am, bm, "union"));
      return SkewTriple::AllLight(std::move(out));
    }

    case K::kCoGroup: {
      TRANCE_ASSIGN_OR_RETURN(SkewTriple l, Exec(p->child(0)));
      TRANCE_ASSIGN_OR_RETURN(SkewTriple r, Exec(p->child(1)));
      TRANCE_ASSIGN_OR_RETURN(Dataset lm, skew::MergeTriple(cluster_, l, "cg"));
      TRANCE_ASSIGN_OR_RETURN(Dataset rm, skew::MergeTriple(cluster_, r, "cg"));
      TRANCE_ASSIGN_OR_RETURN(std::vector<int> lk,
                              ResolveCols(lm.schema, p->left_keys()));
      TRANCE_ASSIGN_OR_RETURN(std::vector<int> rk,
                              ResolveCols(rm.schema, p->right_keys()));
      TRANCE_ASSIGN_OR_RETURN(std::vector<int> vals,
                              ResolveCols(rm.schema, p->values()));
      TRANCE_ASSIGN_OR_RETURN(
          Dataset out, runtime::CoGroup(cluster_, lm, rm, lk, rk, vals,
                                        p->out_attr(), "cogroup"));
      TRANCE_RETURN_NOT_OK(
          RenameBagColumn(&out.schema, p->out_attr(), p->value_names()));
      return SkewTriple::AllLight(std::move(out));
    }

    case K::kBagToDict: {
      TRANCE_ASSIGN_OR_RETURN(SkewTriple in, Exec(p->child()));
      TRANCE_ASSIGN_OR_RETURN(int label, in.schema().Require(p->label_col()));
      if (options_.skew_aware) {
        return skew::SkewAwareBagToDict(cluster_, in, label, "bag_to_dict");
      }
      TRANCE_ASSIGN_OR_RETURN(Dataset merged,
                              skew::MergeTriple(cluster_, in, "b2d"));
      TRANCE_ASSIGN_OR_RETURN(
          Dataset out,
          runtime::Repartition(cluster_, merged, {label}, "bag_to_dict"));
      return SkewTriple::AllLight(std::move(out));
    }
    case K::kSelect:
    case K::kOuterSelect:
    case K::kProject:
    case K::kExtend:
    case K::kUnnest:
    case K::kAddIndex:
      return Status::Internal("ExecNode on narrow plan node");
  }
  return Status::Internal("unhandled plan node in lowering");
}

}  // namespace exec
}  // namespace trance
