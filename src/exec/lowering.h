// Code generation (Section 3): lowers algebraic plans onto the distributed
// runtime, bottom-up over the plan tree. This is the analogue of the paper's
// Spark code generator — the target is the in-process cluster simulator.
//
// Every dataset flows through the executor as a skew-triple (light, heavy,
// heavy-keys). In the default mode the heavy component is empty, no stage
// runs over it, and operators behave exactly like their standard
// implementations; with `skew_aware` set, joins and BagToDict use the Fig. 6
// skew-aware variants and nest operators merge components (Section 5).
#ifndef TRANCE_EXEC_LOWERING_H_
#define TRANCE_EXEC_LOWERING_H_

#include <map>
#include <string>

#include "plan/plan.h"
#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "skew/skew.h"
#include "util/status.h"

namespace trance {
namespace exec {

struct ExecOptions {
  /// Use the skew-aware operator variants of Section 5.
  bool skew_aware = false;
  /// Map-side combine for Gamma-plus (partial aggregation before shuffle).
  bool map_side_combine = true;
  /// Fuse chains of consecutive partition-local plan operators (select,
  /// outer-select, project, extend, unnest, add-index) into single stages
  /// that run batches of input rows block to block through the whole chain
  /// without materializing intermediate Datasets — the Spark/Tungsten
  /// narrow-stage pipelining the paper's generated bulk programs assume.
  /// Off = one stage per operator (each runs at once as a one-transform
  /// chain), for ablations. Results and stats are bit-identical either way,
  /// modulo stage count.
  bool enable_stage_fusion = true;
};

/// Executes plans against named datasets registered on a cluster.
class Executor {
 public:
  Executor(runtime::Cluster* cluster, ExecOptions options)
      : cluster_(cluster), options_(options) {}

  /// Registers an input (or intermediate) dataset under `name`.
  void Register(const std::string& name, runtime::Dataset ds) {
    registry_[name] = skew::SkewTriple::AllLight(std::move(ds));
  }
  bool Has(const std::string& name) const { return registry_.count(name) > 0; }
  StatusOr<skew::SkewTriple> Get(const std::string& name) const;
  /// Fetches a registered dataset, merging its components.
  StatusOr<runtime::Dataset> GetDataset(const std::string& name);

  /// Executes one plan.
  StatusOr<runtime::Dataset> ExecuteToDataset(const plan::PlanPtr& p);

  /// Executes every assignment, registering each result under its variable;
  /// returns the name of the final assignment.
  StatusOr<std::string> ExecuteProgram(const plan::PlanProgram& program);

  runtime::Cluster* cluster() { return cluster_; }
  const ExecOptions& options() const { return options_; }

 private:
  /// One chain of fusible narrow transforms accumulated over a materialized
  /// `input` triple but not yet run (the narrow-chain batcher of stage
  /// fusion). Defined in lowering.cc.
  struct Pending;

  /// Executes `p` to a materialized triple (flushes any pending chain).
  StatusOr<skew::SkewTriple> Exec(const plan::PlanPtr& p);
  /// Executes `p`, leaving a trailing chain of narrow operators unflushed so
  /// a narrow parent can extend it. Wide operators and scans (stage-fusion
  /// boundaries) return an empty chain over their materialized result; with
  /// stage fusion off, so does every narrow node (its one-transform chain
  /// runs at once).
  StatusOr<Pending> ExecPending(const plan::PlanPtr& p);
  /// ExecPending for the six fusible narrow kinds: appends this node's
  /// transform to the child's pending chain.
  StatusOr<Pending> ExecPendingNarrow(const plan::PlanPtr& p);
  /// Runs a pending chain as one fused stage over the light component and,
  /// only when the heavy component holds rows, one more (`<base>.h`) over
  /// the heavy component; an empty heavy component records no stage.
  StatusOr<skew::SkewTriple> Flush(Pending pd);
  /// The lowering of wide nodes and scans (stage-fusion boundaries).
  StatusOr<skew::SkewTriple> ExecNode(const plan::PlanPtr& p);
  static Pending PendingFromTriple(skew::SkewTriple t);

  runtime::Cluster* cluster_;
  ExecOptions options_;
  std::map<std::string, skew::SkewTriple> registry_;
  /// Plan-node attribution for EXPLAIN ANALYZE: every Exec() pushes a
  /// cluster scope named obs::StageScopeName(scope_var_, pre-order index);
  /// ExecuteProgram resets the numbering per assignment so the explain
  /// re-walk can join stages back onto operators.
  std::string scope_var_;
  int next_node_id_ = 0;
};

}  // namespace exec
}  // namespace trance

#endif  // TRANCE_EXEC_LOWERING_H_
