// EXPLAIN ANALYZE: joins recorded runtime stage metrics back onto the
// printed algebraic plan, so each operator line shows rows, shuffle bytes,
// data-movement mode, straggler ratio, and partition-load percentiles.
//
// Attribution contract: the executor pushes a StageScope named
// StageScopeName(var, pre-order-node-index) around every plan node it
// lowers; this module re-walks the compiled program with the same numbering
// and matches stages by that scope string.
#ifndef TRANCE_OBS_EXPLAIN_H_
#define TRANCE_OBS_EXPLAIN_H_

#include <string>

#include "plan/plan.h"
#include "runtime/stats.h"

namespace trance {
namespace obs {

/// Scope string attributed to the `node_index`-th node (pre-order, children
/// in child-index order) of assignment `var`. Must match the executor's
/// numbering exactly.
std::string StageScopeName(const std::string& var, int node_index);

/// A statistic of stage `s` as EXPLAIN ANALYZE prints it: bytes humanized,
/// simulated seconds with an `s` suffix, counts bare.
std::string FormatStat(const runtime::StatField& f,
                       const runtime::StageStats& s);

/// Renders the per-assignment plan trees with per-operator runtime stats
/// joined on, a section for stages recorded outside plan execution
/// (sources, unshredding, heavy-key sampling of merged inputs), and a job
/// summary with straggler/imbalance aggregates.
std::string ExplainAnalyze(const plan::PlanProgram& program,
                           const runtime::JobStats& stats);

}  // namespace obs
}  // namespace trance

#endif  // TRANCE_OBS_EXPLAIN_H_
