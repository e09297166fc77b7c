// JSON exporters: machine-readable job metrics (per-stage partition-load
// percentile summaries + job aggregates) and conversion of recorded runtime
// stages into Chrome trace events on the shared process timeline.
#ifndef TRANCE_OBS_EXPORT_H_
#define TRANCE_OBS_EXPORT_H_

#include <string>

#include "obs/json.h"
#include "obs/trace.h"
#include "runtime/stats.h"

namespace trance {
namespace obs {

/// Writes `"<f.key>": <value of f in s>` into an open object.
void WriteStatField(const runtime::StatField& f, const runtime::StageStats& s,
                    JsonWriter* w);

/// Writes one JobStats as a JSON object into an open writer (callable in a
/// larger document, e.g. the per-run array of a benchmark report).
void WriteJobStats(const runtime::JobStats& stats, JsonWriter* w);

/// Standalone JSON document for one job.
std::string JobStatsToJson(const runtime::JobStats& stats);

/// Appends every recorded stage as a complete trace event on track `tid`
/// (wall timestamps stamped by Cluster::RecordStage). Its args are the
/// statistic-table rows the stage's JSON object carries, formatted as
/// EXPLAIN ANALYZE formats them, plus movement, straggler and scope.
/// `prefix` namespaces stage names (e.g. the benchmark run name). No-op
/// when the tracer is disabled.
void AppendJobStagesToTrace(const runtime::JobStats& stats, Tracer* tracer,
                            const std::string& prefix = "", int tid = 1);

}  // namespace obs
}  // namespace trance

#endif  // TRANCE_OBS_EXPORT_H_
