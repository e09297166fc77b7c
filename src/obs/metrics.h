// Metric samples: the typed, labelled series a job's statistics render as.
//
// A series is not accumulated anywhere of its own. runtime::JobStats::
// Snapshot() derives every series from the job's recorded stages when it is
// called: one per statistic-table row that names one (runtime/stats.h), and
// a few read off the stage list (docs/METRICS.md lists each series and its
// source). So a series always equals the JobStats value it is read from, at
// any thread count. This header holds only the sample type and its JSON
// rendering, the `metrics` object of every BENCH_*.json run.
#ifndef TRANCE_OBS_METRICS_H_
#define TRANCE_OBS_METRICS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace trance {
namespace obs {

class JsonWriter;

/// Label key/value pairs, e.g. {{"movement", "shuffle"}}. Values are
/// enum-like, so a family has a bounded number of series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One series' value.
struct MetricSample {
  std::string name;
  MetricLabels labels;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter_value = 0;  // kCounter
  double gauge_value = 0;      // kGauge
  // kHistogram: bucket i counts observations <= bounds[i] and above
  // bounds[i - 1] (non-cumulative); the last bucket, one past bounds, is
  // +Inf.
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;
  double sum = 0;
  uint64_t count = 0;

  /// `name` or `name{k="v",...}`: the series identity, and its key in the
  /// `metrics` object of BENCH_*.json.
  std::string ExpositionName() const;
};

/// Renders `samples` as one JSON object keyed by exposition name: counters
/// and gauges as numbers, histograms as
/// {"count":..,"sum":..,"buckets":{"le_<bound>":n,...,"le_inf":n}} with
/// cumulative bucket counts.
void WriteMetricsJson(const std::vector<MetricSample>& samples, JsonWriter* w);

}  // namespace obs
}  // namespace trance

#endif  // TRANCE_OBS_METRICS_H_
