// Central metric registry: typed, labeled counters / gauges / histograms
// with one registration site per metric and generic exposition.
//
// Motivation (PR 6): every counter added since PR 1 (fusion, faults, key
// codec) had to be hand-threaded through StageStats -> JobStats -> explain ->
// JSON export -> BENCH_*.json -> docs — five edit sites per metric. The
// registry collapses that to one: a module calls
//
//   registry->GetCounter("trance_shuffle_bytes_total", "bytes shuffled")
//           ->Add(bytes);
//
// and the metric automatically appears in MetricRegistry::Snapshot(), the
// Prometheus text exposition (ToPrometheusText), the JSON rendering
// (WriteJson / ToJson), and — because the bench harness serializes the
// snapshot generically — in every BENCH_*.json report. The only other edit
// is the documentation row in docs/METRICS.md, which CI enforces.
//
// Thread model:
//  - Every current publisher runs on the driver, after a stage's barrier or
//    under the cluster mutex (stage publication, memory checks, the fault
//    recovery merge, shuffle and broadcast bookkeeping, fused-stage
//    publication, program execution), so updates do not contend.
//  - Counter::Add is one relaxed atomic add, safe from any thread. Totals
//    are exact because uint64 addition is commutative.
//  - Gauge and Histogram updates are atomic (CAS loops) and safe from any
//    thread, but DOUBLE accumulation order is not commutative — modules that
//    need deterministic values only update them from driver-sequential code.
//    This is the registry half of the determinism contract in
//    docs/ARCHITECTURE.md ("Telemetry"): integer counters may be updated from
//    workers, floating point only from the driver.
//  - GetCounter/GetGauge/GetHistogram and Snapshot take the registry mutex;
//    handles returned are stable for the registry's lifetime, so hot loops
//    look a metric up once and keep the pointer.
//
// The registry layers BELOW the runtime (trance_obs_core depends only on
// util), so runtime/cluster, runtime/ops, runtime/fault and
// runtime/stage_pipeline can publish directly without breaking the
// "runtime never depends on the plan-aware obs layer" discipline.
#ifndef TRANCE_OBS_METRICS_H_
#define TRANCE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace trance {
namespace obs {

class JsonWriter;

/// Label key/value pairs, e.g. {{"movement", "shuffle"}}. Keep cardinality
/// bounded (enum-like values only): every distinct label set is a distinct
/// time series in the exposition.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind k);

/// Monotone integer counter: one relaxed atomic, exact from any thread.
class Counter {
 public:
  void Add(uint64_t v);
  void Increment() { Add(1); }
  uint64_t Value() const;

 private:
  friend class MetricRegistry;
  Counter() = default;
  void Reset();

  std::atomic<uint64_t> v_{0};
};

/// Floating-point gauge with set / add / monotone-max update modes (Add is
/// for accumulated quantities like sim-seconds, SetMax for high-water
/// marks). Updates are atomic; deterministic values require driver-side
/// updates (see header comment).
class Gauge {
 public:
  void Set(double v);
  void Add(double v);
  void SetMax(double v);
  double Value() const;

 private:
  friend class MetricRegistry;
  Gauge() = default;
  void Reset();

  std::atomic<double> v_{0.0};
};

/// Fixed-bound histogram (cumulative exposition like Prometheus: bucket i
/// counts observations <= bounds[i], plus a +Inf bucket, sum and count).
class Histogram {
 public:
  void Observe(double v);

 private:
  friend class MetricRegistry;
  explicit Histogram(std::vector<double> bounds);
  void Reset();

  std::vector<double> bounds_;                       // sorted, strictly inc.
  std::vector<std::atomic<uint64_t>> bucket_counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One metric's state at Snapshot() time.
struct MetricSample {
  std::string name;
  std::string help;
  MetricLabels labels;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter_value = 0;  // kCounter
  double gauge_value = 0;      // kGauge
  // kHistogram: per-bucket cumulative counts are derivable from the
  // non-cumulative counts here; bounds_ has one fewer entry (the last
  // bucket is +Inf).
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;
  double sum = 0;
  uint64_t count = 0;

  /// `name` or `name{k="v",...}` — the Prometheus series identity, also used
  /// as the JSON object key in BENCH_*.json `metrics` objects.
  std::string ExpositionName() const;
};

/// The registry: owns every metric, hands out stable handles, renders
/// deterministic (name+labels sorted) snapshots.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Find-or-create. `help` is stored on first registration; re-registering
  /// the same name with a different kind aborts (programmer error).
  Counter* GetCounter(const std::string& name, const std::string& help,
                      MetricLabels labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  MetricLabels labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds, MetricLabels labels = {});

  /// All metrics, sorted by (name, labels) — deterministic for a
  /// deterministic update sequence.
  std::vector<MetricSample> Snapshot() const;

  /// Zeroes every value but keeps registrations (and handles) alive.
  /// Benches call this per run, next to JobStats::Reset().
  void Reset();

  /// Prometheus text exposition format (one # HELP / # TYPE per family).
  std::string ToPrometheusText() const;

  /// JSON object keyed by exposition name; histograms render as
  /// {"count":..,"sum":..,"buckets":{"<=bound>":n,...,"+inf":n}}.
  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;

  /// Renders an already-taken snapshot (the bench report path, which
  /// snapshots per run and serializes later).
  static void WriteSamplesJson(const std::vector<MetricSample>& samples,
                               JsonWriter* w);
  static std::string SamplesToPrometheusText(
      const std::vector<MetricSample>& samples);

 private:
  struct Entry {
    MetricKind kind;
    std::string help;
    MetricLabels labels;
    std::string name;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const std::string& help,
                      MetricKind kind, const MetricLabels& labels);

  mutable std::mutex mu_;
  /// Keyed by name + rendered labels (one entry per series).
  std::map<std::string, Entry> entries_;
};

}  // namespace obs
}  // namespace trance

#endif  // TRANCE_OBS_METRICS_H_
