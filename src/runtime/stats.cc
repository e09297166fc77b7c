#include "runtime/stats.h"

#include <map>
#include <sstream>
#include <tuple>

#include "util/strings.h"

namespace trance {
namespace runtime {

const char* DataMovementName(DataMovement m) {
  switch (m) {
    case DataMovement::kLocal:
      return "local";
    case DataMovement::kShuffle:
      return "shuffle";
    case DataMovement::kBroadcast:
      return "broadcast";
  }
  return "?";
}

double StageStats::ImbalanceFactor() const {
  if (partition_work_bytes.empty() || total_work_bytes == 0) return 1.0;
  double mean = static_cast<double>(total_work_bytes) /
                static_cast<double>(partition_work_bytes.size());
  if (mean <= 0) return 1.0;
  return static_cast<double>(max_partition_work_bytes) / mean;
}

namespace {

obs::MetricSample CounterSample(const char* name, uint64_t value,
                                obs::MetricLabels labels = {}) {
  obs::MetricSample s;
  s.name = name;
  s.labels = std::move(labels);
  s.kind = obs::MetricKind::kCounter;
  s.counter_value = value;
  return s;
}

obs::MetricSample GaugeSample(const char* name, double value) {
  obs::MetricSample s;
  s.name = name;
  s.kind = obs::MetricKind::kGauge;
  s.gauge_value = value;
  return s;
}

/// A histogram of `observations` over `bounds` (bucket i holds the values
/// in (bounds[i-1], bounds[i]]); the sum is accumulated in order.
obs::MetricSample HistogramSample(const char* name, std::vector<double> bounds,
                                  const std::vector<double>& observations) {
  obs::MetricSample s;
  s.name = name;
  s.kind = obs::MetricKind::kHistogram;
  s.bucket_counts.assign(bounds.size() + 1, 0);
  for (double v : observations) {
    ++s.bucket_counts[std::lower_bound(bounds.begin(), bounds.end(), v) -
                      bounds.begin()];
    s.sum += v;
  }
  s.count = observations.size();
  s.bounds = std::move(bounds);
  return s;
}

}  // namespace

std::vector<obs::MetricSample> JobStats::Snapshot() const {
  std::vector<obs::MetricSample> out;
  for (const StatField& f : kStatFields) {
    if (f.series == nullptr || f.cls == StatClass::kWall) continue;
    if (f.agg == StatAgg::kMax || f.f64 != nullptr) {
      out.push_back(GaugeSample(f.series, f.AsDouble(totals_)));
    } else {
      out.push_back(CounterSample(f.series, totals_.*f.u64));
    }
  }

  std::map<DataMovement, uint64_t> stages_by_movement;
  std::map<FaultKind, uint64_t> faults_by_kind;
  uint64_t broadcast_bytes = 0;
  std::vector<double> imbalance;
  std::vector<double> chain_length;
  for (const StageStats& s : stages_) {
    ++stages_by_movement[s.movement];
    for (const FaultEvent& ev : s.fault_events) ++faults_by_kind[ev.kind];
    if (s.movement == DataMovement::kBroadcast) {
      broadcast_bytes += s.shuffle_bytes;
    }
    imbalance.push_back(s.ImbalanceFactor());
    if (!s.fused_transforms.empty()) {
      chain_length.push_back(static_cast<double>(s.fused_transforms.size()));
    }
  }
  for (const auto& [movement, n] : stages_by_movement) {
    out.push_back(CounterSample("trance_stages_total", n,
                                {{"movement", DataMovementName(movement)}}));
  }
  for (const auto& [kind, n] : faults_by_kind) {
    out.push_back(CounterSample("trance_faults_injected_total", n,
                                {{"kind", FaultKindName(kind)}}));
  }
  if (fused_stages_ > 0) {
    out.push_back(CounterSample("trance_fused_stages_total", fused_stages_));
  }
  if (broadcast_bytes > 0) {
    out.push_back(
        CounterSample("trance_broadcast_bytes_total", broadcast_bytes));
  }
  if (!stages_.empty()) {
    out.push_back(GaugeSample("trance_max_stage_shuffle_bytes",
                              static_cast<double>(max_stage_shuffle_)));
    out.push_back(HistogramSample("trance_stage_imbalance",
                                  {1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0},
                                  imbalance));
  }
  if (!chain_length.empty()) {
    out.push_back(HistogramSample("trance_fused_chain_length",
                                  {1.0, 2.0, 3.0, 4.0, 6.0, 8.0},
                                  chain_length));
  }
  std::sort(out.begin(), out.end(),
            [](const obs::MetricSample& a, const obs::MetricSample& b) {
              return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
            });
  return out;
}

StragglerSummary JobStats::straggler() const {
  StragglerSummary out;
  for (const auto& s : stages_) {
    double f = s.ImbalanceFactor();
    if (f > out.worst_imbalance) {
      out.worst_imbalance = f;
      out.worst_stage = s.op;
    }
  }
  return out;
}

std::string JobStats::ToString() const {
  std::ostringstream os;
  StragglerSummary sk = straggler();
  const StageStats& t = totals_;
  os << "JobStats{stages=" << stages_.size()
     << ", shuffle=" << FormatBytes(t.shuffle_bytes)
     << ", max_stage_shuffle=" << FormatBytes(max_stage_shuffle_)
     << ", peak_partition=" << FormatBytes(t.mem_high_water_bytes)
     << ", max_partition_recv=" << FormatBytes(t.max_partition_recv_bytes)
     << ", max_partition_work=" << FormatBytes(t.max_partition_work_bytes)
     << ", straggler=" << FormatDouble(sk.worst_imbalance, 2) << "x"
     << (sk.worst_stage.empty() ? "" : "@" + sk.worst_stage)
     << ", heavy_keys=" << t.heavy_key_count;
  if (t.injected_faults > 0) {
    os << ", injected_faults=" << t.injected_faults
       << ", retries=" << t.retries
       << ", recovery=" << FormatDouble(t.recovery_sim_seconds, 3) << "s";
  }
  os << ", sim_time=" << FormatDouble(t.sim_seconds, 3) << "s}";
  for (const auto& s : stages_) {
    os << "\n  " << s.op << ": in=" << s.rows_in << " out=" << s.rows_out
       << " shuffle=" << FormatBytes(s.shuffle_bytes)
       << " max_recv=" << FormatBytes(s.max_partition_recv_bytes)
       << " max_work=" << FormatBytes(s.max_partition_work_bytes)
       << " imb=" << FormatDouble(s.ImbalanceFactor(), 2) << "x"
       << " mode=" << DataMovementName(s.movement);
    if (s.injected_faults > 0) {
      os << " faults=" << s.injected_faults
         << " recovery=" << FormatDouble(s.recovery_sim_seconds, 4) << "s";
    }
    os << " t=" << FormatDouble(s.sim_seconds, 4) << "s";
  }
  return os.str();
}

}  // namespace runtime
}  // namespace trance
