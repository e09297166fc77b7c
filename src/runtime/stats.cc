#include "runtime/stats.h"

#include <sstream>

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
     << ", peak_partition=" << FormatBytes(peak_partition_bytes_)
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
