#include "runtime/fault.h"

#include <iterator>

#include "obs/metrics.h"
#include "util/hash.h"

namespace trance {
namespace runtime {

void PublishFaultInjected(obs::MetricRegistry* metrics, FaultKind kind) {
  metrics
      ->GetCounter("trance_faults_injected_total",
                   "faults injected by the seeded injector, by kind",
                   {{"kind", FaultKindName(kind)}})
      ->Increment();
}

const char* FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kWorkerCrash:
      return "worker_crash";
    case FaultKind::kFetchLoss:
      return "fetch_loss";
    case FaultKind::kResourceExhausted:
      return "resource_exhausted";
  }
  return "?";
}

FaultInjector::FaultInjector(const FaultConfig& config)
    : config_(config),
      active_(config.fault_rate > 0.0 && config.max_faults_per_task > 0) {}

FaultKind FaultInjector::Decide(uint64_t stage_seq, size_t partition,
                                int attempt) const {
  if (!active_) return FaultKind::kNone;
  // A task is guaranteed to succeed once max_faults_per_task attempts have
  // faulted — this is what makes "sufficient retry budget => recovery
  // always succeeds" a hard guarantee rather than a probability.
  if (attempt >= config_.max_faults_per_task) return FaultKind::kNone;
  uint64_t h = SplitMix64(config_.seed ^
                          SplitMix64(stage_seq * 0x9E3779B97F4A7C15ull +
                                     static_cast<uint64_t>(partition) *
                                         0xC2B2AE3D27D4EB4Full +
                                     static_cast<uint64_t>(attempt)));
  // Top 53 bits -> uniform double in [0, 1).
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u >= config_.fault_rate) return FaultKind::kNone;
  static constexpr FaultKind kKinds[] = {FaultKind::kWorkerCrash,
                                         FaultKind::kFetchLoss,
                                         FaultKind::kResourceExhausted};
  return kKinds[SplitMix64(h) % std::size(kKinds)];
}

double FaultInjector::BackoffSeconds(int attempt) const {
  constexpr double kBaseSeconds = 0.5, kMaxSeconds = 8.0;
  double b = kBaseSeconds;
  for (int i = 0; i < attempt && b < kMaxSeconds; ++i) b *= 2;
  return b < kMaxSeconds ? b : kMaxSeconds;
}

}  // namespace runtime
}  // namespace trance
