// Fault injection for the simulated cluster (see docs/ARCHITECTURE.md,
// "Fault injection & recovery").
//
// A production-scale runtime must survive worker faults instead of aborting
// the job: Spark re-executes lost tasks from stage lineage, and the paper's
// evaluation platform relies on exactly that machinery. The simulator
// reproduces it with a *deterministic* fault model: a seeded FaultInjector
// decides, purely from (stage sequence number, partition, attempt), whether
// a partition's task fails on a given attempt and how. Decisions never
// depend on thread count, wall clock or execution order, so a fault schedule
// is reproducible bit-for-bit — the property the `faults` test label builds
// on (same seed => same faults => results identical to a fault-free run).
//
// Three transient fault kinds are modeled:
//   kWorkerCrash       — the worker dies mid-task; the attempt's partial
//                        output is discarded and the task re-runs from its
//                        stage input (lineage = the immutable input
//                        partitions the driver still holds).
//   kFetchLoss         — a shuffle fetch fails before the task did any work;
//                        the task simply re-fetches and runs.
//   kResourceExhausted — a transient memory spike (the paper's FAIL, but
//                        recoverable): the attempt is discarded like a
//                        crash. Distinct from a partition over the memory
//                        cap, which the stage barrier spills to disk.
//
// Recovery (the retry loop in Cluster::RunRecoverableTasks) retries each
// failed task with bounded exponential backoff in *simulated* time — no
// wall-clock sleeps — and escalates to a job-level ResourceExhausted naming
// the stage once a task exceeds the retry budget.
#ifndef TRANCE_RUNTIME_FAULT_H_
#define TRANCE_RUNTIME_FAULT_H_

#include <cstddef>
#include <cstdint>

namespace trance {
namespace runtime {

enum class FaultKind : uint8_t {
  kNone = 0,
  kWorkerCrash = 1,
  kFetchLoss = 2,
  kResourceExhausted = 3,
};

const char* FaultKindName(FaultKind k);

/// Fault-injection + recovery knobs, embedded in ClusterConfig as `faults`.
struct FaultConfig {
  /// Seed of the injector's hash stream. Independent of the cluster seed so
  /// fault placement can vary while data placement stays fixed.
  uint64_t seed = 0xfa0170;
  /// Probability that a given (stage, partition, attempt) task attempt
  /// faults. Evaluated independently per attempt. Injection is on iff this
  /// is positive; off (the default) costs one branch per stage.
  double fault_rate = 0.0;
  /// The injector stops failing a task after this many faults on it, which
  /// guarantees recovery succeeds whenever max_task_retries >= this value
  /// ("sufficient retry budget" in the acceptance sense).
  int max_faults_per_task = 2;
  /// Recovery budget: re-executions allowed per task before the job fails
  /// with ResourceExhausted (the stage is named in the message).
  int max_task_retries = 4;
};

/// One injected fault, recorded on the StageStats of the stage it hit.
/// RecordStage derives the recovery time charge from these (see
/// docs/METRICS.md, `recovery_sim_seconds`).
struct FaultEvent {
  uint32_t partition = 0;
  uint32_t attempt = 0;  // 0-based attempt index that faulted
  FaultKind kind = FaultKind::kNone;
};

/// Seeded, deterministic fault source. Stateless between calls: every
/// decision is a pure hash of (stage_seq, partition, attempt, seed).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config);

  bool enabled() const { return active_; }
  const FaultConfig& config() const { return config_; }

  /// The fault (or kNone) injected into `partition`'s task attempt number
  /// `attempt` of the stage with driver-side sequence number `stage_seq`.
  FaultKind Decide(uint64_t stage_seq, size_t partition, int attempt) const;

  /// Simulated backoff charged before retrying after the fault on `attempt`:
  /// bounded exponential, min(0.5 s * 2^attempt, 8 s).
  double BackoffSeconds(int attempt) const;

 private:
  FaultConfig config_;
  bool active_ = false;
};

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_FAULT_H_
