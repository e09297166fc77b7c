// The simulated cluster: worker/partition configuration, cost model, memory
// caps, and statistics collection. Stands in for the paper's 5-node Spark 2.4
// cluster (see DESIGN.md substitution table).
#ifndef TRANCE_RUNTIME_CLUSTER_H_
#define TRANCE_RUNTIME_CLUSTER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "runtime/fault.h"
#include "runtime/spill.h"
#include "runtime/stats.h"
#include "util/hash.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace trance {
namespace runtime {

struct ClusterConfig {
  /// Number of partitions ("1000 partitions used for shuffling data" in the
  /// paper; scaled down with the data).
  int num_partitions = 16;
  /// Per-partition memory cap; exceeding it is the paper's FAIL ("crashed due
  /// to memory saturation of a node"), or, with spilling on, where the stage
  /// barrier spills the partition instead.
  uint64_t partition_memory_cap = 256ull << 20;
  /// Spill partitions over the memory cap to disk runs (runtime/spill.h,
  /// format in docs/STORAGE.md) and stream them back, instead of
  /// hard-failing with ResourceExhausted: the historical FAIL behavior, kept
  /// under `false` for ablations and paper-faithful FAIL cells. Rows,
  /// placement, shuffle bytes and every other statistic are bit-identical
  /// between a capped spilling run and an uncapped run
  /// (tests/spill_test.cc); only the spill counters (spill_bytes_written,
  /// spill_bytes_read, spill_runs, spill_merge_passes) differ, and they are
  /// exactly 0 when off or when nothing spills.
  bool enable_spill = true;
  /// Collections smaller than this may be broadcast (paper: Spark broadcasts
  /// anything under 10MB).
  uint64_t broadcast_threshold = 10ull << 20;
  /// Cost model: synchronous stages, straggler-bound.
  double seconds_per_cpu_byte = 2e-9;   // ~500 MB/s scan+build per worker
  double seconds_per_net_byte = 8e-9;   // ~125 MB/s shuffle bandwidth
  double stage_overhead_seconds = 0.05;  // scheduling + barrier overhead
  /// Skew sampling (Section 5): fraction of tuples sampled per partition and
  /// the frequency threshold above which a key is heavy (2.5% => at most 40
  /// distinct heavy keys per partition).
  double skew_sample_rate = 0.1;
  double heavy_key_threshold = 0.025;
  uint64_t seed = 42;
  /// Threads for partition-parallel operator execution. 0 = auto (the
  /// TRANCE_THREADS env var if set, else hardware_concurrency); 1 = fully
  /// sequential (the pre-parallel code path, no pool involvement). The
  /// thread count never affects results: outputs and all JobStats fields
  /// are bit-identical across thread counts (see DESIGN.md, Threading
  /// model).
  int num_threads = 0;
  /// Fault injection & recovery (off by default; see runtime/fault.h and
  /// docs/ARCHITECTURE.md). With a positive fault rate and a sufficient
  /// retry budget, results and all non-recovery stats are bit-identical to
  /// a fault-free run.
  FaultConfig faults{};
  /// Out-of-core spill knobs (runtime/spill.h, docs/STORAGE.md). Whether the
  /// stage barrier spills at all is `enable_spill`; this configures where
  /// runs go and how they are bounded once it does.
  spill::SpillConfig spill{};
};

/// Cluster state: configuration + per-job statistics. One Cluster per
/// executing query; stage recording, scope attribution and memory checks are
/// mutex-guarded so operator internals may run partition-parallel. The
/// stats() reference is only safe to read at stage barriers (i.e. between
/// operator calls), which is where all callers read it.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config)
      : config_(config),
        num_threads_(config.num_threads > 0 ? config.num_threads
                                            : util::DefaultNumThreads()),
        injector_(config.faults) {
    TRANCE_CHECK(config_.num_partitions > 0, "cluster without partitions");
  }
  Cluster() : Cluster(ClusterConfig{}) {}

  const ClusterConfig& config() const { return config_; }
  JobStats& stats() { return stats_; }
  const JobStats& stats() const { return stats_; }

  /// The same JobStats as stats(), whose Snapshot() gives the metric
  /// series. Kept for perfbench/driver.cc; everything else calls stats().
  JobStats& metrics() { return stats_; }

  /// Starts a new job (one executed program): bumps the id that tags every
  /// event this cluster emits. Per-cluster — not process-global — so the id
  /// sequence of a workload is deterministic no matter what else ran in the
  /// process. Also restarts the stage wall clock, so the job's first stage
  /// measures from here rather than from the previous job's last stage.
  /// Returns the new id (first job is 1; 0 means "outside any job").
  /// Driver-side only.
  uint64_t BeginJob();
  uint64_t current_job_id() const { return job_id_; }

  int num_partitions() const { return config_.num_partitions; }
  /// Resolved thread budget (config.num_threads, TRANCE_THREADS, or
  /// hardware_concurrency — in that order of precedence).
  int num_threads() const { return num_threads_; }

  /// Runs fn(p) for p in [0, n) on the cluster's thread budget with a
  /// barrier at return; num_threads() == 1 runs inline. Operators keep all
  /// shared state indexed by p and merge after the barrier in partition
  /// order, which is what keeps parallel stats bit-identical to sequential.
  void RunParallel(size_t n, const std::function<void(size_t)>& fn) const {
    util::ParallelFor(num_threads_, n, fn);
  }

  const FaultInjector& fault_injector() const { return injector_; }

  /// Runs the per-partition tasks of one stage with fault injection and
  /// recovery. With the injector disabled this is exactly RunParallel(n,
  /// task). Otherwise, for every task slot p the injector decides (seeded,
  /// deterministically — independent of thread count and wall clock)
  /// whether each attempt faults:
  ///   - crash-type faults (worker crash, transient ResourceExhausted) run
  ///     task(p) and then discard its partial output via reset(p) — a real
  ///     re-execution from the stage's (immutable, driver-held) input
  ///     partitions, i.e. lineage recovery;
  ///   - fetch-loss faults strike before any work: the task is skipped and
  ///     retried.
  ///
  /// Each fault is appended to stage->fault_events and counted in
  /// stage->injected_faults / retries / partition_retries (merged in slot
  /// order after the barrier, so fault telemetry is thread-count-invariant
  /// too). RecordStage later converts the events into the stage's
  /// recovery_sim_seconds charge (bounded exponential backoff + discarded
  /// work), keeping sim_seconds itself fault-invariant.
  ///
  /// A task that faults more than config().faults.max_task_retries times
  /// escalates: the job fails with ResourceExhausted naming `stage_name`
  /// and the partition. The injector itself stops failing a task after
  /// max_faults_per_task faults, so a budget >= max_faults_per_task makes
  /// recovery guaranteed.
  Status RunRecoverableTasks(const std::string& stage_name, size_t n,
                             StageStats* stage,
                             const std::function<void(size_t)>& task,
                             const std::function<void(size_t)>& reset);

  /// Records a finished stage, deriving its simulated time from the cost
  /// model, stamping its wall-time interval, and attributing it to the
  /// current operator scope (if any).
  void RecordStage(StageStats s);

  /// Fails with ResourceExhausted if, with spilling off, any of a stage's
  /// per-partition byte footprints (Dataset::PartitionBytes) exceeds the
  /// per-partition memory cap. With spilling on, the stage barrier has
  /// already spilled every partition over the cap to disk (runtime/spill.h):
  /// those still count toward the peak-bytes telemetry — so mem_high_water
  /// / peak_partition_bytes match an uncapped run — but never fail the
  /// check. `spilled_partitions` (how many spilled) goes to the event log.
  Status CheckMemoryBytes(const std::vector<uint64_t>& partition_bytes,
                          const std::string& op,
                          uint64_t spilled_partitions = 0);

  /// Target partition of a key hash. The splitmix64 finalizer decorrelates
  /// partition assignment from low-bit structure in the key hash; the
  /// cluster seed perturbs the mapping so reruns can vary placement
  /// deterministically.
  int PartitionOf(uint64_t key_hash) const {
    return static_cast<int>(SplitMix64(key_hash ^ config_.seed) %
                            static_cast<uint64_t>(config_.num_partitions));
  }

  /// The cluster's spill manager (created lazily on first use so clusters
  /// that never spill never touch the filesystem). The stage barrier
  /// (detail::FinishStage), the one spill site, writes its runs through it.
  spill::SpillManager* spill_manager();

  /// Operator-scope stack for plan-node attribution of stages (EXPLAIN
  /// ANALYZE): stages recorded while a scope is active carry its name.
  void PushScope(std::string scope) {
    std::lock_guard<std::mutex> lock(mu_);
    scope_stack_.push_back(std::move(scope));
  }
  void PopScope() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!scope_stack_.empty()) scope_stack_.pop_back();
  }
  std::string current_scope() const {
    std::lock_guard<std::mutex> lock(mu_);
    return scope_stack_.empty() ? std::string() : scope_stack_.back();
  }

 private:
  /// Logs one finished stage to the event log; called from RecordStage
  /// under mu_ (driver-sequential, so event order is thread-count-invariant).
  void LogStage(size_t stage_index, const StageStats& s);

  ClusterConfig config_;
  int num_threads_;
  FaultInjector injector_;
  /// Lazily created by spill_manager() under mu_.
  std::unique_ptr<spill::SpillManager> spill_manager_;
  /// Event-log job tag; mutated by BeginJob from the driver only.
  uint64_t job_id_ = 0;
  /// Driver-side stage sequence number feeding the fault injector. Stages
  /// start sequentially from the driver, so the sequence is deterministic
  /// for a given query + config regardless of thread count.
  std::atomic<uint64_t> next_stage_seq_{0};
  /// Guards stats_, scope_stack_ and last_stage_end_us_ (RecordStage and
  /// CheckMemoryBytes may be reached from concurrent helper code).
  mutable std::mutex mu_;
  JobStats stats_;
  std::vector<std::string> scope_stack_;
  /// End timestamp (WallMicros) of the last recorded stage, or the start of
  /// the current job: the next stage's wall interval starts here
  /// (everything between two records is, to a good approximation, the later
  /// stage's work).
  double last_stage_end_us_ = -1;
};

/// RAII helper: pushes an operator scope for the lifetime of the object.
class StageScope {
 public:
  StageScope(Cluster* cluster, std::string scope) : cluster_(cluster) {
    cluster_->PushScope(std::move(scope));
  }
  ~StageScope() { cluster_->PopScope(); }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  Cluster* cluster_;
};

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_CLUSTER_H_
