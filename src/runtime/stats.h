// Execution statistics for the simulated cluster.
//
// The evaluation quantities of the paper are data-movement quantities: bytes
// shuffled per stage, straggler load (max per-partition work under
// synchronous stage execution), and memory saturation. Each bulk operator
// records one StageStats; the simulated job time is the sum over stages of
//   overhead + max_partition_work_bytes * cpu_cost + max_partition_recv_bytes * net_cost,
// i.e. every stage is as slow as its most loaded worker — which is exactly
// how skew hurts synchronous platforms like Spark (Section 1, Challenge 3).
//
// Beyond the scalar aggregates, each stage carries per-partition send/recv/
// work histograms, the broadcast-vs-shuffle decision, the heavy-key count
// from the skew sampler, and a memory high-water mark; JobStats aggregates
// them into a job-wide straggler/imbalance summary (src/obs turns these into
// EXPLAIN ANALYZE reports, percentile summaries and Chrome trace exports).
#ifndef TRANCE_RUNTIME_STATS_H_
#define TRANCE_RUNTIME_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/fault.h"

namespace trance {
namespace runtime {

/// How a stage moved data between partitions.
enum class DataMovement {
  kLocal,      // partition-local (no cross-partition movement)
  kShuffle,    // hash repartitioning
  kBroadcast,  // replication to every partition
};

const char* DataMovementName(DataMovement m);

/// One narrow operator inside a fused stage (runtime/stage_pipeline). The
/// per-transform emitted-row count is what EXPLAIN ANALYZE shows for the plan
/// node the transform came from.
struct FusedTransformStats {
  std::string op;
  std::string scope;
  uint64_t rows_out = 0;
};

struct StageStats {
  std::string op;
  /// Plan-operator attribution (set from the cluster's scope stack); empty
  /// for stages recorded outside plan execution (sources, unshredding).
  std::string scope;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t shuffle_bytes = 0;             // bytes moved between partitions
  uint64_t max_partition_recv_bytes = 0;  // heaviest receiver in the shuffle
  uint64_t max_partition_work_bytes = 0;  // heaviest worker's processed bytes
  uint64_t total_work_bytes = 0;
  /// Largest partition footprint of the stage's output (bytes); 0 for stages
  /// that do not materialize an output (sources are pre-cached).
  uint64_t mem_high_water_bytes = 0;
  /// Heavy keys found by the skew sampler (heavy_keys stages only).
  uint64_t heavy_key_count = 0;
  DataMovement movement = DataMovement::kLocal;
  /// Per-partition histograms (indexed by partition; empty when the stage
  /// did not track the quantity).
  std::vector<uint64_t> partition_send_bytes;
  std::vector<uint64_t> partition_recv_bytes;
  std::vector<uint64_t> partition_work_bytes;
  /// Non-empty when this stage ran a fused chain of narrow transforms (one
  /// entry per transform, in chain order).
  std::vector<FusedTransformStats> fused_transforms;
  /// Bytes the unfused pipeline would have materialized between the chain's
  /// transforms (rows emitted by every non-final transform); 0 for unfused
  /// stages.
  uint64_t intermediate_bytes_avoided = 0;
  /// Keyed-operator telemetry (join build/probe, cogroup, nest, reduce,
  /// dedup, heavy-key sampling). build/probe/chain are data-determined;
  /// key_encode_bytes is the bytes of binary keys the codec produced.
  uint64_t key_encode_bytes = 0;  // encoded key bytes produced this stage
  uint64_t hash_build_rows = 0;   // rows inserted into keyed hash structures
  uint64_t hash_probe_hits = 0;   // lookups that found an existing key
  uint64_t hash_max_chain = 0;    // max input rows mapped to a single key
  /// Flat hash-table telemetry (runtime/flat_hash.h): total slot-array +
  /// arena footprint of the stage's flat tables, slot-array doublings, and
  /// the longest open-addressing probe sequence.
  uint64_t hash_table_bytes = 0;
  uint64_t hash_resizes = 0;
  uint64_t hash_probe_len_max = 0;
  /// Columnar-block telemetry (runtime/column.h): footprint of the typed
  /// partition blocks this stage built.
  uint64_t columnar_bytes = 0;
  /// Out-of-core spill telemetry (runtime/spill.h): bytes written to /
  /// streamed back from run files, run files produced, and stream-merge
  /// passes over them. All four are exactly 0 when nothing spills (and
  /// always when ExecOptions::enable_spill is off); spilling never changes
  /// any pre-existing field — spill cost flows through these channels only.
  uint64_t spill_bytes_written = 0;
  uint64_t spill_bytes_read = 0;
  uint64_t spill_runs = 0;
  uint64_t spill_merge_passes = 0;
  /// Rows a block-resident spill restored column-wise (block record →
  /// resident block) instead of materializing as Row values — the disk-side
  /// rowifications the resident representation avoided. Like the other
  /// spill counters it is 0 when nothing spills.
  uint64_t spill_rowify_avoided = 0;
  /// Fault-injection & recovery telemetry (empty/zero on fault-free runs and
  /// when the injector is disabled). Every non-recovery field above is
  /// bit-identical between a fault-free run and a run whose injected faults
  /// were all recovered — recovery is stats-transparent.
  std::vector<FaultEvent> fault_events;  // (partition, attempt, kind) log
  uint64_t injected_faults = 0;          // faults injected into this stage
  uint64_t retries = 0;                  // task re-executions performed
  /// Per-task-slot retry counts (indexed like the stage's task loop; empty
  /// when no fault hit the stage).
  std::vector<uint64_t> partition_retries;
  /// Simulated seconds recovery cost this stage: per fault, the bounded
  /// exponential backoff plus the discarded attempt's work (crash kinds,
  /// cpu cost of the partition's work bytes) or re-fetch (fetch loss, net
  /// cost of the partition's recv bytes). Kept OUT of sim_seconds so
  /// fault-free and recovered runs report identical base stats; stamped by
  /// Cluster::RecordStage.
  double recovery_sim_seconds = 0;
  double sim_seconds = 0;
  /// Wall-clock interval of the stage on the process trace timeline
  /// (microseconds since trance::WallMicros epoch); stamped by
  /// Cluster::RecordStage.
  double wall_start_us = 0;
  double wall_dur_us = 0;

  /// Straggler factor: heaviest worker / mean worker load (1.0 when the
  /// stage tracked no per-partition work or did no work).
  double ImbalanceFactor() const;
};

/// Job-wide straggler / skew summary (the aggregate the per-stage maxima
/// previously never surfaced).
struct StragglerSummary {
  uint64_t max_partition_recv_bytes = 0;  // worst single-stage receiver
  uint64_t max_partition_work_bytes = 0;  // worst single-stage worker
  double worst_imbalance = 1.0;           // max over stages of max/mean work
  std::string worst_stage;                // op name of that stage
  uint64_t heavy_key_count = 0;           // total keys flagged by the sampler
};

/// Accumulated statistics for one logical job (query execution).
class JobStats {
 public:
  void AddStage(StageStats s) {
    totals_.shuffle_bytes += s.shuffle_bytes;
    totals_.rows_in += s.rows_in;
    totals_.rows_out += s.rows_out;
    totals_.total_work_bytes += s.total_work_bytes;
    if (s.shuffle_bytes > max_stage_shuffle_) {
      max_stage_shuffle_ = s.shuffle_bytes;
    }
    sim_seconds_ += s.sim_seconds;
    if (!s.fused_transforms.empty()) ++fused_stages_;
    intermediate_bytes_avoided_ += s.intermediate_bytes_avoided;
    injected_faults_ += s.injected_faults;
    retries_ += s.retries;
    recovery_sim_seconds_ += s.recovery_sim_seconds;
    key_encode_bytes_ += s.key_encode_bytes;
    hash_build_rows_ += s.hash_build_rows;
    hash_probe_hits_ += s.hash_probe_hits;
    if (s.hash_max_chain > hash_max_chain_) hash_max_chain_ = s.hash_max_chain;
    hash_table_bytes_ += s.hash_table_bytes;
    hash_resizes_ += s.hash_resizes;
    if (s.hash_probe_len_max > hash_probe_len_max_) {
      hash_probe_len_max_ = s.hash_probe_len_max;
    }
    columnar_bytes_ += s.columnar_bytes;
    spill_bytes_written_ += s.spill_bytes_written;
    spill_bytes_read_ += s.spill_bytes_read;
    spill_runs_ += s.spill_runs;
    spill_merge_passes_ += s.spill_merge_passes;
    spill_rowify_avoided_ += s.spill_rowify_avoided;
    stages_.push_back(std::move(s));
  }

  void NotePeakPartitionBytes(uint64_t b) {
    if (b > peak_partition_bytes_) peak_partition_bytes_ = b;
  }

  const std::vector<StageStats>& stages() const { return stages_; }
  uint64_t total_shuffle_bytes() const { return totals_.shuffle_bytes; }
  /// The largest single-stage shuffle ("max data shuffle" in Section 6).
  uint64_t max_stage_shuffle_bytes() const { return max_stage_shuffle_; }
  uint64_t peak_partition_bytes() const { return peak_partition_bytes_; }
  double sim_seconds() const { return sim_seconds_; }
  /// Stages that ran a fused chain of narrow transforms.
  uint64_t fused_stages() const { return fused_stages_; }
  /// Total bytes fusion kept from materializing between narrow operators.
  uint64_t intermediate_bytes_avoided() const {
    return intermediate_bytes_avoided_;
  }
  /// Faults injected across all stages (0 on fault-free runs).
  uint64_t injected_faults() const { return injected_faults_; }
  /// Task re-executions the recovery loop performed.
  uint64_t retries() const { return retries_; }
  /// Total simulated recovery time (backoff + discarded attempts); reported
  /// separately from sim_seconds() so base stats stay fault-invariant.
  double recovery_sim_seconds() const { return recovery_sim_seconds_; }
  /// Bytes of binary keys the key codec produced.
  uint64_t key_encode_bytes() const { return key_encode_bytes_; }
  /// Rows inserted into keyed hash structures across all stages.
  uint64_t hash_build_rows() const { return hash_build_rows_; }
  /// Keyed lookups that found an existing key across all stages.
  uint64_t hash_probe_hits() const { return hash_probe_hits_; }
  /// Worst per-key chain (max over stages of the stage's longest chain).
  uint64_t hash_max_chain() const { return hash_max_chain_; }
  /// Total flat hash-table footprint built across all stages.
  uint64_t hash_table_bytes() const { return hash_table_bytes_; }
  /// Flat-table slot-array doublings across all stages.
  uint64_t hash_resizes() const { return hash_resizes_; }
  /// Longest open-addressing probe sequence any stage saw.
  uint64_t hash_probe_len_max() const { return hash_probe_len_max_; }
  /// Total typed-block footprint operators built.
  uint64_t columnar_bytes() const { return columnar_bytes_; }
  /// Bytes written to spill run files (0 when nothing spilled).
  uint64_t spill_bytes_written() const { return spill_bytes_written_; }
  /// Bytes streamed back from spill run files.
  uint64_t spill_bytes_read() const { return spill_bytes_read_; }
  /// Spill run files produced across all stages.
  uint64_t spill_runs() const { return spill_runs_; }
  /// Stream-merge passes over spill runs.
  uint64_t spill_merge_passes() const { return spill_merge_passes_; }
  /// Rows restored from spill block records straight into resident blocks
  /// (disk-side rowifications avoided by block residence).
  uint64_t spill_rowify_avoided() const { return spill_rowify_avoided_; }

  /// Job-wide aggregation of the per-stage skew quantities.
  StragglerSummary straggler() const;

  void Reset() {
    stages_.clear();
    totals_ = StageStats{};
    max_stage_shuffle_ = 0;
    peak_partition_bytes_ = 0;
    sim_seconds_ = 0;
    fused_stages_ = 0;
    intermediate_bytes_avoided_ = 0;
    injected_faults_ = 0;
    retries_ = 0;
    recovery_sim_seconds_ = 0;
    key_encode_bytes_ = 0;
    hash_build_rows_ = 0;
    hash_probe_hits_ = 0;
    hash_max_chain_ = 0;
    hash_table_bytes_ = 0;
    hash_resizes_ = 0;
    hash_probe_len_max_ = 0;
    columnar_bytes_ = 0;
    spill_bytes_written_ = 0;
    spill_bytes_read_ = 0;
    spill_runs_ = 0;
    spill_merge_passes_ = 0;
    spill_rowify_avoided_ = 0;
  }

  std::string ToString() const;

 private:
  std::vector<StageStats> stages_;
  StageStats totals_;
  uint64_t max_stage_shuffle_ = 0;
  uint64_t peak_partition_bytes_ = 0;
  double sim_seconds_ = 0;
  uint64_t fused_stages_ = 0;
  uint64_t intermediate_bytes_avoided_ = 0;
  uint64_t injected_faults_ = 0;
  uint64_t retries_ = 0;
  double recovery_sim_seconds_ = 0;
  uint64_t key_encode_bytes_ = 0;
  uint64_t hash_build_rows_ = 0;
  uint64_t hash_probe_hits_ = 0;
  uint64_t hash_max_chain_ = 0;
  uint64_t hash_table_bytes_ = 0;
  uint64_t hash_resizes_ = 0;
  uint64_t hash_probe_len_max_ = 0;
  uint64_t columnar_bytes_ = 0;
  uint64_t spill_bytes_written_ = 0;
  uint64_t spill_bytes_read_ = 0;
  uint64_t spill_runs_ = 0;
  uint64_t spill_merge_passes_ = 0;
  uint64_t spill_rowify_avoided_ = 0;
};

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_STATS_H_
