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
// from the skew sampler, and a memory high-water mark. The statistic table
// (kStatFields, below) describes every scalar field once; JobStats folds the
// stages into job totals with it, and src/obs turns both into EXPLAIN
// ANALYZE reports, JSON, percentile summaries and Chrome trace exports.
#ifndef TRANCE_RUNTIME_STATS_H_
#define TRANCE_RUNTIME_STATS_H_

#include <algorithm>
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
  /// Out-of-core spill telemetry (runtime/spill.h): bytes written to and
  /// read back from run files (each run is one write and one whole-file
  /// read), run files produced, and restores (one per spilled partition,
  /// reading its runs in order). All four are exactly 0 when nothing spills (and
  /// always when ExecOptions::enable_spill is off); spilling never changes
  /// any pre-existing field — spill cost flows through these channels only.
  uint64_t spill_bytes_written = 0;
  uint64_t spill_bytes_read = 0;
  uint64_t spill_runs = 0;
  uint64_t spill_merge_passes = 0;
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

// --- The statistic table ---------------------------------------------------
//
// Each scalar StageStats field is described once, by one row of kStatFields:
// its JSON key, how a job folds it over stages, its registry series, its
// determinism class and its EXPLAIN ANALYZE clause. JobStats totals,
// Cluster::PublishStage, obs::WriteJobStats, EXPLAIN ANALYZE, the bench
// report's per-run scalars and bench_diff's policies all loop over the
// table. StageStats stays a plain counters struct; the table only describes
// it.

/// How a job folds a field over its stages.
enum class StatAgg : uint8_t { kSum, kMax };

/// What a run-to-run comparison may expect of a field.
enum class StatClass : uint8_t {
  kExact,  // integer function of the data: identical at any thread count,
           // under recovered faults and under spilling (its own group aside)
  kSim,    // cost-model double: deterministic, compared at 1e-9 relative
  kWall,   // wall clock: varies run to run, never gated
};

/// Unit of a field; fixes how EXPLAIN ANALYZE formats it.
enum class StatUnit : uint8_t { kCount, kBytes, kSimSeconds, kMicros };

/// EXPLAIN ANALYZE clause groups, in print order. A group is shown when any
/// of its fields is nonzero: EXPLAIN prints its clause and a stage's JSON
/// object carries its keys. kNone fields are always in the stage JSON and
/// print in EXPLAIN only as fixed line fields, if at all.
enum class StatGroup : uint8_t {
  kNone,
  kHeavyKeys,  // heavy_keys=N
  kHashTable,  // ht(build= hits= chain=)
  kFlatTable,  // flat(tbl= resizes= probe=)
  kKeyBytes,   // key_bytes=B
  kColumnar,   // col(blocks=B)
  kSpill,      // spill(w= r= runs= merges=)
  kFusion,     // avoided=B
  kFaults,     // faults=N retries=N recovery=Ss
};
inline constexpr int kNumStatGroups = static_cast<int>(StatGroup::kFaults) + 1;

constexpr uint32_t StatGroupBit(StatGroup g) {
  return 1u << static_cast<int>(g);
}
/// Every clause group (kNone excluded).
inline constexpr uint32_t kAllStatGroups =
    ((1u << kNumStatGroups) - 1) & ~StatGroupBit(StatGroup::kNone);

/// Parenthesised clause prefix of a group (` ht(build=...)`), or nullptr
/// when the group's tokens print bare.
constexpr const char* StatGroupPrefix(StatGroup g) {
  switch (g) {
    case StatGroup::kHashTable:
      return "ht";
    case StatGroup::kFlatTable:
      return "flat";
    case StatGroup::kColumnar:
      return "col";
    case StatGroup::kSpill:
      return "spill";
    default:
      return nullptr;
  }
}

/// Outputs a row reaches besides JobStats::totals() and the stage JSON
/// object, which every row reaches.
enum StatOutput : uint8_t {
  kOutJobTotals = 1,  // `totals` object of the job-stats JSON
  kOutBenchRun = 2,   // per-run scalar of BENCH_<name>.json
};

/// One row of the statistic table.
struct StatField {
  const char* key;                      // JSON key (stage, totals, bench run)
  uint64_t StageStats::*u64 = nullptr;  // the field: an integer counter...
  double StageStats::*f64 = nullptr;    // ...or a double (exactly one is set)
  StatAgg agg;
  StatClass cls;
  StatUnit unit;
  uint8_t outputs;     // StatOutput bits
  const char* series;  // registry series, or nullptr
  const char* help;    // registry help text
  StatGroup group;
  const char* token;  // EXPLAIN token within the group, or nullptr

  constexpr StatField(const char* k, uint64_t StageStats::*m, StatAgg a,
                      StatClass c, StatUnit u, uint8_t o, const char* s,
                      const char* h, StatGroup g, const char* t)
      : key(k), u64(m), agg(a), cls(c), unit(u), outputs(o), series(s),
        help(h), group(g), token(t) {}
  constexpr StatField(const char* k, double StageStats::*m, StatAgg a,
                      StatClass c, StatUnit u, uint8_t o, const char* s,
                      const char* h, StatGroup g, const char* t)
      : key(k), f64(m), agg(a), cls(c), unit(u), outputs(o), series(s),
        help(h), group(g), token(t) {}

  bool IsZero(const StageStats& s) const {
    return u64 != nullptr ? s.*u64 == 0 : s.*f64 == 0;
  }
  /// The value as a double (exact for integers below 2^53).
  double AsDouble(const StageStats& s) const {
    return u64 != nullptr ? static_cast<double>(s.*u64) : s.*f64;
  }
  /// Folds stage `s` into `acc` with this row's aggregation.
  void Fold(const StageStats& s, StageStats* acc) const {
    if (u64 != nullptr) {
      acc->*u64 = agg == StatAgg::kSum ? acc->*u64 + s.*u64
                                       : std::max(acc->*u64, s.*u64);
    } else {
      acc->*f64 = agg == StatAgg::kSum ? acc->*f64 + s.*f64
                                       : std::max(acc->*f64, s.*f64);
    }
  }
};

namespace stat_rows {
using enum StatAgg;
using enum StatClass;
using enum StatUnit;
using enum StatGroup;
inline constexpr uint8_t kJob = kOutJobTotals;
inline constexpr uint8_t kJobBench = kOutJobTotals | kOutBenchRun;

// Columns: JSON key and field; job aggregation; class; unit; outputs;
// registry series and help; EXPLAIN group and token. Rows follow StageStats
// order, which is also the key order of the JSON objects and the token order
// inside a clause. A max row publishes a SetMax gauge, a double row an Add
// gauge, any other row a counter. Three series belong to events rather than
// stages and are published there: trance_fused_stages_total and
// trance_intermediate_bytes_avoided_total (fused stages, stage_pipeline.cc)
// and trance_task_retries_total (the recovery loop, cluster.cc).
inline constexpr StatField kStatFields[] = {
    {"rows_in", &StageStats::rows_in, kSum, kExact, kCount, 0,
     "trance_rows_in_total", "rows consumed by stages", kNone, nullptr},
    {"rows_out", &StageStats::rows_out, kSum, kExact, kCount, 0,
     "trance_rows_out_total", "rows produced by stages", kNone, nullptr},
    {"shuffle_bytes", &StageStats::shuffle_bytes, kSum, kExact, kBytes,
     kJobBench, "trance_shuffle_bytes_total", "bytes moved between partitions",
     kNone, nullptr},
    {"max_partition_recv_bytes", &StageStats::max_partition_recv_bytes, kMax,
     kExact, kBytes, kJob, nullptr, nullptr, kNone, nullptr},
    {"max_partition_work_bytes", &StageStats::max_partition_work_bytes, kMax,
     kExact, kBytes, kJob, nullptr, nullptr, kNone, nullptr},
    {"total_work_bytes", &StageStats::total_work_bytes, kSum, kExact, kBytes, 0,
     "trance_work_bytes_total", "bytes processed by workers", kNone, nullptr},
    {"mem_high_water_bytes", &StageStats::mem_high_water_bytes, kMax, kExact,
     kBytes, 0, "trance_mem_high_water_bytes",
     "largest stage-output partition footprint", kNone, nullptr},
    {"heavy_key_count", &StageStats::heavy_key_count, kSum, kExact, kCount,
     kJob, "trance_heavy_keys_total", "keys flagged by the skew sampler",
     kHeavyKeys, "heavy_keys"},
    {"intermediate_bytes_avoided", &StageStats::intermediate_bytes_avoided,
     kSum, kExact, kBytes, kJobBench, nullptr, nullptr, kFusion, "avoided"},
    {"key_encode_bytes", &StageStats::key_encode_bytes, kSum, kExact, kBytes,
     kJobBench, "trance_key_encode_bytes_total",
     "binary key bytes produced by the key codec", kKeyBytes, "key_bytes"},
    {"hash_build_rows", &StageStats::hash_build_rows, kSum, kExact, kCount,
     kJobBench, "trance_hash_build_rows_total",
     "rows inserted into keyed hash structures", kHashTable, "build"},
    {"hash_probe_hits", &StageStats::hash_probe_hits, kSum, kExact, kCount,
     kJobBench, "trance_hash_probe_hits_total",
     "keyed lookups that found an existing key", kHashTable, "hits"},
    {"hash_max_chain", &StageStats::hash_max_chain, kMax, kExact, kCount,
     kJobBench, "trance_hash_max_chain",
     "max input rows mapped to a single key", kHashTable, "chain"},
    {"hash_table_bytes", &StageStats::hash_table_bytes, kSum, kExact, kBytes,
     kJobBench, "trance_hash_table_bytes_total",
     "flat hash-table footprint built by keyed operators", kFlatTable, "tbl"},
    {"hash_resizes", &StageStats::hash_resizes, kSum, kExact, kCount,
     kJobBench, "trance_hash_resizes_total",
     "flat hash-table slot-array doublings", kFlatTable, "resizes"},
    {"hash_probe_len_max", &StageStats::hash_probe_len_max, kMax, kExact,
     kCount, kJobBench, "trance_hash_probe_len_max",
     "longest open-addressing probe sequence", kFlatTable, "probe"},
    {"columnar_bytes", &StageStats::columnar_bytes, kSum, kExact, kBytes,
     kJobBench, "trance_columnar_bytes_total",
     "typed partition-block footprint built by operators", kColumnar,
     "blocks"},
    {"spill_bytes_written", &StageStats::spill_bytes_written, kSum, kExact,
     kBytes, kJobBench, "trance_spill_bytes_written_total",
     "bytes written to spill run files", kSpill, "w"},
    {"spill_bytes_read", &StageStats::spill_bytes_read, kSum, kExact, kBytes,
     kJobBench, "trance_spill_bytes_read_total",
     "bytes read back from spill run files", kSpill, "r"},
    {"spill_runs", &StageStats::spill_runs, kSum, kExact, kCount, kJobBench,
     "trance_spill_runs_total", "spill run files produced", kSpill, "runs"},
    {"spill_merge_passes", &StageStats::spill_merge_passes, kSum, kExact,
     kCount, kJobBench, "trance_spill_merge_passes_total",
     "restores of spilled partitions from their runs", kSpill, "merges"},
    {"injected_faults", &StageStats::injected_faults, kSum, kExact, kCount,
     kJobBench, nullptr, nullptr, kFaults, "faults"},
    {"retries", &StageStats::retries, kSum, kExact, kCount, kJobBench, nullptr,
     nullptr, kFaults, "retries"},
    {"recovery_sim_seconds", &StageStats::recovery_sim_seconds, kSum, kSim,
     kSimSeconds, kJobBench, "trance_recovery_sim_seconds_total",
     "accumulated simulated recovery time", kFaults, "recovery"},
    {"sim_seconds", &StageStats::sim_seconds, kSum, kSim, kSimSeconds,
     kJobBench, "trance_sim_seconds_total", "accumulated simulated job time",
     kNone, nullptr},
    {"wall_dur_us", &StageStats::wall_dur_us, kSum, kWall, kMicros, 0, nullptr,
     nullptr, kNone, nullptr},
};
}  // namespace stat_rows
using stat_rows::kStatFields;

/// Folds every table row of stage `s` into `acc` (sum or max per row).
inline void FoldStage(const StageStats& s, StageStats* acc) {
  for (const StatField& f : kStatFields) f.Fold(s, acc);
}

/// StatGroupBit(g) set for every group with a nonzero field in `s`, plus
/// StatGroup::kNone, which is always shown.
inline uint32_t ShownStatGroups(const StageStats& s) {
  uint32_t shown = StatGroupBit(StatGroup::kNone);
  for (const StatField& f : kStatFields) {
    if (!f.IsZero(s)) shown |= StatGroupBit(f.group);
  }
  return shown;
}

/// The stage with the worst straggler factor (max/mean worker load).
struct StragglerSummary {
  double worst_imbalance = 1.0;  // max over stages of max/mean work
  std::string worst_stage;       // op name of that stage
};

/// Accumulated statistics for one logical job (query execution).
class JobStats {
 public:
  void AddStage(StageStats s) {
    FoldStage(s, &totals_);
    if (s.shuffle_bytes > max_stage_shuffle_) {
      max_stage_shuffle_ = s.shuffle_bytes;
    }
    if (!s.fused_transforms.empty()) ++fused_stages_;
    stages_.push_back(std::move(s));
  }

  const std::vector<StageStats>& stages() const { return stages_; }
  /// Every kStatFields field folded over the stages with its row's
  /// aggregation (the non-table members stay empty).
  const StageStats& totals() const { return totals_; }
  /// The largest single-stage shuffle ("max data shuffle" in Section 6).
  uint64_t max_stage_shuffle_bytes() const { return max_stage_shuffle_; }
  /// The largest partition any stage emitted (the memory checks' peak).
  uint64_t peak_partition_bytes() const {
    return totals_.mem_high_water_bytes;
  }
  /// Stages that ran a fused chain of narrow transforms.
  uint64_t fused_stages() const { return fused_stages_; }

  /// The worst-imbalance stage.
  StragglerSummary straggler() const;

  void Reset() { *this = JobStats(); }

  std::string ToString() const;

 private:
  std::vector<StageStats> stages_;
  StageStats totals_;
  uint64_t max_stage_shuffle_ = 0;
  uint64_t fused_stages_ = 0;
};

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_STATS_H_
