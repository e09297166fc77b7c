// Out-of-core spill runs over the runtime/serde.h binary block format.
//
// A SpillManager (one per Cluster) turns the paper's FAIL cells into
// slow-but-correct runs: when a partition's working set crosses the spill
// threshold, its block is written as columnar block records to
// length-prefixed, checksummed run files (docs/STORAGE.md) in a per-manager
// temp directory, then streamed back in deterministic run order — so the
// restored row sequence, and therefore every pre-existing stat computed from
// it, is bit-identical to the in-memory path.
// The Thrill external-memory-channel design: bounded runs, sequential I/O,
// merge by fixed run order.
//
// Three spill sites use it (all gated by ExecOptions::enable_spill):
//   - ShuffleByKey fetch targets over budget spill their received buckets to
//     one run per source partition and stream-merge them in source order;
//   - keyed builds (join/cogroup/nest/reduce-by-key/dedup) spill oversized
//     reused inputs to runs and build from the restored blocks;
//   - detail::FinishStage spills any stage-output partition over the memory
//     cap, which is what lets the memory check pass instead of failing.
//
// Spill cost is reported only through the spill-only counters
// (spill_bytes_written / spill_bytes_read / spill_runs / spill_merge_passes);
// all are exactly 0 when nothing spills.
#ifndef TRANCE_RUNTIME_SPILL_H_
#define TRANCE_RUNTIME_SPILL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/column.h"
#include "runtime/schema.h"
#include "util/status.h"

namespace trance {
namespace runtime {
namespace spill {

/// Spill knobs; lives on ClusterConfig as `spill`. Every field is documented
/// in docs/ARCHITECTURE.md (enforced by ci/check_docs.sh).
struct SpillConfig {
  /// Run-file directory. Empty = the TRANCE_SPILL_DIR env var if set, else
  /// the system temp directory. Each manager creates (lazily, on first
  /// spill) its own subdirectory and removes it on destruction.
  std::string dir;
  /// Partition bytes above which the spill sites engage. 0 = use the
  /// cluster's partition_memory_cap, so spilling starts exactly where the
  /// hard failure used to.
  uint64_t threshold_bytes = 0;
  /// Maximum payload bytes per run file; oversized partitions split into
  /// ceil(bytes / max_run_bytes) runs.
  uint64_t max_run_bytes = 8ull << 20;
  /// Hard cap on bytes simultaneously on disk across all runs of this
  /// manager (the spill byte budget). 0 = unlimited. Exceeding it fails the
  /// job with ResourceExhausted naming the budget and the observed bytes.
  uint64_t max_spill_bytes = 0;
  /// Buffer size of the serde file reader/writer.
  uint64_t io_buffer_bytes = 64 * 1024;
  /// Keep run files after restore/destruction (post-mortem debugging).
  bool keep_files = false;
};

/// Per-site spill telemetry; folded into StageStats in partition order at
/// stage barriers (thread-count-invariant, like every other counter).
struct SpillCounters {
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t runs = 0;
  uint64_t merge_passes = 0;

  SpillCounters& operator+=(const SpillCounters& o) {
    bytes_written += o.bytes_written;
    bytes_read += o.bytes_read;
    runs += o.runs;
    merge_passes += o.merge_passes;
    return *this;
  }
};

/// Owns one spill directory: deterministic run naming, run write/read
/// helpers, and byte-budget accounting. Write/read methods are thread-safe
/// (concurrent fetch tasks spill distinct targets); the run *names* are a
/// pure function of (job, tag, partition, run), never of thread timing.
class SpillManager {
 public:
  explicit SpillManager(SpillConfig config);
  ~SpillManager();
  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  const SpillConfig& config() const { return config_; }
  /// The engage threshold: config().threshold_bytes, or `fallback` (the
  /// caller's partition_memory_cap) when unset.
  uint64_t ThresholdOr(uint64_t fallback) const {
    return config_.threshold_bytes > 0 ? config_.threshold_bytes : fallback;
  }

  /// Deterministic run path:
  /// <root>/job<J>/<sanitized tag>-p<partition>-r<run>.trs
  std::string RunPath(uint64_t job, const std::string& tag, size_t partition,
                      size_t run) const;

  /// Writes one run file holding a columnar block (one block record).
  /// Charges the file's bytes against the budget before the file exists,
  /// and into *c once it is written; on any error nothing of the run stays
  /// on disk or in the budget.
  Status WriteBlockRun(const std::string& path,
                       const column::PartitionBlock& block, SpillCounters* c);
  /// Streams a run back into a resident block. The decoder appends into
  /// the typed columns one value at a time, so the block's footprint
  /// matches a never-spilled block of the same rows.
  Status ReadRunIntoBlock(const std::string& path,
                          column::PartitionBlock* out, SpillCounters* c);
  /// Deletes a restored run (no-op with keep_files) and releases its budget.
  void RemoveRun(const std::string& path);

  /// The one-call spill site: cuts *block's row sequence into
  /// max_run_bytes-bounded ranges (by RowBytesAt), serializes each range
  /// straight from the block as one block record run, resets *block to an
  /// empty schema-typed block, then restores the identical row sequence via
  /// ReadRunIntoBlock. Counts one merge pass. Success or failure, the runs
  /// it wrote are removed and their budget released before it returns.
  Status SpillAndRestoreBlock(uint64_t job, const std::string& tag,
                              size_t partition, const Schema& schema,
                              column::PartitionBlock* block,
                              SpillCounters* c);

  // Lifetime accounting (monotonic; budget is tracked separately).
  uint64_t total_bytes_written() const { return total_written_.load(); }
  uint64_t total_bytes_read() const { return total_read_.load(); }
  uint64_t total_runs() const { return total_runs_.load(); }
  uint64_t on_disk_bytes() const;
  const std::string& root_dir() const { return root_; }

 private:
  /// Charges `bytes` against the budget; fails with ResourceExhausted when
  /// the budget would overflow.
  Status AccountRun(const std::string& path, uint64_t bytes);
  /// Writes rows [begin, end) of `block` as one run (see WriteBlockRun);
  /// `payload` is scratch space reused across runs.
  Status WriteRangeRun(const std::string& path,
                       const column::PartitionBlock& block, size_t begin,
                       size_t end, std::string* payload, SpillCounters* c);

  SpillConfig config_;
  std::string root_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, uint64_t> file_bytes_;
  uint64_t on_disk_bytes_ = 0;
  bool root_created_ = false;
  std::atomic<uint64_t> total_written_{0};
  std::atomic<uint64_t> total_read_{0};
  std::atomic<uint64_t> total_runs_{0};
};

}  // namespace spill
}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_SPILL_H_
