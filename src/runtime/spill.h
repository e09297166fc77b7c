// Out-of-core spill runs over the runtime/serde.h binary block format.
//
// A SpillManager (one per Cluster) turns the paper's FAIL cells into
// slow-but-correct runs: when a partition's working set crosses the
// cluster's partition_memory_cap, its block is cut into row ranges, and
// each range becomes one run file — the file header and one columnar block
// record (length-prefixed, checksummed; docs/STORAGE.md), built in one
// buffer and written with one call — in a per-manager temp directory. The
// runs are then read back, one call each, in deterministic run order, so
// the restored row sequence, and therefore every pre-existing stat computed
// from it, is bit-identical to the in-memory path. The Thrill
// external-memory design: bounded runs moved to and from disk as whole
// blocks, merged in fixed run order.
//
// One site spills (gated by ExecOptions::enable_spill): the stage barrier,
// detail::FinishStage, spills every stage-output partition over the memory
// cap — exactly the partitions the memory check would fail with spilling
// off — which is what lets that check pass instead.
//
// Spill cost is reported only through the spill-only StageStats counters
// (spill_bytes_written / spill_bytes_read / spill_runs / spill_merge_passes),
// which the manager writes into the caller's per-partition slot; all are
// exactly 0 when nothing spills.
#ifndef TRANCE_RUNTIME_SPILL_H_
#define TRANCE_RUNTIME_SPILL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "runtime/column.h"
#include "runtime/schema.h"
#include "runtime/stats.h"
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
  /// Maximum payload bytes per run file; oversized partitions split into
  /// ceil(bytes / max_run_bytes) runs.
  uint64_t max_run_bytes = 8ull << 20;
  /// Hard cap on bytes simultaneously on disk across all runs of this
  /// manager (the spill byte budget). 0 = unlimited. Exceeding it fails the
  /// job with ResourceExhausted naming the budget and the observed bytes.
  uint64_t max_spill_bytes = 0;
};

/// Owns one spill directory: deterministic run naming, the spill-and-restore
/// of one block, and byte-budget accounting. Its methods are thread-safe;
/// the run *names* are a pure function of (job, tag, partition, run), never
/// of thread timing.
class SpillManager {
 public:
  explicit SpillManager(SpillConfig config);
  ~SpillManager();
  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  const SpillConfig& config() const { return config_; }

  /// Deterministic run path:
  /// <root>/job<J>/<sanitized tag>-p<partition>-r<run>.trs
  std::string RunPath(uint64_t job, const std::string& tag, size_t partition,
                      size_t run) const;

  /// The one-call spill: cuts `block`'s row sequence into
  /// max_run_bytes-bounded ranges (by RowBytesAt) and writes each range as
  /// one run file, serialized straight from the block into one reused
  /// buffer whose size is charged against the budget before the file
  /// exists; then restores the identical row sequence into a new
  /// schema-typed block, reading and decoding each run in order, and
  /// returns it. `block` itself is never changed: it may be shared. Counts
  /// one merge pass in c's spill_merge_passes. Success or failure, the runs
  /// it wrote are removed and their budget released before it returns.
  StatusOr<column::PartitionBlock> SpillAndRestoreBlock(
      uint64_t job, const std::string& tag, size_t partition,
      const Schema& schema, const column::PartitionBlock& block,
      StageStats* c);

  /// Run files written over the manager's lifetime (monotonic; the budget
  /// is tracked separately).
  uint64_t total_runs() const { return total_runs_.load(); }
  uint64_t on_disk_bytes() const;
  const std::string& root_dir() const { return root_; }

 private:
  /// Charges a run of `bytes` at `path` against the budget; fails with
  /// ResourceExhausted when the budget would overflow.
  Status AccountRun(const std::string& path, uint64_t bytes);
  /// Deletes a run and releases the `bytes` it was charged.
  void RemoveRun(const std::string& path, uint64_t bytes);

  SpillConfig config_;
  std::string root_;
  mutable std::mutex mu_;
  uint64_t on_disk_bytes_ = 0;
  bool root_created_ = false;
  std::atomic<uint64_t> total_runs_{0};
};

}  // namespace spill
}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_SPILL_H_
