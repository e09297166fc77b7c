// A Dataset is a partitioned distributed collection of rows, with the
// partitioning guarantee tracked the way Section 3 describes Spark
// partitioners: key-based (all rows with the same key on the same partition),
// inherited / preserved / dropped / redefined by operators.
//
// Every partition is resident as a typed column::PartitionBlock. Blocks are
// lossless — RowAt / RowBytesAt / HashRowOn observe the exact Field values
// that went in — so everything that sizes, hashes, or materializes rows sees
// the values a row vector would hold. No partition is ever held as a row
// vector: operators materialize rows only transiently (a narrow chain's
// input row, a join's output pair), and row vectors exist only at the
// bridge to the interpreter and when a result is collected.
#ifndef TRANCE_RUNTIME_DATASET_H_
#define TRANCE_RUNTIME_DATASET_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "runtime/column.h"
#include "runtime/field.h"
#include "runtime/schema.h"
#include "util/thread_pool.h"

namespace trance {
namespace runtime {

/// Partitioning guarantee of a dataset.
struct Partitioning {
  enum class Kind {
    kNone,  // no guarantee (fresh input or guarantee-dropping operator)
    kHash,  // hash-partitioned on `key_cols`
  };
  Kind kind = Kind::kNone;
  std::vector<int> key_cols;

  static Partitioning None() { return {}; }
  static Partitioning Hash(std::vector<int> cols) {
    return {Kind::kHash, std::move(cols)};
  }
  /// True when the guarantee covers hashing on `cols` in ANY order: the
  /// partitioner (RowHashOn) combines per-column hashes commutatively, so a
  /// dataset hashed on {a,b} places every row exactly where hashing on
  /// {b,a} would — a permuted key list needs no re-shuffle.
  ///
  /// This runs once per keyed operator, so the common short-key case (≤4
  /// columns) compares occurrence counts in place — no allocation, no sort.
  /// Counting (rather than membership tests) keeps duplicate-bearing lists
  /// correct: {1,1,2} is not a permutation of {1,2,2}.
  bool IsHashOn(const std::vector<int>& cols) const {
    if (kind != Kind::kHash || key_cols.size() != cols.size()) return false;
    if (key_cols == cols) return true;
    size_t n = cols.size();
    if (n <= 4) {
      for (size_t i = 0; i < n; ++i) {
        int needle = cols[i];
        int in_cols = 0, in_keys = 0;
        for (size_t j = 0; j < n; ++j) {
          in_cols += cols[j] == needle;
          in_keys += key_cols[j] == needle;
        }
        if (in_cols != in_keys) return false;
      }
      return true;
    }
    std::vector<int> a = key_cols;
    std::vector<int> b = cols;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b;
  }
};

struct Dataset {
  Schema schema;
  /// One resident typed block per partition.
  std::vector<column::PartitionBlock> parts;
  Partitioning partitioning;

  /// A dataset of `n` empty partitions typed by `schema`.
  static Dataset Empty(Schema schema, size_t n,
                       Partitioning partitioning = Partitioning::None()) {
    Dataset d;
    d.parts.assign(n, column::PartitionBlock(schema));
    d.schema = std::move(schema);
    d.partitioning = std::move(partitioning);
    return d;
  }

  size_t NumPartitions() const { return parts.size(); }
  size_t PartitionRowCount(size_t p) const { return parts[p].NumRows(); }
  Row RowAt(size_t p, size_t i) const { return parts[p].RowAt(i); }
  /// Partition p as a row vector (a copy; tests and result inspection).
  std::vector<Row> PartitionRows(size_t p) const { return parts[p].ToRows(); }
  /// Resets partition p to an empty schema-typed block (the reset of a
  /// discarded task attempt).
  void ClearPartition(size_t p) { parts[p] = column::PartitionBlock(schema); }

  size_t NumRows() const {
    size_t n = 0;
    for (const auto& b : parts) n += b.NumRows();
    return n;
  }
  /// Total deep-size footprint. `num_threads > 1` sizes partitions
  /// concurrently (per-partition slots summed in partition order, so the
  /// result is identical for any thread count).
  uint64_t DeepSizeBytes(int num_threads = 1) const {
    uint64_t s = 0;
    for (uint64_t b : PartitionBytes(num_threads)) s += b;
    return s;
  }
  /// Byte footprint of each partition: the blocks' Field accounting
  /// (TotalRowBytes, no row materialization), equal to the RowDeepSize sum
  /// of the same rows.
  std::vector<uint64_t> PartitionBytes(int num_threads = 1) const {
    std::vector<uint64_t> out(parts.size(), 0);
    util::ParallelFor(num_threads, out.size(), [&](size_t i) {
      out[i] = parts[i].TotalRowBytes();
    });
    return out;
  }
  /// All rows gathered into one vector, in partition order (result
  /// collection). `num_threads > 1` copies partitions concurrently into
  /// pre-computed offsets, so the output is identical for any thread count.
  std::vector<Row> Collect(int num_threads = 1) const {
    const size_t nparts = parts.size();
    std::vector<size_t> offsets(nparts + 1, 0);
    for (size_t i = 0; i < nparts; ++i) {
      offsets[i + 1] = offsets[i] + parts[i].NumRows();
    }
    std::vector<Row> out(offsets.back());
    util::ParallelFor(num_threads, nparts, [&](size_t i) {
      for (size_t r = 0; r < parts[i].NumRows(); ++r) {
        out[offsets[i] + r] = parts[i].RowAt(r);
      }
    });
    return out;
  }
};

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_DATASET_H_
