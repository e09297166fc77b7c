// A Dataset is a partitioned distributed collection of rows, with the
// partitioning guarantee tracked the way Section 3 describes Spark
// partitioners: key-based (all rows with the same key on the same partition),
// inherited / preserved / dropped / redefined by operators.
//
// Every partition is resident as a typed column::PartitionBlock. Blocks are
// lossless — RowAt / RowBytesAt / HashRowOn observe the exact Field values
// that went in — so everything that sizes, hashes, or materializes rows sees
// the values a row vector would hold. A block keeps its byte total as rows
// are appended, so only the block knows how many bytes a partition holds.
// No partition is ever held as a row vector: keyed operators and narrow
// chains read typed cells and build their output column by column, rows are
// materialized only as nest and cogroup bag members, and row vectors exist
// only at the bridge to the interpreter and when a result is collected.
//
// Partitions are immutable and shared. A stage fills fresh blocks and then
// publishes them (Publish, Dataset::FromBlocks); from then on a block is
// held through a BlockPtr and never changes. Copying a Dataset copies
// pointers, so a scan, a merge of an all-light skew triple and a shuffle
// that reuses its input's partitioning hand on the same blocks. A stage that
// would change a partition (the spill-and-restore at the stage barrier)
// builds a new block and swaps the pointer.
#ifndef TRANCE_RUNTIME_DATASET_H_
#define TRANCE_RUNTIME_DATASET_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/column.h"
#include "runtime/field.h"
#include "runtime/schema.h"

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
  /// {b,a} would — a permuted key list needs no re-shuffle. Comparing the
  /// sorted lists keeps duplicate-bearing lists correct: {1,1,2} is not a
  /// permutation of {1,2,2}.
  bool IsHashOn(const std::vector<int>& cols) const {
    if (kind != Kind::kHash || key_cols.size() != cols.size()) return false;
    std::vector<int> a = key_cols;
    std::vector<int> b = cols;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b;
  }
};

/// A published partition: shared, and never changed again.
using BlockPtr = std::shared_ptr<const column::PartitionBlock>;

/// Publishes a freshly built block.
inline BlockPtr Publish(column::PartitionBlock block) {
  return std::make_shared<const column::PartitionBlock>(std::move(block));
}

/// `n` empty blocks typed by `schema`, for a stage to fill and publish.
inline std::vector<column::PartitionBlock> EmptyBlocks(const Schema& schema,
                                                       size_t n) {
  std::vector<column::PartitionBlock> blocks;
  blocks.reserve(n);
  for (size_t p = 0; p < n; ++p) blocks.emplace_back(schema);
  return blocks;
}

struct Dataset {
  Schema schema;
  /// One resident typed block per partition, shared with every copy of the
  /// dataset.
  std::vector<BlockPtr> parts;
  Partitioning partitioning;

  /// A dataset of `n` empty partitions typed by `schema`; they share one
  /// empty block.
  static Dataset Empty(Schema schema, size_t n,
                       Partitioning partitioning = Partitioning::None()) {
    Dataset d;
    d.parts.assign(n, Publish(column::PartitionBlock(schema)));
    d.schema = std::move(schema);
    d.partitioning = std::move(partitioning);
    return d;
  }
  /// A dataset of freshly built blocks, one per partition, published.
  static Dataset FromBlocks(Schema schema,
                            std::vector<column::PartitionBlock> blocks,
                            Partitioning partitioning = Partitioning::None()) {
    Dataset d;
    d.parts.reserve(blocks.size());
    for (auto& b : blocks) d.parts.push_back(Publish(std::move(b)));
    d.schema = std::move(schema);
    d.partitioning = std::move(partitioning);
    return d;
  }

  size_t NumPartitions() const { return parts.size(); }
  size_t PartitionRowCount(size_t p) const { return parts[p]->NumRows(); }
  Row RowAt(size_t p, size_t i) const { return parts[p]->RowAt(i); }
  /// Partition p as a row vector (a copy; tests and result inspection).
  std::vector<Row> PartitionRows(size_t p) const { return parts[p]->ToRows(); }

  size_t NumRows() const {
    size_t n = 0;
    for (const auto& b : parts) n += b->NumRows();
    return n;
  }
  /// Total deep-size footprint of every partition.
  uint64_t DeepSizeBytes() const {
    uint64_t s = 0;
    for (const auto& b : parts) s += b->TotalRowBytes();
    return s;
  }
  /// Byte footprint of each partition: the blocks' running Field accounting
  /// (TotalRowBytes), equal to the RowDeepSize sum of the same rows.
  std::vector<uint64_t> PartitionBytes() const {
    std::vector<uint64_t> out;
    out.reserve(parts.size());
    for (const auto& b : parts) out.push_back(b->TotalRowBytes());
    return out;
  }
  /// All rows gathered into one vector, in partition order (result
  /// collection).
  std::vector<Row> Collect() const {
    std::vector<Row> out;
    out.reserve(NumRows());
    for (const auto& b : parts) b->AppendRowsTo(&out);
    return out;
  }
};

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_DATASET_H_
