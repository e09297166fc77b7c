// Compact binary key codec: the one key representation every keyed runtime
// path shares (join build/probe, cogroup, nest, reduce-by-key, dedup, the
// skew sampler's heavy-key set, and hash partitioning).
//
// An EncodedKey is a type-tagged, length-prefixed byte string over the
// projected key columns plus the commutative key hash:
//
//   bytes:  per column, one tag byte followed by the value encoding
//           (see key_codec.cc for the exact layout; strings and label
//           parameter names are u32-length-prefixed, labels encode their
//           captured params recursively, bags encode their elements'
//           encodings in canonical — bytewise sorted — order);
//   hash:   identical to RowHashOn(row, cols) — the order-insensitive
//           per-column combine, so permuted key-column lists hash (and
//           therefore partition) identically, preserving the
//           Partitioning::IsHashOn reuse guarantee.
//
// Equality is memcmp over the bytes. Two keys encode byte-identically iff
// they are Field-equal AND Field-hash-equal per column (asserted by
// tests/key_codec_test.cc over randomized values, nested bags included):
// Field::operator== compares bags as multisets, and sorting the element
// encodings makes the bag encoding independent of element order.
//
// The encoder is total: every Field value, bags included, has an encoding.
#ifndef TRANCE_RUNTIME_KEY_CODEC_H_
#define TRANCE_RUNTIME_KEY_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/column.h"
#include "runtime/field.h"

namespace trance {
namespace runtime {
namespace key_codec {

/// An owning encoded key.
struct EncodedKey {
  uint64_t hash = 0;
  std::string bytes;
};

/// A non-owning view over an encoder's scratch buffer; valid until the next
/// Encode call on the same encoder. Probes use views so a lookup never
/// allocates.
struct EncodedKeyRef {
  uint64_t hash = 0;
  std::string_view bytes;
};

/// Materializes a view into an owning key (one allocation).
inline EncodedKey Materialize(const EncodedKeyRef& v) {
  return EncodedKey{v.hash, std::string(v.bytes)};
}

/// Encodes projected keys into a reusable scratch buffer. One encoder per
/// task/thread; not thread-safe. Tracks the cumulative bytes it encoded
/// (the stage's key_encode_bytes counter).
class KeyEncoder {
 public:
  /// Encodes row[cols] (in column-list order). The returned view aliases
  /// the internal buffer and is invalidated by the next Encode call.
  EncodedKeyRef Encode(const Row& row, const std::vector<int>& cols);

  /// Encodes every field of the row (full-row key, e.g. dedup).
  EncodedKeyRef EncodeRow(const Row& row);

  /// Encodes the `cols` cells of row i of a partition block. Int, real,
  /// bool and string cells are read from the typed arrays and hashed with
  /// AnyColumn::CellHash, so no Field is built; a variant cell (label, bag,
  /// date) is encoded from its stored Field. Byte- and hash-identical to
  /// Encode(block.RowAt(i), cols).
  EncodedKeyRef EncodeAt(const column::PartitionBlock& block, size_t i,
                         const std::vector<int>& cols);

  /// Incremental per-field API: Begin() resets the scratch buffer,
  /// Append(field) encodes one key column, Finish() seals and returns the
  /// view. The byte layout and hash are identical to Encode(row, cols) over
  /// the same fields in the same order.
  void Begin();
  void Append(const Field& f);
  EncodedKeyRef Finish();

  /// Total bytes of all encodings since construction.
  uint64_t bytes_encoded() const { return bytes_encoded_; }

 private:
  /// Append for cell i of a block column.
  void AppendCell(const column::AnyColumn& col, size_t i);

  std::string buf_;
  uint64_t hash_acc_ = 0;
  uint64_t bytes_encoded_ = 0;
};

}  // namespace key_codec
}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_KEY_CODEC_H_
