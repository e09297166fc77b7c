// Flat open-addressing hash index over arena-stored encoded keys.
//
// PR 5 made every keyed operator produce contiguous, memcmp-comparable
// EncodedKey bytes precisely so the node-based std::unordered_map (one
// allocation plus a pointer chase per key) could be replaced by this table —
// the ClickHouse HashMap.h / Thrill design that keeps join/group-by build
// and probe on the memory bandwidth instead of the allocator:
//
//   - open addressing with linear probing over a power-of-two slot array
//     (bucket = SplitMix64(key hash) & mask, so weak low-bit entropy in the
//     commutative RowHashOn value cannot cluster probes);
//   - an append-only byte arena stores every distinct key's encoded bytes
//     inline; a slot is {hash, arena offset, key length, dense value index},
//     so an insert is one arena append (no node allocation) and a probe
//     memcmps the candidate's bytes against contiguous arena memory after a
//     64-bit hash pre-check;
//   - resize at 3/4 load doubles the slot array and reinserts by stored
//     hash — key bytes never move, so views into the arena stay valid;
//   - tombstone-free: the keyed operators only ever insert and look up
//     (there is no erase), which keeps probe chains contiguous forever.
//
// The table maps keys to dense uint32_t indices in first-insertion order —
// exactly the group-index idiom the operators already use — so one index
// type serves every consumer (join chains, cogroup bags, nest groups,
// reduce accumulators, dedup counts, the skew layer's heavy-key set) with
// values living in caller-side vectors. Because callers never iterate the
// table itself, internal ordering is unobservable and results stay
// a pure function of the insertion sequence. The keyed operators reach it
// through KeyTable (below), which encodes the keys and counts the stage's
// keyed telemetry; the heavy-key set uses the bare index for membership.
#ifndef TRANCE_RUNTIME_FLAT_HASH_H_
#define TRANCE_RUNTIME_FLAT_HASH_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "runtime/key_codec.h"
#include "runtime/stats.h"
#include "util/hash.h"

namespace trance {
namespace runtime {
namespace flat_hash {

class FlatKeyIndex {
 public:
  /// Sentinel returned by Find when the key is absent; also the largest
  /// dense index the table can hand out plus one.
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;

  FlatKeyIndex() = default;
  /// `expected` pre-sizes the slot array so the common build loop never
  /// resizes.
  explicit FlatKeyIndex(size_t expected) {
    if (expected > 0) Rehash(SlotCountFor(expected));
  }

  /// Returns {dense index, true} for a new key (its bytes are appended to
  /// the arena) or {existing index, false}. Indices are dense and assigned
  /// in first-insertion order: the i-th distinct key gets index i.
  std::pair<uint32_t, bool> FindOrInsert(const key_codec::EncodedKeyRef& k) {
    if (NeedsGrowth()) Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    const size_t mask = slots_.size() - 1;
    size_t b = static_cast<size_t>(SplitMix64(k.hash)) & mask;
    uint64_t dist = 0;
    while (true) {
      Slot& s = slots_[b];
      if (s.index == kEmptySlot) {
        uint32_t idx = static_cast<uint32_t>(keys_.size());
        s.hash = k.hash;
        s.offset = arena_.size();
        s.len = static_cast<uint32_t>(k.bytes.size());
        s.index = idx;
        arena_.append(k.bytes.data(), k.bytes.size());
        keys_.push_back(KeyRef{k.hash, s.offset, s.len});
        if (dist > max_probe_) max_probe_ = dist;
        return {idx, true};
      }
      if (SlotMatches(s, k)) {
        if (dist > max_probe_) max_probe_ = dist;
        return {s.index, false};
      }
      b = (b + 1) & mask;
      ++dist;
    }
  }

  /// Probe-only lookup; never allocates. Returns kNotFound when absent.
  uint32_t Find(const key_codec::EncodedKeyRef& k) const {
    if (slots_.empty()) return kNotFound;
    const size_t mask = slots_.size() - 1;
    size_t b = static_cast<size_t>(SplitMix64(k.hash)) & mask;
    uint64_t dist = 0;
    while (true) {
      const Slot& s = slots_[b];
      if (s.index == kEmptySlot) {
        if (dist > max_probe_) max_probe_ = dist;
        return kNotFound;
      }
      if (SlotMatches(s, k)) {
        if (dist > max_probe_) max_probe_ = dist;
        return s.index;
      }
      b = (b + 1) & mask;
      ++dist;
    }
  }

  /// The key of dense index i as a view into the arena (valid for the
  /// table's lifetime — the arena only appends).
  key_codec::EncodedKeyRef KeyAt(uint32_t index) const {
    const KeyRef& r = keys_[index];
    return key_codec::EncodedKeyRef{
        r.hash, std::string_view(arena_.data() + r.offset, r.len)};
  }

  size_t size() const { return keys_.size(); }

  /// Footprint of the table: slot array + arena bytes + dense key refs.
  /// Deterministic for a given insertion sequence (slot capacity is the
  /// power-of-two growth schedule, the arena holds exactly the distinct key
  /// bytes), so it is safe to gate exactly in bench_diff.
  uint64_t table_bytes() const {
    return static_cast<uint64_t>(slots_.size()) * sizeof(Slot) +
           static_cast<uint64_t>(arena_.size()) +
           static_cast<uint64_t>(keys_.size()) * sizeof(KeyRef);
  }
  /// Slot-array doublings performed after construction.
  uint64_t resizes() const { return resizes_; }
  /// Longest probe sequence (in extra slots past the home bucket) any
  /// insert or lookup walked.
  uint64_t max_probe_len() const { return max_probe_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint64_t offset = 0;
    uint32_t len = 0;
    uint32_t index = kEmptySlot;
  };
  struct KeyRef {
    uint64_t hash;
    uint64_t offset;
    uint32_t len;
  };
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;
  static constexpr size_t kMinSlots = 16;

  bool NeedsGrowth() const {
    // Max load factor 3/4: grow before the insert that would cross it.
    return slots_.empty() || (keys_.size() + 1) * 4 > slots_.size() * 3;
  }

  static size_t SlotCountFor(size_t expected) {
    size_t n = kMinSlots;
    while (expected * 4 > n * 3) n *= 2;
    return n;
  }

  bool SlotMatches(const Slot& s, const key_codec::EncodedKeyRef& k) const {
    return s.hash == k.hash && s.len == k.bytes.size() &&
           std::memcmp(arena_.data() + s.offset, k.bytes.data(), s.len) == 0;
  }

  void Rehash(size_t new_count) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_count, Slot{});
    if (!old.empty()) ++resizes_;
    const size_t mask = new_count - 1;
    for (const Slot& s : old) {
      if (s.index == kEmptySlot) continue;
      size_t b = static_cast<size_t>(SplitMix64(s.hash)) & mask;
      while (slots_[b].index != kEmptySlot) b = (b + 1) & mask;
      slots_[b] = s;
    }
  }

  std::vector<Slot> slots_;
  std::string arena_;          // all distinct keys' bytes, back to back
  std::vector<KeyRef> keys_;   // dense index -> key location (KeyAt)
  uint64_t resizes_ = 0;
  /// Mutable: Find is logically const but still feeds the probe-length
  /// telemetry (single-writer per table — tables are task-local).
  mutable uint64_t max_probe_ = 0;
};

/// A task-local keyed table: the one implementation of the keyed operators'
/// encode -> find-or-insert -> count protocol (join and cogroup builds and
/// probes, nest, reduce-by-key, dedup and heavy-key sampling). It owns a
/// FlatKeyIndex, the KeyEncoder that feeds it and each group's row count,
/// and it is the one writer of the seven keyed counters of the task's stats
/// slot: Add and Find count build rows, probe hits and the longest chain as
/// they go, and the destructor adds the encoded key bytes and the table's
/// footprint, resizes and longest probe, so no operator can forget them.
/// Slots are folded per partition in slot order after the stage barrier,
/// like every task-local counter.
class KeyTable {
 public:
  /// `expected` pre-sizes the index (a join sizes it for its build side).
  explicit KeyTable(StageStats* stats, size_t expected = 0)
      : stats_(stats), index_(expected) {}
  KeyTable(const KeyTable&) = delete;
  KeyTable& operator=(const KeyTable&) = delete;
  ~KeyTable() {
    stats_->key_encode_bytes += enc_.bytes_encoded();
    stats_->hash_table_bytes += index_.table_bytes();
    stats_->hash_resizes += index_.resizes();
    stats_->hash_probe_len_max =
        std::max(stats_->hash_probe_len_max, index_.max_probe_len());
  }

  /// Adds row i of `block`, keyed on its `cols` cells: returns the key's
  /// dense group and whether this row opened it. An opening row is a build
  /// row, any other a probe hit; either way the group's row count grows.
  std::pair<uint32_t, bool> Add(const column::PartitionBlock& block, size_t i,
                                const std::vector<int>& cols) {
    auto [g, opened] = index_.FindOrInsert(enc_.EncodeAt(block, i, cols));
    if (opened) {
      rows_.push_back(0);
      stats_->hash_build_rows++;
    } else {
      stats_->hash_probe_hits++;
    }
    stats_->hash_max_chain = std::max(stats_->hash_max_chain, ++rows_[g]);
    return {g, opened};
  }

  /// The group of row i's `cols` key, or FlatKeyIndex::kNotFound; a found
  /// key is a probe hit.
  uint32_t Find(const column::PartitionBlock& block, size_t i,
                const std::vector<int>& cols) {
    const uint32_t g = index_.Find(enc_.EncodeAt(block, i, cols));
    if (g != FlatKeyIndex::kNotFound) stats_->hash_probe_hits++;
    return g;
  }

  /// Number of groups.
  size_t size() const { return index_.size(); }
  /// Rows added under group g.
  uint64_t rows(uint32_t g) const { return rows_[g]; }
  /// Group g's encoded key (a view valid for the table's lifetime).
  key_codec::EncodedKeyRef KeyAt(uint32_t g) const { return index_.KeyAt(g); }

 private:
  StageStats* stats_;
  FlatKeyIndex index_;
  key_codec::KeyEncoder enc_;
  std::vector<uint64_t> rows_;  // group -> rows added
};

}  // namespace flat_hash
}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_FLAT_HASH_H_
