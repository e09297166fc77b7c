// Skew-resilient processing (Section 5).
//
// A skew-triple is (light bag, heavy bag, heavy-key set). Heavy keys are
// found by a lightweight per-partition sampling procedure: a key is heavy
// when at least `heavy_key_threshold` of a partition's sampled tuples carry
// it — the 2.5% threshold bounds the number of heavy keys at 40 per
// partition, keeping them cheap to broadcast.
//
// Skew-aware operators (Fig. 6):
//  - join: light parts use the standard shuffle join; the heavy part leaves
//    the big side in place and broadcasts the matching rows of the small
//    side;
//  - nest/aggregate: merge light and heavy and run the standard
//    implementation (returning an empty heavy component);
//  - BagToDict: repartition only light labels, leaving heavy labels where
//    they are.
#ifndef TRANCE_SKEW_SKEW_H_
#define TRANCE_SKEW_SKEW_H_

#include <optional>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/dataset.h"
#include "runtime/flat_hash.h"
#include "runtime/key_codec.h"
#include "runtime/ops.h"
#include "util/status.h"

namespace trance {
namespace skew {

/// The set of heavy keys of a dataset with respect to some key columns: a
/// FlatKeyIndex used purely for membership (dense values unused — one arena
/// holds every heavy key's encoded bytes, probes are memcmp against
/// contiguous memory). Probes encode through a reusable thread-local
/// scratch encoder, so a membership test allocates nothing.
struct HeavyKeySet {
  std::vector<int> key_cols;
  runtime::flat_hash::FlatKeyIndex keys;

  /// True when the row's projected key is in the heavy set.
  bool IsHeavy(const runtime::Row& row, const std::vector<int>& cols) const;
  /// IsHeavy over row i of a partition block, encoded from its arenas.
  bool IsHeavyAt(const runtime::column::PartitionBlock& block, size_t i,
                 const std::vector<int>& cols) const;
  bool empty() const { return keys.size() == 0; }
  size_t size() const { return keys.size(); }
};

/// A dataset split into light and heavy components. `heavy_keys` is the key
/// set that induced the split (nullopt when unknown / merged).
struct SkewTriple {
  runtime::Dataset light;
  runtime::Dataset heavy;
  std::optional<HeavyKeySet> heavy_keys;

  /// Wraps a plain dataset as an all-light triple with unknown keys.
  static SkewTriple AllLight(runtime::Dataset ds);

  size_t NumRows() const { return light.NumRows() + heavy.NumRows(); }
  const runtime::Schema& schema() const { return light.schema; }
};

/// Merges light and heavy back into one dataset (partition-wise concat; no
/// shuffle). With an empty heavy component it returns the light component,
/// whose blocks are shared, not copied.
StatusOr<runtime::Dataset> MergeTriple(runtime::Cluster* cluster,
                                       const SkewTriple& t,
                                       const std::string& name);

/// Samples each partition and returns the heavy keys of `in` on `key_cols`
/// per the cluster's skew_sample_rate / heavy_key_threshold.
HeavyKeySet DetectHeavyKeys(runtime::Cluster* cluster,
                            const runtime::Dataset& in,
                            std::vector<int> key_cols);

/// Splits a dataset into a triple by the given (or freshly detected) keys.
StatusOr<SkewTriple> SplitByHeavyKeys(runtime::Cluster* cluster,
                                      const runtime::Dataset& in,
                                      std::vector<int> key_cols,
                                      std::optional<HeavyKeySet> known,
                                      const std::string& name);

/// Fig. 6 skew-aware join. The left side is the (potentially skewed) big
/// side: its heavy keys drive the split; the matching heavy rows of `right`
/// are broadcast.
StatusOr<SkewTriple> SkewAwareJoin(runtime::Cluster* cluster,
                                   const SkewTriple& left,
                                   const SkewTriple& right,
                                   std::vector<int> left_keys,
                                   std::vector<int> right_keys,
                                   runtime::JoinType type,
                                   const std::string& name);

/// Fig. 6 skew-aware BagToDict: repartitions light labels, leaves heavy
/// labels in place, and returns the triple with the detected heavy label set.
StatusOr<SkewTriple> SkewAwareBagToDict(runtime::Cluster* cluster,
                                        const SkewTriple& in, int label_col,
                                        const std::string& name);

}  // namespace skew
}  // namespace trance

#endif  // TRANCE_SKEW_SKEW_H_
