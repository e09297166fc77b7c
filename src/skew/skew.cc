#include "skew/skew.h"

#include "util/hash.h"

namespace trance {
namespace skew {

using runtime::Cluster;
using runtime::Dataset;
using runtime::JoinType;
using runtime::Row;
using runtime::StageStats;
using runtime::column::PartitionBlock;
using runtime::flat_hash::FlatKeyIndex;

namespace key_codec = runtime::key_codec;

namespace {

/// Reusable per-thread scratch encoder for heavy-key probes.
key_codec::KeyEncoder& ProbeEncoder() {
  thread_local key_codec::KeyEncoder scratch;
  return scratch;
}

}  // namespace

bool HeavyKeySet::IsHeavy(const Row& row, const std::vector<int>& cols) const {
  if (empty()) return false;
  return keys.Find(ProbeEncoder().Encode(row, cols)) != FlatKeyIndex::kNotFound;
}

bool HeavyKeySet::IsHeavyAt(const PartitionBlock& block, size_t i,
                            const std::vector<int>& cols) const {
  if (empty()) return false;
  return keys.Find(ProbeEncoder().EncodeAt(block, i, cols)) !=
         FlatKeyIndex::kNotFound;
}

SkewTriple SkewTriple::AllLight(Dataset ds) {
  SkewTriple t;
  t.heavy = Dataset::Empty(ds.schema, ds.NumPartitions());
  t.light = std::move(ds);
  t.heavy_keys = std::nullopt;
  return t;
}

StatusOr<Dataset> MergeTriple(Cluster* cluster, const SkewTriple& t,
                              const std::string& name) {
  if (t.heavy.NumRows() == 0) return t.light;
  return runtime::UnionAll(cluster, t.light, t.heavy, name + ".merge");
}

HeavyKeySet DetectHeavyKeys(Cluster* cluster, const Dataset& in,
                            std::vector<int> key_cols) {
  const auto& cfg = cluster->config();
  HeavyKeySet out;
  out.key_cols = key_cols;
  // Deterministic pseudo-random sampling (hash-selected positions; a fixed
  // stride would alias with cyclic key layouts).
  uint64_t stride = cfg.skew_sample_rate <= 0
                        ? 1
                        : static_cast<uint64_t>(1.0 / cfg.skew_sample_rate);
  if (stride == 0) stride = 1;
  StageStats stage;
  stage.op = "heavy_keys";
  for (size_t p = 0; p < in.NumPartitions(); ++p) {
    const PartitionBlock& part = *in.parts[p];
    const size_t part_rows = part.NumRows();
    // Per-partition sample frequencies (each group's row count), keyed by
    // the sampled rows' encoded keys (read straight from the block;
    // unsampled rows are never read).
    runtime::flat_hash::KeyTable sample(&stage);
    size_t sampled = 0;
    for (size_t i = 0; i < part_rows; ++i) {
      if (Mix64((static_cast<uint64_t>(p) << 32) ^ i ^ cfg.seed) % stride !=
          0) {
        continue;
      }
      ++sampled;
      stage.rows_in++;
      sample.Add(part, i, key_cols);
    }
    if (sampled == 0) continue;
    size_t cutoff = static_cast<size_t>(cfg.heavy_key_threshold *
                                        static_cast<double>(sampled));
    if (cutoff < 2) cutoff = 2;
    for (uint32_t gi = 0; gi < sample.size(); ++gi) {
      if (sample.rows(gi) >= cutoff) out.keys.FindOrInsert(sample.KeyAt(gi));
    }
  }
  // The sampling pass is cheap but not free; account a small stage. The
  // heavy-key set itself is tiny (<= 100/threshold keys per partition) and is
  // broadcast to all workers.
  stage.shuffle_bytes =
      out.size() * 16 * static_cast<uint64_t>(cluster->num_partitions());
  stage.heavy_key_count = out.size();
  stage.movement = runtime::DataMovement::kBroadcast;
  cluster->RecordStage(std::move(stage));
  return out;
}

StatusOr<SkewTriple> SplitByHeavyKeys(Cluster* cluster, const Dataset& in,
                                      std::vector<int> key_cols,
                                      std::optional<HeavyKeySet> known,
                                      const std::string& name) {
  HeavyKeySet hk = known.has_value()
                       ? std::move(*known)
                       : DetectHeavyKeys(cluster, in, key_cols);
  const size_t n = in.NumPartitions();
  std::vector<PartitionBlock> light = runtime::EmptyBlocks(in.schema, n);
  std::vector<PartitionBlock> heavy = runtime::EmptyBlocks(in.schema, n);
  StageStats stage;
  stage.op = name + ".split";
  // Each partition lists its light and heavy rows, then gathers each list
  // column-to-column into its block; the key probe encodes straight from
  // the input block.
  for (size_t p = 0; p < n; ++p) {
    const PartitionBlock& src = *in.parts[p];
    const size_t part_rows = src.NumRows();
    std::vector<uint32_t> light_rows, heavy_rows;
    for (size_t i = 0; i < part_rows; ++i) {
      ++stage.rows_in;
      const bool is_heavy = hk.IsHeavyAt(src, i, key_cols);
      (is_heavy ? heavy_rows : light_rows).push_back(static_cast<uint32_t>(i));
    }
    light[p].AppendGather(src, light_rows.data(), light_rows.size());
    heavy[p].AppendGather(src, heavy_rows.data(), heavy_rows.size());
    stage.columnar_bytes += light[p].ByteFootprint() + heavy[p].ByteFootprint();
  }
  SkewTriple out;
  out.light = Dataset::FromBlocks(in.schema, std::move(light), in.partitioning);
  out.heavy = Dataset::FromBlocks(in.schema, std::move(heavy));
  stage.rows_out = stage.rows_in;
  stage.heavy_key_count = hk.size();
  cluster->RecordStage(std::move(stage));
  hk.key_cols = std::move(key_cols);
  out.heavy_keys = std::move(hk);
  return out;
}

StatusOr<SkewTriple> SkewAwareJoin(Cluster* cluster, const SkewTriple& left,
                                   const SkewTriple& right,
                                   std::vector<int> left_keys,
                                   std::vector<int> right_keys,
                                   JoinType type, const std::string& name) {
  // (X_L, X_H, hk) = X.heavyKeys(f): reuse the incoming key set when it was
  // computed on the same columns, otherwise merge and re-detect.
  SkewTriple x;
  if (left.heavy_keys.has_value() && left.heavy_keys->key_cols == left_keys) {
    x = left;
  } else {
    TRANCE_ASSIGN_OR_RETURN(Dataset merged,
                            MergeTriple(cluster, left, name + ".lhs"));
    TRANCE_ASSIGN_OR_RETURN(
        x, SplitByHeavyKeys(cluster, merged, left_keys, std::nullopt,
                            name + ".lhs"));
  }
  const HeavyKeySet& hk = *x.heavy_keys;

  // Y_L = Y.filter(!hk(g(y))); Y_H = Y.filter(hk(g(y))).
  TRANCE_ASSIGN_OR_RETURN(Dataset y, MergeTriple(cluster, right, name + ".rhs"));
  HeavyKeySet rhk = hk;
  rhk.key_cols = right_keys;
  TRANCE_ASSIGN_OR_RETURN(
      SkewTriple ysplit,
      SplitByHeavyKeys(cluster, y, right_keys, std::move(rhk), name + ".rhs"));

  TRANCE_ASSIGN_OR_RETURN(
      Dataset light, runtime::HashJoin(cluster, x.light, ysplit.light,
                                       left_keys, right_keys, type,
                                       name + ".light"));
  SkewTriple out;
  if (x.heavy.NumRows() == 0) {
    // Heavy output rows come only from left heavy rows: without any, the
    // broadcast join would record an empty stage.
    out.heavy = Dataset::Empty(light.schema, x.heavy.NumPartitions());
  } else {
    TRANCE_ASSIGN_OR_RETURN(
        out.heavy,
        runtime::BroadcastJoin(cluster, x.heavy, ysplit.heavy, left_keys,
                               right_keys, type, name + ".heavy"));
  }
  out.light = std::move(light);
  // Key columns keep their positions (left columns lead the join output).
  HeavyKeySet out_hk = hk;
  out_hk.key_cols = left_keys;
  out.heavy_keys = std::move(out_hk);
  return out;
}

StatusOr<SkewTriple> SkewAwareBagToDict(Cluster* cluster, const SkewTriple& in,
                                        int label_col,
                                        const std::string& name) {
  SkewTriple x;
  std::vector<int> cols{label_col};
  if (in.heavy_keys.has_value() && in.heavy_keys->key_cols == cols) {
    x = in;
  } else {
    TRANCE_ASSIGN_OR_RETURN(Dataset merged, MergeTriple(cluster, in, name));
    TRANCE_ASSIGN_OR_RETURN(
        x, SplitByHeavyKeys(cluster, merged, cols, std::nullopt, name));
  }
  // Light labels are repartitioned (restoring the label-based partitioning
  // guarantee); heavy labels stay distributed where they are.
  TRANCE_ASSIGN_OR_RETURN(
      Dataset light,
      runtime::Repartition(cluster, x.light, cols, name + ".light"));
  SkewTriple out;
  out.light = std::move(light);
  out.heavy = x.heavy;
  out.heavy_keys = x.heavy_keys;
  return out;
}

}  // namespace skew
}  // namespace trance
