// Bulk operators over partitioned datasets — the physical algebra the plan
// language lowers to. Every operator records a StageStats on the cluster and
// enforces per-partition memory caps (ResourceExhausted == the paper's FAIL).
//
// Shuffle accounting is exact: a row contributes its DeepSize to
// shuffle_bytes only when it actually moves to a different partition, so an
// input that already carries the right partitioning guarantee shuffles
// nothing — mirroring how Spark partitioners avoid data movement (Section 3).
#ifndef TRANCE_RUNTIME_OPS_H_
#define TRANCE_RUNTIME_OPS_H_

#include <functional>
#include <string>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/dataset.h"
#include "runtime/stage_pipeline.h"
#include "util/status.h"

namespace trance {
namespace runtime {

// MapFn / FlatMapFn / PredFn live in runtime/stage_pipeline.h: the narrow
// operators below (MapRows, AddIndexColumn) are single-transform chains of
// the fused-stage runner, so the fused and standalone paths share one
// implementation. Other narrow operators run as RowTransform chains.

enum class JoinType { kInner, kLeftOuter };

/// Creates a dataset from local rows, distributed round-robin (no
/// partitioning guarantee — like a freshly read input). Each row is checked
/// against the schema: a row of another width, or a non-NULL value of
/// another kind in an int, real, bool or string column, is a TypeError
/// naming the source, the row and the column.
StatusOr<Dataset> Source(Cluster* cluster, Schema schema,
                         std::vector<Row> rows, const std::string& name);

/// Creates a dataset partitioned by `key_cols` (pre-partitioned input, e.g.
/// the materialized output of a previous query step). Rows are checked as
/// in Source; a key column outside the schema is Invalid.
StatusOr<Dataset> SourcePartitioned(Cluster* cluster, Schema schema,
                                    std::vector<Row> rows,
                                    std::vector<int> key_cols,
                                    const std::string& name);

/// Row-wise map; the output carries no partitioning guarantee.
StatusOr<Dataset> MapRows(Cluster* cluster, const Dataset& in,
                          Schema out_schema, const MapFn& fn,
                          const std::string& name);

/// Hash-shuffles `in` on `key_cols`. No-op (zero movement) when the guarantee
/// already holds.
StatusOr<Dataset> Repartition(Cluster* cluster, const Dataset& in,
                              std::vector<int> key_cols,
                              const std::string& name);

/// Shuffle hash join. Output columns: left columns then right columns
/// (right-side name collisions suffixed "__r"). Left-outer NULL-pads right
/// columns. Output is hash-partitioned on the left keys.
StatusOr<Dataset> HashJoin(Cluster* cluster, const Dataset& left,
                           const Dataset& right, std::vector<int> left_keys,
                           std::vector<int> right_keys, JoinType type,
                           const std::string& name);

/// Broadcast join: replicates `right` to every partition (its bytes count
/// num_partitions times toward the shuffle) and leaves `left` in place. Used
/// by the skew-aware operators on heavy keys.
StatusOr<Dataset> BroadcastJoin(Cluster* cluster, const Dataset& left,
                                const Dataset& right,
                                std::vector<int> left_keys,
                                std::vector<int> right_keys, JoinType type,
                                const std::string& name);

/// Nest (Gamma-union): groups on `key_cols` and collects the `value_cols`
/// projection of each row into a bag column `bag_col_name`.
///
/// NULL-to-empty-bag cast (the plan language's nest semantics for outer
/// operators): a row marking an outer miss contributes nothing to its
/// group's bag (a key with only misses keeps an *empty* bag). A miss is a
/// row whose `indicator_cols` are all NULL; when `indicator_cols` is empty,
/// the fallback rule is "all non-bag value columns NULL" (bag-valued columns
/// are never NULL — an empty inner bag does not by itself signal a miss).
StatusOr<Dataset> NestGroup(Cluster* cluster, const Dataset& in,
                            std::vector<int> key_cols,
                            std::vector<int> value_cols,
                            const std::string& bag_col_name,
                            const std::string& name,
                            std::vector<int> indicator_cols = {});

/// Extends each row with a unique int64 id column (prepended is not needed;
/// the id is appended). Partition-local, preserves partitioning.
StatusOr<Dataset> AddIndexColumn(Cluster* cluster, const Dataset& in,
                                 const std::string& id_col_name,
                                 const std::string& name);

/// Sum aggregate (Gamma-plus): groups on `key_cols`, sums `value_cols`.
/// NULL handling implements the plan language's outer-operator cast: a row
/// whose value columns are ALL NULL marks an outer miss — it creates its
/// group but contributes nothing, and a group with no real contribution
/// emits NULL values (so a downstream Gamma-union casts it to an empty bag).
/// A NULL among otherwise non-NULL values counts as 0.
/// `map_side_combine` pre-aggregates before the shuffle —
/// the mechanism that makes pushed aggregation cut shuffle volume.
StatusOr<Dataset> SumAggregate(Cluster* cluster, const Dataset& in,
                               std::vector<int> key_cols,
                               std::vector<int> value_cols,
                               bool map_side_combine, const std::string& name);

/// Output schema of an unnest / outer-unnest transform (RowTransform::Unnest
/// / OuterUnnest): the id column (when `id_col_name` is non-empty) then the
/// outer columns minus the bag column, then the bag's element columns
/// (collisions suffixed "__u"). Exposed so the fused-stage builder in
/// exec/lowering can derive chain schemas without materializing.
StatusOr<Schema> UnnestedSchema(const Schema& in, int bag_col,
                                const std::string& id_col_name);

/// Bag union of two datasets with identical schemas.
StatusOr<Dataset> UnionAll(Cluster* cluster, const Dataset& a,
                           const Dataset& b, const std::string& name);

/// Dedup: multiplicities to one (full-row key). Requires flat rows.
StatusOr<Dataset> Distinct(Cluster* cluster, const Dataset& in,
                           const std::string& name);

/// Cogroup (the join+nest fusion of Section 3): for each left row, attaches
/// the bag of `right_value_cols` projections of matching right rows as
/// `bag_col_name`. Avoids materializing the flattened join result.
StatusOr<Dataset> CoGroup(Cluster* cluster, const Dataset& left,
                          const Dataset& right, std::vector<int> left_keys,
                          std::vector<int> right_keys,
                          std::vector<int> right_value_cols,
                          const std::string& bag_col_name,
                          const std::string& name);

/// Gathers at most `limit` rows to the driver (result inspection).
std::vector<Row> Take(const Dataset& in, size_t limit);

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_OPS_H_
