#include "runtime/ops.h"

#include <algorithm>

#include "runtime/flat_hash.h"
#include "util/hash.h"

namespace trance {
namespace runtime {

namespace {

using column::AnyColumn;
using column::PartitionBlock;
using flat_hash::FlatKeyIndex;
using flat_hash::KeyTable;
// Partition-task runner, stage barrier and work histogram shared with the
// fused-stage runner.
using detail::FinishStage;
using detail::RunPartitionTasks;
using detail::SetWork;

/// Accumulates `add` into `into[i]`, growing the histogram on first use (a
/// stage may run several shuffles, e.g. both sides of a join).
void AccumulateHistogram(std::vector<uint64_t>* into,
                         const std::vector<uint64_t>& add) {
  if (into->size() < add.size()) into->resize(add.size(), 0);
  for (size_t i = 0; i < add.size(); ++i) (*into)[i] += add[i];
}

bool HasNullKeyAt(const PartitionBlock& b, size_t i,
                  const std::vector<int>& cols) {
  for (int c : cols) {
    if (b.IsNull(i, static_cast<size_t>(c))) return true;
  }
  return false;
}

/// The `cols` cells of row i: the fields of a nest or cogroup bag member.
std::vector<Field> FieldsAt(const PartitionBlock& b, size_t i,
                            const std::vector<int>& cols) {
  std::vector<Field> out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(b.FieldAt(i, static_cast<size_t>(c)));
  return out;
}

/// Sum of the blocks' ByteFootprint (the columnar_bytes charge of blocks a
/// stage built).
uint64_t Footprint(const std::vector<PartitionBlock>& blocks) {
  uint64_t s = 0;
  for (const auto& b : blocks) s += b.ByteFootprint();
  return s;
}

/// Hash-shuffles `in` to num_partitions buckets keyed on key_cols, recording
/// exact cross-partition movement into `stage`, and returns the shuffled
/// partitions, published. Two-phase and partition-parallel:
///   1. each input partition routes its rows by target partition into its
///      own bucket blocks;
///   2. each target partition concatenates its buckets in fixed
///      input-partition order.
/// Phase 2's fixed order reproduces the sequential row order exactly, and
/// the movement histograms are derived from the bucket blocks' byte totals
/// in partition order at the phase-1 barrier — a bucket whose target is
/// another partition moved every byte and row it holds — so output and
/// stats are identical for any thread count.
///
/// Shuffles move columns, not rows: the map side routes cells block-to-block
/// straight out of the resident input block (HashRowOn == RowHashOn), and
/// the fetch side concatenates the per-target buckets into the resident
/// output block.
///
/// Fault model: phase-1 (map side) tasks read only the immutable input, so a
/// crash fault re-runs them after discarding the partition's buckets.
/// Phase 2 (fetch side) only reads the buckets, so it runs through
/// RunPartitionTasks like every stage that builds a Dataset: a crashed
/// attempt's output block is replaced by an empty one and the retry
/// re-fetches.
StatusOr<std::vector<BlockPtr>> ShuffleByKey(
    Cluster* cluster, const Dataset& in, const std::vector<int>& key_cols,
    StageStats* stage) {
  const size_t n = static_cast<size_t>(cluster->num_partitions());
  const size_t in_n = in.NumPartitions();

  std::vector<std::vector<PartitionBlock>> buckets(in_n);  // [source][target]
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      stage->op + ".shuffle_map", in_n, stage,
      [&](size_t p) {
        std::vector<PartitionBlock>& b = buckets[p];
        b = EmptyBlocks(in.schema, n);
        const PartitionBlock& src = *in.parts[p];
        const size_t rows = src.NumRows();
        for (size_t i = 0; i < rows; ++i) {
          size_t target = static_cast<size_t>(
              cluster->PartitionOf(src.HashRowOn(i, key_cols)));
          b[target].AppendRowFrom(src, i);
        }
      },
      [&](size_t p) { buckets[p].clear(); }));

  std::vector<uint64_t> recv(n, 0);
  std::vector<uint64_t> send(std::max(in_n, n), 0);
  uint64_t moved_rows = 0;
  uint64_t moved_bytes = 0;
  for (size_t p = 0; p < in_n; ++p) {
    stage->columnar_bytes += Footprint(buckets[p]);
    for (size_t t = 0; t < n; ++t) {
      if (t == p) continue;
      const PartitionBlock& bucket = buckets[p][t];
      const uint64_t bytes = bucket.TotalRowBytes();
      send[p] += bytes;
      recv[t] += bytes;
      moved_rows += bucket.NumRows();
    }
    moved_bytes += send[p];
  }
  stage->shuffle_bytes += moved_bytes;

  Dataset out = Dataset::Empty(in.schema, n);
  TRANCE_RETURN_NOT_OK(RunPartitionTasks(
      cluster, stage->op + ".shuffle_fetch", stage, &out,
      [&](size_t t, PartitionBlock* dst, StageStats*) {
        for (size_t p = 0; p < in_n; ++p) {
          const PartitionBlock& src = buckets[p][t];
          const size_t rows = src.NumRows();
          for (size_t i = 0; i < rows; ++i) dst->AppendRowFrom(src, i);
        }
      }));

  for (uint64_t b : recv) {
    if (b > stage->max_partition_recv_bytes) {
      stage->max_partition_recv_bytes = b;
    }
  }
  stage->movement = DataMovement::kShuffle;
  AccumulateHistogram(&stage->partition_recv_bytes, recv);
  AccumulateHistogram(&stage->partition_send_bytes, send);
  // Driver-side (post-barrier) log of what this shuffle moved; the bytes
  // are the stage's shuffle_bytes, the rows are only logged here.
  obs::EventLog& log = obs::GlobalEventLog();
  if (log.enabled()) {
    obs::Event(&log, "shuffle")
        .U64("job", cluster->current_job_id())
        .Str("op", stage->op)
        .Str("movement", "shuffle")
        .U64("rows_moved", moved_rows)
        .U64("bytes", moved_bytes)
        .U64("partitions", n)
        .Emit();
  }
  return std::move(out.parts);
}

/// Shuffle path of operators that group/join on `key_cols`: shares the
/// input partitions (zero movement) when the guarantee already holds,
/// otherwise hash-shuffles.
StatusOr<std::vector<BlockPtr>> ShuffleOrReuse(
    Cluster* cluster, const Dataset& in, const std::vector<int>& key_cols,
    StageStats* stage) {
  if (in.partitioning.IsHashOn(key_cols)) return in.parts;
  return ShuffleByKey(cluster, in, key_cols, stage);
}

/// Output schema of a join: left columns then right columns, right-side
/// collisions suffixed "__r".
Schema JoinSchema(const Schema& l, const Schema& r) {
  Schema out = l;
  for (const auto& c : r.columns()) {
    std::string name = c.name;
    while (out.IndexOf(name) >= 0) name += "__r";
    out.Append({name, c.type});
  }
  return out;
}

/// The group of row i's `cols` key in `table`, or kNotFound when the key
/// holds a NULL: a join or cogroup matches no NULL key.
uint32_t FindNonNull(KeyTable* table, const PartitionBlock& b, size_t i,
                     const std::vector<int>& cols) {
  return HasNullKeyAt(b, i, cols) ? FlatKeyIndex::kNotFound
                                  : table->Find(b, i, cols);
}

/// Partition-local hash join of `left` against the build block `right`,
/// appending the output rows to `out`; keyed telemetry goes to *ks. The
/// table maps each key to a dense chain of row offsets into the build block
/// and is pre-sized for the build side. Each output pair is copied column by
/// column from the two blocks; a left-outer miss gets NULL in every right
/// column.
void LocalJoin(const PartitionBlock& left, const PartitionBlock& right,
               const std::vector<int>& lk, const std::vector<int>& rk,
               JoinType type, PartitionBlock* out, StageStats* ks) {
  const size_t rn = right.NumRows();
  KeyTable built(ks, rn);
  std::vector<std::vector<uint32_t>> chains;
  chains.reserve(rn);
  for (size_t i = 0; i < rn; ++i) {
    if (HasNullKeyAt(right, i, rk)) continue;
    auto [gi, opened] = built.Add(right, i, rk);
    if (opened) chains.emplace_back();
    chains[gi].push_back(static_cast<uint32_t>(i));
  }
  const size_t ln = left.NumRows();
  for (size_t j = 0; j < ln; ++j) {
    const uint32_t gi = FindNonNull(&built, left, j, lk);
    if (gi != FlatKeyIndex::kNotFound) {
      for (uint32_t ri : chains[gi]) out->AppendPairFrom(left, j, &right, ri);
    } else if (type == JoinType::kLeftOuter) {
      out->AppendPairFrom(left, j, nullptr, 0);
    }
  }
}

/// Checks row i of source `op` before it enters `block`, a block of `schema`:
/// the schema's width, and a value each typed column accepts. Rows come from
/// outside the engine, so a mismatch is a TypeError naming the source, the
/// row and the column.
Status CheckSourceRow(const std::string& op, size_t i, const Row& row,
                      const Schema& schema, const PartitionBlock& block) {
  const size_t width = schema.size(), got = row.fields.size();
  auto reject = [&](const std::string& what) {
    return Status::TypeError(op + ": row " + std::to_string(i) + " " + what);
  };
  if (got != width) {
    std::string what = "has " + std::to_string(got) + " fields where " +
                       schema.ToString() + " has " + std::to_string(width);
    if (got < width) {
      what += ": column '" + schema.col(got).name + "' is missing";
    } else if (width > 0) {
      what += ": field " + std::to_string(width) +
              " is past the last column '" + schema.col(width - 1).name + "'";
    }
    return reject(what);
  }
  for (size_t c = 0; c < width; ++c) {
    if (!block.col(c).Accepts(row.fields[c])) {
      const Column& col = schema.col(c);
      return reject("column '" + col.name + "' declared " +
                    col.type->ToString() + " cannot hold " +
                    row.fields[c].ToString());
    }
  }
  return Status::OK();
}

/// Checks that every index in `cols`, operator `op`'s `list` column list,
/// names a column of `schema`. The operators take column indices from their
/// callers, so a bad index is Invalid naming the operator, the list, the
/// index and the schema, before it can reach a block.
Status CheckColumns(const std::string& op, const std::string& list,
                    const std::vector<int>& cols, const Schema& schema) {
  for (int c : cols) {
    if (c < 0 || static_cast<size_t>(c) >= schema.size()) {
      return Status::Invalid(op + ": " + list + " column " +
                             std::to_string(c) + " is not a column of " +
                             schema.ToString());
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<Dataset> Source(Cluster* cluster, Schema schema,
                         std::vector<Row> rows, const std::string& name) {
  const size_t n = static_cast<size_t>(cluster->num_partitions());
  const std::string op = "source(" + name + ")";
  // Sources land block-resident: the driver checks each row against the
  // schema and appends it to its round-robin partition block, so downstream
  // stages start from columns. Driver-sequential, so the footprint charge is
  // thread-count-invariant.
  std::vector<PartitionBlock> blocks = EmptyBlocks(schema, n);
  for (size_t i = 0; i < rows.size(); ++i) {
    PartitionBlock& block = blocks[i % n];
    TRANCE_RETURN_NOT_OK(CheckSourceRow(op, i, rows[i], schema, block));
    block.AppendRow(rows[i]);
  }
  StageStats stage;
  stage.op = op;
  stage.columnar_bytes = Footprint(blocks);
  Dataset ds = Dataset::FromBlocks(std::move(schema), std::move(blocks));
  // Inputs are pre-cached ("runtime starts after caching all inputs"): they
  // are not charged against the per-partition memory cap.
  stage.rows_in = ds.NumRows();
  stage.rows_out = ds.NumRows();
  cluster->RecordStage(std::move(stage));
  return ds;
}

StatusOr<Dataset> SourcePartitioned(Cluster* cluster, Schema schema,
                                    std::vector<Row> rows,
                                    std::vector<int> key_cols,
                                    const std::string& name) {
  const size_t n = static_cast<size_t>(cluster->num_partitions());
  const std::string op = "source_partitioned(" + name + ")";
  TRANCE_RETURN_NOT_OK(CheckColumns(op, "key", key_cols, schema));
  std::vector<PartitionBlock> blocks = EmptyBlocks(schema, n);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    TRANCE_RETURN_NOT_OK(CheckSourceRow(op, i, row, schema, blocks[0]));
    int target = cluster->PartitionOf(RowHashOn(row, key_cols));
    blocks[static_cast<size_t>(target)].AppendRow(row);
  }
  StageStats stage;
  stage.op = op;
  stage.columnar_bytes = Footprint(blocks);
  Dataset ds = Dataset::FromBlocks(std::move(schema), std::move(blocks),
                                   Partitioning::Hash(std::move(key_cols)));
  stage.rows_in = ds.NumRows();
  stage.rows_out = ds.NumRows();
  cluster->RecordStage(std::move(stage));
  return ds;
}

StatusOr<Dataset> Repartition(Cluster* cluster, const Dataset& in,
                              std::vector<int> key_cols,
                              const std::string& name) {
  TRANCE_RETURN_NOT_OK(CheckColumns(name, "key", key_cols, in.schema));
  StageStats stage;
  stage.op = name;
  stage.rows_in = in.NumRows();
  Dataset out;
  out.schema = in.schema;
  // The shuffled (or shared) partitions ARE the output.
  TRANCE_ASSIGN_OR_RETURN(out.parts,
                          ShuffleOrReuse(cluster, in, key_cols, &stage));
  out.partitioning = Partitioning::Hash(std::move(key_cols));
  SetWork(&stage, out.NumPartitions(),
          [&](size_t p) { return out.parts[p]->TotalRowBytes(); });
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name));
  return out;
}

StatusOr<Dataset> HashJoin(Cluster* cluster, const Dataset& left,
                           const Dataset& right, std::vector<int> left_keys,
                           std::vector<int> right_keys, JoinType type,
                           const std::string& name) {
  TRANCE_RETURN_NOT_OK(CheckColumns(name, "left key", left_keys, left.schema));
  TRANCE_RETURN_NOT_OK(
      CheckColumns(name, "right key", right_keys, right.schema));
  StageStats stage;
  stage.op = name;
  stage.rows_in = left.NumRows() + right.NumRows();
  TRANCE_ASSIGN_OR_RETURN(std::vector<BlockPtr> lsp,
                          ShuffleOrReuse(cluster, left, left_keys, &stage));
  TRANCE_ASSIGN_OR_RETURN(std::vector<BlockPtr> rsp,
                          ShuffleOrReuse(cluster, right, right_keys, &stage));

  const size_t nparts = lsp.size();
  Dataset out = Dataset::Empty(JoinSchema(left.schema, right.schema), nparts);
  TRANCE_RETURN_NOT_OK(RunPartitionTasks(
      cluster, name, &stage, &out,
      [&](size_t p, PartitionBlock* dst, StageStats* ks) {
        LocalJoin(*lsp[p], *rsp[p], left_keys, right_keys, type, dst, ks);
      }));
  SetWork(&stage, nparts, [&](size_t p) {
    return lsp[p]->TotalRowBytes() + rsp[p]->TotalRowBytes() +
           out.parts[p]->TotalRowBytes();
  });
  out.partitioning = Partitioning::Hash(std::move(left_keys));
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name));
  return out;
}

StatusOr<Dataset> BroadcastJoin(Cluster* cluster, const Dataset& left,
                                const Dataset& right,
                                std::vector<int> left_keys,
                                std::vector<int> right_keys, JoinType type,
                                const std::string& name) {
  TRANCE_RETURN_NOT_OK(CheckColumns(name, "left key", left_keys, left.schema));
  TRANCE_RETURN_NOT_OK(
      CheckColumns(name, "right key", right_keys, right.schema));
  StageStats stage;
  stage.op = name;
  stage.rows_in = left.NumRows() + right.NumRows();
  // The broadcast replicates the right side to every partition, as one
  // block: right's partitions concatenated in partition order, built once
  // on the driver and read by every partition's hash build. The blocks'
  // byte totals give the movement accounting and the send histogram.
  PartitionBlock bcast(right.schema);
  for (const auto& part : right.parts) {
    for (size_t i = 0; i < part->NumRows(); ++i) bcast.AppendRowFrom(*part, i);
  }
  stage.columnar_bytes += bcast.ByteFootprint();
  const uint64_t bcast_bytes = bcast.TotalRowBytes();
  const uint64_t n = static_cast<uint64_t>(cluster->num_partitions());
  stage.shuffle_bytes += bcast_bytes * n;
  stage.max_partition_recv_bytes =
      std::max(stage.max_partition_recv_bytes, bcast_bytes);
  stage.movement = DataMovement::kBroadcast;
  {
    obs::EventLog& log = obs::GlobalEventLog();
    if (log.enabled()) {
      obs::Event(&log, "shuffle")
          .U64("job", cluster->current_job_id())
          .Str("op", name)
          .Str("movement", "broadcast")
          .U64("rows_moved", static_cast<uint64_t>(bcast.NumRows()) * n)
          .U64("bytes", bcast_bytes * n)
          .U64("partitions", n)
          .Emit();
    }
  }
  // Every partition receives the full broadcast; each source partition sends
  // its resident right-side rows to all n partitions.
  AccumulateHistogram(&stage.partition_recv_bytes,
                      std::vector<uint64_t>(static_cast<size_t>(n),
                                            bcast_bytes));
  {
    std::vector<uint64_t> send(right.NumPartitions(), 0);
    for (size_t p = 0; p < right.NumPartitions(); ++p) {
      send[p] = right.parts[p]->TotalRowBytes() * n;
    }
    AccumulateHistogram(&stage.partition_send_bytes, send);
  }

  const size_t nparts = left.NumPartitions();
  Dataset out = Dataset::Empty(JoinSchema(left.schema, right.schema), nparts);
  TRANCE_RETURN_NOT_OK(RunPartitionTasks(
      cluster, name, &stage, &out,
      [&](size_t p, PartitionBlock* dst, StageStats* ks) {
        LocalJoin(*left.parts[p], bcast, left_keys, right_keys, type, dst, ks);
      }));
  SetWork(&stage, nparts, [&](size_t p) {
    return left.parts[p]->TotalRowBytes() + bcast_bytes +
           out.parts[p]->TotalRowBytes();
  });
  // Left rows did not move: the left guarantee (if any) is preserved.
  out.partitioning = left.partitioning;
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name));
  return out;
}

StatusOr<Dataset> NestGroup(Cluster* cluster, const Dataset& in,
                            std::vector<int> key_cols,
                            std::vector<int> value_cols,
                            const std::string& bag_col_name,
                            const std::string& name,
                            std::vector<int> indicator_cols) {
  TRANCE_RETURN_NOT_OK(CheckColumns(name, "key", key_cols, in.schema));
  TRANCE_RETURN_NOT_OK(CheckColumns(name, "value", value_cols, in.schema));
  TRANCE_RETURN_NOT_OK(
      CheckColumns(name, "indicator", indicator_cols, in.schema));
  // Fallback miss rule: all non-bag value columns NULL.
  std::vector<int> miss_cols = indicator_cols;
  if (miss_cols.empty()) {
    for (int c : value_cols) {
      const auto& t = in.schema.col(static_cast<size_t>(c)).type;
      if (t == nullptr || !t->is_bag()) miss_cols.push_back(c);
    }
  }
  StageStats stage;
  stage.op = name;
  stage.rows_in = in.NumRows();
  TRANCE_ASSIGN_OR_RETURN(std::vector<BlockPtr> sp,
                          ShuffleOrReuse(cluster, in, key_cols, &stage));

  Schema out_schema;
  for (int c : key_cols) {
    out_schema.Append(in.schema.col(static_cast<size_t>(c)));
  }
  std::vector<nrc::Field> bag_fields;
  for (int c : value_cols) {
    const auto& col = in.schema.col(static_cast<size_t>(c));
    bag_fields.push_back({col.name, col.type});
  }
  out_schema.Append(
      {bag_col_name, nrc::Type::Bag(nrc::Type::Tuple(std::move(bag_fields)))});

  const size_t nparts = sp.size();
  Dataset out = Dataset::Empty(std::move(out_schema), nparts);
  auto nest_task = [&](size_t p, PartitionBlock* dst, StageStats* slot) {
    // Groups are (the row that created the group, members), in first-seen
    // order; members project straight from the block's arenas.
    const PartitionBlock& src = *sp[p];
    std::vector<size_t> first;              // per group: its first row
    std::vector<std::vector<Row>> members;  // per group: its bag
    KeyTable groups(slot);
    const size_t rows = src.NumRows();
    for (size_t i = 0; i < rows; ++i) {
      auto [gi, opened] = groups.Add(src, i, key_cols);
      if (opened) {
        first.push_back(i);
        members.emplace_back();
      }
      // NULL-to-empty-bag cast: a miss row marks a key with no inner
      // elements (outer join/unnest miss); it creates the group only.
      bool miss = !miss_cols.empty();
      for (int c : miss_cols) {
        if (!src.IsNull(i, static_cast<size_t>(c))) {
          miss = false;
          break;
        }
      }
      if (!miss) members[gi].push_back(Row(FieldsAt(src, i, value_cols)));
    }
    // Key cells copy column-wise from each group's first row.
    dst->AppendColumns(first.size(), [&](size_t c, AnyColumn* col) {
      if (c < key_cols.size()) {
        const AnyColumn& from = src.col(static_cast<size_t>(key_cols[c]));
        for (size_t i : first) col->AppendFrom(from, i);
        return;
      }
      for (auto& bag : members) col->Append(Field::Bag(std::move(bag)));
    });
  };
  TRANCE_RETURN_NOT_OK(
      RunPartitionTasks(cluster, name, &stage, &out, nest_task));
  SetWork(&stage, nparts, [&](size_t p) {
    return sp[p]->TotalRowBytes() + out.parts[p]->TotalRowBytes();
  });
  std::vector<int> out_keys;
  for (int i = 0; i < static_cast<int>(key_cols.size()); ++i) {
    out_keys.push_back(i);
  }
  out.partitioning = Partitioning::Hash(std::move(out_keys));
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name));
  return out;
}

StatusOr<Dataset> AddIndexColumn(Cluster* cluster, const Dataset& in,
                                 const std::string& id_col_name,
                                 const std::string& name) {
  Schema out_schema = in.schema;
  out_schema.Append({id_col_name, nrc::Type::Int()});
  return RunStagePipeline(cluster, in,
                          {RowTransform::AddIndex(name, std::move(out_schema))},
                          in.partitioning, name);
}

StatusOr<Dataset> SumAggregate(Cluster* cluster, const Dataset& in,
                               std::vector<int> key_cols,
                               std::vector<int> value_cols,
                               bool map_side_combine,
                               const std::string& name) {
  TRANCE_RETURN_NOT_OK(CheckColumns(name, "key", key_cols, in.schema));
  TRANCE_RETURN_NOT_OK(CheckColumns(name, "value", value_cols, in.schema));
  StageStats stage;
  stage.op = name;
  stage.rows_in = in.NumRows();

  Schema out_schema;
  for (int c : key_cols) {
    out_schema.Append(in.schema.col(static_cast<size_t>(c)));
  }
  // Sums read the typed arrays, so each value column must be declared int
  // or real (the typechecker's sumBy rule: a date column is stored as int64
  // but is not numeric); an int column sums into an int column, a real one
  // into a real.
  std::vector<bool> is_int;
  for (int c : value_cols) {
    const auto& col = in.schema.col(static_cast<size_t>(c));
    if (col.type == nullptr || !col.type->is_numeric()) {
      return Status::TypeError(
          name + ": value column " + std::to_string(c) + " '" + col.name +
          "' is " + (col.type == nullptr ? "untyped" : col.type->ToString()) +
          ", not int or real");
    }
    out_schema.Append(col);
    is_int.push_back(AnyColumn::KindForType(col.type) ==
                     AnyColumn::Kind::kInt64);
  }

  std::vector<int> partial_keys;
  for (int i = 0; i < static_cast<int>(key_cols.size()); ++i) {
    partial_keys.push_back(i);
  }
  const size_t nk = key_cols.size(), nv = value_cols.size();

  // Local aggregation of one partition block into (key, sums) rows appended
  // to `dst`. A row whose value fields are all NULL marks an outer miss: it
  // creates the group but contributes nothing; groups with no contribution
  // emit NULL values. Groups keep the key cells of the first row that
  // created them, in first-seen order.
  // Reads only its arguments and the (const) captured column metadata, so
  // the partition-parallel loops below may share it.
  auto aggregate = [&](const PartitionBlock& src, bool rows_are_partial,
                       StageStats* ks, PartitionBlock* dst) {
    const std::vector<int>& cols = rows_are_partial ? partial_keys : key_cols;
    std::vector<const AnyColumn*> vals;
    for (size_t vi = 0; vi < nv; ++vi) {
      vals.push_back(&src.col(rows_are_partial
                                  ? nk + vi
                                  : static_cast<size_t>(value_cols[vi])));
    }
    std::vector<size_t> first;  // per group: its first row
    std::vector<double> sums;   // group g's sums at [g * nv, (g + 1) * nv)
    std::vector<bool> seen;     // per group: some row contributed
    KeyTable groups(ks);
    const size_t rows = src.NumRows();
    for (size_t i = 0; i < rows; ++i) {
      auto [gi, opened] = groups.Add(src, i, cols);
      if (opened) {
        first.push_back(i);
        sums.resize(sums.size() + nv, 0.0);
        seen.push_back(false);
      }
      bool all_null = nv > 0;
      for (const AnyColumn* v : vals) {
        if (!v->IsNull(i)) all_null = false;
      }
      if (all_null) continue;  // miss marker: group exists, no contribution
      seen[gi] = true;
      double* acc = sums.data() + gi * nv;
      for (size_t vi = 0; vi < nv; ++vi) {
        const AnyColumn& v = *vals[vi];
        if (v.IsNull(i)) continue;  // a lone NULL casts to 0
        acc[vi] += is_int[vi] ? static_cast<double>(v.ints()[i]) : v.reals()[i];
      }
    }
    dst->AppendColumns(first.size(), [&](size_t c, AnyColumn* col) {
      if (c < nk) {
        const AnyColumn& from = src.col(static_cast<size_t>(cols[c]));
        for (size_t i : first) col->AppendFrom(from, i);
        return;
      }
      const size_t vi = c - nk;
      for (size_t g = 0; g < first.size(); ++g) {
        if (!seen[g]) {
          col->AppendNull();
        } else if (is_int[vi]) {
          col->AppendInt64(static_cast<int64_t>(sums[g * nv + vi]));
        } else {
          col->AppendReal(sums[g * nv + vi]);
        }
      }
    });
  };

  const size_t in_parts = in.NumPartitions();
  Dataset partial = Dataset::Empty(out_schema, in_parts);
  if (map_side_combine) {
    TRANCE_RETURN_NOT_OK(RunPartitionTasks(
        cluster, name + ".combine", &stage, &partial,
        [&](size_t p, PartitionBlock* dst, StageStats* ks) {
          aggregate(*in.parts[p], false, ks, dst);
        }));
  } else {
    // Reshape rows to (key, value) layout without combining: every cell
    // copies column-wise from the input block. NULLs pass through so the
    // final aggregation pass can apply the miss-marker rule uniformly.
    std::vector<int> reshape = key_cols;
    reshape.insert(reshape.end(), value_cols.begin(), value_cols.end());
    TRANCE_RETURN_NOT_OK(RunPartitionTasks(
        cluster, name + ".reshape", &stage, &partial,
        [&](size_t p, PartitionBlock* dst, StageStats*) {
          const PartitionBlock& src = *in.parts[p];
          const size_t rows = src.NumRows();
          dst->AppendColumns(rows, [&](size_t c, AnyColumn* col) {
            const AnyColumn& from = src.col(static_cast<size_t>(reshape[c]));
            for (size_t i = 0; i < rows; ++i) col->AppendFrom(from, i);
          });
        }));
  }
  partial.partitioning = in.partitioning.IsHashOn(key_cols)
                             ? Partitioning::Hash(partial_keys)
                             : Partitioning::None();

  TRANCE_ASSIGN_OR_RETURN(std::vector<BlockPtr> sp,
                          ShuffleOrReuse(cluster, partial, partial_keys,
                                         &stage));

  const size_t nparts = sp.size();
  Dataset out = Dataset::Empty(std::move(out_schema), nparts);
  TRANCE_RETURN_NOT_OK(RunPartitionTasks(
      cluster, name, &stage, &out,
      [&](size_t p, PartitionBlock* dst, StageStats* ks) {
        aggregate(*sp[p], true, ks, dst);
      }));
  // The pre-shuffle pass charges its input (and, combining, its partial
  // rows); the final pass charges its input and output.
  SetWork(&stage, in_parts, [&](size_t p) {
    uint64_t w = in.parts[p]->TotalRowBytes();
    if (map_side_combine) w += partial.parts[p]->TotalRowBytes();
    if (p < nparts) {
      w += sp[p]->TotalRowBytes() + out.parts[p]->TotalRowBytes();
    }
    return w;
  });
  out.partitioning = Partitioning::Hash(partial_keys);
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name));
  return out;
}

StatusOr<Schema> UnnestedSchema(const Schema& in, int bag_col,
                                const std::string& id_col_name) {
  TRANCE_RETURN_NOT_OK(CheckColumns("unnest", "bag", {bag_col}, in));
  const auto& bag_type = in.col(static_cast<size_t>(bag_col)).type;
  if (bag_type == nullptr || !bag_type->is_bag()) {
    return Status::TypeError("unnest on non-bag column " +
                             in.col(static_cast<size_t>(bag_col)).name);
  }
  TRANCE_ASSIGN_OR_RETURN(Schema inner, Schema::FromBagType(bag_type));
  Schema out;
  if (!id_col_name.empty()) {
    out.Append({id_col_name, nrc::Type::Int()});
  }
  for (size_t i = 0; i < in.size(); ++i) {
    if (static_cast<int>(i) == bag_col) continue;
    out.Append(in.col(i));
  }
  for (const auto& c : inner.columns()) {
    std::string name = c.name;
    while (out.IndexOf(name) >= 0) name += "__u";
    out.Append({name, c.type});
  }
  return out;
}

StatusOr<Dataset> UnionAll(Cluster* cluster, const Dataset& a,
                           const Dataset& b, const std::string& name) {
  if (a.schema.size() != b.schema.size()) {
    return Status::TypeError("union of schemas with different widths");
  }
  for (size_t c = 0; c < a.schema.size(); ++c) {
    const auto ka = column::AnyColumn::KindForType(a.schema.col(c).type);
    const auto kb = column::AnyColumn::KindForType(b.schema.col(c).type);
    if (ka != kb) {
      return Status::TypeError(
          name + ": column " + std::to_string(c) + " '" +
          a.schema.col(c).name + "' is " + column::AnyColumn::KindName(ka) +
          " in the first input and " + column::AnyColumn::KindName(kb) +
          " in the second");
    }
  }
  const size_t nparts = std::max(a.NumPartitions(), b.NumPartitions());
  Dataset out = Dataset::Empty(a.schema, nparts);
  StageStats stage;
  stage.op = name;
  stage.rows_in = a.NumRows() + b.NumRows();
  TRANCE_RETURN_NOT_OK(RunPartitionTasks(
      cluster, name, &stage, &out,
      [&](size_t p, PartitionBlock* dst, StageStats*) {
        for (const Dataset* d : {&a, &b}) {
          if (p >= d->NumPartitions()) continue;
          const PartitionBlock& src = *d->parts[p];
          const size_t rows = src.NumRows();
          for (size_t i = 0; i < rows; ++i) dst->AppendRowFrom(src, i);
        }
      }));
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name));
  return out;
}

StatusOr<Dataset> Distinct(Cluster* cluster, const Dataset& in,
                           const std::string& name) {
  StageStats stage;
  stage.op = name;
  stage.rows_in = in.NumRows();
  std::vector<int> all_cols;
  for (int i = 0; i < static_cast<int>(in.schema.size()); ++i) {
    all_cols.push_back(i);
  }
  TRANCE_ASSIGN_OR_RETURN(std::vector<BlockPtr> sp,
                          ShuffleOrReuse(cluster, in, all_cols, &stage));
  const size_t nparts = sp.size();
  Dataset out = Dataset::Empty(in.schema, nparts);
  TRANCE_RETURN_NOT_OK(RunPartitionTasks(
      cluster, name, &stage, &out,
      [&](size_t p, PartitionBlock* dst, StageStats* slot) {
        // The row is its own key: the first occurrence of each key copies
        // column-to-column into the output block.
        const PartitionBlock& src = *sp[p];
        KeyTable seen(slot);
        const size_t rows = src.NumRows();
        for (size_t i = 0; i < rows; ++i) {
          if (seen.Add(src, i, all_cols).second) dst->AppendRowFrom(src, i);
        }
      }));
  SetWork(&stage, nparts, [&](size_t p) {
    return sp[p]->TotalRowBytes() + out.parts[p]->TotalRowBytes();
  });
  out.partitioning = Partitioning::Hash(std::move(all_cols));
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name));
  return out;
}

StatusOr<Dataset> CoGroup(Cluster* cluster, const Dataset& left,
                          const Dataset& right, std::vector<int> left_keys,
                          std::vector<int> right_keys,
                          std::vector<int> right_value_cols,
                          const std::string& bag_col_name,
                          const std::string& name) {
  TRANCE_RETURN_NOT_OK(CheckColumns(name, "left key", left_keys, left.schema));
  TRANCE_RETURN_NOT_OK(
      CheckColumns(name, "right key", right_keys, right.schema));
  TRANCE_RETURN_NOT_OK(
      CheckColumns(name, "right value", right_value_cols, right.schema));
  StageStats stage;
  stage.op = name;
  stage.rows_in = left.NumRows() + right.NumRows();
  TRANCE_ASSIGN_OR_RETURN(std::vector<BlockPtr> lsp,
                          ShuffleOrReuse(cluster, left, left_keys, &stage));
  TRANCE_ASSIGN_OR_RETURN(std::vector<BlockPtr> rsp,
                          ShuffleOrReuse(cluster, right, right_keys, &stage));

  Schema out_schema = left.schema;
  std::vector<nrc::Field> bag_fields;
  for (int c : right_value_cols) {
    const auto& col = right.schema.col(static_cast<size_t>(c));
    bag_fields.push_back({col.name, col.type});
  }
  out_schema.Append(
      {bag_col_name, nrc::Type::Bag(nrc::Type::Tuple(std::move(bag_fields)))});

  const size_t nparts = lsp.size();
  Dataset out = Dataset::Empty(std::move(out_schema), nparts);
  auto cogroup_task = [&](size_t p, PartitionBlock* dst, StageStats* slot) {
    const PartitionBlock& lb = *lsp[p];
    const PartitionBlock& rb = *rsp[p];
    KeyTable built(slot);
    std::vector<std::vector<Row>> chains;  // dense index -> right projections
    const size_t rrows = rb.NumRows();
    for (size_t i = 0; i < rrows; ++i) {
      if (HasNullKeyAt(rb, i, right_keys)) continue;
      auto [gi, opened] = built.Add(rb, i, right_keys);
      if (opened) chains.emplace_back();
      // The bag member projects straight from the block's arenas.
      chains[gi].push_back(Row(FieldsAt(rb, i, right_value_cols)));
    }
    // Each left row's match chain, or kNotFound for a miss (an empty bag).
    const size_t lrows = lb.NumRows();
    std::vector<uint32_t> matches(lrows);
    for (size_t j = 0; j < lrows; ++j) {
      matches[j] = FindNonNull(&built, lb, j, left_keys);
    }
    // The left row copies column-wise; the bag cell follows it. Bags are
    // immutable, so left rows with the same key share one.
    const size_t lw = lb.NumCols();
    const BagPtr empty = std::make_shared<const RtBag>(std::vector<Row>());
    std::vector<BagPtr> bags(chains.size());
    dst->AppendColumns(lrows, [&](size_t c, AnyColumn* col) {
      if (c < lw) {
        const AnyColumn& from = lb.col(c);
        for (size_t j = 0; j < lrows; ++j) col->AppendFrom(from, j);
        return;
      }
      for (uint32_t gi : matches) {
        if (gi == FlatKeyIndex::kNotFound) {
          col->Append(Field::Bag(empty));
          continue;
        }
        if (bags[gi] == nullptr) {
          bags[gi] = std::make_shared<const RtBag>(std::move(chains[gi]));
        }
        col->Append(Field::Bag(bags[gi]));
      }
    });
  };
  TRANCE_RETURN_NOT_OK(
      RunPartitionTasks(cluster, name, &stage, &out, cogroup_task));
  SetWork(&stage, nparts, [&](size_t p) {
    return lsp[p]->TotalRowBytes() + rsp[p]->TotalRowBytes() +
           out.parts[p]->TotalRowBytes();
  });
  out.partitioning = Partitioning::Hash(std::move(left_keys));
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name));
  return out;
}

std::vector<Row> Take(const Dataset& in, size_t limit) {
  std::vector<Row> out;
  for (size_t p = 0; p < in.NumPartitions(); ++p) {
    const size_t rows = in.PartitionRowCount(p);
    for (size_t i = 0; i < rows; ++i) {
      if (out.size() >= limit) return out;
      out.push_back(in.RowAt(p, i));
    }
  }
  return out;
}

}  // namespace runtime
}  // namespace trance
