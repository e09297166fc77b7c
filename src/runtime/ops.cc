#include "runtime/ops.h"

#include <algorithm>

#include "runtime/flat_hash.h"
#include "runtime/key_codec.h"
#include "runtime/spill.h"
#include "util/hash.h"

namespace trance {
namespace runtime {

namespace {

using column::PartitionBlock;
using flat_hash::FlatKeyIndex;
// Stage barrier and spill telemetry shared with the fused-stage runner.
using detail::FinishStage;
using detail::NoteSpill;

/// Accumulates per-partition processed bytes and finalizes max/total plus
/// the per-partition work histogram. Add() is called from partition-parallel
/// loops: each task writes only its own slot p, and Finalize() (called after
/// the stage barrier) folds the slots in partition order — so the resulting
/// stats are bit-identical to a sequential run.
class WorkMeter {
 public:
  explicit WorkMeter(size_t parts) : work_(parts, 0) {}
  void Add(size_t p, uint64_t bytes) { work_[p] += bytes; }
  /// Clears slot p (recovery reset of a discarded task attempt). Only valid
  /// while a single task loop owns the slot.
  void Reset(size_t p) { work_[p] = 0; }
  void Finalize(StageStats* s) const {
    for (uint64_t w : work_) {
      s->total_work_bytes += w;
      if (w > s->max_partition_work_bytes) s->max_partition_work_bytes = w;
    }
    s->partition_work_bytes = work_;
  }

 private:
  std::vector<uint64_t> work_;
};

/// Per-partition keyed-phase telemetry, following the same slot discipline
/// as WorkMeter: each task owns slot p, Finalize folds the slots in
/// partition order after the stage barrier (stats stay thread-count
/// invariant). A stage with several keyed loops (e.g. SumAggregate's
/// combine + final passes) finalizes one meter per loop; the StageStats
/// fields accumulate.
class KeyStatsMeter {
 public:
  explicit KeyStatsMeter(size_t parts) : slots_(parts) {}
  key_codec::KeyStats& slot(size_t p) { return slots_[p]; }
  void Reset(size_t p) { slots_[p] = key_codec::KeyStats{}; }
  void Finalize(StageStats* s) const {
    key_codec::KeyStats total;
    for (const auto& k : slots_) total.Merge(k);
    s->key_encode_bytes += total.encode_bytes;
    s->hash_build_rows += total.build_rows;
    s->hash_probe_hits += total.probe_hits;
    if (total.max_chain > s->hash_max_chain) {
      s->hash_max_chain = total.max_chain;
    }
    s->hash_table_bytes += total.table_bytes;
    s->hash_resizes += total.resizes;
    if (total.probe_len_max > s->hash_probe_len_max) {
      s->hash_probe_len_max = total.probe_len_max;
    }
  }

 private:
  std::vector<key_codec::KeyStats> slots_;
};

/// Returns the first non-OK per-partition task error in partition order (so
/// the surfaced error is deterministic regardless of thread interleaving).
Status FirstError(const std::vector<Status>& errs) {
  for (const Status& e : errs) {
    if (!e.ok()) return e;
  }
  return Status::OK();
}

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

/// The `cols` cells of row i (group key storage, bag members).
std::vector<Field> FieldsAt(const PartitionBlock& b, size_t i,
                            const std::vector<int>& cols) {
  std::vector<Field> out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(b.FieldAt(i, static_cast<size_t>(c)));
  return out;
}

/// Partitions entering an operator's partition-local phase, as the
/// producing shuffle (or reused input) holds them, with the deep-size
/// footprint of each partition. The bytes ride along from the shuffle
/// (where every row was sized exactly once) so the work meter and memory
/// check never re-walk rows a shuffle already sized.
struct ShuffledParts {
  std::vector<PartitionBlock> parts;
  std::vector<uint64_t> bytes;
};

/// Hash-shuffles `in` to num_partitions buckets keyed on key_cols, recording
/// exact cross-partition movement into `stage`. Two-phase and
/// partition-parallel:
///   1. each input partition routes its rows by target partition into its
///      own bucket blocks, sizing every row once (the size feeds movement
///      accounting and the output footprint);
///   2. each target partition concatenates its buckets in fixed
///      input-partition order.
/// Phase 2's fixed order reproduces the sequential row order exactly, and
/// the movement histograms are merged in partition order at the phase-1
/// barrier, so output and stats are identical for any thread count.
///
/// Shuffles move columns, not rows: the map side routes cells block-to-block
/// straight out of the resident input block (HashRowOn == RowHashOn,
/// RowBytesAt == RowDeepSize), and the fetch side concatenates the
/// per-target buckets into the resident output block.
///
/// Fault model: phase-1 (map side) tasks read only the immutable input, so a
/// crash fault re-runs them after discarding the partition's buckets; phase-2
/// (fetch side) consumes the buckets destructively, so its faults are
/// fetch-style — they strike before the task touches the buckets (null
/// reset) and the retry re-fetches.
StatusOr<ShuffledParts> ShuffleByKey(Cluster* cluster, const Dataset& in,
                                     const std::vector<int>& key_cols,
                                     StageStats* stage) {
  const size_t n = static_cast<size_t>(cluster->num_partitions());
  const size_t in_n = in.NumPartitions();

  struct SourceBuckets {
    std::vector<PartitionBlock> blocks;  // [target]
    std::vector<uint64_t> bytes;         // [target] all routed bytes
    std::vector<uint64_t> moved;         // [target] bytes that changed partition
    uint64_t sent = 0;                   // total bytes leaving this partition
    uint64_t moved_rows = 0;             // rows that changed partition
  };
  std::vector<SourceBuckets> buckets(in_n);
  std::vector<uint64_t> map_col_bytes(in_n, 0);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      stage->op + ".shuffle_map", in_n, stage,
      [&](size_t p) {
        SourceBuckets& b = buckets[p];
        b.bytes.assign(n, 0);
        b.moved.assign(n, 0);
        b.blocks.assign(n, PartitionBlock(in.schema));
        const PartitionBlock& src = in.parts[p];
        const size_t rows = src.NumRows();
        for (size_t i = 0; i < rows; ++i) {
          size_t target = static_cast<size_t>(
              cluster->PartitionOf(src.HashRowOn(i, key_cols)));
          uint64_t sz = src.RowBytesAt(i);
          b.bytes[target] += sz;
          if (target != p) {
            b.moved[target] += sz;
            b.sent += sz;
            ++b.moved_rows;
          }
          b.blocks[target].AppendRowFrom(src, i);
        }
        for (const auto& tb : b.blocks) {
          map_col_bytes[p] += tb.ByteFootprint();
        }
      },
      [&](size_t p) {
        buckets[p] = SourceBuckets{};
        map_col_bytes[p] = 0;
      }));

  std::vector<uint64_t> recv(n, 0);
  std::vector<uint64_t> send(std::max(in_n, n), 0);
  uint64_t moved_rows = 0;
  uint64_t moved_bytes = 0;
  for (size_t p = 0; p < in_n; ++p) {
    send[p] = buckets[p].sent;
    stage->shuffle_bytes += buckets[p].sent;
    moved_rows += buckets[p].moved_rows;
    moved_bytes += buckets[p].sent;
    for (size_t t = 0; t < n; ++t) recv[t] += buckets[p].moved[t];
  }

  ShuffledParts out;
  out.parts.assign(n, PartitionBlock(in.schema));
  out.bytes.assign(n, 0);
  std::vector<uint64_t> fetch_col_bytes(n, 0);

  // Fetch-side spill (runtime/spill.h): a target whose total received bytes
  // exceed the spill threshold writes one run per non-empty source bucket
  // (clearing the bucket as it goes), then stream-merges the runs back in
  // fixed source order straight into the resident output block — the
  // identical row sequence the in-memory concatenation produces. The spill
  // decision and every run are pure functions of the routed bytes, and the
  // per-target counter slots are folded in target order after the barrier,
  // so results and stats stay thread-count-invariant.
  const bool spill_on = cluster->spill_enabled();
  const uint64_t spill_threshold = cluster->spill_threshold_bytes();
  std::vector<spill::SpillCounters> spill_slots(n);
  std::vector<Status> spill_errs(n, Status::OK());
  auto spill_fetch_target = [&](size_t t) -> Status {
    spill::SpillManager* sm = cluster->spill_manager();
    spill::SpillCounters* c = &spill_slots[t];
    const std::string tag = stage->op + ".shuffle_fetch";
    const uint64_t job = cluster->current_job_id();
    std::vector<std::string> runs;
    for (size_t p = 0; p < in_n; ++p) {
      out.bytes[t] += buckets[p].bytes[t];
      auto& src = buckets[p].blocks[t];
      if (src.NumRows() == 0) continue;
      std::string path = sm->RunPath(job, tag, t, runs.size());
      TRANCE_RETURN_NOT_OK(sm->WriteBlockRun(path, src, c));
      src = PartitionBlock(in.schema);
      runs.push_back(std::move(path));
    }
    // One merge pass: streaming the runs in write order restores the exact
    // source-order concatenation. ReadRunIntoBlock replays the same per-row
    // append sequence the in-memory concatenation performs, so the restored
    // block's footprint equals the never-spilled one.
    for (const std::string& path : runs) {
      TRANCE_RETURN_NOT_OK(sm->ReadRunIntoBlock(path, &out.parts[t], c));
    }
    for (const std::string& path : runs) sm->RemoveRun(path);
    c->merge_passes += 1;
    return Status::OK();
  };

  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      stage->op + ".shuffle_fetch", n, stage,
      [&](size_t t) {
        uint64_t total_bytes = 0;
        for (size_t p = 0; p < in_n; ++p) total_bytes += buckets[p].bytes[t];
        if (spill_on && total_bytes > spill_threshold) {
          spill_errs[t] = spill_fetch_target(t);
        } else {
          PartitionBlock& dst = out.parts[t];
          for (size_t p = 0; p < in_n; ++p) {
            const auto& src = buckets[p].blocks[t];
            const size_t rows = src.NumRows();
            for (size_t i = 0; i < rows; ++i) dst.AppendRowFrom(src, i);
          }
          out.bytes[t] = total_bytes;
        }
        fetch_col_bytes[t] += out.parts[t].ByteFootprint();
      },
      nullptr));
  TRANCE_RETURN_NOT_OK(FirstError(spill_errs));
  for (size_t t = 0; t < n; ++t) {
    if (spill_slots[t].runs == 0 && spill_slots[t].merge_passes == 0) continue;
    NoteSpill(cluster, stage, stage->op + ".shuffle_fetch", t, out.bytes[t],
              spill_slots[t]);
  }
  for (uint64_t b : map_col_bytes) stage->columnar_bytes += b;
  for (uint64_t b : fetch_col_bytes) stage->columnar_bytes += b;

  for (uint64_t b : recv) {
    if (b > stage->max_partition_recv_bytes) {
      stage->max_partition_recv_bytes = b;
    }
  }
  stage->movement = DataMovement::kShuffle;
  AccumulateHistogram(&stage->partition_recv_bytes, recv);
  AccumulateHistogram(&stage->partition_send_bytes, send);
  // Driver-side (post-barrier) publication of what this shuffle moved; the
  // bytes also reach the registry via RecordStage, rows only exist here.
  cluster->metrics()
      .GetCounter("trance_shuffle_rows_total",
                  "rows that changed partition in shuffles")
      ->Add(moved_rows);
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
  return out;
}

/// Shuffle path of operators that group/join on `key_cols`: reuses the input
/// partitions (zero movement — and still one sizing walk for the work meter)
/// when the guarantee already holds, otherwise hash-shuffles.
StatusOr<ShuffledParts> ShuffleOrReuse(Cluster* cluster, const Dataset& in,
                                       const std::vector<int>& key_cols,
                                       StageStats* stage) {
  if (!in.partitioning.IsHashOn(key_cols)) {
    return ShuffleByKey(cluster, in, key_cols, stage);
  }
  ShuffledParts out;
  out.parts = in.parts;
  out.bytes = in.PartitionBytes(cluster->num_threads());
  // Keyed-input spill: on the reuse path no shuffle bounds the partitions,
  // so an oversized keyed-build input spills to block runs here and streams
  // back in the original order — the downstream index build then inserts
  // the identical row sequence (same hash_* stats, same group emission
  // order). Driver-side, in partition order.
  if (cluster->spill_enabled()) {
    const uint64_t threshold = cluster->spill_threshold_bytes();
    for (size_t p = 0; p < out.parts.size(); ++p) {
      if (out.bytes[p] <= threshold) continue;
      spill::SpillCounters pc;
      TRANCE_RETURN_NOT_OK(cluster->spill_manager()->SpillAndRestoreBlock(
          cluster->current_job_id(), stage->op + ".keyed_input", p, in.schema,
          &out.parts[p], &pc));
      NoteSpill(cluster, stage, stage->op + ".keyed_input", p, out.bytes[p],
                pc);
    }
  }
  return out;
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

Row ConcatRows(const Row& l, const Row& r) {
  Row out;
  out.fields = l.fields;
  out.fields.reserve(l.fields.size() + r.fields.size());
  out.fields.insert(out.fields.end(), r.fields.begin(), r.fields.end());
  return out;
}

Row NullPadRight(const Row& l, size_t right_width) {
  Row out;
  out.fields = l.fields;
  out.fields.reserve(l.fields.size() + right_width);
  for (size_t i = 0; i < right_width; ++i) out.fields.push_back(Field::Null());
  return out;
}

/// Partition-local hash join of `left` against the build block `right`,
/// appending the output rows to `out` and returning their deep-size
/// footprint; keyed telemetry goes to *ks. The flat table is keyed by
/// compact binary keys encoded straight from the blocks' arenas (one arena
/// append per distinct key, no per-probe allocation) and maps each key to a
/// dense chain of row offsets into the build block. `right_width` NULL-pads
/// left-outer misses (an empty right partition must still pad fully).
uint64_t LocalJoin(const PartitionBlock& left, const PartitionBlock& right,
                   const std::vector<int>& lk, const std::vector<int>& rk,
                   JoinType type, size_t right_width, PartitionBlock* out,
                   key_codec::KeyStats* ks) {
  uint64_t out_bytes = 0;
  auto emit = [&](const Row& row) {
    out_bytes += RowDeepSize(row);
    out->AppendRow(row);
  };
  const size_t rn = right.NumRows();
  FlatKeyIndex built(rn);
  std::vector<std::vector<uint32_t>> chains;
  chains.reserve(rn);
  key_codec::KeyEncoder enc;
  for (size_t i = 0; i < rn; ++i) {
    if (HasNullKeyAt(right, i, rk)) continue;
    auto [gi, inserted] = built.FindOrInsert(enc.EncodeAt(right, i, rk));
    if (inserted) {
      chains.emplace_back();
      ks->build_rows++;
    } else {
      ks->probe_hits++;
    }
    chains[gi].push_back(static_cast<uint32_t>(i));
    if (chains[gi].size() > ks->max_chain) ks->max_chain = chains[gi].size();
  }
  const size_t ln = left.NumRows();
  for (size_t j = 0; j < ln; ++j) {
    bool matched = false;
    if (!HasNullKeyAt(left, j, lk)) {
      uint32_t gi = built.Find(enc.EncodeAt(left, j, lk));
      if (gi != FlatKeyIndex::kNotFound) {
        matched = true;
        ks->probe_hits++;
        Row l = left.RowAt(j);
        for (uint32_t ri : chains[gi]) emit(ConcatRows(l, right.RowAt(ri)));
      }
    }
    if (!matched && type == JoinType::kLeftOuter) {
      emit(NullPadRight(left.RowAt(j), right_width));
    }
  }
  ks->encode_bytes += enc.bytes_encoded();
  flat_hash::NoteTableStats(built, ks);
  return out_bytes;
}

}  // namespace

StatusOr<Dataset> Source(Cluster* cluster, Schema schema,
                         std::vector<Row> rows, const std::string& name) {
  const size_t n = static_cast<size_t>(cluster->num_partitions());
  // Sources land block-resident: the driver appends each row to its
  // round-robin partition block, so downstream stages start from columns.
  // Driver-sequential, so the footprint charge is thread-count-invariant.
  Dataset ds = Dataset::Empty(std::move(schema), n);
  for (size_t i = 0; i < rows.size(); ++i) ds.parts[i % n].AppendRow(rows[i]);
  StageStats stage;
  stage.op = "source(" + name + ")";
  for (const auto& b : ds.parts) stage.columnar_bytes += b.ByteFootprint();
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
  Dataset ds = Dataset::Empty(std::move(schema), n);
  for (const auto& row : rows) {
    int target = cluster->PartitionOf(RowHashOn(row, key_cols));
    ds.parts[static_cast<size_t>(target)].AppendRow(row);
  }
  ds.partitioning = Partitioning::Hash(std::move(key_cols));
  StageStats stage;
  stage.op = "source_partitioned(" + name + ")";
  for (const auto& b : ds.parts) stage.columnar_bytes += b.ByteFootprint();
  stage.rows_in = ds.NumRows();
  stage.rows_out = ds.NumRows();
  cluster->RecordStage(std::move(stage));
  return ds;
}

StatusOr<Dataset> MapRows(Cluster* cluster, const Dataset& in,
                          Schema out_schema, const MapFn& fn,
                          const std::string& name) {
  return RunStagePipeline(cluster, in, std::move(out_schema),
                          {RowTransform::Map(name, fn)}, Partitioning::None(),
                          name);
}

StatusOr<Dataset> Repartition(Cluster* cluster, const Dataset& in,
                              std::vector<int> key_cols,
                              const std::string& name) {
  StageStats stage;
  stage.op = name;
  stage.rows_in = in.NumRows();
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts sp,
                          ShuffleOrReuse(cluster, in, key_cols, &stage));
  Dataset out;
  out.schema = in.schema;
  // The shuffled partitions ARE the output — blocks stay resident.
  out.parts = std::move(sp.parts);
  out.partitioning = Partitioning::Hash(std::move(key_cols));
  WorkMeter work(out.NumPartitions());
  for (size_t p = 0; p < out.NumPartitions(); ++p) {
    work.Add(p, sp.bytes[p]);
  }
  work.Finalize(&stage);
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(sp.bytes)));
  return out;
}

StatusOr<Dataset> HashJoin(Cluster* cluster, const Dataset& left,
                           const Dataset& right, std::vector<int> left_keys,
                           std::vector<int> right_keys, JoinType type,
                           const std::string& name) {
  StageStats stage;
  stage.op = name;
  stage.rows_in = left.NumRows() + right.NumRows();
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts lsp,
                          ShuffleOrReuse(cluster, left, left_keys, &stage));
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts rsp,
                          ShuffleOrReuse(cluster, right, right_keys, &stage));

  const size_t nparts = lsp.parts.size();
  Dataset out = Dataset::Empty(JoinSchema(left.schema, right.schema), nparts);
  WorkMeter work(nparts);
  KeyStatsMeter kmeter(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage,
      [&](size_t p) {
        out_bytes[p] = LocalJoin(lsp.parts[p], rsp.parts[p], left_keys,
                                 right_keys, type, right.schema.size(),
                                 &out.parts[p], &kmeter.slot(p));
        col_bytes[p] = out.parts[p].ByteFootprint();
        work.Add(p, lsp.bytes[p] + rsp.bytes[p] + out_bytes[p]);
      },
      [&](size_t p) {
        out.ClearPartition(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
      }));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  out.partitioning = Partitioning::Hash(std::move(left_keys));
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(out_bytes)));
  return out;
}

StatusOr<Dataset> BroadcastJoin(Cluster* cluster, const Dataset& left,
                                const Dataset& right,
                                std::vector<int> left_keys,
                                std::vector<int> right_keys, JoinType type,
                                const std::string& name) {
  StageStats stage;
  stage.op = name;
  stage.rows_in = left.NumRows() + right.NumRows();
  // The broadcast replicates the right side to every partition, as one
  // block: right's partitions concatenated in partition order, built once
  // on the driver and read by every partition's hash build. One parallel
  // sizing pass covers the movement accounting and the send histogram.
  PartitionBlock bcast(right.schema);
  for (const auto& part : right.parts) {
    for (size_t i = 0; i < part.NumRows(); ++i) bcast.AppendRowFrom(part, i);
  }
  stage.columnar_bytes += bcast.ByteFootprint();
  std::vector<uint64_t> right_bytes =
      right.PartitionBytes(cluster->num_threads());
  uint64_t bcast_bytes = 0;
  for (uint64_t b : right_bytes) bcast_bytes += b;
  const uint64_t n = static_cast<uint64_t>(cluster->num_partitions());
  stage.shuffle_bytes += bcast_bytes * n;
  stage.max_partition_recv_bytes =
      std::max(stage.max_partition_recv_bytes, bcast_bytes);
  stage.movement = DataMovement::kBroadcast;
  cluster->metrics()
      .GetCounter("trance_broadcast_bytes_total",
                  "bytes replicated to every partition by broadcasts")
      ->Add(bcast_bytes * n);
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
      send[p] = right_bytes[p] * n;
    }
    AccumulateHistogram(&stage.partition_send_bytes, send);
  }

  const size_t nparts = left.NumPartitions();
  Dataset out = Dataset::Empty(JoinSchema(left.schema, right.schema), nparts);
  std::vector<uint64_t> left_bytes =
      left.PartitionBytes(cluster->num_threads());
  WorkMeter work(nparts);
  KeyStatsMeter kmeter(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage,
      [&](size_t p) {
        out_bytes[p] = LocalJoin(left.parts[p], bcast, left_keys, right_keys,
                                 type, right.schema.size(), &out.parts[p],
                                 &kmeter.slot(p));
        col_bytes[p] = out.parts[p].ByteFootprint();
        work.Add(p, left_bytes[p] + bcast_bytes + out_bytes[p]);
      },
      [&](size_t p) {
        out.ClearPartition(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
      }));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  // Left rows did not move: the left guarantee (if any) is preserved.
  out.partitioning = left.partitioning;
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(out_bytes)));
  return out;
}

StatusOr<Dataset> NestGroup(Cluster* cluster, const Dataset& in,
                            std::vector<int> key_cols,
                            std::vector<int> value_cols,
                            const std::string& bag_col_name,
                            const std::string& name,
                            std::vector<int> indicator_cols) {
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
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts sp,
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

  const size_t nparts = sp.parts.size();
  Dataset out = Dataset::Empty(std::move(out_schema), nparts);
  WorkMeter work(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  KeyStatsMeter kmeter(nparts);
  auto nest_task = [&](size_t p) {
    // Groups are (key fields of the first row that created the group,
    // members), in first-seen order; members project straight from the
    // block's arenas.
    const PartitionBlock& src = sp.parts[p];
    std::vector<std::pair<std::vector<Field>, std::vector<Row>>> groups;
    std::vector<uint64_t> group_rows;  // rows mapped per group (chain stat)
    key_codec::KeyStats& ks = kmeter.slot(p);
    FlatKeyIndex index;
    key_codec::KeyEncoder enc;
    const size_t rows = src.NumRows();
    for (size_t i = 0; i < rows; ++i) {
      auto [gi, inserted] = index.FindOrInsert(enc.EncodeAt(src, i, key_cols));
      if (inserted) {
        groups.emplace_back(FieldsAt(src, i, key_cols), std::vector<Row>{});
        group_rows.push_back(0);
        ks.build_rows++;
      } else {
        ks.probe_hits++;
      }
      if (++group_rows[gi] > ks.max_chain) ks.max_chain = group_rows[gi];
      // NULL-to-empty-bag cast: a miss row marks a key with no inner
      // elements (outer join/unnest miss); it creates the group only.
      bool miss = !miss_cols.empty();
      for (int c : miss_cols) {
        if (!src.IsNull(i, static_cast<size_t>(c))) {
          miss = false;
          break;
        }
      }
      if (!miss) groups[gi].second.push_back(Row(FieldsAt(src, i, value_cols)));
    }
    ks.encode_bytes += enc.bytes_encoded();
    flat_hash::NoteTableStats(index, &ks);
    PartitionBlock& dst = out.parts[p];
    for (auto& [key_fields, members] : groups) {
      Row row(std::move(key_fields));
      row.fields.push_back(Field::Bag(std::move(members)));
      out_bytes[p] += RowDeepSize(row);
      dst.AppendRow(row);
    }
    col_bytes[p] += dst.ByteFootprint();
    work.Add(p, sp.bytes[p] + out_bytes[p]);
  };
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage, nest_task, [&](size_t p) {
        out.ClearPartition(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
      }));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  std::vector<int> out_keys;
  for (int i = 0; i < static_cast<int>(key_cols.size()); ++i) {
    out_keys.push_back(i);
  }
  out.partitioning = Partitioning::Hash(std::move(out_keys));
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(out_bytes)));
  return out;
}

StatusOr<Dataset> AddIndexColumn(Cluster* cluster, const Dataset& in,
                                 const std::string& id_col_name,
                                 const std::string& name) {
  Schema out_schema = in.schema;
  out_schema.Append({id_col_name, nrc::Type::Int()});
  return RunStagePipeline(cluster, in, std::move(out_schema),
                          {RowTransform::AddIndex(name)}, in.partitioning,
                          name);
}

StatusOr<Dataset> SumAggregate(Cluster* cluster, const Dataset& in,
                               std::vector<int> key_cols,
                               std::vector<int> value_cols,
                               bool map_side_combine,
                               const std::string& name) {
  StageStats stage;
  stage.op = name;
  stage.rows_in = in.NumRows();

  Schema out_schema;
  for (int c : key_cols) {
    out_schema.Append(in.schema.col(static_cast<size_t>(c)));
  }
  std::vector<bool> is_int;
  for (int c : value_cols) {
    const auto& col = in.schema.col(static_cast<size_t>(c));
    out_schema.Append(col);
    is_int.push_back(col.type->is_scalar() &&
                     col.type->scalar_kind() == nrc::ScalarKind::kInt);
  }

  std::vector<int> partial_keys;
  for (int i = 0; i < static_cast<int>(key_cols.size()); ++i) {
    partial_keys.push_back(i);
  }

  // Local aggregation of one partition block into (key, sums) rows appended
  // to `dst`; returns their deep-size footprint. A row whose value fields
  // are all NULL marks an outer miss: it creates the group but contributes
  // nothing; groups with no contribution emit NULL values. Groups keep the
  // key fields of the first row that created them, in first-seen order.
  // Reads only its arguments and the (const) captured column metadata, so
  // the partition-parallel loops below may share it.
  struct Acc {
    std::vector<double> sums;
    bool seen = false;
  };
  auto aggregate = [&](const PartitionBlock& src, bool rows_are_partial,
                       key_codec::KeyStats* ks,
                       PartitionBlock* dst) -> uint64_t {
    std::vector<std::pair<std::vector<Field>, Acc>> groups;
    std::vector<uint64_t> group_rows;
    const std::vector<int>& cols = rows_are_partial ? partial_keys : key_cols;
    auto value_col_of = [&](size_t vi) {
      return rows_are_partial ? key_cols.size() + vi
                              : static_cast<size_t>(value_cols[vi]);
    };
    FlatKeyIndex index;
    key_codec::KeyEncoder enc;
    const size_t rows = src.NumRows();
    for (size_t i = 0; i < rows; ++i) {
      auto [gi, inserted] = index.FindOrInsert(enc.EncodeAt(src, i, cols));
      if (inserted) {
        Acc acc;
        acc.sums.assign(value_cols.size(), 0.0);
        groups.emplace_back(FieldsAt(src, i, cols), std::move(acc));
        group_rows.push_back(0);
        ks->build_rows++;
      } else {
        ks->probe_hits++;
      }
      if (++group_rows[gi] > ks->max_chain) ks->max_chain = group_rows[gi];
      Acc& acc = groups[gi].second;
      bool all_null = !value_cols.empty();
      for (size_t vi = 0; vi < value_cols.size(); ++vi) {
        if (!src.IsNull(i, value_col_of(vi))) all_null = false;
      }
      if (all_null) continue;  // miss marker: group exists, no contribution
      acc.seen = true;
      for (size_t vi = 0; vi < value_cols.size(); ++vi) {
        Field f = src.FieldAt(i, value_col_of(vi));
        if (!f.is_null()) acc.sums[vi] += f.AsNumber();  // lone NULL casts to 0
      }
    }
    ks->encode_bytes += enc.bytes_encoded();
    flat_hash::NoteTableStats(index, ks);
    uint64_t emitted = 0;
    for (auto& [key_fields, acc] : groups) {
      Row row(std::move(key_fields));
      for (size_t i = 0; i < acc.sums.size(); ++i) {
        if (!acc.seen) {
          row.fields.push_back(Field::Null());
        } else {
          row.fields.push_back(
              is_int[i] ? Field::Int(static_cast<int64_t>(acc.sums[i]))
                        : Field::Real(acc.sums[i]));
        }
      }
      emitted += RowDeepSize(row);
      dst->AppendRow(row);
    }
    return emitted;
  };

  const size_t in_parts = in.NumPartitions();
  WorkMeter work(in_parts);
  Dataset partial = Dataset::Empty(out_schema, in_parts);
  std::vector<uint64_t> pre_col_bytes(in_parts, 0);
  // The aggregate runs up to three task loops over the same work meter, so
  // each loop accumulates into its own local vector (folded into the meter
  // after its barrier): a recovery reset may then zero the current loop's
  // slot without destroying an earlier loop's contribution.
  {
    std::vector<uint64_t> local_work(in_parts, 0);
    if (map_side_combine) {
      std::vector<uint64_t> in_bytes =
          in.PartitionBytes(cluster->num_threads());
      KeyStatsMeter kmeter(in_parts);
      TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
          name + ".combine", in_parts, &stage,
          [&](size_t p) {
            uint64_t partial_bytes = aggregate(
                in.parts[p], false, &kmeter.slot(p), &partial.parts[p]);
            pre_col_bytes[p] += partial.parts[p].ByteFootprint();
            local_work[p] = in_bytes[p] + partial_bytes;
          },
          [&](size_t p) {
            partial.ClearPartition(p);
            local_work[p] = 0;
            pre_col_bytes[p] = 0;
            kmeter.Reset(p);
          }));
      kmeter.Finalize(&stage);
    } else {
      // Reshape rows to (key, value) layout without combining; cells
      // project straight from the input block.
      TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
          name + ".reshape", in_parts, &stage,
          [&](size_t p) {
            const PartitionBlock& src = in.parts[p];
            PartitionBlock& dst = partial.parts[p];
            uint64_t in_bytes = 0;
            const size_t rows = src.NumRows();
            for (size_t i = 0; i < rows; ++i) {
              in_bytes += src.RowBytesAt(i);
              // NULLs pass through so the final aggregation pass can apply
              // the miss-marker rule uniformly.
              Row r(FieldsAt(src, i, key_cols));
              for (int c : value_cols) {
                r.fields.push_back(src.FieldAt(i, static_cast<size_t>(c)));
              }
              dst.AppendRow(r);
            }
            pre_col_bytes[p] += dst.ByteFootprint();
            local_work[p] = in_bytes;
          },
          [&](size_t p) {
            partial.ClearPartition(p);
            local_work[p] = 0;
            pre_col_bytes[p] = 0;
          }));
    }
    for (size_t p = 0; p < in_parts; ++p) work.Add(p, local_work[p]);
  }
  for (uint64_t b : pre_col_bytes) stage.columnar_bytes += b;
  partial.partitioning = in.partitioning.IsHashOn(key_cols)
                             ? Partitioning::Hash(partial_keys)
                             : Partitioning::None();

  TRANCE_ASSIGN_OR_RETURN(ShuffledParts sp,
                          ShuffleOrReuse(cluster, partial, partial_keys,
                                         &stage));

  const size_t nparts = sp.parts.size();
  Dataset out = Dataset::Empty(std::move(out_schema), nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> fin_col_bytes(nparts, 0);
  {
    std::vector<uint64_t> local_work(nparts, 0);
    KeyStatsMeter kmeter(nparts);
    TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
        name, nparts, &stage,
        [&](size_t p) {
          out_bytes[p] =
              aggregate(sp.parts[p], true, &kmeter.slot(p), &out.parts[p]);
          fin_col_bytes[p] += out.parts[p].ByteFootprint();
          local_work[p] = sp.bytes[p] + out_bytes[p];
        },
        [&](size_t p) {
          out.ClearPartition(p);
          out_bytes[p] = 0;
          fin_col_bytes[p] = 0;
          local_work[p] = 0;
          kmeter.Reset(p);
        }));
    kmeter.Finalize(&stage);
    for (size_t p = 0; p < nparts; ++p) work.Add(p, local_work[p]);
  }
  work.Finalize(&stage);
  for (uint64_t b : fin_col_bytes) stage.columnar_bytes += b;
  out.partitioning = Partitioning::Hash(partial_keys);
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(out_bytes)));
  return out;
}

StatusOr<Schema> UnnestedSchema(const Schema& in, int bag_col,
                                const std::string& id_col_name) {
  const auto& bag_type = in.col(static_cast<size_t>(bag_col)).type;
  if (!bag_type->is_bag()) {
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
  const size_t nparts = std::max(a.NumPartitions(), b.NumPartitions());
  Dataset out = Dataset::Empty(a.schema, nparts);
  StageStats stage;
  stage.op = name;
  stage.rows_in = a.NumRows() + b.NumRows();
  std::vector<uint64_t> col_bytes(nparts, 0);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage,
      [&](size_t p) {
        PartitionBlock& dst = out.parts[p];
        for (const Dataset* d : {&a, &b}) {
          if (p >= d->NumPartitions()) continue;
          const PartitionBlock& src = d->parts[p];
          const size_t rows = src.NumRows();
          for (size_t i = 0; i < rows; ++i) dst.AppendRowFrom(src, i);
        }
        col_bytes[p] = dst.ByteFootprint();
      },
      [&](size_t p) {
        out.ClearPartition(p);
        col_bytes[p] = 0;
      }));
  for (uint64_t bts : col_bytes) stage.columnar_bytes += bts;
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
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts sp,
                          ShuffleOrReuse(cluster, in, all_cols, &stage));
  const size_t nparts = sp.parts.size();
  Dataset out = Dataset::Empty(in.schema, nparts);
  WorkMeter work(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  KeyStatsMeter kmeter(nparts);
  std::vector<uint64_t> col_bytes(nparts, 0);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage,
      [&](size_t p) {
        // The membership test encodes every column straight off the block
        // and probes without materializing; the first occurrence of each
        // key copies column-to-column into the output block. Per-key
        // duplicate counts (the chain stat) live densely beside the index.
        key_codec::KeyStats& ks = kmeter.slot(p);
        const PartitionBlock& src = sp.parts[p];
        PartitionBlock& dst = out.parts[p];
        FlatKeyIndex seen;
        std::vector<uint64_t> counts;
        key_codec::KeyEncoder enc;
        const size_t rows = src.NumRows();
        for (size_t i = 0; i < rows; ++i) {
          auto [gi, inserted] = seen.FindOrInsert(enc.EncodeRowAt(src, i));
          if (inserted) {
            counts.push_back(1);
            ks.build_rows++;
            if (ks.max_chain < 1) ks.max_chain = 1;
            out_bytes[p] += src.RowBytesAt(i);
            dst.AppendRowFrom(src, i);
          } else {
            ks.probe_hits++;
            if (++counts[gi] > ks.max_chain) ks.max_chain = counts[gi];
          }
        }
        ks.encode_bytes += enc.bytes_encoded();
        flat_hash::NoteTableStats(seen, &ks);
        col_bytes[p] += dst.ByteFootprint();
        work.Add(p, sp.bytes[p] + out_bytes[p]);
      },
      [&](size_t p) {
        out.ClearPartition(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
      }));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  out.partitioning = Partitioning::Hash(std::move(all_cols));
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(out_bytes)));
  return out;
}

StatusOr<Dataset> CoGroup(Cluster* cluster, const Dataset& left,
                          const Dataset& right, std::vector<int> left_keys,
                          std::vector<int> right_keys,
                          std::vector<int> right_value_cols,
                          const std::string& bag_col_name,
                          const std::string& name) {
  StageStats stage;
  stage.op = name;
  stage.rows_in = left.NumRows() + right.NumRows();
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts lsp,
                          ShuffleOrReuse(cluster, left, left_keys, &stage));
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts rsp,
                          ShuffleOrReuse(cluster, right, right_keys, &stage));

  Schema out_schema = left.schema;
  std::vector<nrc::Field> bag_fields;
  for (int c : right_value_cols) {
    const auto& col = right.schema.col(static_cast<size_t>(c));
    bag_fields.push_back({col.name, col.type});
  }
  out_schema.Append(
      {bag_col_name, nrc::Type::Bag(nrc::Type::Tuple(std::move(bag_fields)))});

  const size_t nparts = lsp.parts.size();
  Dataset out = Dataset::Empty(std::move(out_schema), nparts);
  WorkMeter work(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  KeyStatsMeter kmeter(nparts);
  auto cogroup_task = [&](size_t p) {
    key_codec::KeyStats& ks = kmeter.slot(p);
    const PartitionBlock& lb = lsp.parts[p];
    const PartitionBlock& rb = rsp.parts[p];
    PartitionBlock& dst = out.parts[p];
    FlatKeyIndex built;
    std::vector<std::vector<Row>> chains;  // dense index -> right projections
    key_codec::KeyEncoder enc;
    const size_t rrows = rb.NumRows();
    for (size_t i = 0; i < rrows; ++i) {
      if (HasNullKeyAt(rb, i, right_keys)) continue;
      auto [gi, inserted] = built.FindOrInsert(enc.EncodeAt(rb, i, right_keys));
      if (inserted) {
        chains.emplace_back();
        ks.build_rows++;
      } else {
        ks.probe_hits++;
      }
      // The bag member projects straight from the block's arenas.
      chains[gi].push_back(Row(FieldsAt(rb, i, right_value_cols)));
      if (chains[gi].size() > ks.max_chain) ks.max_chain = chains[gi].size();
    }
    const size_t lrows = lb.NumRows();
    for (size_t j = 0; j < lrows; ++j) {
      const std::vector<Row>* matches = nullptr;
      if (!HasNullKeyAt(lb, j, left_keys)) {
        uint32_t gi = built.Find(enc.EncodeAt(lb, j, left_keys));
        if (gi != FlatKeyIndex::kNotFound) {
          ks.probe_hits++;
          matches = &chains[gi];
        }
      }
      Row row = lb.RowAt(j);  // transient: emitted immediately
      row.fields.push_back(matches == nullptr ? Field::Bag(std::vector<Row>{})
                                              : Field::Bag(*matches));
      uint64_t sz = RowDeepSize(row);
      work.Add(p, sz);
      out_bytes[p] += sz;
      dst.AppendRow(row);
    }
    ks.encode_bytes += enc.bytes_encoded();
    flat_hash::NoteTableStats(built, &ks);
    work.Add(p, lsp.bytes[p] + rsp.bytes[p]);
    col_bytes[p] += dst.ByteFootprint();
  };
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage, cogroup_task, [&](size_t p) {
        out.ClearPartition(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
      }));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  out.partitioning = Partitioning::Hash(std::move(left_keys));
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(out_bytes)));
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
