#include "runtime/stage_pipeline.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace trance {
namespace runtime {

namespace detail {

Status RunPartitionTasks(Cluster* cluster, const std::string& name,
                         StageStats* stage, Dataset* out,
                         const PartitionTask& task) {
  const size_t n = out->NumPartitions();
  std::vector<column::PartitionBlock> blocks = EmptyBlocks(out->schema, n);
  std::vector<StageStats> slots(n);
  // A crashed attempt is re-executed from the stage's input partitions,
  // which are immutable, so replacing its block with an empty one and
  // discarding its slot is the whole of lineage recovery.
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, n, stage, [&](size_t p) { task(p, &blocks[p], &slots[p]); },
      [&](size_t p) {
        blocks[p] = column::PartitionBlock(out->schema);
        slots[p] = StageStats{};
      }));
  for (size_t p = 0; p < n; ++p) {
    FoldStage(slots[p], stage);
    stage->columnar_bytes += blocks[p].ByteFootprint();
    out->parts[p] = Publish(std::move(blocks[p]));
  }
  return Status::OK();
}

void SetWork(StageStats* stage, size_t n,
             const std::function<uint64_t(size_t)>& work_of) {
  stage->partition_work_bytes.assign(n, 0);
  for (size_t p = 0; p < n; ++p) {
    const uint64_t w = work_of(p);
    stage->partition_work_bytes[p] = w;
    stage->total_work_bytes += w;
    stage->max_partition_work_bytes =
        std::max(stage->max_partition_work_bytes, w);
  }
}

Status FinishStage(Cluster* cluster, StageStats stage, Dataset* result,
                   const std::string& name) {
  stage.rows_out = result->NumRows();
  const std::vector<uint64_t> part_bytes = result->PartitionBytes();
  for (uint64_t b : part_bytes) {
    if (b > stage.mem_high_water_bytes) stage.mem_high_water_bytes = b;
  }
  // The one spill site (runtime/spill.h): with spilling on, every partition
  // the memory check below would fail is written to disk runs tagged with
  // the stage name and read back into a new block, the same rows in the
  // same order, turning the paper's FAIL into a slow-but-correct stage. The
  // new block replaces the partition's; the old one may be shared with the
  // stage's input and is left as it was. Driver-side and in partition
  // order, so the spill counters and events are thread-count-invariant. The
  // recorded peak bytes are untouched, keeping mem_high_water /
  // peak_partition_bytes bit-identical to an uncapped run.
  size_t spilled = 0;
  auto spill_over_cap = [&]() -> Status {
    if (!cluster->config().enable_spill) return Status::OK();
    const uint64_t cap = cluster->config().partition_memory_cap;
    for (size_t p = 0; p < part_bytes.size(); ++p) {
      if (part_bytes[p] <= cap) continue;
      StageStats slot;
      TRANCE_ASSIGN_OR_RETURN(
          column::PartitionBlock restored,
          cluster->spill_manager()->SpillAndRestoreBlock(
              cluster->current_job_id(), name, p, result->schema,
              *result->parts[p], &slot));
      result->parts[p] = Publish(std::move(restored));
      ++spilled;
      FoldStage(slot, &stage);
      obs::EventLog& log = obs::GlobalEventLog();
      if (!log.enabled()) continue;
      obs::Event(&log, "spill")
          .U64("job", cluster->current_job_id())
          .Str("op", name)
          .U64("partition", p)
          .U64("partition_bytes", part_bytes[p])
          .U64("bytes_written", slot.spill_bytes_written)
          .U64("bytes_read", slot.spill_bytes_read)
          .U64("runs", slot.spill_runs)
          .U64("merge_passes", slot.spill_merge_passes)
          .Emit();
    }
    return Status::OK();
  };
  const Status spill = spill_over_cap();
  cluster->RecordStage(std::move(stage));
  TRANCE_RETURN_NOT_OK(spill);
  return cluster->CheckMemoryBytes(part_bytes, name, spilled);
}

}  // namespace detail

namespace {

using column::AnyColumn;
using column::PartitionBlock;

/// Whether this transform, as the last of its chain, charges its emitted
/// rows as work (filter and add-index charge input only / nothing; the
/// others charge input + output).
bool ChargesEmitted(RowTransform::Kind k) {
  switch (k) {
    case RowTransform::Kind::kProject:
    case RowTransform::Kind::kOuterSelect:
    case RowTransform::Kind::kUnnest:
    case RowTransform::Kind::kOuterUnnest:
      return true;
    case RowTransform::Kind::kFilter:
    case RowTransform::Kind::kAddIndex:
      return false;
  }
  return false;
}

/// Takes the next id of partition p's counter `uid`: the partition in the
/// high bits, the counter in the low ones (outer-unnest and add-index share
/// the scheme).
int64_t NextId(size_t p, int64_t* uid) {
  return (static_cast<int64_t>(p) << 40) | (*uid)++;
}

/// Unnest and outer-unnest: lists the (outer row, bag member or none, id)
/// triples of rows [begin, end), then fills each output column from them.
void ApplyUnnest(const RowTransform& t, const PartitionBlock& src,
                 size_t begin, size_t end, size_t p, int64_t* uid,
                 PartitionBlock* dst) {
  const bool outer = t.kind == RowTransform::Kind::kOuterUnnest;
  const size_t bag_col = static_cast<size_t>(t.bag_col);
  const AnyColumn& bags = src.col(bag_col);
  TRANCE_CHECK(bags.kind() == AnyColumn::Kind::kVariant,
               "unnest: bag column is not a variant column");
  const size_t id_cols = t.with_id ? 1 : 0;
  const size_t outer_width = src.NumCols() - 1;
  const size_t inner_width = dst->NumCols() - id_cols - outer_width;

  struct Emit {
    size_t row;
    const Row* member;  // nullptr: an outer-unnest's NULL-padded row
    int64_t id;
  };
  std::vector<Emit> emits;
  for (size_t i = begin; i < end; ++i) {
    const int64_t id = outer ? NextId(p, uid) : 0;
    const Field& bag = bags.variants()[i];
    if (!bag.is_bag() || bag.AsBag()->empty()) {
      if (outer) emits.push_back({i, nullptr, id});
      continue;
    }
    for (const Row& m : *bag.AsBag()) {
      TRANCE_CHECK(m.fields.size() == inner_width,
                   "unnest: bag member of " + std::to_string(m.fields.size()) +
                       " fields, element schema of " +
                       std::to_string(inner_width));
      emits.push_back({i, &m, id});
    }
  }
  dst->AppendColumns(emits.size(), [&](size_t c, AnyColumn* col) {
    if (c < id_cols) {
      for (const Emit& e : emits) col->AppendInt64(e.id);
    } else if (c < id_cols + outer_width) {
      const size_t k = c - id_cols;
      const AnyColumn& from = src.col(k < bag_col ? k : k + 1);
      for (const Emit& e : emits) col->AppendFrom(from, e.row);
    } else {
      const size_t j = c - id_cols - outer_width;
      for (const Emit& e : emits) {
        if (e.member == nullptr) {
          col->AppendNull();
        } else {
          col->Append(e.member->fields[j]);
        }
      }
    }
  });
}

/// Applies `t` to rows [begin, end) of `src`, appending its output rows to
/// `dst`, a block of t.schema. `uid` is t's id counter in partition p.
void Apply(const RowTransform& t, const PartitionBlock& src, size_t begin,
           size_t end, size_t p, int64_t* uid, PartitionBlock* dst) {
  const size_t n = end - begin;
  switch (t.kind) {
    case RowTransform::Kind::kProject:
      dst->AppendColumns(n, [&](size_t c, AnyColumn* col) {
        const RowTransform::OutCol& oc = t.cols[c];
        if (oc.src >= 0) {
          const AnyColumn& from = src.col(static_cast<size_t>(oc.src));
          for (size_t i = begin; i < end; ++i) col->AppendFrom(from, i);
        } else {
          for (size_t i = begin; i < end; ++i) col->Append(oc.fn(src, i));
        }
      });
      break;
    case RowTransform::Kind::kFilter:
      for (size_t i = begin; i < end; ++i) {
        if (t.pred(src, i)) dst->AppendRowFrom(src, i);
      }
      break;
    case RowTransform::Kind::kOuterSelect: {
      std::vector<uint8_t> pass(n);
      for (size_t i = begin; i < end; ++i) pass[i - begin] = t.pred(src, i);
      dst->AppendColumns(n, [&](size_t c, AnyColumn* col) {
        const AnyColumn& from = src.col(c);
        for (size_t i = begin; i < end; ++i) {
          if (t.keep[c] || pass[i - begin]) {
            col->AppendFrom(from, i);
          } else {
            col->AppendNull();
          }
        }
      });
      break;
    }
    case RowTransform::Kind::kUnnest:
    case RowTransform::Kind::kOuterUnnest:
      ApplyUnnest(t, src, begin, end, p, uid, dst);
      break;
    case RowTransform::Kind::kAddIndex: {
      const size_t width = src.NumCols();
      dst->AppendColumns(n, [&](size_t c, AnyColumn* col) {
        if (c < width) {
          for (size_t i = begin; i < end; ++i) col->AppendFrom(src.col(c), i);
        } else {
          for (size_t i = begin; i < end; ++i) col->AppendInt64(NextId(p, uid));
        }
      });
      break;
    }
  }
}

}  // namespace

RowTransform RowTransform::Project(std::string op, Schema schema,
                                   std::vector<OutCol> cols) {
  RowTransform t;
  t.kind = Kind::kProject;
  t.op = std::move(op);
  t.schema = std::move(schema);
  t.cols = std::move(cols);
  return t;
}

RowTransform RowTransform::Filter(std::string op, Schema schema,
                                  PredicateFn pred) {
  RowTransform t;
  t.kind = Kind::kFilter;
  t.op = std::move(op);
  t.schema = std::move(schema);
  t.pred = std::move(pred);
  return t;
}

RowTransform RowTransform::OuterSelect(std::string op, Schema schema,
                                       PredicateFn pred,
                                       std::vector<bool> keep) {
  RowTransform t;
  t.kind = Kind::kOuterSelect;
  t.op = std::move(op);
  t.schema = std::move(schema);
  t.pred = std::move(pred);
  t.keep = std::move(keep);
  return t;
}

RowTransform RowTransform::Unnest(std::string op, Schema schema,
                                  int bag_col) {
  RowTransform t;
  t.kind = Kind::kUnnest;
  t.op = std::move(op);
  t.schema = std::move(schema);
  t.bag_col = bag_col;
  return t;
}

RowTransform RowTransform::OuterUnnest(std::string op, Schema schema,
                                       int bag_col, bool with_id) {
  RowTransform t;
  t.kind = Kind::kOuterUnnest;
  t.op = std::move(op);
  t.schema = std::move(schema);
  t.bag_col = bag_col;
  t.with_id = with_id;
  return t;
}

RowTransform RowTransform::AddIndex(std::string op, Schema schema) {
  RowTransform t;
  t.kind = Kind::kAddIndex;
  t.op = std::move(op);
  t.schema = std::move(schema);
  return t;
}

StatusOr<Dataset> RunStagePipeline(Cluster* cluster, const Dataset& in,
                                   const std::vector<RowTransform>& chain,
                                   Partitioning out_partitioning,
                                   const std::string& stage_name) {
  TRANCE_CHECK(!chain.empty(), "RunStagePipeline: empty chain");
  const size_t len = chain.size();

  // Work-charge policy. An unfused pipeline would charge every transform's
  // input; the fused stage reads the input once and emits the final rows
  // once, so it charges exactly those two walks (preserving the standalone
  // operators' historical accounting for single-transform chains). Bytes the
  // unfused pipeline would have materialized in between are tracked
  // separately as intermediate_bytes_avoided.
  bool charge_input = false;
  for (const auto& t : chain) {
    if (t.kind != RowTransform::Kind::kAddIndex) charge_input = true;
  }
  const bool charge_final = ChargesEmitted(chain.back().kind);

  const size_t nparts = in.NumPartitions();
  Dataset out = Dataset::Empty(chain.back().schema, nparts,
                               std::move(out_partitioning));

  // Per-partition emitted-row counts, merged in partition order after the
  // barrier (bit-identical stats at any thread count).
  std::vector<std::vector<uint64_t>> transform_rows(nparts);

  auto task = [&](size_t p, PartitionBlock* out_block, StageStats* slot) {
    // Per-partition id counters reproduce the standalone operators' uid
    // scheme exactly: ids depend only on the partition and the row order,
    // both of which fusion and batching preserve. They and the row counts
    // start from zero in every attempt, so a recovery re-execution recounts
    // them, and carry across the attempt's batches.
    std::vector<int64_t> uid(len, 0);
    std::vector<uint64_t>& t_rows = transform_rows[p];
    t_rows.assign(len, 0);

    const PartitionBlock& in_block = *in.parts[p];
    const size_t n = in_block.NumRows();
    for (size_t b = 0; b < n; b += kChainBatchRows) {
      // Transform 0 reads the batch's rows of the input block; transform i
      // > 0 reads all of `cur`, its predecessor's output. A non-final
      // transform writes a fresh `next` block, which lives for this batch;
      // the last one appends to the output partition.
      const PartitionBlock* src = &in_block;
      size_t begin = b, end = std::min(n, b + kChainBatchRows);
      PartitionBlock cur, next;
      for (size_t i = 0; i < len; ++i) {
        const bool last = i + 1 == len;
        if (!last) next = PartitionBlock(chain[i].schema);
        PartitionBlock* dst = last ? out_block : &next;
        const size_t before = dst->NumRows();
        Apply(chain[i], *src, begin, end, p, &uid[i], dst);
        t_rows[i] += dst->NumRows() - before;
        if (last) break;
        slot->intermediate_bytes_avoided += next.TotalRowBytes();
        std::swap(cur, next);
        src = &cur;
        begin = 0;
        end = cur.NumRows();
      }
    }
  };

  StageStats stage;
  stage.op = stage_name;
  TRANCE_RETURN_NOT_OK(
      detail::RunPartitionTasks(cluster, stage_name, &stage, &out, task));

  // Pre-set attribution to the chain's last plan node (RecordStage falls
  // back to the cluster scope stack only when this stays empty).
  stage.scope = chain.back().scope;
  stage.rows_in = in.NumRows();
  if (charge_input || charge_final) {
    detail::SetWork(&stage, nparts, [&](size_t p) {
      return (charge_input ? in.parts[p]->TotalRowBytes() : 0) +
             (charge_final ? out.parts[p]->TotalRowBytes() : 0);
    });
  }
  if (len > 1) {
    stage.fused_transforms.resize(len);
    for (size_t i = 0; i < len; ++i) {
      stage.fused_transforms[i].op = chain[i].op;
      stage.fused_transforms[i].scope = chain[i].scope;
      for (size_t p = 0; p < nparts; ++p) {
        stage.fused_transforms[i].rows_out += transform_rows[p][i];
      }
    }
  }
  TRANCE_RETURN_NOT_OK(
      detail::FinishStage(cluster, std::move(stage), &out, stage_name));
  return out;
}

}  // namespace runtime
}  // namespace trance
