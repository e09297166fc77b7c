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
  std::vector<StageStats> slots(n);
  // A crashed attempt is re-executed from the stage's input partitions,
  // which no task mutates, so discarding its block and slot is the whole
  // of lineage recovery.
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, n, stage, [&](size_t p) { task(p, &slots[p]); },
      [&](size_t p) {
        out->ClearPartition(p);
        slots[p] = StageStats{};
      }));
  for (size_t p = 0; p < n; ++p) {
    FoldStage(slots[p], stage);
    stage->columnar_bytes += out->parts[p].ByteFootprint();
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
  // the stage name and streamed back, the same rows in the same order,
  // turning the paper's FAIL into a slow-but-correct stage. Driver-side and
  // in partition order, so the spill counters and events are
  // thread-count-invariant. The recorded peak bytes are untouched, keeping
  // mem_high_water / peak_partition_bytes bit-identical to an uncapped run.
  size_t spilled = 0;
  auto spill_over_cap = [&]() -> Status {
    if (!cluster->spill_enabled()) return Status::OK();
    const uint64_t cap = cluster->config().partition_memory_cap;
    for (size_t p = 0; p < part_bytes.size(); ++p) {
      if (part_bytes[p] <= cap) continue;
      StageStats slot;
      TRANCE_RETURN_NOT_OK(cluster->spill_manager()->SpillAndRestoreBlock(
          cluster->current_job_id(), name, p, result->schema,
          &result->parts[p], &slot));
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

/// Whether this transform, as the last of its chain, charges its emitted
/// rows as work (filter and add-index charge input only / nothing; the
/// others charge input + output).
bool ChargesEmitted(RowTransform::Kind k) {
  switch (k) {
    case RowTransform::Kind::kMap:
    case RowTransform::Kind::kUnnest:
    case RowTransform::Kind::kOuterUnnest:
      return true;
    case RowTransform::Kind::kFilter:
    case RowTransform::Kind::kAddIndex:
      return false;
  }
  return false;
}

}  // namespace

RowTransform RowTransform::Map(std::string op, MapFn fn) {
  RowTransform t;
  t.kind = Kind::kMap;
  t.op = std::move(op);
  t.map = std::move(fn);
  return t;
}

RowTransform RowTransform::Filter(std::string op, PredFn fn) {
  RowTransform t;
  t.kind = Kind::kFilter;
  t.op = std::move(op);
  t.pred = std::move(fn);
  return t;
}

RowTransform RowTransform::Unnest(std::string op, int bag_col) {
  RowTransform t;
  t.kind = Kind::kUnnest;
  t.op = std::move(op);
  t.bag_col = bag_col;
  return t;
}

RowTransform RowTransform::OuterUnnest(std::string op, int bag_col,
                                       bool with_id, size_t inner_width) {
  RowTransform t;
  t.kind = Kind::kOuterUnnest;
  t.op = std::move(op);
  t.bag_col = bag_col;
  t.with_id = with_id;
  t.inner_width = inner_width;
  return t;
}

RowTransform RowTransform::AddIndex(std::string op) {
  RowTransform t;
  t.kind = Kind::kAddIndex;
  t.op = std::move(op);
  return t;
}

StatusOr<Dataset> RunStagePipeline(Cluster* cluster, const Dataset& in,
                                   Schema out_schema,
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
  Dataset out = Dataset::Empty(std::move(out_schema), nparts,
                               std::move(out_partitioning));

  // Per-partition emitted-row counts, merged in partition order after the
  // barrier (bit-identical stats at any thread count).
  std::vector<std::vector<uint64_t>> transform_rows(nparts);

  // The chain scans the input block and appends emitted rows straight into
  // the output partition's resident block. Each input row materializes
  // transiently to feed the chain; intermediate rows are sized as they pass,
  // and work charges are read off the input and output blocks' byte totals
  // after the barrier.

  auto task = [&](size_t p, StageStats* slot) {
    // Per-partition id counters reproduce the standalone operators' uid
    // scheme exactly: ids depend only on the partition and the row order,
    // both of which fusion preserves. They and the row counts start from
    // zero in every attempt, so a recovery re-execution recounts them.
    std::vector<int64_t> uid(len, 0);
    std::vector<uint64_t>& t_rows = transform_rows[p];
    t_rows.assign(len, 0);

    std::function<void(size_t, const Row&)> feed = [&](size_t i,
                                                       const Row& row) {
      const RowTransform& t = chain[i];
      auto emit = [&](Row r) {
        ++t_rows[i];
        if (i + 1 == len) {
          out.parts[p].AppendRow(r);
        } else {
          slot->intermediate_bytes_avoided += RowDeepSize(r);
          feed(i + 1, r);
        }
      };
      switch (t.kind) {
        case RowTransform::Kind::kMap:
          emit(t.map(row));
          break;
        case RowTransform::Kind::kFilter:
          if (t.pred(row)) emit(row);
          break;
        case RowTransform::Kind::kUnnest: {
          const Field& bag = row.fields[static_cast<size_t>(t.bag_col)];
          if (!bag.is_bag() || bag.AsBag() == nullptr) break;
          for (const auto& inner : *bag.AsBag()) {
            Row r;
            r.fields.reserve(row.fields.size() - 1 + inner.fields.size());
            for (size_t c = 0; c < row.fields.size(); ++c) {
              if (static_cast<int>(c) == t.bag_col) continue;
              r.fields.push_back(row.fields[c]);
            }
            for (const auto& f : inner.fields) r.fields.push_back(f);
            emit(std::move(r));
          }
          break;
        }
        case RowTransform::Kind::kOuterUnnest: {
          int64_t u = (static_cast<int64_t>(p) << 40) | uid[i]++;
          const Field& bag = row.fields[static_cast<size_t>(t.bag_col)];
          auto emit_inner = [&](const Row* inner) {
            Row r;
            r.fields.reserve((t.with_id ? 1 : 0) + row.fields.size() - 1 +
                             t.inner_width);
            if (t.with_id) r.fields.push_back(Field::Int(u));
            for (size_t c = 0; c < row.fields.size(); ++c) {
              if (static_cast<int>(c) == t.bag_col) continue;
              r.fields.push_back(row.fields[c]);
            }
            if (inner != nullptr) {
              for (const auto& f : inner->fields) r.fields.push_back(f);
            } else {
              for (size_t k = 0; k < t.inner_width; ++k) {
                r.fields.push_back(Field::Null());
              }
            }
            emit(std::move(r));
          };
          if (!bag.is_bag() || bag.AsBag() == nullptr || bag.AsBag()->empty()) {
            emit_inner(nullptr);
          } else {
            for (const auto& inner : *bag.AsBag()) emit_inner(&inner);
          }
          break;
        }
        case RowTransform::Kind::kAddIndex: {
          Row r = row;
          r.fields.push_back(
              Field::Int((static_cast<int64_t>(p) << 40) | uid[i]++));
          emit(std::move(r));
          break;
        }
      }
    };

    const column::PartitionBlock& in_block = in.parts[p];
    const size_t n = in_block.NumRows();
    for (size_t i = 0; i < n; ++i) {
      feed(0, in_block.RowAt(i));  // transient: feeds the chain, then dies
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
      return (charge_input ? in.parts[p].TotalRowBytes() : 0) +
             (charge_final ? out.parts[p].TotalRowBytes() : 0);
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
    obs::MetricRegistry& metrics = cluster->metrics();
    metrics
        .GetCounter("trance_fused_stages_total",
                    "stages that ran a fused chain of narrow transforms")
        ->Increment();
    metrics
        .GetCounter("trance_intermediate_bytes_avoided_total",
                    "bytes fusion kept from materializing between transforms")
        ->Add(stage.intermediate_bytes_avoided);
    metrics
        .GetHistogram("trance_fused_chain_length",
                      "narrow transforms per fused stage",
                      {1.0, 2.0, 3.0, 4.0, 6.0, 8.0})
        ->Observe(static_cast<double>(len));
  }
  TRANCE_RETURN_NOT_OK(
      detail::FinishStage(cluster, std::move(stage), &out, stage_name));
  return out;
}

}  // namespace runtime
}  // namespace trance
