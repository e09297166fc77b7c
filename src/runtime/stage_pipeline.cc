#include "runtime/stage_pipeline.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace trance {
namespace runtime {

namespace detail {

void NoteSpill(Cluster* cluster, StageStats* stage, const std::string& op,
               size_t partition, uint64_t partition_bytes,
               const spill::SpillCounters& c) {
  stage->spill_bytes_written += c.bytes_written;
  stage->spill_bytes_read += c.bytes_read;
  stage->spill_runs += c.runs;
  stage->spill_merge_passes += c.merge_passes;
  stage->spill_rowify_avoided += c.rowify_avoided;
  obs::EventLog& log = obs::GlobalEventLog();
  if (!log.enabled()) return;
  obs::Event(&log, "spill")
      .U64("job", cluster->current_job_id())
      .Str("op", op)
      .U64("partition", partition)
      .U64("partition_bytes", partition_bytes)
      .U64("bytes_written", c.bytes_written)
      .U64("bytes_read", c.bytes_read)
      .U64("runs", c.runs)
      .U64("merge_passes", c.merge_passes)
      .U64("rowify_avoided", c.rowify_avoided)
      .Emit();
}

Status FinishStage(Cluster* cluster, StageStats stage, Dataset* result,
                   const std::string& name,
                   std::vector<uint64_t> part_bytes) {
  stage.rows_out = result->NumRows();
  if (part_bytes.empty()) {
    part_bytes = result->PartitionBytes(cluster->num_threads());
  }
  for (uint64_t b : part_bytes) {
    if (b > stage.mem_high_water_bytes) stage.mem_high_water_bytes = b;
  }
  // Out-of-core fallback: partitions whose output footprint crosses the
  // spill threshold are written to disk runs and streamed back (identical
  // row sequence — see runtime/spill.h), turning what the memory check below
  // would fail into a slow-but-correct stage. Driver-side, in partition
  // order, so spill counters and events are thread-count-invariant; the
  // recorded peak bytes are untouched, keeping mem_high_water /
  // peak_partition_bytes bit-identical to an uncapped run.
  Status spill_status = Status::OK();
  std::vector<uint8_t> spilled(part_bytes.size(), 0);
  bool any_spilled = false;
  if (cluster->spill_enabled()) {
    uint64_t threshold = std::min(cluster->spill_threshold_bytes(),
                                  cluster->config().partition_memory_cap);
    for (size_t p = 0; p < part_bytes.size(); ++p) {
      if (part_bytes[p] <= threshold) continue;
      spill::SpillCounters pc;
      // Blocks round-trip as columnar serde records (no disk-side
      // rowification) and come back resident.
      spill_status = cluster->spill_manager()->SpillAndRestoreBlock(
          cluster->current_job_id(), name, p, result->schema,
          &result->parts[p], &pc);
      if (!spill_status.ok()) break;
      spilled[p] = 1;
      any_spilled = true;
      NoteSpill(cluster, &stage, name, p, part_bytes[p], pc);
    }
  }
  cluster->RecordStage(std::move(stage));
  TRANCE_RETURN_NOT_OK(spill_status);
  return cluster->CheckMemoryBytes(part_bytes, name,
                                   any_spilled ? &spilled : nullptr);
}

}  // namespace detail

namespace {

/// Whether this transform, as the last of its chain, charges its emitted
/// rows to the work meter (filter and add-index charge input only /
/// nothing; the others charge input + output).
bool ChargesEmitted(RowTransform::Kind k) {
  switch (k) {
    case RowTransform::Kind::kMap:
    case RowTransform::Kind::kFlatMap:
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

RowTransform RowTransform::FlatMap(std::string op, FlatMapFn fn) {
  RowTransform t;
  t.kind = Kind::kFlatMap;
  t.op = std::move(op);
  t.flat_map = std::move(fn);
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
  const bool track_work = charge_input || charge_final;

  const size_t nparts = in.NumPartitions();
  Dataset out = Dataset::Empty(std::move(out_schema), nparts,
                               std::move(out_partitioning));

  // Per-partition accumulator slots, merged in partition order after the
  // barrier (bit-identical stats at any thread count).
  std::vector<uint64_t> work(nparts, 0);
  std::vector<uint64_t> rows_in(nparts, 0);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> avoided(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  std::vector<std::vector<uint64_t>> transform_rows(
      nparts, std::vector<uint64_t>(len, 0));

  // The chain scans the input block and appends emitted rows straight into
  // the output partition's resident block. Each input row materializes
  // transiently to feed the chain; work and byte charges are computed from
  // the block's exact Field values.

  auto task = [&](size_t p) {
    // Per-partition id counters reproduce the standalone operators' uid
    // scheme exactly: ids depend only on the partition and the row order,
    // both of which fusion preserves (and they live inside the task, so a
    // recovery re-execution restarts them from zero).
    std::vector<int64_t> uid(len, 0);
    std::vector<uint64_t>& t_rows = transform_rows[p];

    std::function<void(size_t, const Row&)> feed = [&](size_t i,
                                                       const Row& row) {
      const RowTransform& t = chain[i];
      auto emit = [&](Row r) {
        ++t_rows[i];
        if (i + 1 == len) {
          uint64_t sz = RowDeepSize(r);
          out_bytes[p] += sz;
          if (charge_final) work[p] += sz;
          out.parts[p].AppendRow(r);
        } else {
          avoided[p] += RowDeepSize(r);
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
        case RowTransform::Kind::kFlatMap: {
          std::vector<Row> buf;
          t.flat_map(row, &buf);
          for (auto& r : buf) emit(std::move(r));
          break;
        }
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
    rows_in[p] = n;
    for (size_t i = 0; i < n; ++i) {
      Row row = in_block.RowAt(i);  // transient: feeds the chain, then dies
      if (charge_input) work[p] += RowDeepSize(row);
      feed(0, row);
    }
    col_bytes[p] += out.parts[p].ByteFootprint();
  };

  StageStats stage;
  stage.op = stage_name;
  // Injected crash faults discard the partition's accumulator slots; the
  // retry recomputes them from the input partition, which the chain never
  // mutates.
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      stage_name, nparts, &stage, task, [&](size_t p) {
        out.ClearPartition(p);
        work[p] = 0;
        rows_in[p] = 0;
        out_bytes[p] = 0;
        avoided[p] = 0;
        col_bytes[p] = 0;
        transform_rows[p].assign(len, 0);
      }));

  // Pre-set attribution to the chain's last plan node (RecordStage falls
  // back to the cluster scope stack only when this stays empty).
  stage.scope = chain.back().scope;
  for (uint64_t n : rows_in) stage.rows_in += n;
  if (track_work) {
    for (uint64_t w : work) {
      stage.total_work_bytes += w;
      if (w > stage.max_partition_work_bytes) {
        stage.max_partition_work_bytes = w;
      }
    }
    stage.partition_work_bytes = std::move(work);
  }
  for (uint64_t b : avoided) stage.intermediate_bytes_avoided += b;
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
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
  TRANCE_RETURN_NOT_OK(detail::FinishStage(cluster, std::move(stage), &out,
                                           stage_name, std::move(out_bytes)));
  return out;
}

}  // namespace runtime
}  // namespace trance
