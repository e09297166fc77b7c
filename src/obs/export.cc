#include "obs/export.h"

#include <fstream>

#include "obs/histogram.h"
#include "util/strings.h"

namespace trance {
namespace obs {

namespace {

void WriteLoadSummary(const char* key, const std::vector<uint64_t>& loads,
                      JsonWriter* w) {
  if (loads.empty()) return;
  LoadSummary s = SummarizeLoads(loads);
  w->Key(key);
  w->BeginObject();
  w->Key("partitions");
  w->Uint(s.partitions);
  w->Key("min");
  w->Uint(s.min);
  w->Key("p50");
  w->Uint(s.p50);
  w->Key("p95");
  w->Uint(s.p95);
  w->Key("max");
  w->Uint(s.max);
  w->Key("total");
  w->Uint(s.total);
  w->Key("mean");
  w->Number(s.mean);
  w->Key("imbalance");
  w->Number(s.imbalance);
  w->EndObject();
}

}  // namespace

void WriteJobStats(const runtime::JobStats& stats, JsonWriter* w) {
  runtime::StragglerSummary sk = stats.straggler();
  w->BeginObject();
  w->Key("stages");
  w->BeginArray();
  for (const auto& s : stats.stages()) {
    w->BeginObject();
    w->Key("op");
    w->String(s.op);
    if (!s.scope.empty()) {
      w->Key("scope");
      w->String(s.scope);
    }
    w->Key("rows_in");
    w->Uint(s.rows_in);
    w->Key("rows_out");
    w->Uint(s.rows_out);
    w->Key("shuffle_bytes");
    w->Uint(s.shuffle_bytes);
    w->Key("max_partition_recv_bytes");
    w->Uint(s.max_partition_recv_bytes);
    w->Key("max_partition_work_bytes");
    w->Uint(s.max_partition_work_bytes);
    w->Key("total_work_bytes");
    w->Uint(s.total_work_bytes);
    w->Key("mem_high_water_bytes");
    w->Uint(s.mem_high_water_bytes);
    w->Key("movement");
    w->String(runtime::DataMovementName(s.movement));
    if (s.heavy_key_count > 0) {
      w->Key("heavy_key_count");
      w->Uint(s.heavy_key_count);
    }
    if (!s.fused_transforms.empty()) {
      w->Key("fused_transforms");
      w->BeginArray();
      for (const auto& t : s.fused_transforms) {
        w->BeginObject();
        w->Key("op");
        w->String(t.op);
        if (!t.scope.empty()) {
          w->Key("scope");
          w->String(t.scope);
        }
        w->Key("rows_out");
        w->Uint(t.rows_out);
        w->EndObject();
      }
      w->EndArray();
    }
    if (s.intermediate_bytes_avoided > 0) {
      w->Key("intermediate_bytes_avoided");
      w->Uint(s.intermediate_bytes_avoided);
    }
    if (s.key_encode_bytes > 0) {
      w->Key("key_encode_bytes");
      w->Uint(s.key_encode_bytes);
    }
    if (s.hash_build_rows > 0 || s.hash_probe_hits > 0) {
      w->Key("hash_build_rows");
      w->Uint(s.hash_build_rows);
      w->Key("hash_probe_hits");
      w->Uint(s.hash_probe_hits);
      w->Key("hash_max_chain");
      w->Uint(s.hash_max_chain);
    }
    if (s.hash_table_bytes > 0 || s.hash_resizes > 0) {
      w->Key("hash_table_bytes");
      w->Uint(s.hash_table_bytes);
      w->Key("hash_resizes");
      w->Uint(s.hash_resizes);
      w->Key("hash_probe_len_max");
      w->Uint(s.hash_probe_len_max);
    }
    if (s.columnar_bytes > 0) {
      w->Key("columnar_bytes");
      w->Uint(s.columnar_bytes);
    }
    if (s.spill_bytes_written > 0 || s.spill_runs > 0) {
      w->Key("spill_bytes_written");
      w->Uint(s.spill_bytes_written);
      w->Key("spill_bytes_read");
      w->Uint(s.spill_bytes_read);
      w->Key("spill_runs");
      w->Uint(s.spill_runs);
      w->Key("spill_merge_passes");
      w->Uint(s.spill_merge_passes);
      w->Key("spill_rowify_avoided");
      w->Uint(s.spill_rowify_avoided);
    }
    if (s.injected_faults > 0) {
      w->Key("injected_faults");
      w->Uint(s.injected_faults);
      w->Key("retries");
      w->Uint(s.retries);
      w->Key("recovery_sim_seconds");
      w->Number(s.recovery_sim_seconds);
      w->Key("fault_events");
      w->BeginArray();
      for (const auto& ev : s.fault_events) {
        w->BeginObject();
        w->Key("partition");
        w->Uint(ev.partition);
        w->Key("attempt");
        w->Uint(ev.attempt);
        w->Key("kind");
        w->String(runtime::FaultKindName(ev.kind));
        w->EndObject();
      }
      w->EndArray();
    }
    w->Key("imbalance");
    w->Number(s.ImbalanceFactor());
    w->Key("sim_seconds");
    w->Number(s.sim_seconds);
    w->Key("wall_dur_us");
    w->Number(s.wall_dur_us);
    WriteLoadSummary("work", s.partition_work_bytes, w);
    WriteLoadSummary("recv", s.partition_recv_bytes, w);
    WriteLoadSummary("send", s.partition_send_bytes, w);
    w->EndObject();
  }
  w->EndArray();
  w->Key("totals");
  w->BeginObject();
  w->Key("num_stages");
  w->Uint(stats.stages().size());
  w->Key("fused_stages");
  w->Uint(stats.fused_stages());
  w->Key("intermediate_bytes_avoided");
  w->Uint(stats.intermediate_bytes_avoided());
  w->Key("shuffle_bytes");
  w->Uint(stats.total_shuffle_bytes());
  w->Key("max_stage_shuffle_bytes");
  w->Uint(stats.max_stage_shuffle_bytes());
  w->Key("peak_partition_bytes");
  w->Uint(stats.peak_partition_bytes());
  w->Key("max_partition_recv_bytes");
  w->Uint(sk.max_partition_recv_bytes);
  w->Key("max_partition_work_bytes");
  w->Uint(sk.max_partition_work_bytes);
  w->Key("worst_imbalance");
  w->Number(sk.worst_imbalance);
  w->Key("worst_stage");
  w->String(sk.worst_stage);
  w->Key("heavy_key_count");
  w->Uint(sk.heavy_key_count);
  w->Key("key_encode_bytes");
  w->Uint(stats.key_encode_bytes());
  w->Key("hash_build_rows");
  w->Uint(stats.hash_build_rows());
  w->Key("hash_probe_hits");
  w->Uint(stats.hash_probe_hits());
  w->Key("hash_max_chain");
  w->Uint(stats.hash_max_chain());
  w->Key("hash_table_bytes");
  w->Uint(stats.hash_table_bytes());
  w->Key("hash_resizes");
  w->Uint(stats.hash_resizes());
  w->Key("hash_probe_len_max");
  w->Uint(stats.hash_probe_len_max());
  w->Key("columnar_bytes");
  w->Uint(stats.columnar_bytes());
  w->Key("spill_bytes_written");
  w->Uint(stats.spill_bytes_written());
  w->Key("spill_bytes_read");
  w->Uint(stats.spill_bytes_read());
  w->Key("spill_runs");
  w->Uint(stats.spill_runs());
  w->Key("spill_merge_passes");
  w->Uint(stats.spill_merge_passes());
  w->Key("spill_rowify_avoided");
  w->Uint(stats.spill_rowify_avoided());
  w->Key("injected_faults");
  w->Uint(stats.injected_faults());
  w->Key("retries");
  w->Uint(stats.retries());
  w->Key("recovery_sim_seconds");
  w->Number(stats.recovery_sim_seconds());
  w->Key("sim_seconds");
  w->Number(stats.sim_seconds());
  w->EndObject();
  w->EndObject();
}

std::string JobStatsToJson(const runtime::JobStats& stats) {
  JsonWriter w;
  WriteJobStats(stats, &w);
  return w.str();
}

void AppendJobStagesToTrace(const runtime::JobStats& stats, Tracer* tracer,
                            const std::string& prefix, int tid) {
  if (tracer == nullptr || !tracer->enabled()) return;
  for (const auto& s : stats.stages()) {
    TraceEvent ev;
    ev.name = prefix.empty() ? s.op : prefix + "/" + s.op;
    ev.cat = "stage";
    ev.ts_us = s.wall_start_us;
    ev.dur_us = s.wall_dur_us;
    ev.tid = tid;
    ev.args.emplace_back("rows_in", std::to_string(s.rows_in));
    ev.args.emplace_back("rows_out", std::to_string(s.rows_out));
    ev.args.emplace_back("shuffle", FormatBytes(s.shuffle_bytes));
    ev.args.emplace_back("movement",
                         runtime::DataMovementName(s.movement));
    ev.args.emplace_back("straggler",
                         FormatDouble(s.ImbalanceFactor(), 2) + "x");
    ev.args.emplace_back("sim_seconds", FormatDouble(s.sim_seconds, 4));
    if (!s.scope.empty()) ev.args.emplace_back("scope", s.scope);
    tracer->AddCompleteEvent(std::move(ev));
  }
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::Invalid("cannot open " + path + " for writing");
  f << content;
  f.close();
  if (!f) return Status::Invalid("short write to " + path);
  return Status::OK();
}

}  // namespace obs
}  // namespace trance
