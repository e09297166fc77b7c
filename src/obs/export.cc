#include "obs/export.h"

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

void WriteStatField(const runtime::StatField& f, const runtime::StageStats& s,
                    JsonWriter* w) {
  w->Key(f.key);
  if (f.u64 != nullptr) {
    w->Uint(s.*f.u64);
  } else {
    w->Number(s.*f.f64);
  }
}

void WriteJobStats(const runtime::JobStats& stats, JsonWriter* w) {
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
    w->Key("movement");
    w->String(runtime::DataMovementName(s.movement));
    // Every table row, its group permitting: a clause group's keys appear
    // when any of them is nonzero.
    const uint32_t shown = runtime::ShownStatGroups(s);
    for (const runtime::StatField& f : runtime::kStatFields) {
      if (shown & runtime::StatGroupBit(f.group)) WriteStatField(f, s, w);
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
    if (!s.fault_events.empty()) {
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
    WriteLoadSummary("work", s.partition_work_bytes, w);
    WriteLoadSummary("recv", s.partition_recv_bytes, w);
    WriteLoadSummary("send", s.partition_send_bytes, w);
    w->EndObject();
  }
  w->EndArray();
  runtime::StragglerSummary sk = stats.straggler();
  w->Key("totals");
  w->BeginObject();
  w->Key("num_stages");
  w->Uint(stats.stages().size());
  w->Key("fused_stages");
  w->Uint(stats.fused_stages());
  w->Key("max_stage_shuffle_bytes");
  w->Uint(stats.max_stage_shuffle_bytes());
  w->Key("peak_partition_bytes");
  w->Uint(stats.peak_partition_bytes());
  w->Key("worst_imbalance");
  w->Number(sk.worst_imbalance);
  w->Key("worst_stage");
  w->String(sk.worst_stage);
  for (const runtime::StatField& f : runtime::kStatFields) {
    if (f.outputs & runtime::kOutJobTotals) {
      WriteStatField(f, stats.totals(), w);
    }
  }
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

}  // namespace obs
}  // namespace trance
