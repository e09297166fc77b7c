#include "runtime/cluster.h"

#include "util/stopwatch.h"

namespace trance {
namespace runtime {

uint64_t Cluster::BeginJob() {
  std::lock_guard<std::mutex> lock(mu_);
  last_stage_end_us_ = WallMicros();
  return ++job_id_;
}

void Cluster::RecordStage(StageStats s) {
  s.sim_seconds =
      config_.stage_overhead_seconds +
      static_cast<double>(s.max_partition_work_bytes) *
          config_.seconds_per_cpu_byte +
      static_cast<double>(s.max_partition_recv_bytes) *
          config_.seconds_per_net_byte;
  // Recovery charge: for every injected fault, the bounded exponential
  // backoff plus the cost-model price of what the fault destroyed — the
  // discarded attempt's work (crash kinds) or the lost fetch (fetch loss).
  // Charged into recovery_sim_seconds, never sim_seconds, so the base stats
  // of a recovered run are bit-identical to a fault-free run.
  for (const FaultEvent& ev : s.fault_events) {
    double charge = injector_.BackoffSeconds(static_cast<int>(ev.attempt));
    uint64_t work = ev.partition < s.partition_work_bytes.size()
                        ? s.partition_work_bytes[ev.partition]
                        : 0;
    uint64_t recv = ev.partition < s.partition_recv_bytes.size()
                        ? s.partition_recv_bytes[ev.partition]
                        : 0;
    charge += ev.kind == FaultKind::kFetchLoss
                  ? static_cast<double>(recv) * config_.seconds_per_net_byte
                  : static_cast<double>(work) * config_.seconds_per_cpu_byte;
    s.recovery_sim_seconds += charge;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (s.scope.empty() && !scope_stack_.empty()) s.scope = scope_stack_.back();
  double now_us = WallMicros();
  s.wall_start_us = last_stage_end_us_ < 0 ? now_us : last_stage_end_us_;
  if (s.wall_start_us > now_us) s.wall_start_us = now_us;
  s.wall_dur_us = now_us - s.wall_start_us;
  last_stage_end_us_ = now_us;
  LogStage(stats_.stages().size(), s);
  stats_.AddStage(std::move(s));
}

void Cluster::LogStage(size_t stage_index, const StageStats& s) {
  // One stage_finish per stage, carrying the table rows the stage's
  // stages[] JSON object carries (a group's keys when any of them is
  // nonzero; wall-clock rows as wall_ fields); heavy-key decisions get their
  // own event so skew handling is visible without parsing stages.
  obs::EventLog& log = obs::GlobalEventLog();
  if (!log.enabled()) return;
  obs::Event finish(&log, "stage_finish");
  finish.U64("job", job_id_)
      .U64("stage", stage_index)
      .Str("op", s.op)
      .Str("scope", s.scope)
      .Str("movement", DataMovementName(s.movement));
  const uint32_t shown = ShownStatGroups(s);
  for (const StatField& f : kStatFields) {
    if (!(shown & StatGroupBit(f.group))) continue;
    if (f.cls == StatClass::kWall) {
      finish.Wall(f.key, f.AsDouble(s));
    } else if (f.u64 != nullptr) {
      finish.U64(f.key, s.*f.u64);
    } else {
      finish.F64(f.key, s.*f.f64);
    }
  }
  finish.Emit();
  if (s.heavy_key_count > 0) {
    obs::Event(&log, "heavy_keys")
        .U64("job", job_id_)
        .U64("stage", stage_index)
        .Str("op", s.op)
        .Str("scope", s.scope)
        .U64("count", s.heavy_key_count)
        .Emit();
  }
}

spill::SpillManager* Cluster::spill_manager() {
  std::lock_guard<std::mutex> lock(mu_);
  if (spill_manager_ == nullptr) {
    spill_manager_ = std::make_unique<spill::SpillManager>(config_.spill);
  }
  return spill_manager_.get();
}

Status Cluster::RunRecoverableTasks(const std::string& stage_name, size_t n,
                                    StageStats* stage,
                                    const std::function<void(size_t)>& task,
                                    const std::function<void(size_t)>& reset) {
  if (!injector_.enabled()) {
    RunParallel(n, task);
    return Status::OK();
  }
  const uint64_t stage_seq = next_stage_seq_.fetch_add(1);
  const int budget = config_.faults.max_task_retries;
  // Per-slot fault logs, merged in slot order after the barrier so the
  // telemetry (like every other stat) is thread-count-invariant.
  std::vector<std::vector<FaultKind>> faults(n);
  std::vector<FaultKind> exhausted(n, FaultKind::kNone);
  RunParallel(n, [&](size_t p) {
    for (int attempt = 0;; ++attempt) {
      FaultKind k = injector_.Decide(stage_seq, p, attempt);
      if (k == FaultKind::kNone) {
        task(p);
        return;
      }
      if (k != FaultKind::kFetchLoss) {
        // Crash-type fault: the attempt runs and its partial output is
        // discarded — re-execution then recomputes slot p from the stage's
        // still-held input partitions (lineage recovery).
        task(p);
        reset(p);
      }
      faults[p].push_back(k);
      if (attempt >= budget) {
        exhausted[p] = k;
        return;
      }
    }
  });
  // Driver-side merge in slot order: stats and events both come out
  // thread-count-invariant because nothing here depends on worker timing.
  obs::EventLog& log = obs::GlobalEventLog();
  uint64_t total = 0;
  for (size_t p = 0; p < n; ++p) {
    if (faults[p].empty()) continue;
    total += faults[p].size();
    for (size_t a = 0; a < faults[p].size(); ++a) {
      stage->fault_events.push_back({static_cast<uint32_t>(p),
                                     static_cast<uint32_t>(a), faults[p][a]});
      if (log.enabled()) {
        obs::Event(&log, "fault")
            .U64("job", job_id_)
            .U64("stage_seq", stage_seq)
            .U64("partition", p)
            .U64("attempt", a)
            .Str("kind", FaultKindName(faults[p][a]))
            .Emit();
        if (static_cast<int>(a) < budget) {
          obs::Event(&log, "retry")
              .U64("job", job_id_)
              .U64("stage_seq", stage_seq)
              .U64("partition", p)
              .U64("attempt", a + 1)
              .F64("backoff_sim_seconds",
                   injector_.BackoffSeconds(static_cast<int>(a)))
              .Emit();
        }
      }
    }
  }
  stage->injected_faults += total;
  for (size_t p = 0; p < n; ++p) {
    if (exhausted[p] == FaultKind::kNone) continue;
    std::string scope = current_scope();
    return Status::ResourceExhausted(
        "retry budget exhausted in stage '" + stage_name + "'" +
        (scope.empty() ? "" : " (scope " + scope + ")") + ": partition " +
        std::to_string(p) + " task failed " + std::to_string(budget + 1) +
        " attempts (last fault: " + FaultKindName(exhausted[p]) +
        ", retry budget " + std::to_string(budget) + ")");
  }
  stage->retries += total;  // every injected fault was followed by a retry
  return Status::OK();
}

}  // namespace runtime
}  // namespace trance
