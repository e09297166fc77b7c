#include "runtime/cluster.h"

#include "util/stopwatch.h"
#include "util/strings.h"

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
  PublishStage(stats_.stages().size(), s);
  stats_.AddStage(std::move(s));
}

void Cluster::PublishStage(size_t stage_index, const StageStats& s) {
  // Registry half: one series per kStatFields row that names one, from this
  // one site (stats.h). Integer sums are counters; maxima are SetMax gauges;
  // doubles are Add gauges (driver-sequential here, so the floating-point
  // order — and hence the value — is deterministic). The three series after
  // the loop are derived from the stage rather than read off one field.
  for (const StatField& f : kStatFields) {
    if (f.series == nullptr) continue;
    if (f.agg == StatAgg::kMax) {
      metrics_.GetGauge(f.series, f.help)->SetMax(f.AsDouble(s));
    } else if (f.f64 != nullptr) {
      metrics_.GetGauge(f.series, f.help)->Add(s.*f.f64);
    } else {
      metrics_.GetCounter(f.series, f.help)->Add(s.*f.u64);
    }
  }
  metrics_
      .GetCounter("trance_stages_total", "stages recorded, by data movement",
                  {{"movement", DataMovementName(s.movement)}})
      ->Increment();
  metrics_
      .GetGauge("trance_max_stage_shuffle_bytes",
                "largest single-stage shuffle")
      ->SetMax(static_cast<double>(s.shuffle_bytes));
  metrics_
      .GetHistogram("trance_stage_imbalance",
                    "per-stage straggler factor (max/mean worker load)",
                    {1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0})
      ->Observe(s.ImbalanceFactor());

  // Event-log half: one stage_finish per stage, carrying the table rows the
  // stage's stages[] JSON object carries (a group's keys when any of them is
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

Status Cluster::CheckMemoryBytes(const std::vector<uint64_t>& partition_bytes,
                                 const std::string& op,
                                 uint64_t spilled_partitions) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t peak = 0;
  size_t peak_partition = 0;
  // Publishes the check's outcome into the registry and event log; shared by
  // the pass and fail exits so every check is visible either way. The event
  // names the observed peak (value and partition) next to the configured cap
  // so spill-vs-fail decisions are debuggable from logs alone.
  auto publish = [&](bool ok) {
    metrics_
        .GetCounter("trance_memory_checks_total", "per-stage memory-cap checks")
        ->Increment();
    if (!ok) {
      metrics_
          .GetCounter("trance_memory_check_failures_total",
                      "memory-cap checks that exceeded the cap")
          ->Increment();
    }
    metrics_
        .GetGauge("trance_peak_partition_bytes",
                  "largest partition footprint seen by memory checks")
        ->SetMax(static_cast<double>(peak));
    obs::EventLog& log = obs::GlobalEventLog();
    if (!log.enabled()) return;
    obs::Event(&log, "memory_check")
        .U64("job", job_id_)
        .Str("op", op)
        .U64("partitions", partition_bytes.size())
        .U64("partition", peak_partition)
        .U64("peak_bytes", peak)
        .U64("cap_bytes", config_.partition_memory_cap)
        .U64("spilled_partitions", spilled_partitions)
        .Bool("ok", ok)
        .Emit();
  };
  for (size_t p = 0; p < partition_bytes.size(); ++p) {
    uint64_t b = partition_bytes[p];
    if (b > peak) {
      peak = b;
      peak_partition = p;
    }
    if (b > config_.partition_memory_cap && !spill_enabled_) {
      // Name the stage, the plan-node scope, the partition, and the exact
      // observed/configured byte counts so EXPLAIN ANALYZE readers and test
      // failures can attribute the saturation without a debugger.
      std::string where = "stage '" + op + "'";
      if (!scope_stack_.empty()) where += " (scope " + scope_stack_.back() + ")";
      publish(false);
      return Status::ResourceExhausted(
          "worker memory saturated in " + where + ": partition " +
          std::to_string(p) + " holds " + FormatBytes(b) + " (" +
          std::to_string(b) + " bytes) > cap " +
          FormatBytes(config_.partition_memory_cap) + " (" +
          std::to_string(config_.partition_memory_cap) + " bytes)");
    }
  }
  publish(true);
  return Status::OK();
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
  // Driver-side merge in slot order: stats, metrics and events all come out
  // thread-count-invariant because nothing here depends on worker timing.
  obs::EventLog& log = obs::GlobalEventLog();
  uint64_t total = 0;
  for (size_t p = 0; p < n; ++p) {
    if (faults[p].empty()) continue;
    total += faults[p].size();
    if (stage->partition_retries.size() < n) {
      stage->partition_retries.resize(n, 0);
    }
    stage->partition_retries[p] += faults[p].size();
    for (size_t a = 0; a < faults[p].size(); ++a) {
      stage->fault_events.push_back({static_cast<uint32_t>(p),
                                     static_cast<uint32_t>(a), faults[p][a]});
      PublishFaultInjected(&metrics_, faults[p][a]);
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
  metrics_
      .GetCounter("trance_task_retries_total",
                  "task re-executions performed by fault recovery")
      ->Add(total);
  return Status::OK();
}

}  // namespace runtime
}  // namespace trance
