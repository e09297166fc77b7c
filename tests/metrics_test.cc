// JobStats::Snapshot(): the metric series derived from a job's stages. The
// table series are the job totals (sums, maxima and stage-order double
// sums); the stage-list series (movement labels, broadcast bytes, injected
// faults by kind, the two histograms) match the stages they are read from;
// the snapshot is sorted and renders as the bench report's JSON. On real
// query runs the series agree with JobStats and are identical at any thread
// count. Also checks that every row of the statistic table (runtime/stats.h)
// reaches every output it declares.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "fig7_suite.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "util/strings.h"

namespace trance {
namespace {

using obs::MetricKind;
using obs::MetricSample;

/// The snapshot keyed by exposition name.
std::map<std::string, MetricSample> ByName(const runtime::JobStats& stats) {
  std::map<std::string, MetricSample> out;
  for (MetricSample& s : stats.Snapshot()) {
    std::string key = s.ExpositionName();
    out.emplace(std::move(key), std::move(s));
  }
  return out;
}

/// A counter's or gauge's value as a double.
double ValueOf(const MetricSample& s) {
  return s.kind == MetricKind::kCounter ? static_cast<double>(s.counter_value)
                                        : s.gauge_value;
}

std::string SnapshotJson(const runtime::JobStats& stats) {
  obs::JsonWriter w;
  obs::WriteMetricsJson(stats.Snapshot(), &w);
  return w.str();
}

/// The small Figure-7 query (flat-to-nested, depth 2, narrow) on the
/// standard route and a 4-partition cluster.
fig7_suite::StandardRun RunSmallQuery(int num_threads,
                                      const runtime::FaultConfig& faults = {}) {
  tpch::TpchConfig tcfg;
  tcfg.scale = 0.002;
  runtime::ClusterConfig ccfg;
  ccfg.num_partitions = 4;
  ccfg.num_threads = num_threads;
  ccfg.faults = faults;
  auto program = tpch::FlatToNested(2, tpch::Width::kNarrow);
  EXPECT_TRUE(program.ok());
  fig7_suite::StandardRun run = fig7_suite::RunStandard(
      program.value(), fig7_suite::TpchValues(tpch::Generate(tcfg)), ccfg);
  EXPECT_TRUE(run.ok()) << run.status.ToString();
  return run;
}

/// Per-bucket counts of `values` over `bounds`, counted independently of
/// the snapshot: bucket i holds bounds[i-1] < v <= bounds[i], the last +Inf.
std::vector<uint64_t> Buckets(const std::vector<double>& bounds,
                              const std::vector<double>& values) {
  std::vector<uint64_t> out(bounds.size() + 1, 0);
  for (double v : values) {
    size_t i = 0;
    while (i < bounds.size() && v > bounds[i]) ++i;
    ++out[i];
  }
  return out;
}

// --- Snapshot() ------------------------------------------------------------

TEST(JobStatsSnapshotTest, TableSeriesAreTheTotals) {
  runtime::JobStats stats;
  const double sims[] = {0.1, 0.2, 0.3};
  const uint64_t chains[] = {5, 9, 2};
  double sim_sum = 0;
  for (int i = 0; i < 3; ++i) {
    runtime::StageStats s;
    s.op = "s" + std::to_string(i);
    s.shuffle_bytes = 100 * static_cast<uint64_t>(i + 1);
    s.hash_max_chain = chains[i];
    s.sim_seconds = sims[i];
    stats.AddStage(s);
    sim_sum += sims[i];
  }
  // The order of a double sum shows in its last bit.
  ASSERT_NE(sim_sum, (0.3 + 0.2) + 0.1);

  std::map<std::string, MetricSample> snap = ByName(stats);
  const MetricSample& shuffle = snap.at("trance_shuffle_bytes_total");
  EXPECT_EQ(shuffle.kind, MetricKind::kCounter);
  EXPECT_EQ(shuffle.counter_value, 600u);
  const MetricSample& chain = snap.at("trance_hash_max_chain");
  EXPECT_EQ(chain.kind, MetricKind::kGauge);
  EXPECT_EQ(chain.gauge_value, 9.0);
  const MetricSample& sim = snap.at("trance_sim_seconds_total");
  EXPECT_EQ(sim.kind, MetricKind::kGauge);
  EXPECT_EQ(sim.gauge_value, sim_sum);  // summed in stage order, bit for bit

  // Every row that names a series has it, zero or not: a max row or a
  // double row as a gauge, any other as a counter. No wall row has one.
  for (const runtime::StatField& f : runtime::kStatFields) {
    if (f.series == nullptr) continue;
    SCOPED_TRACE(f.series);
    EXPECT_NE(f.cls, runtime::StatClass::kWall);
    ASSERT_EQ(snap.count(f.series), 1u);
    const MetricSample& s = snap.at(f.series);
    EXPECT_EQ(s.kind, f.agg == runtime::StatAgg::kMax || f.f64 != nullptr
                          ? MetricKind::kGauge
                          : MetricKind::kCounter);
    EXPECT_EQ(ValueOf(s), f.AsDouble(stats.totals()));
  }
  EXPECT_EQ(snap.at("trance_spill_runs_total").counter_value, 0u);
  EXPECT_EQ(snap.at("trance_max_stage_shuffle_bytes").gauge_value, 300.0);
}

TEST(JobStatsSnapshotTest, EmptyJobHasOnlyTableSeries) {
  size_t rows_with_series = 0;
  for (const runtime::StatField& f : runtime::kStatFields) {
    if (f.series != nullptr) ++rows_with_series;
  }
  std::vector<MetricSample> snap = runtime::JobStats().Snapshot();
  EXPECT_EQ(snap.size(), rows_with_series);
  for (const MetricSample& s : snap) EXPECT_EQ(ValueOf(s), 0.0) << s.name;
}

TEST(JobStatsSnapshotTest, MovementLabelsSumToStageCount) {
  fig7_suite::StandardRun run = RunSmallQuery(1);
  std::map<std::string, uint64_t> expected;
  for (const runtime::StageStats& s : run.stats.stages()) {
    ++expected[runtime::DataMovementName(s.movement)];
  }
  std::map<std::string, uint64_t> got;
  uint64_t total = 0;
  for (const MetricSample& s : run.stats.Snapshot()) {
    if (s.name != "trance_stages_total") continue;
    ASSERT_EQ(s.labels.size(), 1u);
    EXPECT_EQ(s.labels[0].first, "movement");
    EXPECT_GT(s.counter_value, 0u);  // present only when nonzero
    got[s.labels[0].second] = s.counter_value;
    total += s.counter_value;
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(total, run.stats.stages().size());
  EXPECT_GE(got.size(), 2u);
}

TEST(JobStatsSnapshotTest, HistogramsMatchTheStages) {
  fig7_suite::StandardRun run = RunSmallQuery(1);
  ASSERT_GT(run.stats.fused_stages(), 0u);
  std::vector<double> imbalance;
  std::vector<double> chain_length;
  double imbalance_sum = 0;
  for (const runtime::StageStats& s : run.stats.stages()) {
    imbalance.push_back(s.ImbalanceFactor());
    imbalance_sum += s.ImbalanceFactor();
    if (!s.fused_transforms.empty()) {
      chain_length.push_back(static_cast<double>(s.fused_transforms.size()));
    }
  }
  std::map<std::string, MetricSample> snap = ByName(run.stats);

  const MetricSample& imb = snap.at("trance_stage_imbalance");
  EXPECT_EQ(imb.kind, MetricKind::kHistogram);
  EXPECT_EQ(imb.bounds,
            (std::vector<double>{1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0}));
  EXPECT_EQ(imb.count, run.stats.stages().size());
  EXPECT_EQ(imb.sum, imbalance_sum);
  EXPECT_EQ(imb.bucket_counts, Buckets(imb.bounds, imbalance));

  const MetricSample& chain = snap.at("trance_fused_chain_length");
  EXPECT_EQ(chain.kind, MetricKind::kHistogram);
  EXPECT_EQ(chain.bounds, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 6.0, 8.0}));
  EXPECT_EQ(chain.count, run.stats.fused_stages());
  EXPECT_EQ(chain.bucket_counts, Buckets(chain.bounds, chain_length));
  EXPECT_EQ(snap.at("trance_fused_stages_total").counter_value,
            run.stats.fused_stages());
}

TEST(JobStatsSnapshotTest, FaultKindsMatchFaultEvents) {
  runtime::FaultConfig faults;
  faults.fault_rate = 0.5;
  faults.max_faults_per_task = 2;
  faults.max_task_retries = 4;
  fig7_suite::StandardRun run = RunSmallQuery(1, faults);
  std::map<std::string, uint64_t> expected;
  for (const runtime::StageStats& s : run.stats.stages()) {
    for (const runtime::FaultEvent& ev : s.fault_events) {
      ++expected[runtime::FaultKindName(ev.kind)];
    }
  }
  ASSERT_GE(expected.size(), 2u);
  std::map<std::string, uint64_t> got;
  uint64_t total = 0;
  for (const MetricSample& s : run.stats.Snapshot()) {
    if (s.name != "trance_faults_injected_total") continue;
    ASSERT_EQ(s.labels.size(), 1u);
    EXPECT_EQ(s.labels[0].first, "kind");
    got[s.labels[0].second] = s.counter_value;
    total += s.counter_value;
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(total, run.stats.totals().injected_faults);
  EXPECT_EQ(ByName(run.stats).at("trance_task_retries_total").counter_value,
            run.stats.totals().retries);

  // A fault-free run has no fault series.
  for (const MetricSample& s : RunSmallQuery(1).stats.Snapshot()) {
    EXPECT_NE(s.name, "trance_faults_injected_total");
  }
}

TEST(JobStatsSnapshotTest, BroadcastBytesOfABroadcastJoin) {
  runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 4});
  const runtime::Schema kv({{"k", nrc::Type::Int()}, {"v", nrc::Type::Int()}});
  std::vector<runtime::Row> rows;
  for (int64_t i = 0; i < 8; ++i) {
    rows.push_back(runtime::Row(
        {runtime::Field::Int(i % 3), runtime::Field::Int(10 * i)}));
  }
  auto l = runtime::Source(&cluster, kv, rows, "l").ValueOrDie();
  auto r = runtime::Source(&cluster, kv, rows, "r").ValueOrDie();
  auto hash = runtime::HashJoin(&cluster, l, r, {0}, {0},
                                runtime::JoinType::kInner, "join");
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  for (const MetricSample& s : cluster.stats().Snapshot()) {
    EXPECT_NE(s.name, "trance_broadcast_bytes_total");
  }

  auto bcast = runtime::BroadcastJoin(&cluster, l, r, {0}, {0},
                                      runtime::JoinType::kInner, "bjoin");
  ASSERT_TRUE(bcast.ok()) << bcast.status().ToString();
  const runtime::StageStats& stage = cluster.stats().stages().back();
  ASSERT_EQ(stage.movement, runtime::DataMovement::kBroadcast);
  ASSERT_GT(stage.shuffle_bytes, 0u);
  std::map<std::string, MetricSample> snap = ByName(cluster.stats());
  EXPECT_EQ(snap.at("trance_broadcast_bytes_total").counter_value,
            stage.shuffle_bytes);
  EXPECT_EQ(snap.at("trance_stages_total{movement=\"broadcast\"}")
                .counter_value,
            1u);
}

TEST(JobStatsSnapshotTest, SortedByNameAndLabels) {
  runtime::FaultConfig faults;
  faults.fault_rate = 0.5;
  std::vector<MetricSample> snap = RunSmallQuery(1, faults).stats.Snapshot();
  auto before = [](const MetricSample& a, const MetricSample& b) {
    return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
  };
  ASSERT_GT(snap.size(), 1u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_TRUE(before(snap[i - 1], snap[i]))
        << snap[i - 1].ExpositionName() << " before "
        << snap[i].ExpositionName();
  }
}

TEST(JobStatsSnapshotTest, JsonOfALabelledCounterAndAHistogram) {
  std::vector<MetricSample> samples(2);
  samples[0].name = "trance_stages_total";
  samples[0].labels = {{"movement", "shuffle"}};
  samples[0].counter_value = 3;
  samples[1].name = "trance_stage_imbalance";
  samples[1].kind = MetricKind::kHistogram;
  samples[1].bounds = {1.0, 2.5};
  samples[1].bucket_counts = {1, 0, 2};
  samples[1].sum = 8.5;
  samples[1].count = 3;
  obs::JsonWriter w;
  obs::WriteMetricsJson(samples, &w);
  // Bucket counts render cumulatively.
  EXPECT_EQ(w.str(),
            "{\"trance_stages_total{movement=\\\"shuffle\\\"}\":3,"
            "\"trance_stage_imbalance\":{\"count\":3,\"sum\":8.5,"
            "\"buckets\":{\"le_1\":1,\"le_2.5\":1,\"le_inf\":3}}}");

  // A real run's rendering parses, keyed by exposition name.
  fig7_suite::StandardRun run = RunSmallQuery(1);
  auto parsed = obs::ParseJson(SnapshotJson(run.stats));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::map<std::string, MetricSample> snap = ByName(run.stats);
  const obs::JsonValue* shuffles =
      parsed->Find("trance_stages_total{movement=\"shuffle\"}");
  ASSERT_NE(shuffles, nullptr);
  EXPECT_EQ(shuffles->num,
            snap.at("trance_stages_total{movement=\"shuffle\"}").counter_value);
  const obs::JsonValue* imb = parsed->Find("trance_stage_imbalance");
  ASSERT_NE(imb, nullptr);
  EXPECT_EQ(imb->Find("count")->num, run.stats.stages().size());
  EXPECT_EQ(imb->Find("buckets")->Find("le_inf")->num,
            run.stats.stages().size());
}

// --- Series vs. JobStats on real runs ------------------------------------

TEST(MetricRegistryIntegrationTest, RegistryAgreesWithJobStats) {
  fig7_suite::StandardRun run = RunSmallQuery(1);
  const runtime::StageStats& totals = run.stats.totals();
  ASSERT_GT(run.stats.stages().size(), 0u);
  std::map<std::string, MetricSample> snap = ByName(run.stats);
  // Every statistic with a series: counters equal the job total exactly;
  // gauges (maxima and sim-time sums) equal it as a double.
  for (const runtime::StatField& f : runtime::kStatFields) {
    if (f.series == nullptr) continue;
    SCOPED_TRACE(f.series);
    ASSERT_EQ(snap.count(f.series), 1u);
    EXPECT_EQ(ValueOf(snap.at(f.series)), f.AsDouble(totals));
  }
  EXPECT_GT(totals.hash_build_rows, 0u);
  EXPECT_EQ(snap.at("trance_peak_partition_bytes").gauge_value,
            static_cast<double>(run.stats.peak_partition_bytes()));
  EXPECT_EQ(snap.at("trance_max_stage_shuffle_bytes").gauge_value,
            static_cast<double>(run.stats.max_stage_shuffle_bytes()));
  // Every stage is counted in exactly one movement label.
  uint64_t stages_total = 0;
  for (const auto& [name, s] : snap) {
    if (s.name == "trance_stages_total") stages_total += s.counter_value;
  }
  EXPECT_EQ(stages_total, run.stats.stages().size());
  // And the same numbers surface in the JSON rendering (spot check one).
  auto parsed = obs::ParseJson(SnapshotJson(run.stats));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_NE(parsed->Find("trance_shuffle_bytes_total"), nullptr);
  EXPECT_EQ(parsed->Find("trance_shuffle_bytes_total")->num,
            static_cast<double>(totals.shuffle_bytes));
}

TEST(MetricRegistryIntegrationTest, MetricsIdenticalAcrossThreadCounts) {
  const std::string base = SnapshotJson(RunSmallQuery(1).stats);
  for (int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Every series (counters, gauges, histograms) renders byte-identically
    // to the sequential run.
    EXPECT_EQ(SnapshotJson(RunSmallQuery(threads).stats), base);
  }
}

// --- The statistic table reaches every output ------------------------------

/// The EXPLAIN text of one table value, formatted independently of the
/// clause printer.
std::string ExplainText(const runtime::StatField& f,
                        const runtime::StageStats& s) {
  if (f.unit == runtime::StatUnit::kBytes) return FormatBytes(s.*f.u64);
  if (f.unit == runtime::StatUnit::kSimSeconds) {
    return FormatDouble(s.*f.f64, 3) + "s";
  }
  return std::to_string(s.*f.u64);
}

/// True iff `line` holds the clause term `token=text` (after a space or a
/// group's opening parenthesis).
bool HasTerm(const std::string& line, const std::string& token,
             const std::string& text) {
  const std::string term = token + "=" + text;
  for (size_t at = line.find(term); at != std::string::npos;
       at = line.find(term, at + 1)) {
    if (at > 0 && (line[at - 1] == ' ' || line[at - 1] == '(')) return true;
  }
  return false;
}

// For each row: a fresh cluster records one synthetic stage with only that
// field set, to a value no other row uses, and the value must surface in
// JobStats::totals(), the row's metric series, the job JSON (the stage
// object, and `totals` for job rows) and the EXPLAIN ANALYZE footer (rows
// with a token). RecordStage stamps sim_seconds from the cost model (here
// the stage overhead alone) and wall_dur_us from the clock.
TEST(StatTableTest, EveryRowReachesEveryOutput) {
  uint64_t row = 0;
  for (const runtime::StatField& f : runtime::kStatFields) {
    SCOPED_TRACE(f.key);
    ++row;
    const uint64_t value = 100 + 7 * row;  // < 1 KiB: FormatBytes is exact
    const double seconds = static_cast<double>(value) / 1024;
    const bool stamped_sim = f.f64 == &runtime::StageStats::sim_seconds;
    const bool wall = f.cls == runtime::StatClass::kWall;

    runtime::ClusterConfig cfg;
    cfg.num_partitions = 4;
    cfg.num_threads = 1;
    cfg.stage_overhead_seconds = stamped_sim ? seconds : 0;
    cfg.seconds_per_cpu_byte = 0;
    cfg.seconds_per_net_byte = 0;
    runtime::Cluster cluster(cfg);
    runtime::StageStats s;
    s.op = "synthetic";
    if (f.u64 != nullptr) {
      s.*f.u64 = value;
    } else if (!stamped_sim && !wall) {
      s.*f.f64 = seconds;
    }
    cluster.RecordStage(s);

    const runtime::JobStats& stats = cluster.stats();
    ASSERT_EQ(stats.stages().size(), 1u);
    const runtime::StageStats& recorded = stats.stages()[0];
    const double expected = wall ? f.AsDouble(recorded)
                            : f.u64 != nullptr ? static_cast<double>(value)
                                               : seconds;
    EXPECT_EQ(f.AsDouble(recorded), expected);
    EXPECT_EQ(f.AsDouble(stats.totals()), expected);

    if (f.series != nullptr) {
      bool found = false;
      for (const MetricSample& m : stats.Snapshot()) {
        if (m.name != f.series) continue;
        found = true;
        EXPECT_EQ(ValueOf(m), expected);
      }
      EXPECT_TRUE(found) << f.series;
    }

    auto json = obs::ParseJson(obs::JobStatsToJson(stats));
    ASSERT_TRUE(json.ok()) << json.status().ToString();
    const obs::JsonValue* stage = &json->Find("stages")->arr.at(0);
    ASSERT_NE(stage->Find(f.key), nullptr);
    EXPECT_EQ(stage->Find(f.key)->num, expected);
    const obs::JsonValue* totals = json->Find("totals")->Find(f.key);
    if (f.outputs & runtime::kOutJobTotals) {
      ASSERT_NE(totals, nullptr);
      EXPECT_EQ(totals->num, expected);
    } else {
      EXPECT_EQ(totals, nullptr);
    }

    if (f.token != nullptr) {
      const std::string explain =
          obs::ExplainAnalyze(plan::PlanProgram{}, stats);
      const std::string footer = explain.substr(explain.find("\njob: ") + 1);
      EXPECT_TRUE(HasTerm(footer, f.token, ExplainText(f, recorded)))
          << footer;
    }
  }
  EXPECT_GT(row, 25u);
}

}  // namespace
}  // namespace trance
