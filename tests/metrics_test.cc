// MetricRegistry: typed handles, concurrent counter exactness, snapshot
// ordering, Prometheus/JSON exposition, reset semantics — and the contract
// that the registry's values agree with JobStats on real query runs and are
// bit-identical at any thread count. Also checks that every row of the
// statistic table (runtime/stats.h) reaches every output it declares.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/pipeline.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "shred/shredded_type.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "util/strings.h"

namespace trance {
namespace {

using obs::MetricKind;
using obs::MetricRegistry;
using obs::MetricSample;

// --- Registry semantics --------------------------------------------------

TEST(MetricRegistryTest, FindOrCreateReturnsStableHandles) {
  MetricRegistry reg;
  obs::Counter* a = reg.GetCounter("requests_total", "requests");
  obs::Counter* b = reg.GetCounter("requests_total", "requests");
  EXPECT_EQ(a, b);
  a->Add(3);
  b->Increment();
  EXPECT_EQ(a->Value(), 4u);

  // Distinct label sets are distinct series of the same family.
  obs::Counter* red = reg.GetCounter("colored_total", "colored", {{"c", "red"}});
  obs::Counter* blue =
      reg.GetCounter("colored_total", "colored", {{"c", "blue"}});
  EXPECT_NE(red, blue);
  red->Add(1);
  blue->Add(2);
  EXPECT_EQ(red->Value(), 1u);
  EXPECT_EQ(blue->Value(), 2u);
}

TEST(MetricRegistryTest, ConcurrentAddsAreExact) {
  MetricRegistry reg;
  obs::Counter* c = reg.GetCounter("hot_total", "concurrently bumped");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c] {
      for (int i = 0; i < kAddsPerThread; ++i) c->Add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST(MetricRegistryTest, GaugeSetAddMax) {
  MetricRegistry reg;
  obs::Gauge* g = reg.GetGauge("level", "a gauge");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
  g->Add(1.5);
  EXPECT_DOUBLE_EQ(g->Value(), 4.0);
  g->SetMax(3.0);  // below current: no-op
  EXPECT_DOUBLE_EQ(g->Value(), 4.0);
  g->SetMax(7.0);
  EXPECT_DOUBLE_EQ(g->Value(), 7.0);
}

TEST(MetricRegistryTest, HistogramBucketsSumCount) {
  MetricRegistry reg;
  obs::Histogram* h =
      reg.GetHistogram("latency", "a histogram", {1.0, 2.0, 5.0});
  h->Observe(0.5);   // bucket <=1
  h->Observe(1.0);   // bucket <=1 (bounds are inclusive)
  h->Observe(1.5);   // bucket <=2
  h->Observe(10.0);  // +Inf bucket
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const MetricSample& s = snap[0];
  EXPECT_EQ(s.kind, MetricKind::kHistogram);
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.bucket_counts.size(), 4u);
  EXPECT_EQ(s.bucket_counts[0], 2u);
  EXPECT_EQ(s.bucket_counts[1], 1u);
  EXPECT_EQ(s.bucket_counts[2], 0u);
  EXPECT_EQ(s.bucket_counts[3], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 13.0);
}

TEST(MetricRegistryTest, SnapshotSortedByNameAndLabels) {
  MetricRegistry reg;
  reg.GetCounter("zzz_total", "z")->Add(1);
  reg.GetCounter("aaa_total", "a")->Add(1);
  reg.GetCounter("mmm_total", "m", {{"k", "b"}})->Add(1);
  reg.GetCounter("mmm_total", "m", {{"k", "a"}})->Add(1);
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].ExpositionName(), "aaa_total");
  EXPECT_EQ(snap[1].ExpositionName(), "mmm_total{k=\"a\"}");
  EXPECT_EQ(snap[2].ExpositionName(), "mmm_total{k=\"b\"}");
  EXPECT_EQ(snap[3].ExpositionName(), "zzz_total");
}

TEST(MetricRegistryTest, ResetZeroesValuesKeepsRegistrations) {
  MetricRegistry reg;
  obs::Counter* c = reg.GetCounter("c_total", "c");
  obs::Gauge* g = reg.GetGauge("g", "g");
  obs::Histogram* h = reg.GetHistogram("h", "h", {1.0});
  c->Add(5);
  g->Set(9.0);
  h->Observe(0.5);
  reg.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);  // registrations survive
  for (const MetricSample& s : snap) {
    EXPECT_EQ(s.counter_value, 0u);
    EXPECT_EQ(s.count, 0u);
  }
  // The old handle is still live after Reset.
  c->Add(2);
  EXPECT_EQ(c->Value(), 2u);
}

// --- Exposition formats --------------------------------------------------

TEST(MetricRegistryTest, PrometheusTextExposition) {
  MetricRegistry reg;
  reg.GetCounter("trance_rows_total", "rows processed")->Add(12);
  reg.GetCounter("trance_stages_total", "stages", {{"movement", "shuffle"}})
      ->Add(3);
  reg.GetGauge("trance_peak", "peak bytes")->Set(1024);
  reg.GetHistogram("trance_imbalance", "straggler factor", {1.0, 2.0})
      ->Observe(1.5);
  std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("# HELP trance_rows_total rows processed\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE trance_rows_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("trance_rows_total 12\n"), std::string::npos);
  EXPECT_NE(text.find("trance_stages_total{movement=\"shuffle\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE trance_peak gauge\n"), std::string::npos);
  EXPECT_NE(text.find("trance_peak 1024\n"), std::string::npos);
  // Histogram exposition: cumulative buckets, +Inf, _sum and _count.
  EXPECT_NE(text.find("# TYPE trance_imbalance histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("trance_imbalance_bucket{le=\"1\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("trance_imbalance_bucket{le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("trance_imbalance_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("trance_imbalance_sum 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("trance_imbalance_count 1\n"), std::string::npos);
}

TEST(MetricRegistryTest, JsonExpositionParses) {
  MetricRegistry reg;
  reg.GetCounter("c_total", "c")->Add(7);
  reg.GetCounter("lab_total", "l", {{"k", "v"}})->Add(2);
  reg.GetGauge("g", "g")->Set(2.25);
  reg.GetHistogram("h", "h", {1.0, 4.0})->Observe(3.0);
  auto parsed = obs::ParseJson(reg.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.Find("c_total"), nullptr);
  EXPECT_DOUBLE_EQ(v.Find("c_total")->num, 7.0);
  ASSERT_NE(v.Find("lab_total{k=\"v\"}"), nullptr);
  EXPECT_DOUBLE_EQ(v.Find("lab_total{k=\"v\"}")->num, 2.0);
  EXPECT_DOUBLE_EQ(v.Find("g")->num, 2.25);
  const obs::JsonValue* h = v.Find("h");
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->is_object());
  EXPECT_DOUBLE_EQ(h->Find("count")->num, 1.0);
  EXPECT_DOUBLE_EQ(h->Find("sum")->num, 3.0);
  const obs::JsonValue* buckets = h->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  EXPECT_DOUBLE_EQ(buckets->Find("le_1")->num, 0.0);
  EXPECT_DOUBLE_EQ(buckets->Find("le_4")->num, 1.0);   // cumulative
  EXPECT_DOUBLE_EQ(buckets->Find("le_inf")->num, 1.0);
}

// --- Registry vs. JobStats on real runs ----------------------------------

Status RegisterTables(exec::Executor* executor, const tpch::TpchData& d) {
  struct E {
    const tpch::Table* t;
    const char* n;
  };
  for (const E& e : {E{&d.region, "Region"}, E{&d.nation, "Nation"},
                     E{&d.customer, "Customer"}, E{&d.orders, "Orders"},
                     E{&d.lineitem, "Lineitem"}, E{&d.part, "Part"}}) {
    TRANCE_ASSIGN_OR_RETURN(
        runtime::Dataset ds,
        runtime::Source(executor->cluster(), e.t->schema, e.t->rows, e.n));
    executor->Register(e.n, ds);
    executor->Register(shred::FlatInputName(e.n), std::move(ds));
  }
  return Status::OK();
}

/// Runs the small Figure-7 standard query on a fresh cluster and returns the
/// cluster's registry snapshot plus its JobStats-derived expectations.
struct QueryRun {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::string prometheus;
  runtime::StageStats totals;
  uint64_t stages = 0;
};

QueryRun RunSmallQuery(int num_threads) {
  tpch::TpchConfig tcfg;
  tcfg.scale = 0.002;
  tpch::TpchData data = tpch::Generate(tcfg);
  runtime::ClusterConfig ccfg;
  ccfg.num_partitions = 4;
  ccfg.num_threads = num_threads;
  runtime::Cluster cluster(ccfg);
  exec::Executor executor(&cluster, {});
  EXPECT_TRUE(RegisterTables(&executor, data).ok());
  auto program = tpch::FlatToNested(2, tpch::Width::kNarrow);
  EXPECT_TRUE(program.ok());
  auto out = exec::RunStandard(program.value(), &executor, {});
  EXPECT_TRUE(out.ok()) << out.status().ToString();

  QueryRun r;
  for (const MetricSample& s : cluster.metrics().Snapshot()) {
    if (s.kind == MetricKind::kCounter) {
      r.counters[s.ExpositionName()] = s.counter_value;
    } else if (s.kind == MetricKind::kGauge) {
      r.gauges[s.ExpositionName()] = s.gauge_value;
    }
  }
  r.prometheus = cluster.metrics().ToPrometheusText();
  r.totals = cluster.stats().totals();
  r.stages = cluster.stats().stages().size();
  return r;
}

TEST(MetricRegistryIntegrationTest, RegistryAgreesWithJobStats) {
  QueryRun r = RunSmallQuery(1);
  ASSERT_GT(r.stages, 0u);
  // Every statistic with a series: counters equal the job total exactly;
  // gauges (maxima and sim-time sums) equal it as a double.
  for (const runtime::StatField& f : runtime::kStatFields) {
    if (f.series == nullptr) continue;
    SCOPED_TRACE(f.series);
    if (f.agg == runtime::StatAgg::kMax || f.f64 != nullptr) {
      ASSERT_EQ(r.gauges.count(f.series), 1u);
      EXPECT_EQ(r.gauges.at(f.series), f.AsDouble(r.totals));
    } else {
      ASSERT_EQ(r.counters.count(f.series), 1u);
      EXPECT_EQ(r.counters.at(f.series), r.totals.*f.u64);
    }
  }
  EXPECT_GT(r.totals.hash_build_rows, 0u);
  // Every stage is counted in exactly one movement label.
  uint64_t stages_total = 0;
  for (const auto& [name, value] : r.counters) {
    if (name.rfind("trance_stages_total{", 0) == 0) stages_total += value;
  }
  EXPECT_EQ(stages_total, r.stages);
  EXPECT_EQ(r.counters.at("trance_jobs_total"), 1u);
  // And the same numbers surface in the Prometheus text with no extra
  // plumbing (spot check one).
  EXPECT_NE(r.prometheus.find("trance_shuffle_bytes_total " +
                              std::to_string(r.totals.shuffle_bytes) + "\n"),
            std::string::npos)
      << r.prometheus;
}

TEST(MetricRegistryIntegrationTest, MetricsIdenticalAcrossThreadCounts) {
  QueryRun base = RunSmallQuery(1);
  for (int threads : {4, 8}) {
    QueryRun r = RunSmallQuery(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Registry content is deterministic: the whole exposition (counters,
    // gauges, histograms) is byte-identical to the sequential run.
    EXPECT_EQ(r.prometheus, base.prometheus);
    EXPECT_EQ(r.counters, base.counters);
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
// JobStats::totals(), the row's registry series, the job JSON (the stage
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
      for (const MetricSample& m : cluster.metrics().Snapshot()) {
        if (m.name != f.series) continue;
        found = true;
        EXPECT_EQ(m.kind == MetricKind::kCounter
                      ? static_cast<double>(m.counter_value)
                      : m.gauge_value,
                  expected);
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
