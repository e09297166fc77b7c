// Observability layer: span nesting/ordering, percentile math, JSON
// round-trips of the trace export, EXPLAIN ANALYZE output on real runs, the
// job-wide straggler summary, and the splitmix64 partitioner.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fig7_suite.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace trance {
namespace {

// --- Tracer spans --------------------------------------------------------

TEST(TracerTest, DisabledSpansRecordNothing) {
  obs::Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  {
    obs::Tracer::Span outer(&tracer, "outer");
    obs::Tracer::Span inner(&tracer, "inner");
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TracerTest, SpanNestingAndOrdering) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    obs::Tracer::Span outer(&tracer, "outer");
    {
      obs::Tracer::Span first(&tracer, "first");
    }
    {
      obs::Tracer::Span second(&tracer, "second");
      second.AddArg("rows", "42");
    }
  }
  // Spans record on destruction: children before their parent. events()
  // returns a snapshot copy, so hold it in a local.
  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  const auto& first = events[0];
  const auto& second = events[1];
  const auto& outer = events[2];
  EXPECT_EQ(first.name, "first");
  EXPECT_EQ(second.name, "second");
  EXPECT_EQ(outer.name, "outer");

  // Nesting depth: outer at 0, both children at 1.
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(first.depth, 1);
  EXPECT_EQ(second.depth, 1);

  // Sibling ordering and parent containment on the timeline.
  EXPECT_LE(first.ts_us + first.dur_us, second.ts_us);
  EXPECT_LE(outer.ts_us, first.ts_us);
  EXPECT_GE(outer.ts_us + outer.dur_us, second.ts_us + second.dur_us);

  ASSERT_EQ(second.args.size(), 1u);
  EXPECT_EQ(second.args[0].first, "rows");
  EXPECT_EQ(second.args[0].second, "42");
}

TEST(TracerTest, ClearResetsDepth) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  { obs::Tracer::Span s(&tracer, "a"); }
  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  { obs::Tracer::Span s(&tracer, "b"); }
  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].depth, 0);
}

TEST(TracerTest, ConcurrentSpansAndExport) {
  // Regression test for the ToChromeTraceJson data race: exports must
  // snapshot under the lock while spans keep closing on other threads.
  obs::Tracer tracer;
  tracer.set_enabled(true);
  std::atomic<bool> stop{false};
  // Both sides are bounded: an unbounded spanner loop grows events_ while
  // every export reserializes the whole vector — quadratic wall time on a
  // small machine.
  std::thread spanner([&] {
    for (int i = 0; i < 5000 && !stop.load(); ++i) {
      obs::Tracer::Span s(&tracer, "work");
    }
  });
  for (int i = 0; i < 20; ++i) {
    std::string doc = tracer.ToChromeTraceJson();
    auto parsed = obs::ParseJson(doc);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    (void)tracer.events();
    tracer.Clear();  // keeps each export small while spans keep closing
  }
  stop.store(true);
  spanner.join();
  EXPECT_TRUE(obs::ParseJson(tracer.ToChromeTraceJson()).ok());
}

// --- Percentile / load-summary math --------------------------------------

TEST(HistogramTest, PercentileNearestRank) {
  EXPECT_EQ(obs::Percentile({}, 50), 0u);
  EXPECT_EQ(obs::Percentile({7}, 0), 7u);
  EXPECT_EQ(obs::Percentile({7}, 100), 7u);
  std::vector<uint64_t> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(obs::Percentile(v, 5), 15u);
  EXPECT_EQ(obs::Percentile(v, 30), 20u);
  EXPECT_EQ(obs::Percentile(v, 40), 20u);
  EXPECT_EQ(obs::Percentile(v, 50), 35u);
  EXPECT_EQ(obs::Percentile(v, 100), 50u);
  // Unsorted input is handled.
  EXPECT_EQ(obs::Percentile({50, 15, 40, 20, 35}, 50), 35u);
}

TEST(HistogramTest, SummarizeLoads) {
  obs::LoadSummary empty = obs::SummarizeLoads({});
  EXPECT_EQ(empty.partitions, 0u);
  EXPECT_DOUBLE_EQ(empty.imbalance, 1.0);

  obs::LoadSummary s = obs::SummarizeLoads({100, 100, 100, 500});
  EXPECT_EQ(s.partitions, 4u);
  EXPECT_EQ(s.min, 100u);
  EXPECT_EQ(s.p50, 100u);
  EXPECT_EQ(s.p95, 500u);
  EXPECT_EQ(s.max, 500u);
  EXPECT_EQ(s.total, 800u);
  EXPECT_DOUBLE_EQ(s.mean, 200.0);
  EXPECT_DOUBLE_EQ(s.imbalance, 2.5);

  obs::LoadSummary zeros = obs::SummarizeLoads({0, 0});
  EXPECT_DOUBLE_EQ(zeros.imbalance, 1.0);
}

TEST(HistogramTest, PercentileEdgeCases) {
  // Empty input: every percentile is 0.
  EXPECT_EQ(obs::Percentile({}, 0), 0u);
  EXPECT_EQ(obs::Percentile({}, 100), 0u);
  // Single sample: every percentile is that sample.
  EXPECT_EQ(obs::Percentile({42}, 0), 42u);
  EXPECT_EQ(obs::Percentile({42}, 50), 42u);
  EXPECT_EQ(obs::Percentile({42}, 100), 42u);
  // p=0 / p=100 on a multi-sample vector hit min and max.
  std::vector<uint64_t> v = {9, 1, 5};
  EXPECT_EQ(obs::Percentile(v, 0), 1u);
  EXPECT_EQ(obs::Percentile(v, 100), 9u);
}

TEST(HistogramTest, SummarizeLoadsEdgeCases) {
  // All-equal loads: perfectly balanced, every percentile equals the load.
  obs::LoadSummary eq = obs::SummarizeLoads({250, 250, 250, 250});
  EXPECT_EQ(eq.partitions, 4u);
  EXPECT_EQ(eq.min, 250u);
  EXPECT_EQ(eq.p50, 250u);
  EXPECT_EQ(eq.p95, 250u);
  EXPECT_EQ(eq.max, 250u);
  EXPECT_EQ(eq.total, 1000u);
  EXPECT_DOUBLE_EQ(eq.mean, 250.0);
  EXPECT_DOUBLE_EQ(eq.imbalance, 1.0);

  // Single partition: imbalance is max/mean = 1 by construction.
  obs::LoadSummary one = obs::SummarizeLoads({77});
  EXPECT_EQ(one.partitions, 1u);
  EXPECT_DOUBLE_EQ(one.imbalance, 1.0);

  // Zero mean (all-idle partitions) must not divide by zero.
  obs::LoadSummary idle = obs::SummarizeLoads({0, 0, 0});
  EXPECT_EQ(idle.total, 0u);
  EXPECT_DOUBLE_EQ(idle.mean, 0.0);
  EXPECT_DOUBLE_EQ(idle.imbalance, 1.0);
}

TEST(StatsTest, ImbalanceFactorAndStragglerSummary) {
  runtime::StageStats balanced;
  balanced.op = "even";
  balanced.partition_work_bytes = {100, 100, 100, 100};
  balanced.total_work_bytes = 400;
  balanced.max_partition_work_bytes = 100;
  EXPECT_DOUBLE_EQ(balanced.ImbalanceFactor(), 1.0);

  runtime::StageStats skewed;
  skewed.op = "skewed_join";
  skewed.partition_work_bytes = {10, 10, 10, 370};
  skewed.total_work_bytes = 400;
  skewed.max_partition_work_bytes = 370;
  skewed.max_partition_recv_bytes = 999;
  skewed.heavy_key_count = 3;
  EXPECT_DOUBLE_EQ(skewed.ImbalanceFactor(), 3.7);

  // A stage with no histogram is neutral.
  runtime::StageStats untracked;
  untracked.op = "source";
  EXPECT_DOUBLE_EQ(untracked.ImbalanceFactor(), 1.0);

  runtime::JobStats job;
  job.AddStage(balanced);
  job.AddStage(skewed);
  job.AddStage(untracked);
  runtime::StragglerSummary sk = job.straggler();
  EXPECT_EQ(job.totals().max_partition_recv_bytes, 999u);
  EXPECT_EQ(job.totals().max_partition_work_bytes, 370u);
  EXPECT_DOUBLE_EQ(sk.worst_imbalance, 3.7);
  EXPECT_EQ(sk.worst_stage, "skewed_join");
  EXPECT_EQ(job.totals().heavy_key_count, 3u);

  std::string s = job.ToString();
  EXPECT_NE(s.find("straggler=3.70x@skewed_join"), std::string::npos);
  EXPECT_NE(s.find("heavy_keys=3"), std::string::npos);
}

// --- JSON writer / parser round-trips ------------------------------------

TEST(JsonTest, WriterParserRoundTrip) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("a \"quoted\" value\nwith newline");
  w.Key("count");
  w.Uint(18446744073709551615ull);
  w.Key("ratio");
  w.Number(2.5);
  w.Key("ok");
  w.Bool(true);
  w.Key("nothing");
  w.Null();
  w.Key("list");
  w.BeginArray();
  w.Int(-3);
  w.String("x");
  w.BeginObject();
  w.Key("nested");
  w.Bool(false);
  w.EndObject();
  w.EndArray();
  w.EndObject();

  auto parsed = obs::ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << w.str();
  const obs::JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.Find("name"), nullptr);
  EXPECT_EQ(v.Find("name")->str, "a \"quoted\" value\nwith newline");
  EXPECT_DOUBLE_EQ(v.Find("ratio")->num, 2.5);
  EXPECT_TRUE(v.Find("ok")->b);
  EXPECT_EQ(v.Find("nothing")->kind, obs::JsonValue::Kind::kNull);
  ASSERT_TRUE(v.Find("list")->is_array());
  ASSERT_EQ(v.Find("list")->arr.size(), 3u);
  EXPECT_DOUBLE_EQ(v.Find("list")->arr[0].num, -3.0);
  ASSERT_TRUE(v.Find("list")->arr[2].is_object());
  EXPECT_FALSE(v.Find("list")->arr[2].Find("nested")->b);
}

TEST(JsonTest, EscapeParseRoundTripProperty) {
  // Property: for any byte string s, parsing "\"" + JsonEscape(s) + "\""
  // yields s back — exercised over every control character, the JSON
  // specials, and multi-byte UTF-8 sequences (which JsonEscape must pass
  // through untouched).
  std::vector<std::string> cases;
  for (int c = 0; c < 0x20; ++c) cases.push_back(std::string(1, static_cast<char>(c)));
  cases.push_back("\"");
  cases.push_back("\\");
  cases.push_back("plain ascii");
  cases.push_back("tab\there\nnewline\rret");
  cases.push_back("\xc3\xa9");              // é (2-byte UTF-8)
  cases.push_back("\xe6\x97\xa5\xe6\x9c\xac");  // 日本 (3-byte UTF-8)
  cases.push_back("\xf0\x9f\x92\xbe");      // 💾 (4-byte UTF-8)
  cases.push_back(std::string("nul\x00mid", 8));  // embedded NUL survives
  // A mixed torture string combining everything above.
  std::string mixed;
  for (const auto& c : cases) mixed += c;
  cases.push_back(mixed);

  for (const auto& original : cases) {
    std::string doc = "\"" + obs::JsonEscape(original) + "\"";
    auto parsed = obs::ParseJson(doc);
    ASSERT_TRUE(parsed.ok())
        << parsed.status().ToString() << " for doc: " << doc;
    EXPECT_EQ(parsed.value().str, original) << "round-trip mismatch for: " << doc;
  }
}

TEST(JsonTest, ParserRejectsGarbage) {
  EXPECT_FALSE(obs::ParseJson("").ok());
  EXPECT_FALSE(obs::ParseJson("{").ok());
  EXPECT_FALSE(obs::ParseJson("{}trailing").ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\":}").ok());
}

TEST(TracerTest, ChromeTraceJsonRoundTrip) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    obs::Tracer::Span outer(&tracer, "pipeline");
    obs::Tracer::Span inner(&tracer, "type\"check\"");  // exercises escaping
    inner.AddArg("note", "a\\b");
  }
  std::string doc = tracer.ToChromeTraceJson();
  auto parsed = obs::ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << doc;
  const obs::JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  const obs::JsonValue* events = v.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->arr.size(), 2u);
  for (const auto& e : events->arr) {
    ASSERT_TRUE(e.is_object());
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      EXPECT_NE(e.Find(key), nullptr) << "missing " << key;
    }
    EXPECT_EQ(e.Find("ph")->str, "X");
  }
  EXPECT_EQ(events->arr[0].Find("name")->str, "type\"check\"");
  EXPECT_EQ(events->arr[0].Find("args")->Find("note")->str, "a\\b");
}

TEST(TracerTest, StageArgsFollowTheStatTable) {
  // A stage's trace args are the statistic-table rows its JSON object
  // carries, formatted as EXPLAIN formats them: a shown group's keys appear
  // (zeros included), a zero group's do not, and the wall-clock row is the
  // event's own duration.
  runtime::StageStats s;
  s.op = "join";
  s.scope = "Q#1";
  s.rows_in = 10;
  s.shuffle_bytes = 2048;
  s.hash_build_rows = 3;
  s.sim_seconds = 0.25;
  s.wall_dur_us = 7;
  runtime::JobStats stats;
  stats.AddStage(s);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  obs::AppendJobStagesToTrace(stats, &tracer, "run");
  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "run/join");
  EXPECT_EQ(events[0].dur_us, 7);
  const std::map<std::string, std::string> args(events[0].args.begin(),
                                                events[0].args.end());
  EXPECT_EQ(args.size(), events[0].args.size()) << "a key appears twice";
  EXPECT_EQ(args.at("rows_in"), "10");
  EXPECT_EQ(args.at("shuffle_bytes"), "2.0 KB");
  EXPECT_EQ(args.at("hash_build_rows"), "3");
  EXPECT_EQ(args.at("hash_probe_hits"), "0");
  EXPECT_EQ(args.at("sim_seconds"), "0.250s");
  EXPECT_EQ(args.at("movement"), "local");
  EXPECT_EQ(args.at("straggler"), "1.00x");
  EXPECT_EQ(args.at("scope"), "Q#1");
  EXPECT_EQ(args.count("spill_runs"), 0u);
  EXPECT_EQ(args.count("hash_table_bytes"), 0u);
  EXPECT_EQ(args.count("wall_dur_us"), 0u);
}

// --- EXPLAIN ANALYZE on real runs ----------------------------------------

/// The TPC-H tables at scale 0.002 as interpreter values.
std::map<std::string, nrc::Value> SmallTpch() {
  tpch::TpchConfig cfg;
  cfg.scale = 0.002;
  return fig7_suite::TpchValues(tpch::Generate(cfg));
}

const runtime::ClusterConfig kFourPartitions{.num_partitions = 4};

/// The `rows=` EXPLAIN ANALYZE prints on the root line of assignment `var`,
/// or -1 when there is no such line.
long long RootRows(const std::string& explain, const std::string& var) {
  const std::string header = "\n" + var + " <=\n";
  const size_t line = explain.find(header);
  if (line == std::string::npos) return -1;
  const size_t begin = line + header.size();
  const size_t rows = explain.find("[rows=", begin);
  if (rows == std::string::npos || rows > explain.find('\n', begin)) return -1;
  return std::strtoll(explain.c_str() + rows + 6, nullptr, 10);
}

TEST(ExplainAnalyzeTest, StandardRunShowsPerOperatorStats) {
  auto program = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(program.ok());
  fig7_suite::StandardRun run =
      fig7_suite::RunStandard(program.value(), SmallTpch(), kFourPartitions);
  ASSERT_TRUE(run.ok()) << run.status.ToString();
  const plan::PlanProgram& compiled = run.compiled;
  ASSERT_FALSE(compiled.assignments.empty());

  const std::string& ex = run.explain;
  EXPECT_NE(ex.find("EXPLAIN ANALYZE"), std::string::npos);
  // Per-operator stats joined onto plan lines.
  EXPECT_NE(ex.find("rows="), std::string::npos);
  EXPECT_NE(ex.find("shuffle="), std::string::npos);
  EXPECT_NE(ex.find("straggler="), std::string::npos);
  EXPECT_NE(ex.find("mode="), std::string::npos);
  EXPECT_NE(ex.find("work(p50/p95/max)="), std::string::npos);
  // The job summary footer.
  EXPECT_NE(ex.find("job: stages="), std::string::npos) << ex;
  // The result's root operator prints the result's row count.
  EXPECT_EQ(RootRows(ex, compiled.assignments.back().var),
            static_cast<long long>(run.out.NumRows()))
      << ex;

  // Every executed plan-node scope must round-trip: no stage with a
  // non-empty scope may end up unattributed.
  std::set<std::string> walked;
  for (const auto& a : compiled.assignments) {
    // Count nodes per assignment the same way the executor numbers them.
    std::function<int(const plan::PlanPtr&)> count =
        [&](const plan::PlanPtr& p) {
          int n = 1;
          for (size_t i = 0; i < p->num_children(); ++i) {
            n += count(p->child(i));
          }
          return n;
        };
    int total = count(a.plan);
    for (int i = 0; i < total; ++i) {
      walked.insert(obs::StageScopeName(a.var, i));
    }
  }
  for (const auto& s : run.stats.stages()) {
    if (!s.scope.empty()) {
      EXPECT_TRUE(walked.count(s.scope) > 0)
          << "stage " << s.op << " scope " << s.scope
          << " not reachable from the explain walk";
    }
  }
}

TEST(ExplainAnalyzeTest, ShreddedRunShowsPerOperatorStats) {
  auto program = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(program.ok());
  fig7_suite::ShreddedRun shredded =
      fig7_suite::RunShredded(program.value(), SmallTpch(), kFourPartitions);
  ASSERT_TRUE(shredded.ok()) << shredded.status.ToString();
  const plan::PlanProgram& compiled = shredded.compiled;
  ASSERT_FALSE(compiled.assignments.empty());

  const std::string& ex = shredded.explain;
  EXPECT_NE(ex.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(ex.find("rows="), std::string::npos);
  EXPECT_NE(ex.find("shuffle="), std::string::npos);
  EXPECT_NE(ex.find("straggler="), std::string::npos);
  // The shredded route ends dictionary assignments in BagToDict.
  EXPECT_NE(ex.find("BagToDict"), std::string::npos) << ex;
  EXPECT_NE(ex.find("job: stages="), std::string::npos);
  // The root operator of the top-level assignment prints the top bag's
  // row count.
  EXPECT_EQ(RootRows(ex, program->result().var + "_F"),
            static_cast<long long>(shredded.out.top.NumRows()))
      << ex;
}

TEST(ExplainAnalyzeTest, JobStatsJsonIsValid) {
  auto program = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(program.ok());
  fig7_suite::StandardRun run =
      fig7_suite::RunStandard(program.value(), SmallTpch(), kFourPartitions);
  ASSERT_TRUE(run.ok()) << run.status.ToString();

  std::string doc = obs::JobStatsToJson(run.stats);
  auto parsed = obs::ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& v = parsed.value();
  const obs::JsonValue* stages = v.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_TRUE(stages->is_array());
  EXPECT_FALSE(stages->arr.empty());
  // Shuffling stages must expose partition-load percentile summaries.
  bool some_work_summary = false;
  for (const auto& st : stages->arr) {
    if (st.Find("work") != nullptr) {
      some_work_summary = true;
      EXPECT_NE(st.Find("work")->Find("p50"), nullptr);
      EXPECT_NE(st.Find("work")->Find("p95"), nullptr);
      EXPECT_NE(st.Find("work")->Find("max"), nullptr);
      EXPECT_NE(st.Find("work")->Find("imbalance"), nullptr);
    }
  }
  EXPECT_TRUE(some_work_summary);
  const obs::JsonValue* totals = v.Find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_NE(totals->Find("worst_imbalance"), nullptr);
  EXPECT_NE(totals->Find("max_partition_work_bytes"), nullptr);
}

// --- Partitioner ---------------------------------------------------------

TEST(PartitionOfTest, MixesSequentialKeys) {
  runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 8});
  // Raw `hash % n` maps sequential hashes to cycling partitions; the
  // splitmix64 finalizer must break that pattern.
  int identity_matches = 0;
  std::vector<int> counts(8, 0);
  const int kKeys = 4096;
  for (int i = 0; i < kKeys; ++i) {
    int p = cluster.PartitionOf(static_cast<uint64_t>(i));
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 8);
    counts[p]++;
    if (p == i % 8) identity_matches++;
  }
  // ~1/8 of keys land on their mod-partition by chance; all of them would
  // under the old identity mapping.
  EXPECT_LT(identity_matches, kKeys / 4);
  // Roughly uniform spread: every partition within 2x of the ideal share.
  for (int c : counts) {
    EXPECT_GT(c, kKeys / 16);
    EXPECT_LT(c, kKeys / 4);
  }
}

TEST(PartitionOfTest, RespectsSeed) {
  runtime::ClusterConfig a;
  a.num_partitions = 8;
  a.seed = 1;
  runtime::ClusterConfig b = a;
  b.seed = 2;
  runtime::Cluster ca(a), cb(b);
  int differing = 0;
  for (uint64_t k = 0; k < 256; ++k) {
    if (ca.PartitionOf(k) != cb.PartitionOf(k)) differing++;
  }
  EXPECT_GT(differing, 0);
  // Same seed is deterministic.
  runtime::Cluster ca2(a);
  for (uint64_t k = 0; k < 256; ++k) {
    EXPECT_EQ(ca.PartitionOf(k), ca2.PartitionOf(k));
  }
}

}  // namespace
}  // namespace trance
