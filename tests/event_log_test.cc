// EventLog: builder rendering, ring bounding + drop counter, the file sink,
// and the determinism contract on real runs — event content (minus `wall_`
// fields) is bit-identical at 1/4/8 threads, each stage_finish carries the
// statistic-table keys of its stage's stages[] JSON object, and enabling the
// log does not perturb JobStats.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exec/pipeline.h"
#include "obs/event_log.h"
#include "obs/export.h"
#include "obs/json.h"
#include "runtime/cluster.h"
#include "shred/shredded_type.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace trance {
namespace {

// --- Builder + ring ------------------------------------------------------

TEST(EventLogTest, DisabledLogRecordsNothing) {
  obs::EventLog log;
  ASSERT_FALSE(log.enabled());
  obs::Event(&log, "stage_finish").U64("stage", 1).Emit();
  EXPECT_TRUE(log.Lines().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, EventRendersTypedFieldsAsJson) {
  obs::EventLog log;
  log.Enable(true);
  obs::Event(&log, "demo")
      .Str("op", "Join \"x\"")
      .U64("rows", 42)
      .I64("delta", -7)
      .F64("sim", 1.5)
      .Bool("ok", true)
      .Wall("dur_us", 123.0)
      .Emit();
  std::vector<std::string> lines = log.Lines();
  ASSERT_EQ(lines.size(), 1u);
  auto parsed = obs::ParseJson(lines[0]);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << lines[0];
  const obs::JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("type")->str, "demo");
  EXPECT_EQ(v.Find("op")->str, "Join \"x\"");
  EXPECT_DOUBLE_EQ(v.Find("rows")->num, 42.0);
  EXPECT_DOUBLE_EQ(v.Find("delta")->num, -7.0);
  EXPECT_DOUBLE_EQ(v.Find("sim")->num, 1.5);
  EXPECT_EQ(v.Find("ok")->kind, obs::JsonValue::Kind::kBool);
  EXPECT_TRUE(v.Find("ok")->b);
  // Wall() forces the wall_ prefix even when the caller omits it.
  EXPECT_EQ(v.Find("dur_us"), nullptr);
  ASSERT_NE(v.Find("wall_dur_us"), nullptr);
  EXPECT_DOUBLE_EQ(v.Find("wall_dur_us")->num, 123.0);
}

TEST(EventLogTest, RingBoundsAndCountsDrops) {
  obs::EventLog log(/*capacity=*/3);
  log.Enable(true);
  for (int i = 0; i < 5; ++i) {
    obs::Event(&log, "tick").U64("i", static_cast<uint64_t>(i)).Emit();
  }
  std::vector<std::string> lines = log.Lines();
  ASSERT_EQ(lines.size(), 3u);  // oldest two evicted
  EXPECT_EQ(log.dropped(), 2u);
  // Survivors are the newest, oldest-first.
  for (int i = 0; i < 3; ++i) {
    auto parsed = obs::ParseJson(lines[i]);
    ASSERT_TRUE(parsed.ok());
    EXPECT_DOUBLE_EQ(parsed.value().Find("i")->num, static_cast<double>(i + 2));
  }
  log.Clear();
  EXPECT_TRUE(log.Lines().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, ToJsonlJoinsLines) {
  obs::EventLog log;
  log.Enable(true);
  obs::Event(&log, "a").Emit();
  obs::Event(&log, "b").Emit();
  EXPECT_EQ(log.ToJsonl(), "{\"type\":\"a\"}\n{\"type\":\"b\"}\n");
  log.Clear();
  EXPECT_EQ(log.ToJsonl(), "");
}

TEST(EventLogTest, FileSinkAppendsJsonl) {
  const std::string path = ::testing::TempDir() + "/trance_event_log_test.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("TRANCE_EVENT_LOG", path.c_str(), /*overwrite=*/1), 0);
  obs::EventLog log;
  log.ReopenFileSinkFromEnv();
  log.Enable(true);
  obs::Event(&log, "file_test").U64("n", 5).Emit();
  // Detach the sink (flushes + closes) before reading the file back.
  ASSERT_EQ(unsetenv("TRANCE_EVENT_LOG"), 0);
  log.ReopenFileSinkFromEnv();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[256] = {0};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::string content(buf, n);
  EXPECT_EQ(content, "{\"type\":\"file_test\",\"n\":5}\n");
  // The ring captured it too.
  EXPECT_EQ(log.Lines().size(), 1u);
  std::remove(path.c_str());
}

// --- Determinism contract on real runs -----------------------------------

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

/// Strips every `"wall_*":<number>` field from a JSONL line by re-rendering
/// it without those keys (parse → filter → stable key order as emitted is
/// lost, so compare via the parsed map instead).
std::map<std::string, std::string> ParsedWithoutWall(const std::string& line) {
  auto parsed = obs::ParseJson(line);
  EXPECT_TRUE(parsed.ok()) << line;
  std::map<std::string, std::string> out;
  if (!parsed.ok()) return out;
  const obs::JsonValue& v = parsed.value();
  EXPECT_TRUE(v.is_object());
  for (const auto& [key, val] : v.obj) {
    if (key.rfind("wall_", 0) == 0) continue;
    switch (val.kind) {
      case obs::JsonValue::Kind::kString:
        out[key] = "s:" + val.str;
        break;
      case obs::JsonValue::Kind::kNumber: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "n:%.17g", val.num);
        out[key] = buf;
        break;
      }
      case obs::JsonValue::Kind::kBool:
        out[key] = val.b ? "b:true" : "b:false";
        break;
      default:
        out[key] = "other";
    }
  }
  return out;
}

struct LoggedRun {
  std::vector<std::map<std::string, std::string>> events;
  /// Per stage: the non-wall statistic-table keys of its stages[] object in
  /// the job-stats JSON.
  std::vector<std::set<std::string>> stage_stat_keys;
  std::string stats_debug;
  uint64_t shuffle_bytes = 0;
  size_t stages = 0;
  double sim_seconds = 0;
};

LoggedRun RunWithLog(int num_threads, bool log_enabled) {
  obs::EventLog& log = obs::GlobalEventLog();
  log.Clear();
  log.Enable(log_enabled);
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

  LoggedRun r;
  for (const std::string& line : log.Lines()) {
    r.events.push_back(ParsedWithoutWall(line));
  }
  const runtime::JobStats& stats = cluster.stats();
  std::set<std::string> table_keys;
  for (const runtime::StatField& f : runtime::kStatFields) {
    if (f.cls != runtime::StatClass::kWall) table_keys.insert(f.key);
  }
  auto json = obs::ParseJson(obs::JobStatsToJson(stats));
  EXPECT_TRUE(json.ok());
  if (json.ok()) {
    for (const obs::JsonValue& stage : json->Find("stages")->arr) {
      std::set<std::string> keys;
      for (const auto& [key, val] : stage.obj) {
        if (table_keys.count(key)) keys.insert(key);
      }
      r.stage_stat_keys.push_back(std::move(keys));
    }
  }
  r.shuffle_bytes = stats.totals().shuffle_bytes;
  r.stages = stats.stages().size();
  r.sim_seconds = stats.totals().sim_seconds;
  log.Enable(false);
  log.Clear();
  return r;
}

TEST(EventLogIntegrationTest, RealRunEmitsWellFormedLifecycleEvents) {
  LoggedRun r = RunWithLog(1, /*log_enabled=*/true);
  ASSERT_FALSE(r.events.empty());
  std::set<std::string> types;
  for (const auto& ev : r.events) {
    auto it = ev.find("type");
    ASSERT_NE(it, ev.end());
    types.insert(it->second);
  }
  // The lifecycle backbone must be present on any successful run.
  EXPECT_TRUE(types.count("s:job_start"));
  EXPECT_TRUE(types.count("s:job_finish"));
  EXPECT_TRUE(types.count("s:stage_finish"));
  EXPECT_TRUE(types.count("s:shuffle"));
  // Every stage_finish carries the join keys and the measures of its
  // stage's stages[] object: the same statistic-table keys, no more.
  ASSERT_EQ(r.stage_stat_keys.size(), r.stages);
  size_t stage_finishes = 0;
  bool keyed_stage = false;
  for (const auto& ev : r.events) {
    if (ev.at("type") != "s:stage_finish") continue;
    EXPECT_EQ(ev.at("stage"), "n:" + std::to_string(stage_finishes));
    std::set<std::string> keys;
    for (const auto& [key, val] : ev) keys.insert(key);
    for (const char* key : {"type", "job", "stage", "op", "scope", "movement"}) {
      EXPECT_EQ(keys.erase(key), 1u) << "stage_finish missing " << key;
    }
    for (const char* key : {"rows_in", "rows_out", "shuffle_bytes",
                            "sim_seconds"}) {
      EXPECT_TRUE(keys.count(key)) << "stage_finish missing " << key;
    }
    if (keys.count("hash_build_rows")) keyed_stage = true;
    if (stage_finishes < r.stages) {
      EXPECT_EQ(keys, r.stage_stat_keys[stage_finishes])
          << "stage " << stage_finishes << " " << ev.at("op");
    }
    ++stage_finishes;
  }
  EXPECT_EQ(stage_finishes, r.stages);
  EXPECT_TRUE(keyed_stage);
  // job_finish reports ok and the count of stages that ran inside the job
  // (Source registration stages run before job_start, under job id 0, so
  // they are excluded from the delta but still present as stage_finish).
  for (const auto& ev : r.events) {
    if (ev.at("type") != "s:job_finish") continue;
    EXPECT_EQ(ev.at("status"), "s:ok");
    size_t in_job = 0;
    for (const auto& sf : r.events) {
      if (sf.at("type") == "s:stage_finish" && sf.at("job") == ev.at("job")) {
        ++in_job;
      }
    }
    EXPECT_EQ(ev.at("stages"), "n:" + std::to_string(in_job));
  }
}

TEST(EventLogIntegrationTest, EventContentIdenticalAcrossThreadCounts) {
  LoggedRun base = RunWithLog(1, /*log_enabled=*/true);
  ASSERT_FALSE(base.events.empty());
  for (int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    LoggedRun r = RunWithLog(threads, /*log_enabled=*/true);
    EXPECT_EQ(r.events, base.events);
  }
}

TEST(EventLogIntegrationTest, LoggingDoesNotPerturbJobStats) {
  LoggedRun off = RunWithLog(1, /*log_enabled=*/false);
  LoggedRun on = RunWithLog(1, /*log_enabled=*/true);
  EXPECT_TRUE(off.events.empty());
  EXPECT_FALSE(on.events.empty());
  EXPECT_EQ(on.shuffle_bytes, off.shuffle_bytes);
  EXPECT_EQ(on.stages, off.stages);
  EXPECT_DOUBLE_EQ(on.sim_seconds, off.sim_seconds);
}

}  // namespace
}  // namespace trance
