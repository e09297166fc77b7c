// Fault injection & recovery: with the seeded injector enabled and a retry
// budget >= max_faults_per_task, every Fig-7 narrow-suite query — both
// compilation routes, 1 and 4 threads — must produce results and base stats
// bit-identical to a fault-free run (recovery is stats-transparent), with a
// deterministic fault schedule (same seed => same faults, attempt for
// attempt). A task that exceeds the budget escalates to a clean job-level
// ResourceExhausted naming the failing stage.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/bridge.h"
#include "exec/pipeline.h"
#include "fig7_suite.h"
#include "runtime/cluster.h"
#include "runtime/fault.h"
#include "runtime/ops.h"
#include "stats_testing.h"

namespace trance {
namespace {

using fig7_suite::Config;
using fig7_suite::ExpectSameRows;
using fig7_suite::ExpectSameShreddedRows;
using nrc::Value;
using runtime::Dataset;
using runtime::FaultConfig;
using runtime::FaultInjector;
using runtime::FaultKind;
using runtime::JobStats;
using runtime::Row;
using runtime::StageStats;
using runtime::StatGroup;
using stats_testing::ExpectSameStats;

// --- FaultInjector unit tests --------------------------------------------

FaultConfig InjectorConfig(double rate) {
  FaultConfig f;
  f.fault_rate = rate;
  return f;
}

TEST(FaultInjectorTest, ZeroRateNeverFaults) {
  FaultInjector inj(InjectorConfig(0.0));
  EXPECT_FALSE(inj.enabled());
  for (int p = 0; p < 64; ++p) {
    EXPECT_EQ(inj.Decide(0, static_cast<size_t>(p), 0), FaultKind::kNone);
  }
}

TEST(FaultInjectorTest, DecisionsAreDeterministic) {
  FaultInjector a(InjectorConfig(0.5));
  FaultInjector b(InjectorConfig(0.5));
  for (uint64_t stage = 0; stage < 16; ++stage) {
    for (size_t p = 0; p < 16; ++p) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        EXPECT_EQ(a.Decide(stage, p, attempt), b.Decide(stage, p, attempt));
      }
    }
  }
}

TEST(FaultInjectorTest, SeedChangesSchedule) {
  FaultConfig f1 = InjectorConfig(0.5);
  FaultConfig f2 = InjectorConfig(0.5);
  f2.seed = f1.seed + 1;
  FaultInjector a(f1);
  FaultInjector b(f2);
  int differ = 0;
  for (uint64_t stage = 0; stage < 32; ++stage) {
    for (size_t p = 0; p < 32; ++p) {
      if (a.Decide(stage, p, 0) != b.Decide(stage, p, 0)) ++differ;
    }
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultInjectorTest, RateOneAlwaysFaultsUntilCap) {
  FaultConfig f = InjectorConfig(1.0);
  f.max_faults_per_task = 2;
  FaultInjector inj(f);
  for (size_t p = 0; p < 16; ++p) {
    EXPECT_NE(inj.Decide(3, p, 0), FaultKind::kNone);
    EXPECT_NE(inj.Decide(3, p, 1), FaultKind::kNone);
    // The cap guarantees the attempt after max_faults_per_task faults
    // succeeds — the "sufficient retry budget" guarantee.
    EXPECT_EQ(inj.Decide(3, p, 2), FaultKind::kNone);
  }
}

TEST(FaultInjectorTest, BackoffIsBoundedAndMonotone) {
  FaultInjector inj(InjectorConfig(0.5));
  EXPECT_DOUBLE_EQ(inj.BackoffSeconds(0), 0.5);
  EXPECT_DOUBLE_EQ(inj.BackoffSeconds(1), 1.0);
  EXPECT_DOUBLE_EQ(inj.BackoffSeconds(2), 2.0);
  EXPECT_DOUBLE_EQ(inj.BackoffSeconds(4), 8.0);
  EXPECT_DOUBLE_EQ(inj.BackoffSeconds(40), 8.0);  // bounded, no overflow
}

// --- End-to-end recovery equivalence -------------------------------------

/// Fault schedule used by the recovery suite: every other task attempt
/// faults on average, at most 2 faults per task, budget 4 — recovery is
/// guaranteed to succeed (budget >= max_faults_per_task).
runtime::ClusterConfig FaultedConfig(int num_threads) {
  runtime::ClusterConfig c = Config(num_threads);
  c.faults.fault_rate = 0.5;
  c.faults.max_faults_per_task = 2;
  c.faults.max_task_retries = 4;
  return c;
}

/// The fault schedule itself must be deterministic: two runs with the same
/// seed (at any thread count) record identical fault telemetry, event for
/// event.
void ExpectSameFaultTelemetry(const JobStats& a, const JobStats& b) {
  EXPECT_EQ(a.totals().injected_faults, b.totals().injected_faults);
  EXPECT_EQ(a.totals().retries, b.totals().retries);
  EXPECT_DOUBLE_EQ(a.totals().recovery_sim_seconds,
                   b.totals().recovery_sim_seconds);
  ASSERT_EQ(a.stages().size(), b.stages().size());
  for (size_t i = 0; i < a.stages().size(); ++i) {
    const StageStats& sa = a.stages()[i];
    const StageStats& sb = b.stages()[i];
    SCOPED_TRACE("stage " + std::to_string(i) + " (" + sa.op + ")");
    EXPECT_EQ(sa.injected_faults, sb.injected_faults);
    EXPECT_EQ(sa.retries, sb.retries);
    EXPECT_EQ(sa.partition_retries, sb.partition_retries);
    EXPECT_DOUBLE_EQ(sa.recovery_sim_seconds, sb.recovery_sim_seconds);
    ASSERT_EQ(sa.fault_events.size(), sb.fault_events.size());
    for (size_t e = 0; e < sa.fault_events.size(); ++e) {
      EXPECT_EQ(sa.fault_events[e].partition, sb.fault_events[e].partition);
      EXPECT_EQ(sa.fault_events[e].attempt, sb.fault_events[e].attempt);
      EXPECT_EQ(sa.fault_events[e].kind, sb.fault_events[e].kind);
    }
  }
}

struct StandardRun {
  Dataset out;
  JobStats stats;
};

StandardRun RunStandardWith(const nrc::Program& q,
                            const std::map<std::string, Value>& values,
                            const runtime::ClusterConfig& config) {
  runtime::Cluster cluster(config);
  exec::PipelineOptions opts;
  exec::Executor executor(&cluster, opts.exec);
  for (const auto& in : q.inputs) {
    auto v = values.find(in.name);
    TRANCE_CHECK(v != values.end(), "missing input");
    auto schema = runtime::Schema::FromBagType(in.type).ValueOrDie();
    auto rows = exec::ValueToRows(v->second, schema).ValueOrDie();
    auto ds = runtime::Source(&cluster, schema, std::move(rows), in.name)
                  .ValueOrDie();
    executor.Register(in.name, std::move(ds));
  }
  StandardRun r;
  auto out = exec::RunStandard(q, &executor, opts);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (out.ok()) r.out = std::move(out).value();
  r.stats = cluster.stats();
  return r;
}

struct ShreddedRunResult {
  exec::ShreddedRun run;
  JobStats stats;
};

ShreddedRunResult RunShreddedWith(const nrc::Program& q,
                                  const std::map<std::string, Value>& values,
                                  const runtime::ClusterConfig& config) {
  runtime::Cluster cluster(config);
  exec::PipelineOptions opts;
  exec::Executor executor(&cluster, opts.exec);
  int64_t seed = 0;
  for (const auto& in : q.inputs) {
    auto v = values.find(in.name);
    TRANCE_CHECK(v != values.end(), "missing input");
    TRANCE_CHECK(
        exec::RegisterShreddedInput(&executor, in.name, in.type, v->second,
                                    seed)
            .ok(),
        "register shredded input");
    seed += 1000000;
  }
  ShreddedRunResult r;
  auto run = exec::RunShredded(q, &executor, opts,
                               shred::MaterializeMode::kDomainElimination);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (run.ok()) r.run = std::move(run).value();
  r.stats = cluster.stats();
  return r;
}

class FaultSuiteTest
    : public ::testing::TestWithParam<fig7_suite::SuiteParam> {};

TEST_P(FaultSuiteTest, StandardRouteRecoveryIsTransparent) {
  auto [kind, depth] = GetParam();
  auto q = fig7_suite::Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = fig7_suite::Inputs(kind, depth);

  StandardRun clean = RunStandardWith(*q, values, Config(1));
  StandardRun faulted1 = RunStandardWith(*q, values, FaultedConfig(1));
  StandardRun faulted4 = RunStandardWith(*q, values, FaultedConfig(4));
  StandardRun repeat1 = RunStandardWith(*q, values, FaultedConfig(1));

  // Faults were actually injected and recovered from.
  EXPECT_GT(faulted1.stats.totals().injected_faults, 0u);
  EXPECT_EQ(faulted1.stats.totals().retries,
            faulted1.stats.totals().injected_faults);
  EXPECT_GT(faulted1.stats.totals().recovery_sim_seconds, 0.0);

  // Recovery is stats-transparent: identical rows and base stats vs. the
  // fault-free run.
  ExpectSameRows(clean.out, faulted1.out);
  ExpectSameStats(clean.stats, faulted1.stats, StatGroup::kFaults);
  EXPECT_EQ(clean.stats.totals().injected_faults, 0u);
  EXPECT_EQ(clean.stats.totals().recovery_sim_seconds, 0.0);

  // The fault schedule is deterministic: independent of thread count and
  // reproducible across runs with the same seed.
  ExpectSameRows(faulted1.out, faulted4.out);
  ExpectSameStats(faulted1.stats, faulted4.stats, StatGroup::kFaults);
  ExpectSameFaultTelemetry(faulted1.stats, faulted4.stats);
  ExpectSameRows(faulted1.out, repeat1.out);
  ExpectSameFaultTelemetry(faulted1.stats, repeat1.stats);
}

TEST_P(FaultSuiteTest, ShreddedRouteRecoveryIsTransparent) {
  auto [kind, depth] = GetParam();
  auto q = fig7_suite::Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = fig7_suite::Inputs(kind, depth);

  ShreddedRunResult clean = RunShreddedWith(*q, values, Config(1));
  ShreddedRunResult faulted1 = RunShreddedWith(*q, values, FaultedConfig(1));
  ShreddedRunResult faulted4 = RunShreddedWith(*q, values, FaultedConfig(4));

  EXPECT_GT(faulted1.stats.totals().injected_faults, 0u);
  ExpectSameShreddedRows(clean.run, faulted1.run);
  ExpectSameStats(clean.stats, faulted1.stats, StatGroup::kFaults);
  ExpectSameShreddedRows(faulted1.run, faulted4.run);
  ExpectSameStats(faulted1.stats, faulted4.stats, StatGroup::kFaults);
  ExpectSameFaultTelemetry(faulted1.stats, faulted4.stats);
}

INSTANTIATE_TEST_SUITE_P(
    Fig7NarrowSuite, FaultSuiteTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1, 2, 3, 4)),
    fig7_suite::ParamName);

// --- Escalation and attribution ------------------------------------------

runtime::Dataset SmallSource(runtime::Cluster* cluster) {
  runtime::Schema schema;
  schema.Append({"k", nrc::Type::Int()});
  schema.Append({"v", nrc::Type::Int()});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 64; ++i) {
    Row r;
    r.fields.push_back(runtime::Field::Int(i % 7));
    r.fields.push_back(runtime::Field::Int(i));
    rows.push_back(std::move(r));
  }
  return runtime::Source(cluster, schema, std::move(rows), "small")
      .ValueOrDie();
}

TEST(FaultRecoveryTest, RetryBudgetExhaustionEscalatesCleanly) {
  runtime::ClusterConfig c;
  c.num_partitions = 4;
  c.faults.fault_rate = 1.0;       // every attempt faults...
  c.faults.max_faults_per_task = 10;  // ...well past the budget
  c.faults.max_task_retries = 2;
  runtime::Cluster cluster(c);
  runtime::Dataset in = SmallSource(&cluster);
  auto out = runtime::Repartition(&cluster, in, {0}, "repart(small)");
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsResourceExhausted()) << out.status().ToString();
  std::string msg = out.status().ToString();
  EXPECT_NE(msg.find("retry budget exhausted in stage"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("repart(small)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("partition"), std::string::npos) << msg;
}

TEST(FaultRecoveryTest, SufficientBudgetAlwaysRecovers) {
  // Even at fault rate 1.0: the injector stops failing a task after
  // max_faults_per_task faults, so budget >= max_faults_per_task recovers.
  runtime::ClusterConfig c;
  c.num_partitions = 4;
  c.faults.fault_rate = 1.0;
  c.faults.max_faults_per_task = 3;
  c.faults.max_task_retries = 3;
  runtime::Cluster cluster(c);
  runtime::Dataset in = SmallSource(&cluster);
  auto out = runtime::Repartition(&cluster, in, {0}, "repart(small)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(cluster.stats().totals().injected_faults, 0u);

  runtime::ClusterConfig clean_cfg;
  clean_cfg.num_partitions = 4;
  runtime::Cluster clean(clean_cfg);
  runtime::Dataset in2 = SmallSource(&clean);
  auto expected = runtime::Repartition(&clean, in2, {0}, "repart(small)");
  ASSERT_TRUE(expected.ok());
  ExpectSameRows(*expected, *out);
}

TEST(FaultRecoveryTest, MemoryCapMessageNamesStageAndPartition) {
  runtime::ClusterConfig c;
  c.num_partitions = 4;
  c.partition_memory_cap = 1;  // everything saturates
  runtime::Cluster cluster(c);
  // Spilling (on by default) would mask the saturation; this test is about
  // the historical hard-failure message, so force the pre-spill behavior.
  cluster.set_spill_enabled(false);
  runtime::Dataset in = SmallSource(&cluster);
  auto out = runtime::Repartition(&cluster, in, {0}, "repart(small)");
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsResourceExhausted());
  std::string msg = out.status().ToString();
  EXPECT_NE(msg.find("worker memory saturated in stage"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("repart(small)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("partition"), std::string::npos) << msg;
  // The message must name the configured cap and the observed bytes.
  EXPECT_NE(msg.find("holds"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bytes) > cap"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(1 bytes)"), std::string::npos) << msg;
}

}  // namespace
}  // namespace trance
