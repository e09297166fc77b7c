// Integration tests: the TPC-H benchmark query suite (all depths, both
// widths) and the biomedical E2E pipeline, each executed on the interpreter,
// the standard route, and the shredded route, checking 3-way agreement.
#include <gtest/gtest.h>

#include "biomed/generator.h"
#include "biomed/pipeline.h"
#include "exec/bridge.h"
#include "exec/pipeline.h"
#include "fig7_suite.h"
#include "nrc/interp.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace trance {
namespace {

using fig7_suite::TpchValues;
using nrc::ApproxDeepBagEquals;
using nrc::Program;
using nrc::Value;

/// Interpreter == standard == shredded on the given program/inputs.
void ExpectThreeWayAgreement(const Program& program,
                             const std::map<std::string, Value>& inputs,
                             const std::string& what) {
  nrc::Interpreter interp;
  auto oracle = interp.EvalProgram(program, inputs);
  ASSERT_TRUE(oracle.ok()) << what << ": " << oracle.status().ToString();
  const Value& expected = oracle->at(program.result().var);

  {
    runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 4});
    auto got = exec::RunStandardOnValues(program, inputs, &cluster, {});
    ASSERT_TRUE(got.ok()) << what << " standard: " << got.status().ToString();
    EXPECT_TRUE(ApproxDeepBagEquals(expected, *got)) << what << " standard";
  }
  {
    runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 4});
    auto got = exec::RunShreddedOnValues(program, inputs, &cluster, {});
    ASSERT_TRUE(got.ok()) << what << " shredded: " << got.status().ToString();
    EXPECT_TRUE(ApproxDeepBagEquals(expected, *got)) << what << " shredded";
  }
}

class TpchSuiteTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TpchSuiteTest, FlatToNestedThreeWay) {
  auto [depth, w] = GetParam();
  tpch::Width width = w == 0 ? tpch::Width::kNarrow : tpch::Width::kWide;
  tpch::TpchConfig cfg;
  cfg.scale = 0.00025;
  auto data = tpch::Generate(cfg);
  auto program = tpch::FlatToNested(depth, width);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ExpectThreeWayAgreement(*program, TpchValues(data),
                          "flat_to_nested d=" + std::to_string(depth));
}

TEST_P(TpchSuiteTest, NestedToNestedThreeWay) {
  auto [depth, w] = GetParam();
  tpch::Width width = w == 0 ? tpch::Width::kNarrow : tpch::Width::kWide;
  tpch::TpchConfig cfg;
  cfg.scale = 0.00025;
  auto data = tpch::Generate(cfg);
  // Prepare the nested input by evaluating the flat-to-nested query.
  auto prep = tpch::FlatToNested(depth, width);
  ASSERT_TRUE(prep.ok());
  nrc::Interpreter interp;
  auto values = TpchValues(data);
  auto nested = interp.EvalProgram(*prep, values);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();

  auto program = tpch::NestedToNested(depth, width);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::map<std::string, Value> inputs{{"COP", nested->at("Q")},
                                      {"Part", values.at("Part")}};
  ExpectThreeWayAgreement(*program, inputs,
                          "nested_to_nested d=" + std::to_string(depth));
}

TEST_P(TpchSuiteTest, NestedToFlatThreeWay) {
  auto [depth, w] = GetParam();
  tpch::Width width = w == 0 ? tpch::Width::kNarrow : tpch::Width::kWide;
  tpch::TpchConfig cfg;
  cfg.scale = 0.00025;
  auto data = tpch::Generate(cfg);
  auto prep = tpch::FlatToNested(depth, width);
  ASSERT_TRUE(prep.ok());
  nrc::Interpreter interp;
  auto values = TpchValues(data);
  auto nested = interp.EvalProgram(*prep, values);
  ASSERT_TRUE(nested.ok());

  auto program = tpch::NestedToFlat(depth, width);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::map<std::string, Value> inputs{{"COP", nested->at("Q")},
                                      {"Part", values.at("Part")}};
  ExpectThreeWayAgreement(*program, inputs,
                          "nested_to_flat d=" + std::to_string(depth));
}

INSTANTIATE_TEST_SUITE_P(
    AllDepthsAndWidths, TpchSuiteTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(0, 1)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "depth" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == 0 ? "narrow" : "wide");
    });

TEST(TpchGeneratorTest, RowCountsScale) {
  tpch::TpchConfig cfg;
  cfg.scale = 0.001;
  auto d = tpch::Generate(cfg);
  EXPECT_EQ(d.region.rows.size(), 5u);
  EXPECT_EQ(d.nation.rows.size(), 25u);
  EXPECT_EQ(d.customer.rows.size(), 150u);
  EXPECT_EQ(d.orders.rows.size(), 1500u);
  EXPECT_EQ(d.lineitem.rows.size(), 6000u);
  EXPECT_EQ(d.part.rows.size(), 200u);
}

TEST(TpchGeneratorTest, SkewConcentratesKeys) {
  tpch::TpchConfig cfg;
  cfg.scale = 0.001;
  cfg.skew = 2.0;
  auto skewed = tpch::Generate(cfg);
  cfg.skew = 0.0;
  auto uniform = tpch::Generate(cfg);
  auto max_orderkey_freq = [](const tpch::Table& li) {
    std::map<int64_t, size_t> freq;
    for (const auto& r : li.rows) ++freq[r.fields[1].AsInt()];  // partkey
    size_t mx = 0;
    for (auto& [k, c] : freq) mx = std::max(mx, c);
    return mx;
  };
  EXPECT_GT(max_orderkey_freq(skewed.lineitem),
            10 * max_orderkey_freq(uniform.lineitem));
}

TEST(TpchGeneratorTest, Deterministic) {
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto a = tpch::Generate(cfg);
  auto b = tpch::Generate(cfg);
  ASSERT_EQ(a.lineitem.rows.size(), b.lineitem.rows.size());
  for (size_t i = 0; i < a.lineitem.rows.size(); ++i) {
    EXPECT_TRUE(runtime::RowEquals(a.lineitem.rows[i], b.lineitem.rows[i]));
  }
}

std::map<std::string, Value> BiomedValues(const biomed::BiomedData& d) {
  auto conv = [](const runtime::Schema& s, const std::vector<runtime::Row>& r) {
    auto v = exec::RowsToValue(r, s);
    TRANCE_CHECK(v.ok(), "biomed conversion");
    return std::move(v).value();
  };
  return {{"BN2", conv(d.bn2_schema, d.bn2)},
          {"BN1", conv(d.bn1_schema, d.bn1)},
          {"BF1", conv(d.bf1_schema, d.bf1)},
          {"BF2", conv(d.bf2_schema, d.bf2)},
          {"BF3", conv(d.bf3_schema, d.bf3)}};
}

biomed::BiomedConfig TinyBiomed() {
  biomed::BiomedConfig cfg;
  cfg.samples = 8;
  cfg.genes = 30;
  cfg.mutations_per_sample = 5;
  cfg.network_edges = 120;
  return cfg;
}

TEST(BiomedTest, StepProgramsThreeWay) {
  auto data = biomed::Generate(TinyBiomed());
  auto inputs = BiomedValues(data);
  // Execute steps incrementally, feeding each oracle output forward.
  nrc::Interpreter interp;
  std::map<std::string, Value> env = inputs;
  for (int step = 1; step <= biomed::kNumSteps; ++step) {
    auto program = biomed::StepProgram(step);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    ExpectThreeWayAgreement(*program, env, "Step" + std::to_string(step));
    auto out = interp.EvalProgram(*program, env);
    ASSERT_TRUE(out.ok());
    env["Step" + std::to_string(step)] =
        out->at("Step" + std::to_string(step));
  }
}

TEST(BiomedTest, FullPipelineThreeWay) {
  auto data = biomed::Generate(TinyBiomed());
  ExpectThreeWayAgreement(biomed::E2EProgram(), BiomedValues(data), "E2E");
}

TEST(BiomedTest, GeneratorShapes) {
  auto cfg = biomed::BiomedConfig::Small();
  auto d = biomed::Generate(cfg);
  EXPECT_EQ(d.bn2.size(), static_cast<size_t>(cfg.samples));
  EXPECT_EQ(d.bn1.size(), static_cast<size_t>(cfg.samples));
  EXPECT_EQ(d.bf3.size(), static_cast<size_t>(cfg.so_terms));
  // Total mutations match the budget.
  size_t total = 0;
  // mutations bag sits after the sample metadata columns
  int mcol = d.bn2_schema.IndexOf("mutations");
  ASSERT_GE(mcol, 0);
  for (const auto& r : d.bn2) {
    total += r.fields[static_cast<size_t>(mcol)].AsBag()->size();
  }
  EXPECT_EQ(total,
            static_cast<size_t>(cfg.samples * cfg.mutations_per_sample));
}

TEST(BiomedTest, MutationSkewConcentrates) {
  auto cfg = TinyBiomed();
  cfg.mutation_skew = 3.0;
  auto skewed = biomed::Generate(cfg);
  size_t mx = 0;
  int mcol = skewed.bn2_schema.IndexOf("mutations");
  ASSERT_GE(mcol, 0);
  for (const auto& r : skewed.bn2) {
    mx = std::max(mx, r.fields[static_cast<size_t>(mcol)].AsBag()->size());
  }
  // With strong Zipf skew one sample holds most of the budget.
  EXPECT_GT(mx, static_cast<size_t>(cfg.mutations_per_sample * 3));
}

}  // namespace
}  // namespace trance
