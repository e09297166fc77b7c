// End-to-end tests of the standard compilation route (Section 3):
// NRC -> unnesting -> optimized plan -> distributed execution, checked
// against the reference interpreter on every query shape the paper's
// benchmarks use (flat-to-flat joins, flat-to-nested grouping at several
// depths, nested-to-nested with aggregation, nested-to-flat).
#include <gtest/gtest.h>

#include "exec/pipeline.h"
#include "nrc/builder.h"
#include "nrc/interp.h"
#include "nrc/printer.h"
#include "util/random.h"

namespace trance {
namespace {

using namespace nrc::dsl;
using nrc::BagValue;
using nrc::DeepBagEquals;
using nrc::Expr;
using nrc::ExprPtr;
using nrc::Program;
using nrc::Type;
using nrc::TypePtr;
using nrc::Value;

Value T2(const std::string& a, Value va, const std::string& b, Value vb) {
  return Value::Tuple({{a, std::move(va)}, {b, std::move(vb)}});
}

/// Runs the program through interpreter and the standard route; expects
/// deep multiset equality.
void ExpectAgreement(const Program& program,
                     const std::map<std::string, Value>& inputs,
                     exec::PipelineOptions options = {}) {
  nrc::Interpreter interp;
  auto oracle = interp.EvalProgram(program, inputs);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const Value& expected = oracle->at(program.result().var);

  runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 5});
  auto got = exec::RunStandardOnValues(program, inputs, &cluster, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(DeepBagEquals(expected, *got))
      << "interpreter: " << nrc::Canonicalize(expected).ToString()
      << "\nstandard:    " << nrc::Canonicalize(*got).ToString()
      << "\nprogram:\n" << nrc::PrintProgram(program);
}

// --- Fixtures -------------------------------------------------------------

TypePtr CopType() {
  return BagTu(
      {{"cname", Type::String()},
       {"corders",
        BagTu({{"odate", Type::Int()},
               {"oparts",
                BagTu({{"pid", Type::Int()}, {"qty", Type::Real()}})}})}});
}

TypePtr PartType() {
  return BagTu({{"pid", Type::Int()},
                {"pname", Type::String()},
                {"price", Type::Real()}});
}

Value MakePart() {
  return Value::Bag({
      Value::Tuple({{"pid", Value::Int(1)},
                    {"pname", Value::Str("bolt")},
                    {"price", Value::Real(2.0)}}),
      Value::Tuple({{"pid", Value::Int(2)},
                    {"pname", Value::Str("nut")},
                    {"price", Value::Real(1.0)}}),
      Value::Tuple({{"pid", Value::Int(3)},
                    {"pname", Value::Str("gear")},
                    {"price", Value::Real(5.0)}}),
  });
}

Value MakeCop() {
  auto oparts1 = Value::Bag({T2("pid", Value::Int(1), "qty", Value::Real(3)),
                             T2("pid", Value::Int(2), "qty", Value::Real(4)),
                             T2("pid", Value::Int(1), "qty", Value::Real(1)),
                             T2("pid", Value::Int(9), "qty", Value::Real(7))});
  auto oparts2 = Value::Bag({T2("pid", Value::Int(3), "qty", Value::Real(2))});
  auto corders_a =
      Value::Bag({T2("odate", Value::Int(100), "oparts", oparts1),
                  T2("odate", Value::Int(200), "oparts", Value::EmptyBag()),
                  T2("odate", Value::Int(300), "oparts", oparts2)});
  return Value::Bag(
      {T2("cname", Value::Str("alice"), "corders", corders_a),
       T2("cname", Value::Str("bob"), "corders", Value::EmptyBag())});
}

ExprPtr RunningExampleQuery() {
  return For(
      "cop", V("COP"),
      SngTup(
          {{"cname", V("cop.cname")},
           {"corders",
            For("co", V("cop.corders"),
                SngTup({{"odate", V("co.odate")},
                        {"oparts",
                         SumBy({"pname"}, {"total"},
                               For("op", V("co.oparts"),
                                   For("p", V("Part"),
                                       If(Eq(V("op.pid"), V("p.pid")),
                                          SngTup({{"pname", V("p.pname")},
                                                  {"total",
                                                   Mul(V("op.qty"),
                                                       V("p.price"))}})))))}}))}}));
}

// --- Tests ----------------------------------------------------------------

TEST(StandardPipelineTest, FlatJoinProjection) {
  Program p;
  p.inputs = {{"R", BagTu({{"k", Type::Int()}, {"a", Type::Int()}})},
              {"S", BagTu({{"k", Type::Int()}, {"b", Type::Int()}})}};
  p.assignments.push_back(
      {"Q", For("r", V("R"),
                For("s", V("S"),
                    If(Eq(V("r.k"), V("s.k")),
                       SngTup({{"a", V("r.a")}, {"b", V("s.b")}}))))});
  Value r = Value::Bag({T2("k", Value::Int(1), "a", Value::Int(10)),
                        T2("k", Value::Int(2), "a", Value::Int(20)),
                        T2("k", Value::Int(2), "a", Value::Int(21))});
  Value s = Value::Bag({T2("k", Value::Int(2), "b", Value::Int(200)),
                        T2("k", Value::Int(3), "b", Value::Int(300))});
  ExpectAgreement(p, {{"R", r}, {"S", s}});
}

TEST(StandardPipelineTest, FlatSelection) {
  Program p;
  p.inputs = {{"R", BagTu({{"k", Type::Int()}, {"a", Type::Int()}})}};
  p.assignments.push_back(
      {"Q", For("r", V("R"),
                If(Gt(V("r.a"), I(15)), SngTup({{"k", V("r.k")}})))});
  Value r = Value::Bag({T2("k", Value::Int(1), "a", Value::Int(10)),
                        T2("k", Value::Int(2), "a", Value::Int(20))});
  ExpectAgreement(p, {{"R", r}});
}

TEST(StandardPipelineTest, FlatSumBy) {
  Program p;
  p.inputs = {{"R", BagTu({{"k", Type::Int()}, {"v", Type::Real()}})}};
  p.assignments.push_back(
      {"Q", SumBy({"k"}, {"v"},
                  For("r", V("R"),
                      SngTup({{"k", V("r.k")}, {"v", V("r.v")}})))});
  Value r = Value::Bag({T2("k", Value::Int(1), "v", Value::Real(1.5)),
                        T2("k", Value::Int(1), "v", Value::Real(2.5)),
                        T2("k", Value::Int(2), "v", Value::Real(4.0))});
  ExpectAgreement(p, {{"R", r}});
}

TEST(StandardPipelineTest, FlatDedup) {
  Program p;
  p.inputs = {{"R", BagTu({{"k", Type::Int()}})}};
  p.assignments.push_back(
      {"Q", Expr::Dedup(For("r", V("R"), SngTup({{"k", V("r.k")}})))});
  Value r = Value::Bag({Value::Tuple({{"k", Value::Int(1)}}),
                        Value::Tuple({{"k", Value::Int(1)}}),
                        Value::Tuple({{"k", Value::Int(2)}})});
  ExpectAgreement(p, {{"R", r}});
}

TEST(StandardPipelineTest, FlatToNestedOneLevel) {
  // Group orders under customers via a correlated subquery (the paper's
  // flat-to-nested shape); customers without orders keep empty bags.
  Program p;
  p.inputs = {
      {"Cust", BagTu({{"ck", Type::Int()}, {"cname", Type::String()}})},
      {"Ord", BagTu({{"ck", Type::Int()}, {"odate", Type::Int()}})}};
  p.assignments.push_back(
      {"Q", For("c", V("Cust"),
                SngTup({{"cname", V("c.cname")},
                        {"orders",
                         For("o", V("Ord"),
                             If(Eq(V("o.ck"), V("c.ck")),
                                SngTup({{"odate", V("o.odate")}})))}}))});
  Value cust = Value::Bag({T2("ck", Value::Int(1), "cname", Value::Str("a")),
                           T2("ck", Value::Int(2), "cname", Value::Str("b")),
                           T2("ck", Value::Int(3), "cname", Value::Str("c"))});
  Value ord = Value::Bag({T2("ck", Value::Int(1), "odate", Value::Int(7)),
                          T2("ck", Value::Int(1), "odate", Value::Int(8)),
                          T2("ck", Value::Int(2), "odate", Value::Int(9))});
  ExpectAgreement(p, {{"Cust", cust}, {"Ord", ord}});
  // SparkSQL mode (no cogroup) must agree too.
  ExpectAgreement(p, {{"Cust", cust}, {"Ord", ord}},
                  exec::PipelineOptions::SparkSql());
}

TEST(StandardPipelineTest, FlatToNestedTwoLevels) {
  Program p;
  p.inputs = {
      {"Cust", BagTu({{"ck", Type::Int()}, {"cname", Type::String()}})},
      {"Ord", BagTu({{"ok", Type::Int()},
                     {"ck", Type::Int()},
                     {"odate", Type::Int()}})},
      {"Item", BagTu({{"ok", Type::Int()},
                      {"pid", Type::Int()},
                      {"qty", Type::Real()}})}};
  p.assignments.push_back(
      {"Q",
       For("c", V("Cust"),
           SngTup({{"cname", V("c.cname")},
                   {"orders",
                    For("o", V("Ord"),
                        If(Eq(V("o.ck"), V("c.ck")),
                           SngTup({{"odate", V("o.odate")},
                                   {"items",
                                    For("l", V("Item"),
                                        If(Eq(V("l.ok"), V("o.ok")),
                                           SngTup({{"pid", V("l.pid")},
                                                   {"qty",
                                                    V("l.qty")}})))}})))}}))});
  Value cust = Value::Bag({T2("ck", Value::Int(1), "cname", Value::Str("a")),
                           T2("ck", Value::Int(2), "cname", Value::Str("b"))});
  Value ord = Value::Bag(
      {Value::Tuple({{"ok", Value::Int(10)},
                     {"ck", Value::Int(1)},
                     {"odate", Value::Int(100)}}),
       Value::Tuple({{"ok", Value::Int(11)},
                     {"ck", Value::Int(1)},
                     {"odate", Value::Int(200)}})});
  Value item = Value::Bag(
      {Value::Tuple({{"ok", Value::Int(10)},
                     {"pid", Value::Int(1)},
                     {"qty", Value::Real(2)}}),
       Value::Tuple({{"ok", Value::Int(10)},
                     {"pid", Value::Int(2)},
                     {"qty", Value::Real(3)}}),
       Value::Tuple({{"ok", Value::Int(99)},
                     {"pid", Value::Int(3)},
                     {"qty", Value::Real(4)}})});
  ExpectAgreement(p, {{"Cust", cust}, {"Ord", ord}, {"Item", item}});
}

TEST(StandardPipelineTest, RunningExampleNestedToNested) {
  Program p;
  p.inputs = {{"COP", CopType()}, {"Part", PartType()}};
  p.assignments.push_back({"Q", RunningExampleQuery()});
  ExpectAgreement(p, {{"COP", MakeCop()}, {"Part", MakePart()}});
  ExpectAgreement(p, {{"COP", MakeCop()}, {"Part", MakePart()}},
                  exec::PipelineOptions::SparkSql());
}

TEST(StandardPipelineTest, NestedToFlatTopLevelAggregate) {
  // Navigate all levels and aggregate at the top (nested-to-flat).
  Program p;
  p.inputs = {{"COP", CopType()}, {"Part", PartType()}};
  p.assignments.push_back(
      {"Q", SumBy({"cname"}, {"total"},
                  For("cop", V("COP"),
                      For("co", V("cop.corders"),
                          For("op", V("co.oparts"),
                              For("p", V("Part"),
                                  If(Eq(V("op.pid"), V("p.pid")),
                                     SngTup({{"cname", V("cop.cname")},
                                             {"total",
                                              Mul(V("op.qty"),
                                                  V("p.price"))}})))))))});
  ExpectAgreement(p, {{"COP", MakeCop()}, {"Part", MakePart()}});
}

TEST(StandardPipelineTest, NestedPassthroughBagAttribute) {
  // Keep an inner bag wholesale while renaming top-level attrs.
  Program p;
  p.inputs = {{"COP", CopType()}};
  p.assignments.push_back(
      {"Q", For("cop", V("COP"),
                SngTup({{"name", V("cop.cname")},
                        {"orders", V("cop.corders")}}))});
  ExpectAgreement(p, {{"COP", MakeCop()}});
}

TEST(StandardPipelineTest, GroupByInsideLevel) {
  // groupBy at a nested level.
  Program p;
  p.inputs = {{"R", BagTu({{"g", Type::Int()},
                           {"k", Type::Int()},
                           {"v", Type::Int()}})},
              {"Keys", BagTu({{"g", Type::Int()}})}};
  p.assignments.push_back(
      {"Q",
       For("x", V("Keys"),
           SngTup({{"g", V("x.g")},
                   {"groups",
                    GroupBy({"k"},
                            For("r", V("R"),
                                If(Eq(V("r.g"), V("x.g")),
                                   SngTup({{"k", V("r.k")},
                                           {"v", V("r.v")}}))))}}))});
  Value keys = Value::Bag({Value::Tuple({{"g", Value::Int(1)}}),
                           Value::Tuple({{"g", Value::Int(2)}})});
  Value r = Value::Bag(
      {Value::Tuple({{"g", Value::Int(1)},
                     {"k", Value::Int(5)},
                     {"v", Value::Int(50)}}),
       Value::Tuple({{"g", Value::Int(1)},
                     {"k", Value::Int(5)},
                     {"v", Value::Int(51)}}),
       Value::Tuple({{"g", Value::Int(1)},
                     {"k", Value::Int(6)},
                     {"v", Value::Int(60)}})});
  ExpectAgreement(p, {{"Keys", keys}, {"R", r}});
}

TEST(StandardPipelineTest, MultiAssignmentProgram) {
  // A two-step pipeline where the second query consumes the first's nested
  // output (the nested-to-nested benchmark pattern).
  Program p;
  p.inputs = {
      {"Cust", BagTu({{"ck", Type::Int()}, {"cname", Type::String()}})},
      {"Ord", BagTu({{"ck", Type::Int()}, {"amount", Type::Real()}})}};
  p.assignments.push_back(
      {"Nested",
       For("c", V("Cust"),
           SngTup({{"cname", V("c.cname")},
                   {"orders", For("o", V("Ord"),
                                  If(Eq(V("o.ck"), V("c.ck")),
                                     SngTup({{"amount", V("o.amount")}})))}}))});
  p.assignments.push_back(
      {"Q", For("n", V("Nested"),
                SngTup({{"cname", V("n.cname")},
                        {"sums", SumBy({}, {"amount"},
                                       For("o", V("n.orders"),
                                           SngTup({{"amount",
                                                    V("o.amount")}})))}}))});
  Value cust = Value::Bag({T2("ck", Value::Int(1), "cname", Value::Str("a")),
                           T2("ck", Value::Int(2), "cname", Value::Str("b"))});
  Value ord = Value::Bag({T2("ck", Value::Int(1), "amount", Value::Real(5)),
                          T2("ck", Value::Int(1), "amount", Value::Real(7))});
  ExpectAgreement(p, {{"Cust", cust}, {"Ord", ord}});
}

TEST(StandardPipelineTest, RandomizedFlatToNestedProperty) {
  // Property sweep: random relations, standard route == interpreter.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    std::vector<Value> custs, ords;
    int nc = 2 + static_cast<int>(rng.Uniform(6));
    int no = static_cast<int>(rng.Uniform(30));
    for (int i = 0; i < nc; ++i) {
      custs.push_back(T2("ck", Value::Int(i), "cname",
                         Value::Str(rng.NextString(3))));
    }
    for (int i = 0; i < no; ++i) {
      ords.push_back(T2("ck", Value::Int(rng.UniformRange(0, nc + 1)),
                        "odate", Value::Int(rng.UniformRange(0, 5))));
    }
    Program p;
    p.inputs = {
        {"Cust", BagTu({{"ck", Type::Int()}, {"cname", Type::String()}})},
        {"Ord", BagTu({{"ck", Type::Int()}, {"odate", Type::Int()}})}};
    p.assignments.push_back(
        {"Q", For("c", V("Cust"),
                  SngTup({{"cname", V("c.cname")},
                          {"orders",
                           For("o", V("Ord"),
                               If(Eq(V("o.ck"), V("c.ck")),
                                  SngTup({{"odate", V("o.odate")}})))}}))});
    ExpectAgreement(p, {{"Cust", Value::Bag(custs)}, {"Ord", Value::Bag(ords)}});
  }
}

TEST(StandardPipelineTest, SkewAwareModeAgrees) {
  // Skew-aware execution must not change results, only data placement.
  Program p;
  p.inputs = {{"R", BagTu({{"k", Type::Int()}, {"a", Type::Int()}})},
              {"S", BagTu({{"k", Type::Int()}, {"b", Type::Int()}})}};
  p.assignments.push_back(
      {"Q", For("r", V("R"),
                For("s", V("S"),
                    If(Eq(V("r.k"), V("s.k")),
                       SngTup({{"a", V("r.a")}, {"b", V("s.b")}}))))});
  // Heavily skewed R: most rows share k=7.
  std::vector<Value> rrows, srows;
  for (int i = 0; i < 300; ++i) {
    rrows.push_back(T2("k", Value::Int(7), "a", Value::Int(i)));
  }
  for (int i = 0; i < 20; ++i) {
    rrows.push_back(T2("k", Value::Int(100 + i), "a", Value::Int(i)));
    srows.push_back(T2("k", Value::Int(100 + i), "b", Value::Int(i)));
  }
  srows.push_back(T2("k", Value::Int(7), "b", Value::Int(1000)));
  exec::PipelineOptions skew_opts;
  skew_opts.exec.skew_aware = true;
  ExpectAgreement(p, {{"R", Value::Bag(rrows)}, {"S", Value::Bag(srows)}},
                  skew_opts);
}

}  // namespace
}  // namespace trance

namespace trance {
namespace {
using namespace nrc::dsl;

TEST(OptimizerOptionTest, AggPushdownAgrees) {
  // Pushing Gamma-plus past the join must not change results, with and
  // without nesting around the aggregation.
  nrc::Program p;
  p.inputs = {{"COP", BagTu({{"cname", nrc::Type::String()},
                             {"corders",
                              BagTu({{"odate", nrc::Type::Int()},
                                     {"oparts",
                                      BagTu({{"pid", nrc::Type::Int()},
                                             {"qty", nrc::Type::Real()}})}})}})},
              {"Part", BagTu({{"pid", nrc::Type::Int()},
                              {"pname", nrc::Type::String()},
                              {"price", nrc::Type::Real()}})}};
  p.assignments.push_back(
      {"Q", SumBy({"pname"}, {"total"},
                  For("cop", V("COP"),
                      For("co", V("cop.corders"),
                          For("op", V("co.oparts"),
                              For("p2", V("Part"),
                                  If(Eq(V("op.pid"), V("p2.pid")),
                                     SngTup({{"pname", V("p2.pname")},
                                             {"total",
                                              Mul(V("op.qty"),
                                                  V("p2.price"))}})))))))});
  Rng rng(11);
  std::vector<nrc::Value> parts, cops;
  for (int i = 0; i < 6; ++i) {
    parts.push_back(nrc::Value::Tuple(
        {{"pid", nrc::Value::Int(i)},
         {"pname", nrc::Value::Str("p" + std::to_string(i % 3))},
         {"price", nrc::Value::Real(1.0 + i)}}));
  }
  for (int c = 0; c < 4; ++c) {
    std::vector<nrc::Value> orders;
    for (int o = 0; o < 3; ++o) {
      std::vector<nrc::Value> ops;
      for (int k = 0; k < 4; ++k) {
        ops.push_back(nrc::Value::Tuple(
            {{"pid", nrc::Value::Int(rng.UniformRange(0, 7))},
             {"qty", nrc::Value::Real(1 + rng.NextDouble())}}));
      }
      orders.push_back(nrc::Value::Tuple(
          {{"odate", nrc::Value::Int(o)}, {"oparts", nrc::Value::Bag(ops)}}));
    }
    cops.push_back(nrc::Value::Tuple(
        {{"cname", nrc::Value::Str("c" + std::to_string(c))},
         {"corders", nrc::Value::Bag(orders)}}));
  }
  std::map<std::string, nrc::Value> inputs{
      {"COP", nrc::Value::Bag(cops)}, {"Part", nrc::Value::Bag(parts)}};

  nrc::Interpreter interp;
  auto oracle = interp.EvalProgram(p, inputs);
  ASSERT_TRUE(oracle.ok());

  exec::PipelineOptions opts;
  opts.optimizer.enable_agg_pushdown = true;
  {
    runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 5});
    auto got = exec::RunStandardOnValues(p, inputs, &cluster, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(nrc::ApproxDeepBagEquals(oracle->at("Q"), *got));
  }
  {
    runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 5});
    auto got = exec::RunShreddedOnValues(p, inputs, &cluster, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(nrc::ApproxDeepBagEquals(oracle->at("Q"), *got));
  }
}

}  // namespace
}  // namespace trance
