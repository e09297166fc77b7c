// Tests for the exec layer: the scalar expression compiler (NULL
// propagation, label construction), the value<->row bridge round-trips, and
// executor-level behaviours (broadcast threshold, program registry).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/bridge.h"
#include "exec/lowering.h"
#include "exec/pipeline.h"
#include "exec/scalar_compiler.h"
#include "fig7_suite.h"
#include "nrc/builder.h"
#include "plan/plan.h"
#include "shred/shredded_type.h"
#include "util/random.h"

namespace trance {
namespace {

using namespace nrc::dsl;
using exec::CompileScalar;
using exec::ScalarResultType;
using nrc::Expr;
using nrc::Type;
using nrc::TypePtr;
using nrc::Value;
using runtime::Field;
using runtime::Row;
using runtime::Schema;

Schema TestSchema() {
  return Schema({{"a", Type::Int()},
                 {"b", Type::Real()},
                 {"s", Type::String()},
                 {"flag", Type::Bool()}});
}

/// Evaluates a compiled scalar on `r` as the only row of a block.
Field EvalOn(const exec::ScalarFn& f, const Schema& schema, const Row& r) {
  return f(runtime::column::PartitionBlock::FromRows(schema, {r}), 0);
}

TEST(ScalarCompilerTest, ArithmeticAndTypes) {
  Schema schema = TestSchema();
  auto f = CompileScalar(Mul(Add(V("a"), I(1)), V("b")), schema);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  Row r({Field::Int(3), Field::Real(2.5), Field::Str("x"),
         Field::Bool(true)});
  EXPECT_DOUBLE_EQ(EvalOn(*f, schema, r).AsReal(), 10.0);
  auto t = ScalarResultType(Mul(Add(V("a"), I(1)), V("b")), schema);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->scalar_kind(), nrc::ScalarKind::kReal);
  // Int-only arithmetic stays integral; division always real.
  auto g = CompileScalar(Add(V("a"), I(2)), schema);
  EXPECT_TRUE(EvalOn(*g, schema, r).is_int());
  auto d = CompileScalar(Div(V("a"), I(2)), schema);
  EXPECT_TRUE(EvalOn(*d, schema, r).is_real());
}

TEST(ScalarCompilerTest, NullPropagation) {
  Schema schema = TestSchema();
  Row null_row({Field::Null(), Field::Null(), Field::Null(), Field::Null()});
  // Arithmetic with NULL is NULL; comparisons with NULL are false.
  auto f = CompileScalar(Add(V("a"), I(1)), schema);
  EXPECT_TRUE(EvalOn(*f, schema, null_row).is_null());
  auto c = CompileScalar(Eq(V("a"), I(0)), schema);
  EXPECT_FALSE(EvalOn(*c, schema, null_row).AsBool());
  auto lt = CompileScalar(Lt(V("b"), R(1.0)), schema);
  EXPECT_FALSE(EvalOn(*lt, schema, null_row).AsBool());
  // Division by zero yields NULL, not a crash.
  Row r({Field::Int(1), Field::Real(0.0), Field::Str(""), Field::Bool(false)});
  auto dz = CompileScalar(Div(V("a"), V("b")), schema);
  EXPECT_TRUE(EvalOn(*dz, schema, r).is_null());
}

TEST(ScalarCompilerTest, MissingColumnFails) {
  auto f = CompileScalar(V("nope"), TestSchema());
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kKeyError);
}

TEST(ScalarCompilerTest, NewLabelBuildsRuntimeLabels) {
  Schema schema = TestSchema();
  auto f = CompileScalar(Expr::NewLabel({{"k", V("a")}, {"t", V("s")}}),
                         schema);
  ASSERT_TRUE(f.ok());
  Row r1({Field::Int(7), Field::Real(0), Field::Str("x"), Field::Bool(true)});
  Row r2({Field::Int(7), Field::Real(9), Field::Str("x"), Field::Bool(false)});
  // Labels with equal captured values compare equal regardless of other
  // columns.
  EXPECT_EQ(EvalOn(*f, schema, r1), EvalOn(*f, schema, r2));
  Row r3({Field::Int(8), Field::Real(0), Field::Str("x"), Field::Bool(true)});
  EXPECT_NE(EvalOn(*f, schema, r1), EvalOn(*f, schema, r3));
}

// A compiled closure evaluated at row i of a block reads row i's cells: every
// expression below has a different value at row 0 than at row 2.
TEST(ScalarCompilerTest, ReadsItsOwnRow) {
  Schema schema(
      {{"a", Type::Int()}, {"d", Type::Date()}, {"s", Type::String()}});
  const auto block = runtime::column::PartitionBlock::FromRows(
      schema, {Row({Field::Int(5), Field::Int(100), Field::Str("alpha")}),
               Row({Field::Int(7), Field::Int(200), Field::Str("beta")}),
               Row({Field::Null(), Field::Int(300), Field::Str("gamma")}),
               Row({Field::Int(9), Field::Int(400), Field::Str("delta")})});
  auto at = [&](const nrc::ExprPtr& e, size_t row) {
    auto f = CompileScalar(e, schema);
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    return f.ok() ? (*f)(block, row) : Field::Null();
  };
  // Arithmetic: NULL at row 2 (the NULL int), a value elsewhere.
  EXPECT_TRUE(at(Add(V("a"), I(1)), 2).is_null());
  EXPECT_EQ(at(Add(V("a"), I(1)), 0), Field::Int(6));
  EXPECT_EQ(at(Mul(V("a"), I(2)), 3), Field::Int(18));
  // Comparisons over the date (int64) and string columns.
  EXPECT_EQ(at(Eq(V("d"), I(300)), 2), Field::Bool(true));
  EXPECT_EQ(at(Eq(V("s"), S("gamma")), 2), Field::Bool(true));
  EXPECT_EQ(at(Eq(V("s"), S("gamma")), 0), Field::Bool(false));
  EXPECT_EQ(at(Lt(V("a"), I(10)), 2), Field::Bool(false));
  EXPECT_EQ(at(Lt(V("a"), I(10)), 0), Field::Bool(true));
  // Boolean operators.
  EXPECT_EQ(at(And(Eq(V("s"), S("gamma")), Gt(V("d"), I(250))), 2),
            Field::Bool(true));
  EXPECT_EQ(at(Expr::Not(Eq(V("a"), I(5))), 2), Field::Bool(true));
  EXPECT_EQ(at(Expr::Not(Eq(V("a"), I(5))), 0), Field::Bool(false));
  // Column reads and labels.
  EXPECT_EQ(at(V("s"), 2), Field::Str("gamma"));
  const auto label =
      Expr::NewLabel({{"k", V("a")}, {"d", V("d")}, {"t", V("s")}});
  EXPECT_EQ(at(label, 2),
            runtime::MakeLabel({{"k", Field::Null()},
                                {"d", Field::Int(300)},
                                {"t", Field::Str("gamma")}}));
  EXPECT_NE(at(label, 2), at(label, 0));
}

TEST(BridgeTest, RowValueRoundTripFlat) {
  Schema schema = TestSchema();
  std::vector<Row> rows{
      Row({Field::Int(1), Field::Real(2.5), Field::Str("hi"),
           Field::Bool(true)}),
      Row({Field::Int(-3), Field::Real(0.0), Field::Str(""),
           Field::Bool(false)})};
  auto v = exec::RowsToValue(rows, schema);
  ASSERT_TRUE(v.ok());
  auto back = exec::ValueToRows(*v, schema);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(runtime::RowEquals(rows[i], (*back)[i]));
  }
}

TEST(BridgeTest, RowValueRoundTripNested) {
  Schema schema({{"k", Type::Int()},
                 {"bag", Type::Bag(Type::Tuple({{"x", Type::Int()},
                                                {"y", Type::String()}}))}});
  std::vector<Row> rows{
      Row({Field::Int(1),
           Field::Bag({Row({Field::Int(10), Field::Str("a")}),
                       Row({Field::Int(11), Field::Str("b")})})}),
      Row({Field::Int(2), Field::Bag(std::vector<Row>{})})};
  auto v = exec::RowsToValue(rows, schema);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  auto back = exec::ValueToRows(*v, schema);
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(runtime::RowEquals(rows[i], (*back)[i]));
  }
}

TEST(BridgeTest, NullFieldsRejectedInConversion) {
  Schema schema({{"k", Type::Int()}});
  std::vector<Row> rows{Row({Field::Null()})};
  auto v = exec::RowsToValue(rows, schema);
  EXPECT_FALSE(v.ok());
}

TEST(ExecutorTest, BroadcastThresholdSelectsBroadcastJoin) {
  // With a generous threshold the executor lowers a join of a small right
  // side to a broadcast join (no left movement).
  runtime::ClusterConfig cfg{.num_partitions = 4};
  cfg.broadcast_threshold = 1ull << 20;
  runtime::Cluster cluster(cfg);
  exec::Executor ex(&cluster, {});
  Schema kv({{"k", Type::Int()}, {"v", Type::Int()}});
  std::vector<Row> lrows, rrows;
  for (int i = 0; i < 100; ++i) {
    lrows.push_back(Row({Field::Int(i % 10), Field::Int(i)}));
  }
  for (int i = 0; i < 10; ++i) {
    rrows.push_back(Row({Field::Int(i), Field::Int(i * 100)}));
  }
  ex.Register("L",
              runtime::Source(&cluster, kv, lrows, "L").ValueOrDie());
  ex.Register("R",
              runtime::Source(&cluster, kv, rrows, "R").ValueOrDie());
  auto plan = plan::PlanNode::Join(
      plan::PlanNode::Scan("L"), plan::PlanNode::Scan("R"), {"k"}, {"k"},
      false);
  cluster.stats().Reset();
  auto out = ex.ExecuteToDataset(plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->NumRows(), 100u);
  bool saw_broadcast = false;
  for (const auto& s : cluster.stats().stages()) {
    if (s.op.find("broadcast") != std::string::npos) saw_broadcast = true;
  }
  EXPECT_TRUE(saw_broadcast);
}

TEST(ExecutorTest, JobStartResetsStageWallClock) {
  // A job's first stage measures from the job's start, not from the
  // previous job's last stage: the idle time between two jobs belongs to
  // neither job.
  runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 2});
  exec::Executor ex(&cluster, {});
  Schema kv({{"k", Type::Int()}, {"v", Type::Int()}});
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(Row({Field::Int(i % 10), Field::Int(i)}));
  }
  ex.Register("L", runtime::Source(&cluster, kv, rows, "L").ValueOrDie());
  ex.Register("R", runtime::Source(&cluster, kv, rows, "R").ValueOrDie());
  plan::PlanProgram program;
  program.assignments.push_back(
      {"Q", plan::PlanNode::Join(plan::PlanNode::Scan("L"),
                                 plan::PlanNode::Scan("R"), {"k"}, {"k"},
                                 false)});
  ASSERT_TRUE(ex.ExecuteProgram(program).ok());
  const size_t first_job_stages = cluster.stats().stages().size();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(ex.ExecuteProgram(program).ok());
  ASSERT_GT(cluster.stats().stages().size(), first_job_stages);
  const runtime::StageStats& first =
      cluster.stats().stages()[first_job_stages];
  EXPECT_LT(first.wall_dur_us, 25000.0) << "stage " << first.op;
}

TEST(ExecutorTest, MissingRelationIsKeyError) {
  runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 2});
  exec::Executor ex(&cluster, {});
  auto out = ex.ExecuteToDataset(plan::PlanNode::Scan("ghost"));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kKeyError);
}

// --- The input loader (exec::RegisterInputs) -----------------------------

TypePtr FlatInputType() {
  return Type::Bag(Type::Tuple({{"a", Type::Int()}, {"s", Type::String()}}));
}

TypePtr NestedInputType() {
  return Type::Bag(Type::Tuple(
      {{"k", Type::Int()},
       {"items", Type::Bag(Type::Tuple(
                     {{"x", Type::Int()}, {"y", Type::String()}}))}}));
}

/// A flat input F, then a nested input N: N is the program's second input,
/// so its labels come from the second input's seed.
nrc::Program LoaderProgram() {
  nrc::Program p;
  p.inputs.push_back({"F", FlatInputType()});
  p.inputs.push_back({"N", NestedInputType()});
  return p;
}

std::map<std::string, Value> LoaderValues() {
  std::vector<Value> flat;
  for (int64_t i = 0; i < 7; ++i) {
    flat.push_back(Value::Tuple(
        {{"a", Value::Int(i)}, {"s", Value::Str("s" + std::to_string(i))}}));
  }
  std::vector<Value> nested;
  for (int64_t k = 0; k < 9; ++k) {
    std::vector<Value> items;  // k % 3 members; row 0's bag is empty
    for (int64_t j = 0; j < k % 3; ++j) {
      items.push_back(Value::Tuple(
          {{"x", Value::Int(k * 10 + j)}, {"y", Value::Str("y")}}));
    }
    nested.push_back(
        Value::Tuple({{"k", Value::Int(k)}, {"items", Value::Bag(items)}}));
  }
  return {{"F", Value::Bag(flat)}, {"N", Value::Bag(nested)}};
}

runtime::ClusterConfig LoaderCluster() {
  return runtime::ClusterConfig{.num_partitions = 3};
}

/// Same schema and partitioning guarantee, and the same rows (labels
/// included) in the same partitions.
void ExpectSameDataset(const runtime::Dataset& want,
                       const runtime::Dataset& got) {
  EXPECT_EQ(want.schema.ToString(), got.schema.ToString());
  EXPECT_EQ(want.partitioning.key_cols, got.partitioning.key_cols);
  fig7_suite::ExpectSameRows(want, got);
}

/// The names the shredded form of `program`'s inputs registers under.
std::vector<std::string> ShreddedNames(const nrc::Program& program) {
  std::vector<std::string> names;
  for (const nrc::InputDecl& in : program.inputs) {
    names.push_back(shred::FlatInputName(in.name));
    for (const shred::DictEntry& e :
         shred::DictTreeWalk(in.type).ValueOrDie()) {
      names.push_back(shred::DictInputName(in.name, e.path));
    }
  }
  return names;
}

TEST(RegisterInputsTest, StandardFormIsValueToRowsThroughSource) {
  const nrc::Program program = LoaderProgram();
  const auto values = LoaderValues();
  runtime::Cluster cluster(LoaderCluster());
  exec::Executor executor(&cluster, {});
  Status st = exec::RegisterInputs(&executor, program, values, false);
  ASSERT_TRUE(st.ok()) << st;

  runtime::Cluster ref(LoaderCluster());
  for (const nrc::InputDecl& in : program.inputs) {
    SCOPED_TRACE(in.name);
    const Schema schema = Schema::FromBagType(in.type).ValueOrDie();
    auto rows = exec::ValueToRows(values.at(in.name), schema).ValueOrDie();
    const runtime::Dataset want =
        runtime::Source(&ref, schema, std::move(rows), in.name).ValueOrDie();
    auto got = executor.GetDataset(in.name);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameDataset(want, *got);
  }
  for (const std::string& name : ShreddedNames(program)) {
    EXPECT_FALSE(executor.Has(name)) << name;
  }
  // The registration is the sources' stages, nothing more.
  EXPECT_EQ(cluster.stats().stages().size(), program.inputs.size());
}

TEST(RegisterInputsTest, ShreddedFormMatchesRegisterShreddedInput) {
  const nrc::Program program = LoaderProgram();
  const auto values = LoaderValues();
  runtime::Cluster cluster(LoaderCluster());
  exec::Executor executor(&cluster, {});
  Status st = exec::RegisterInputs(&executor, program, values, true);
  ASSERT_TRUE(st.ok()) << st;

  // The k-th input is shredded with label seed k * 1,000,000.
  runtime::Cluster ref_cluster(LoaderCluster());
  exec::Executor ref(&ref_cluster, {});
  ASSERT_TRUE(exec::RegisterShreddedInput(&ref, "F", FlatInputType(),
                                          values.at("F"), 0)
                  .ok());
  ASSERT_TRUE(exec::RegisterShreddedInput(&ref, "N", NestedInputType(),
                                          values.at("N"), 1'000'000)
                  .ok());
  const std::vector<std::string> names = ShreddedNames(program);
  ASSERT_EQ(names.size(), 3u);  // F_F, N_F and N's one dictionary
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    auto want = ref.GetDataset(name);
    ASSERT_TRUE(want.ok()) << want.status();
    auto got = executor.GetDataset(name);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameDataset(*want, *got);
  }
  EXPECT_FALSE(executor.Has("F"));
  EXPECT_FALSE(executor.Has("N"));
  EXPECT_EQ(cluster.stats().stages().size(),
            ref_cluster.stats().stages().size());
}

TEST(RegisterInputsTest, IllTypedValueIsAStatus) {
  const nrc::Program program = LoaderProgram();
  for (bool shredded : {false, true}) {
    SCOPED_TRACE(shredded ? "shredded" : "standard");
    // A string in F's int column.
    auto bad_flat = LoaderValues();
    bad_flat["F"] = Value::Bag({Value::Tuple(
        {{"a", Value::Str("not an int")}, {"s", Value::Str("s")}})});
    // An int where N declares a bag.
    auto bad_nested = LoaderValues();
    bad_nested["N"] = Value::Bag(
        {Value::Tuple({{"k", Value::Int(1)}, {"items", Value::Int(2)}})});
    for (const auto* values : {&bad_flat, &bad_nested}) {
      runtime::Cluster cluster(LoaderCluster());
      exec::Executor executor(&cluster, {});
      Status st = exec::RegisterInputs(&executor, program, *values, shredded);
      EXPECT_FALSE(st.ok());
      EXPECT_EQ(st.code(), StatusCode::kTypeError) << st;
    }
    // A missing input is Invalid and names the input.
    runtime::Cluster cluster(LoaderCluster());
    exec::Executor executor(&cluster, {});
    Status st = exec::RegisterInputs(&executor, program,
                                     {{"F", LoaderValues().at("F")}},
                                     shredded);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
    EXPECT_NE(st.ToString().find("missing input N"), std::string::npos) << st;
  }
}

}  // namespace
}  // namespace trance
