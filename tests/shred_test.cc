// Tests for the shredded pipeline (Section 4): type shredding, value
// shredding/unshredding, symbolic shredding + materialization (checked on
// the interpreter), domain elimination, and the full distributed shredded
// route against the oracle.
#include <gtest/gtest.h>

#include "exec/pipeline.h"
#include "nrc/builder.h"
#include "nrc/interp.h"
#include "nrc/printer.h"
#include "shred/materialize.h"
#include "shred/shredded_type.h"
#include "shred/value_shredder.h"
#include "util/random.h"

namespace trance {
namespace {

using namespace nrc::dsl;
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
  });
}

Value MakeCop() {
  auto oparts1 = Value::Bag({T2("pid", Value::Int(1), "qty", Value::Real(3)),
                             T2("pid", Value::Int(2), "qty", Value::Real(4)),
                             T2("pid", Value::Int(1), "qty", Value::Real(1))});
  auto oparts2 = Value::Bag({T2("pid", Value::Int(9), "qty", Value::Real(2))});
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

// --- Shredded types --------------------------------------------------------

TEST(ShreddedTypeTest, CopDerivation) {
  auto st = shred::ShredType(CopType());
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  // T^F: corders becomes a label.
  EXPECT_EQ(st->flat->ToString(), "Bag(<cname: string, corders: Label>)");
  // T^D: corders^fun / corders^child, nested oparts dictionary.
  const auto& d = st->dict_tree;
  ASSERT_TRUE(d->is_tuple());
  ASSERT_EQ(d->fields().size(), 2u);
  EXPECT_EQ(d->fields()[0].name, "cordersfun");
  EXPECT_TRUE(d->fields()[0].type->is_dict());
  EXPECT_EQ(d->fields()[1].name, "corderschild");
  EXPECT_TRUE(d->fields()[1].type->is_bag());
}

TEST(ShreddedTypeTest, DictTreeWalkOrder) {
  auto walk = shred::DictTreeWalk(CopType());
  ASSERT_TRUE(walk.ok());
  ASSERT_EQ(walk->size(), 2u);
  EXPECT_EQ((*walk)[0].path, "corders");
  EXPECT_EQ((*walk)[0].parent_path, "");
  EXPECT_EQ((*walk)[1].path, "corders_oparts");
  EXPECT_EQ((*walk)[1].parent_path, "corders");
  EXPECT_EQ((*walk)[1].attr, "oparts");
}

TEST(ShreddedTypeTest, FlatTypeHasNoDicts) {
  auto walk = shred::DictTreeWalk(PartType());
  ASSERT_TRUE(walk.ok());
  EXPECT_TRUE(walk->empty());
  auto st = shred::ShredType(PartType());
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(TypeEquals(st->flat, PartType()));
}

// --- Value shredding -------------------------------------------------------

TEST(ValueShredderTest, RoundTrip) {
  auto sv = shred::ShredValue(MakeCop(), CopType());
  ASSERT_TRUE(sv.ok()) << sv.status().ToString();
  EXPECT_EQ(sv->flat.AsBag().elems.size(), 2u);
  // The corders dictionary holds 3 rows (alice's orders), oparts 4 rows.
  ASSERT_EQ(sv->dicts.size(), 2u);
  EXPECT_EQ(sv->Dict("corders")->AsBag().elems.size(), 3u);
  EXPECT_EQ(sv->Dict("corders_oparts")->AsBag().elems.size(), 4u);

  auto back = shred::UnshredValue(*sv, CopType());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(DeepBagEquals(*back, MakeCop()));
}

TEST(ValueShredderTest, RandomizedRoundTripProperty) {
  // Random two-level nested values must survive shred+unshred.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<Value> tops;
    int n = static_cast<int>(rng.Uniform(6));
    for (int i = 0; i < n; ++i) {
      std::vector<Value> orders;
      int no = static_cast<int>(rng.Uniform(4));
      for (int j = 0; j < no; ++j) {
        std::vector<Value> parts;
        int np = static_cast<int>(rng.Uniform(4));
        for (int k = 0; k < np; ++k) {
          parts.push_back(T2("pid", Value::Int(rng.UniformRange(0, 3)), "qty",
                             Value::Real(rng.NextDouble())));
        }
        orders.push_back(T2("odate", Value::Int(rng.UniformRange(0, 2)),
                            "oparts", Value::Bag(parts)));
      }
      tops.push_back(
          T2("cname", Value::Str(rng.NextString(2)), "corders",
             Value::Bag(orders)));
    }
    Value v = Value::Bag(tops);
    auto sv = shred::ShredValue(v, CopType(), static_cast<int64_t>(seed) * 7);
    ASSERT_TRUE(sv.ok());
    auto back = shred::UnshredValue(*sv, CopType());
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(DeepBagEquals(*back, v)) << "seed " << seed;
  }
}

TEST(ValueShredderTest, PairRelationalConversions) {
  auto sv = shred::ShredValue(MakeCop(), CopType());
  ASSERT_TRUE(sv.ok());
  TypePtr elem = Tu({{"odate", Type::Int()}, {"oparts", Type::Label()}});
  auto pairs = shred::RelationalToPairDict(*sv->Dict("corders"), elem);
  ASSERT_TRUE(pairs.ok());
  // alice's single label groups all three orders.
  ASSERT_EQ(pairs->AsBag().elems.size(), 1u);
  auto rel = shred::PairToRelationalDict(*pairs, elem);
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(DeepBagEquals(*rel, *sv->Dict("corders")));
}

// --- Materialized shredded programs on the interpreter ---------------------

/// `program`'s inputs in shredded form, as interpreter inputs (X_F and
/// X_D_<path>): the k-th input shredded with label seed
/// shred::InputLabelSeed(k), as exec::RegisterInputs shreds it.
StatusOr<std::map<std::string, Value>> ShreddedInputs(
    const Program& program, const std::map<std::string, Value>& inputs) {
  std::map<std::string, Value> out;
  for (size_t k = 0; k < program.inputs.size(); ++k) {
    const nrc::InputDecl& in = program.inputs[k];
    TRANCE_ASSIGN_OR_RETURN(
        shred::ShreddedValue sv,
        shred::ShredValue(inputs.at(in.name), in.type,
                          shred::InputLabelSeed(k)));
    out[shred::FlatInputName(in.name)] = std::move(sv.flat);
    for (auto& [path, dict] : sv.dicts) {
      out[shred::DictInputName(in.name, path)] = std::move(dict);
    }
  }
  return out;
}

/// Runs the source program on the oracle; shreds+materializes; runs the
/// materialized program on the interpreter over shredded inputs; unshreds
/// and compares.
void ExpectShreddedAgreement(const Program& program,
                             const std::map<std::string, Value>& inputs,
                             shred::MaterializeMode mode) {
  nrc::Interpreter interp;
  auto oracle = interp.EvalProgram(program, inputs);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const Value& expected = oracle->at(program.result().var);

  auto mat = shred::ShredAndMaterialize(program, mode);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();

  auto shredded_inputs = ShreddedInputs(program, inputs);
  ASSERT_TRUE(shredded_inputs.ok()) << shredded_inputs.status().ToString();
  nrc::Interpreter interp2;
  auto result = interp2.EvalProgram(mat->program, *shredded_inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n"
                           << nrc::PrintProgram(mat->program);

  if (!mat->output_type->is_bag()) {
    FAIL() << "expected bag output";
  }
  shred::ShreddedValue out;
  out.flat = result->at(mat->top_var);
  for (const auto& d : mat->dicts) {
    out.dicts.emplace_back(d.path, result->at(d.var));
  }
  auto nested = shred::UnshredValue(out, mat->output_type);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_TRUE(DeepBagEquals(*nested, expected))
      << "oracle:  " << nrc::Canonicalize(expected).ToString()
      << "\nshredded:" << nrc::Canonicalize(*nested).ToString()
      << "\nmaterialized program:\n" << nrc::PrintProgram(mat->program);
}

Program RunningExampleProgram() {
  Program p;
  p.inputs = {{"COP", CopType()}, {"Part", PartType()}};
  p.assignments.push_back({"Q", RunningExampleQuery()});
  return p;
}

TEST(MaterializeTest, RunningExampleWithDomainElimination) {
  ExpectShreddedAgreement(RunningExampleProgram(),
                          {{"COP", MakeCop()}, {"Part", MakePart()}},
                          shred::MaterializeMode::kDomainElimination);
}

TEST(MaterializeTest, RunningExampleBaseline) {
  ExpectShreddedAgreement(RunningExampleProgram(),
                          {{"COP", MakeCop()}, {"Part", MakePart()}},
                          shred::MaterializeMode::kBaseline);
}

TEST(MaterializeTest, DomainEliminationAppliesRule1) {
  // With elimination, the materialized program must not contain any label
  // domain assignments for the nested-input query.
  auto mat = shred::ShredAndMaterialize(
      RunningExampleProgram(), shred::MaterializeMode::kDomainElimination);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  for (const auto& a : mat->program.assignments) {
    EXPECT_EQ(a.var.find("_LD_"), std::string::npos)
        << "unexpected label domain " << a.var;
  }
  EXPECT_FALSE(mat->interpreter_only);
}

TEST(MaterializeTest, BaselineEmitsLabelDomains) {
  auto mat = shred::ShredAndMaterialize(RunningExampleProgram(),
                                        shred::MaterializeMode::kBaseline);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  int domains = 0;
  for (const auto& a : mat->program.assignments) {
    if (a.var.find("_LD_") != std::string::npos) ++domains;
  }
  EXPECT_EQ(domains, 2);  // one per dictionary level
}

Program FlatToNestedProgram() {
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
  return p;
}

std::map<std::string, Value> FlatToNestedInputs() {
  Value cust = Value::Bag({T2("ck", Value::Int(1), "cname", Value::Str("a")),
                           T2("ck", Value::Int(2), "cname", Value::Str("b")),
                           T2("ck", Value::Int(3), "cname", Value::Str("c"))});
  Value ord = Value::Bag({T2("ck", Value::Int(1), "odate", Value::Int(7)),
                          T2("ck", Value::Int(1), "odate", Value::Int(8)),
                          T2("ck", Value::Int(2), "odate", Value::Int(9))});
  return {{"Cust", cust}, {"Ord", ord}};
}

TEST(MaterializeTest, FlatToNestedUsesRule2) {
  ExpectShreddedAgreement(FlatToNestedProgram(), FlatToNestedInputs(),
                          shred::MaterializeMode::kDomainElimination);
  auto mat = shred::ShredAndMaterialize(
      FlatToNestedProgram(), shred::MaterializeMode::kDomainElimination);
  ASSERT_TRUE(mat.ok());
  for (const auto& a : mat->program.assignments) {
    EXPECT_EQ(a.var.find("_LD_"), std::string::npos);
  }
}

TEST(MaterializeTest, NestedToFlatHasNoDicts) {
  Program p;
  p.inputs = {{"COP", CopType()}, {"Part", PartType()}};
  p.assignments.push_back(
      {"Q", SumBy({"cname"}, {"total"},
                  For("cop", V("COP"),
                      For("co", V("cop.corders"),
                          For("op", V("co.oparts"),
                              For("pp", V("Part"),
                                  If(Eq(V("op.pid"), V("pp.pid")),
                                     SngTup({{"cname", V("cop.cname")},
                                             {"total",
                                              Mul(V("op.qty"),
                                                  V("pp.price"))}})))))))});
  auto mat = shred::ShredAndMaterialize(
      p, shred::MaterializeMode::kDomainElimination);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  EXPECT_TRUE(mat->dicts.empty());

  // Interpreter agreement (flat output: compare directly).
  nrc::Interpreter interp;
  std::map<std::string, Value> inputs{{"COP", MakeCop()},
                                      {"Part", MakePart()}};
  auto oracle = interp.EvalProgram(p, inputs);
  ASSERT_TRUE(oracle.ok());
  auto shredded_inputs = ShreddedInputs(p, inputs);
  ASSERT_TRUE(shredded_inputs.ok()) << shredded_inputs.status().ToString();
  nrc::Interpreter interp2;
  auto got = interp2.EvalProgram(mat->program, *shredded_inputs);
  ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n"
                        << nrc::PrintProgram(mat->program);
  EXPECT_TRUE(DeepBagEquals(got->at(mat->top_var), oracle->at("Q")));
}

// --- Full distributed shredded route ---------------------------------------

void ExpectShreddedRuntimeAgreement(
    const Program& program, const std::map<std::string, Value>& inputs,
    exec::PipelineOptions options = {},
    shred::MaterializeMode mode = shred::MaterializeMode::kDomainElimination) {
  nrc::Interpreter interp;
  auto oracle = interp.EvalProgram(program, inputs);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const Value& expected = oracle->at(program.result().var);

  runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 5});
  auto got =
      exec::RunShreddedOnValues(program, inputs, &cluster, options, mode);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(DeepBagEquals(expected, *got))
      << "oracle: " << nrc::Canonicalize(expected).ToString()
      << "\nshred:  " << nrc::Canonicalize(*got).ToString();
}

TEST(ShreddedPipelineTest, RunningExample) {
  ExpectShreddedRuntimeAgreement(RunningExampleProgram(),
                                 {{"COP", MakeCop()}, {"Part", MakePart()}});
}

TEST(ShreddedPipelineTest, RunningExampleBaselineMaterialization) {
  ExpectShreddedRuntimeAgreement(RunningExampleProgram(),
                                 {{"COP", MakeCop()}, {"Part", MakePart()}},
                                 {}, shred::MaterializeMode::kBaseline);
}

TEST(ShreddedPipelineTest, FlatToNested) {
  ExpectShreddedRuntimeAgreement(FlatToNestedProgram(), FlatToNestedInputs());
}

TEST(ShreddedPipelineTest, SkewAwareShreddedAgrees) {
  exec::PipelineOptions opts;
  opts.exec.skew_aware = true;
  ExpectShreddedRuntimeAgreement(RunningExampleProgram(),
                                 {{"COP", MakeCop()}, {"Part", MakePart()}},
                                 opts);
}

TEST(ShreddedPipelineTest, RandomizedNestedToNestedProperty) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    // Random COP / Part instances.
    std::vector<Value> parts;
    for (int i = 0; i < 5; ++i) {
      parts.push_back(Value::Tuple({{"pid", Value::Int(i)},
                                    {"pname", Value::Str(rng.NextString(3))},
                                    {"price", Value::Real(rng.NextDouble())}}));
    }
    std::vector<Value> cops;
    int nc = 1 + static_cast<int>(rng.Uniform(4));
    for (int c = 0; c < nc; ++c) {
      std::vector<Value> orders;
      int no = static_cast<int>(rng.Uniform(4));
      for (int o = 0; o < no; ++o) {
        std::vector<Value> ops;
        int np = static_cast<int>(rng.Uniform(4));
        for (int k = 0; k < np; ++k) {
          ops.push_back(T2("pid", Value::Int(rng.UniformRange(0, 7)), "qty",
                           Value::Real(1 + rng.NextDouble())));
        }
        orders.push_back(T2("odate", Value::Int(rng.UniformRange(1, 9)),
                            "oparts", Value::Bag(ops)));
      }
      cops.push_back(T2("cname", Value::Str(rng.NextString(3)), "corders",
                        Value::Bag(orders)));
    }
    ExpectShreddedRuntimeAgreement(
        RunningExampleProgram(),
        {{"COP", Value::Bag(cops)}, {"Part", Value::Bag(parts)}});
  }
}

}  // namespace
}  // namespace trance
