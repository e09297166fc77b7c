// Quickstart: the paper's running example (Example 1) end to end.
//
// Builds the nested COP relation and the flat Part relation, expresses the
// query "for each customer and order, the total amount spent per part name"
// in NRC, and runs it three ways:
//   1. the reference interpreter (centralized semantics),
//   2. the standard compilation route (unnesting -> plan -> distributed
//      runtime),
//   3. the shredded compilation route (symbolic shredding ->
//      materialization -> flat plans), with unshredding.
// Prints the program, the materialized shredded program, results, and the
// job summary of both routes; exits 1 if either route disagrees with the
// interpreter.
#include <cstdio>
#include <iostream>

#include "exec/pipeline.h"
#include "nrc/builder.h"
#include "nrc/interp.h"
#include "nrc/printer.h"
#include "obs/explain.h"
#include "shred/materialize.h"

using namespace trance;
using namespace trance::nrc::dsl;
using nrc::Expr;
using nrc::Type;
using nrc::Value;

namespace {

Value T2(const std::string& a, Value va, const std::string& b, Value vb) {
  return Value::Tuple({{a, std::move(va)}, {b, std::move(vb)}});
}

nrc::Program RunningExample() {
  nrc::Program p;
  p.inputs = {
      {"COP",
       BagTu({{"cname", Type::String()},
              {"corders",
               BagTu({{"odate", Type::Int()},
                      {"oparts", BagTu({{"pid", Type::Int()},
                                        {"qty", Type::Real()}})}})}})},
      {"Part", BagTu({{"pid", Type::Int()},
                      {"pname", Type::String()},
                      {"price", Type::Real()}})}};
  p.assignments.push_back(
      {"Q",
       For("cop", V("COP"),
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
                                                            V("p.price"))}})))))}}))}}))});
  return p;
}

std::map<std::string, Value> MakeInputs() {
  Value part = Value::Bag(
      {Value::Tuple({{"pid", Value::Int(1)},
                     {"pname", Value::Str("bolt")},
                     {"price", Value::Real(2.0)}}),
       Value::Tuple({{"pid", Value::Int(2)},
                     {"pname", Value::Str("nut")},
                     {"price", Value::Real(1.0)}}),
       Value::Tuple({{"pid", Value::Int(3)},
                     {"pname", Value::Str("gear")},
                     {"price", Value::Real(5.0)}})});
  Value oparts1 =
      Value::Bag({T2("pid", Value::Int(1), "qty", Value::Real(3)),
                  T2("pid", Value::Int(2), "qty", Value::Real(4)),
                  T2("pid", Value::Int(1), "qty", Value::Real(1))});
  Value oparts2 =
      Value::Bag({T2("pid", Value::Int(3), "qty", Value::Real(2))});
  Value corders =
      Value::Bag({T2("odate", Value::Int(19940101), "oparts", oparts1),
                  T2("odate", Value::Int(19940215), "oparts",
                     Value::EmptyBag()),
                  T2("odate", Value::Int(19940330), "oparts", oparts2)});
  Value cop = Value::Bag(
      {T2("cname", Value::Str("alice"), "corders", corders),
       T2("cname", Value::Str("bob"), "corders", Value::EmptyBag())});
  return {{"COP", cop}, {"Part", part}};
}

}  // namespace

int main() {
  nrc::Program program = RunningExample();
  auto inputs = MakeInputs();

  std::printf("=== Source NRC program ===\n%s\n",
              nrc::PrintProgram(program).c_str());

  // 1. Reference interpreter.
  nrc::Interpreter interp;
  auto oracle = interp.EvalProgram(program, inputs);
  if (!oracle.ok()) {
    std::cerr << "interpreter failed: " << oracle.status() << "\n";
    return 1;
  }
  std::printf("=== Interpreter result ===\n%s\n\n",
              nrc::Canonicalize(oracle->at("Q")).ToString().c_str());

  // 2. Standard compilation route on the distributed runtime.
  runtime::Cluster cluster1(runtime::ClusterConfig{.num_partitions = 4});
  auto standard = exec::RunStandardOnValues(program, inputs, &cluster1, {});
  if (!standard.ok()) {
    std::cerr << "standard route failed: " << standard.status() << "\n";
    return 1;
  }
  const bool standard_agrees = nrc::DeepBagEquals(*standard, oracle->at("Q"));
  std::printf("=== Standard route: agrees with interpreter: %s ===\n",
              standard_agrees ? "yes" : "NO");
  std::printf("%s\n\n", obs::JobSummary(cluster1.stats()).c_str());

  // 3. Shredded compilation route: show the materialized program, run it.
  auto mat = shred::ShredAndMaterialize(
      program, shred::MaterializeMode::kDomainElimination);
  if (!mat.ok()) {
    std::cerr << "shredding failed: " << mat.status() << "\n";
    return 1;
  }
  std::printf("=== Materialized shredded program ===\n%s\n",
              nrc::PrintProgram(mat->program).c_str());

  runtime::Cluster cluster2(runtime::ClusterConfig{.num_partitions = 4});
  auto shredded = exec::RunShreddedOnValues(program, inputs, &cluster2, {});
  if (!shredded.ok()) {
    std::cerr << "shredded route failed: " << shredded.status() << "\n";
    return 1;
  }
  const bool shredded_agrees = nrc::DeepBagEquals(*shredded, oracle->at("Q"));
  std::printf("=== Shredded route: agrees with interpreter: %s ===\n",
              shredded_agrees ? "yes" : "NO");
  std::printf("%s\n", obs::JobSummary(cluster2.stats()).c_str());
  return standard_agrees && shredded_agrees ? 0 : 1;
}
