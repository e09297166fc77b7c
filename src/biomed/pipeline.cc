#include "biomed/pipeline.h"

#include "biomed/generator.h"
#include "nrc/builder.h"

namespace trance {
namespace biomed {

using namespace nrc::dsl;
using nrc::Expr;
using nrc::ExprPtr;
using nrc::Type;
using nrc::TypePtr;

namespace {

TypePtr SampleGenesType() {
  // Sample metadata rides along through steps 1-3: the flattening methods
  // duplicate it per flattened tuple, the shredded route keeps it top-level.
  return BagTu({{"sample", Type::Int()},
                {"donor", Type::String()},
                {"tissue", Type::String()},
                {"notes", Type::String()},
                {"genes", BagTu({{"gene", Type::Int()},
                                 {"score", Type::Real()}})}});
}

TypePtr GeneScoreType() {
  return BagTu({{"gene", Type::Int()}, {"score", Type::Real()}});
}

/// Step1 body: flatten BN2 with per-level joins, aggregate, regroup.
ExprPtr Step1Expr(const std::string& bn2) {
  return For(
      "s", V(bn2),
      SngTup(
          {{"sample", V("s.sample")},
           {"donor", V("s.donor")},
           {"tissue", V("s.tissue")},
           {"notes", V("s.notes")},
           {"genes",
            SumBy({"gene"}, {"score"},
                  For("m", V("s.mutations"),
                      For("e", V("BF2"),
                          If(Eq(V("e.gene1"), V("m.gene")),
                             For("cq", V("m.consequences"),
                                 For("t", V("BF3"),
                                     If(Eq(V("t.so_term"), V("cq.so_term")),
                                        SngTup({{"gene", V("e.gene2")},
                                                {"score",
                                                 Mul(Mul(V("m.score"),
                                                         V("e.weight")),
                                                     Mul(V("t.impact"),
                                                         V("cq.weight")))}}))))))))}}));
}

/// Step2 body: nested join of BN1 on the first level of `prev`.
ExprPtr Step2Expr(const std::string& prev) {
  ExprPtr head = SngTup({{"gene", V("g2.gene")},
                         {"score", Mul(V("g2.score"),
                                       Add(V("cv.cn"), R(0.01)))}});
  ExprPtr cnv_loop =
      For("cv", V("b.cnvs"), If(Eq(V("cv.gene"), V("g2.gene")), head));
  ExprPtr bn1_loop =
      For("b", V("BN1"), If(Eq(V("b.sample"), V("x2.sample")), cnv_loop));
  ExprPtr genes = SumBy({"gene"}, {"score"},
                        For("g2", V("x2.genes"), bn1_loop));
  return For("x2", V(prev),
             SngTup({{"sample", V("x2.sample")},
                     {"donor", V("x2.donor")},
                     {"tissue", V("x2.tissue")},
                     {"notes", V("x2.notes")},
                     {"genes", genes}}));
}

/// Step3 body: flat expression join on the first level.
ExprPtr Step3Expr(const std::string& prev) {
  return For(
      "x3", V(prev),
      SngTup(
          {{"sample", V("x3.sample")},
           {"donor", V("x3.donor")},
           {"tissue", V("x3.tissue")},
           {"notes", V("x3.notes")},
           {"genes",
            SumBy({"gene"}, {"score"},
                  For("g3", V("x3.genes"),
                      For("f", V("BF1"),
                          If(And(Eq(V("f.sample"), V("x3.sample")),
                                 Eq(V("f.gene"), V("g3.gene"))),
                             SngTup({{"gene", V("g3.gene")},
                                     {"score", Mul(V("g3.score"),
                                                   V("f.expr"))}})))))}}));
}

/// Step4 body: gene burden across samples (nested-to-flat).
ExprPtr Step4Expr(const std::string& prev) {
  return SumBy({"gene"}, {"score"},
               For("x4", V(prev),
                   For("g4", V("x4.genes"),
                       SngTup({{"gene", V("g4.gene")},
                               {"score", V("g4.score")}}))));
}

/// Step5 body: propagate burdens over the network (flat-to-flat).
ExprPtr Step5Expr(const std::string& prev) {
  return SumBy({"gene"}, {"hub"},
               For("gb", V(prev),
                   For("e5", V("BF2"),
                       If(Eq(V("e5.gene1"), V("gb.gene")),
                          SngTup({{"gene", V("e5.gene2")},
                                  {"hub", Mul(V("gb.score"),
                                              V("e5.weight"))}})))));
}

void AddBaseInputs(nrc::Program* p) {
  p->inputs.push_back({"BN2", Bn2Type()});
  p->inputs.push_back({"BN1", Bn1Type()});
  p->inputs.push_back({"BF1", Bf1Type()});
  p->inputs.push_back({"BF2", Bf2Type()});
  p->inputs.push_back({"BF3", Bf3Type()});
}

}  // namespace

nrc::Program E2EProgram() {
  nrc::Program p;
  AddBaseInputs(&p);
  p.assignments.push_back({"Step1", Step1Expr("BN2")});
  p.assignments.push_back({"Step2", Step2Expr("Step1")});
  p.assignments.push_back({"Step3", Step3Expr("Step2")});
  p.assignments.push_back({"Step4", Step4Expr("Step3")});
  p.assignments.push_back({"Step5", Step5Expr("Step4")});
  return p;
}

StatusOr<nrc::Program> StepProgram(int step) {
  nrc::Program p;
  AddBaseInputs(&p);
  switch (step) {
    case 1:
      p.assignments.push_back({"Step1", Step1Expr("BN2")});
      return p;
    case 2:
      p.inputs.push_back({"Step1", SampleGenesType()});
      p.assignments.push_back({"Step2", Step2Expr("Step1")});
      return p;
    case 3:
      p.inputs.push_back({"Step2", SampleGenesType()});
      p.assignments.push_back({"Step3", Step3Expr("Step2")});
      return p;
    case 4:
      p.inputs.push_back({"Step3", SampleGenesType()});
      p.assignments.push_back({"Step4", Step4Expr("Step3")});
      return p;
    case 5:
      p.inputs.push_back({"Step4", GeneScoreType()});
      p.assignments.push_back({"Step5", Step5Expr("Step4")});
      return p;
    default:
      return Status::Invalid("step must be in [1, 5]");
  }
}

}  // namespace biomed
}  // namespace trance
