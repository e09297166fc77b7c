// Tests for the pretty-printers (NRC and plan notation, and the gtest
// printers of runtime values), Status/StatusOr plumbing, and assorted
// utility behaviours.
#include <gtest/gtest.h>

#include "field_printing.h"
#include "nrc/builder.h"
#include "nrc/printer.h"
#include "plan/printer.h"
#include "plan/unnest.h"
#include "util/random.h"
#include "util/status.h"
#include "util/strings.h"

namespace trance {
namespace {

using namespace nrc::dsl;
using nrc::Expr;
using nrc::Type;

TEST(StatusTest, CodesAndMessages) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status oom = Status::ResourceExhausted("partition full");
  EXPECT_TRUE(oom.IsResourceExhausted());
  EXPECT_NE(oom.ToString().find("partition full"), std::string::npos);
  Status inv = Status::Invalid("bad");
  EXPECT_EQ(inv.code(), StatusCode::kInvalidArgument);
}

TEST(StatusTest, StatusOrPropagation) {
  auto f = [](bool fail) -> StatusOr<int> {
    if (fail) return Status::Invalid("nope");
    return 42;
  };
  auto g = [&](bool fail) -> StatusOr<int> {
    TRANCE_ASSIGN_OR_RETURN(int v, f(fail));
    return v + 1;
  };
  EXPECT_EQ(*g(false), 43);
  EXPECT_FALSE(g(true).ok());
  EXPECT_EQ(g(true).status().code(), StatusCode::kInvalidArgument);
}

TEST(PrinterTest, ProgramRendering) {
  nrc::Program p;
  p.inputs = {{"R", BagTu({{"k", Type::Int()}})}};
  p.assignments.push_back(
      {"Q", For("r", V("R"), If(Gt(V("r.k"), I(0)),
                                SngTup({{"k", V("r.k")}})))});
  std::string s = nrc::PrintProgram(p);
  EXPECT_NE(s.find("input R : Bag(<k: int>)"), std::string::npos);
  EXPECT_NE(s.find("Q <= for r in R union"), std::string::npos);
  EXPECT_NE(s.find("if r.k > 0 then"), std::string::npos);
}

TEST(PrinterTest, LabelConstructsRender) {
  nrc::ExprPtr e = Expr::Lookup(Expr::Var("D"),
                                Expr::NewLabel({{"k", V("x.k")}}));
  std::string s = nrc::PrintExpr(e);
  EXPECT_NE(s.find("Lookup(D, NewLabel(k := x.k))"), std::string::npos);
  nrc::ExprPtr m = Expr::MatchLabel(Expr::Var("l"), "m",
                                    SngTup({{"k", V("m.k")}}),
                                    Type::Tuple({{"k", Type::Int()}}));
  EXPECT_NE(nrc::PrintExpr(m).find("match l = NewLabel(m) then"),
            std::string::npos);
}

TEST(PlanPrinterTest, OperatorVocabulary) {
  nrc::TypeEnv env{{"R", BagTu({{"k", Type::Int()}, {"a", Type::Int()}})},
                   {"S", BagTu({{"k", Type::Int()}, {"b", Type::Int()}})}};
  plan::Unnester u(env);
  auto p = u.Compile(
      For("r", V("R"),
          SngTup({{"a", V("r.a")},
                  {"bs", For("s", V("S"),
                             If(Eq(V("s.k"), V("r.k")),
                                SngTup({{"b", V("s.b")}})))}})));
  ASSERT_TRUE(p.ok());
  std::string s = plan::PrintPlan(*p);
  EXPECT_NE(s.find("Scan(R)"), std::string::npos);
  EXPECT_NE(s.find("OuterJoin["), std::string::npos);
  EXPECT_NE(s.find("AddIndex["), std::string::npos);
  EXPECT_NE(s.find("NestU["), std::string::npos);
}

TEST(FieldPrintingTest, FailedComparisonsPrintValues) {
  using runtime::Field;
  EXPECT_EQ(::testing::PrintToString(Field::Int(42)), "42");
  EXPECT_EQ(::testing::PrintToString(Field::Null()), "NULL");
  EXPECT_EQ(::testing::PrintToString(
                runtime::Row({Field::Int(1), Field::Str("a"), Field::Null()})),
            "(1, \"a\", NULL)");
}

TEST(UtilTest, FormattingHelpers) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KB");
  EXPECT_EQ(FormatBytes(3ull << 20), "3.0 MB");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(UtilTest, RngDeterminismAndRanges) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(UtilTest, ZipfSkewShape) {
  Rng rng(4);
  ZipfSampler uniform(100, 0.0);
  ZipfSampler skewed(100, 2.0);
  int uniform_rank0 = 0, skewed_rank0 = 0;
  for (int i = 0; i < 5000; ++i) {
    if (uniform.Sample(&rng) == 0) ++uniform_rank0;
    if (skewed.Sample(&rng) == 0) ++skewed_rank0;
  }
  // Zipf(2) puts >50% of mass on rank 0 of 100; uniform ~1%.
  EXPECT_GT(skewed_rank0, 2000);
  EXPECT_LT(uniform_rank0, 200);
}

}  // namespace
}  // namespace trance
