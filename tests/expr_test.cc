#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "expr/cost.h"
#include "expr/fold.h"
#include "expr/typecheck.h"
#include "expr/vm.h"
#include "gsql/parser.h"
#include "udf/registry.h"

namespace gigascope::expr {
namespace {

using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

StreamSchema TestSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"t", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"i", DataType::kInt, OrderSpec::None()});
  fields.push_back({"f", DataType::kFloat, OrderSpec::None()});
  fields.push_back({"addr", DataType::kIp, OrderSpec::None()});
  fields.push_back({"s", DataType::kString, OrderSpec::None()});
  fields.push_back({"b", DataType::kBool, OrderSpec::None()});
  return StreamSchema("T", StreamKind::kStream, fields);
}

/// Compiles `expression` over TestSchema with optional params, evaluates it
/// on `row`, and returns the output.
class ExprHarness {
 public:
  explicit ExprHarness(
      std::vector<std::pair<std::string, DataType>> params = {}) {
    catalog_.PutStreamSchema(TestSchema());
    ctx_.params = std::move(params);
    ctx_.resolver = udf::FunctionRegistry::Default();
  }

  Result<IrPtr> ToIr(const std::string& expression) {
    auto stmt = gsql::ParseStatement("SELECT " + expression + " FROM T");
    if (!stmt.ok()) return stmt.status();
    auto* select = std::get_if<gsql::SelectStmt>(&stmt.value());
    resolved_ = gsql::AnalyzeSelect(*select, catalog_);
    if (!resolved_->ok()) return resolved_->status();
    ctx_.inputs = {TestSchema()};
    ctx_.bindings = &(*resolved_)->bindings;
    return TypeCheck((*resolved_)->stmt.items[0].expr, ctx_);
  }

  Result<Value> EvalOn(const std::string& expression,
                       const std::vector<Value>& row,
                       const std::vector<Value>& param_values = {}) {
    GS_ASSIGN_OR_RETURN(IrPtr ir, ToIr(expression));
    ir = FoldConstants(ir);
    GS_ASSIGN_OR_RETURN(CompiledExpr compiled, Compile(ir, param_values));
    std::vector<uint8_t> packed;
    std::vector<const uint8_t*> at;
    PackValues(row, &packed, &at);
    EvalContext ctx;
    ctx.row0 = at;
    ctx.params = &param_values;
    EvalOutput out;
    GS_RETURN_IF_ERROR(Evaluator().Eval(compiled, ctx, &out));
    if (!out.has_value) return Status::NotFound("no value (partial miss)");
    return out.value;
  }

 private:
  gsql::Catalog catalog_;
  TypeCheckContext ctx_;
  std::optional<Result<gsql::ResolvedSelect>> resolved_;
};

std::vector<Value> SampleRow() {
  return {Value::Uint(120), Value::Int(-3), Value::Float(2.5),
          Value::Ip(0x0a000001), Value::String("HTTP/1.1 200 OK"),
          Value::Bool(true)};
}

TEST(ValueTest, Compare) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Int(5)), -1);
  EXPECT_EQ(Value::Uint(9).Compare(Value::Uint(9)), 0);
  EXPECT_EQ(Value::Float(2.0).Compare(Value::Float(1.0)), 1);
  EXPECT_EQ(Value::String("a").Compare(Value::String("b")), -1);
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Uint(7).ToString(), "7");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Ip(0x0a000001).ToString(), "10.0.0.1");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
}

TEST(ValueTest, CastWidenings) {
  auto to_float = CastValue(Value::Int(3), DataType::kFloat);
  ASSERT_TRUE(to_float.ok());
  EXPECT_DOUBLE_EQ(to_float->float_value(), 3.0);
  auto ip_to_uint = CastValue(Value::Ip(0x01020304), DataType::kUint);
  ASSERT_TRUE(ip_to_uint.ok());
  EXPECT_EQ(ip_to_uint->uint_value(), 0x01020304u);
  EXPECT_FALSE(CastValue(Value::String("x"), DataType::kInt).ok());
}

TEST(TypeCheckTest, ArithmeticPromotion) {
  ExprHarness harness;
  auto ir = harness.ToIr("i + f");
  ASSERT_TRUE(ir.ok()) << ir.status().ToString();
  EXPECT_EQ((*ir)->type, DataType::kFloat);
  ir = harness.ToIr("t + i");
  ASSERT_TRUE(ir.ok());
  EXPECT_EQ((*ir)->type, DataType::kUint);
}

TEST(TypeCheckTest, ComparisonsYieldBool) {
  ExprHarness harness;
  auto ir = harness.ToIr("t > 100");
  ASSERT_TRUE(ir.ok());
  EXPECT_EQ((*ir)->type, DataType::kBool);
}

TEST(TypeCheckTest, StringNumericComparisonRejected) {
  ExprHarness harness;
  EXPECT_FALSE(harness.ToIr("s = 5").ok());
}

TEST(TypeCheckTest, LogicRequiresBool) {
  ExprHarness harness;
  EXPECT_FALSE(harness.ToIr("t AND b").ok());
  EXPECT_TRUE(harness.ToIr("b AND t > 5").ok());
}

TEST(TypeCheckTest, ModRequiresIntegers) {
  ExprHarness harness;
  EXPECT_FALSE(harness.ToIr("f % 2").ok());
  EXPECT_TRUE(harness.ToIr("t % 2").ok());
}

TEST(TypeCheckTest, UndeclaredParamRejected) {
  ExprHarness harness;
  EXPECT_FALSE(harness.ToIr("t > $missing").ok());
}

TEST(TypeCheckTest, UnknownFunctionRejected) {
  ExprHarness harness;
  EXPECT_FALSE(harness.ToIr("frobnicate(t)").ok());
}

TEST(EvalTest, Arithmetic) {
  ExprHarness harness;
  auto v = harness.EvalOn("t * 2 + 10", SampleRow());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->uint_value(), 250u);
}

TEST(EvalTest, IntegerBucketing) {
  ExprHarness harness;
  auto v = harness.EvalOn("t / 60", SampleRow());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->uint_value(), 2u);  // 120 / 60
}

TEST(EvalTest, SignedArithmetic) {
  ExprHarness harness;
  auto v = harness.EvalOn("i - 4", SampleRow());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), -7);
}

TEST(EvalTest, FloatArithmetic) {
  ExprHarness harness;
  auto v = harness.EvalOn("f * 4", SampleRow());
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->float_value(), 10.0);
}

TEST(EvalTest, DivisionByZeroIsRuntimeError) {
  ExprHarness harness;
  auto v = harness.EvalOn("t / (i + 3)", SampleRow());  // i+3 == 0
  EXPECT_FALSE(v.ok());
}

std::vector<Value> RowWithInt(int64_t i) {
  std::vector<Value> row = SampleRow();
  row[1] = Value::Int(i);
  return row;
}

// Division edge cases are counted runtime errors, never UB, and signed
// overflow wraps two's-complement.

TEST(EvalTest, ModuloByZeroIsRuntimeError) {
  ExprHarness harness;
  auto v = harness.EvalOn("i % (i + 3)", RowWithInt(-3));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().message(), "modulo by zero");
}

TEST(EvalTest, IntMinDividedByMinusOneIsRuntimeError) {
  // INT64_MIN / -1 overflows (the quotient is INT64_MAX + 1); on most CPUs
  // the raw instruction traps, so the VM must catch it as an eval error.
  ExprHarness harness;
  auto v = harness.EvalOn("i / (0 - 1)", RowWithInt(INT64_MIN));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().message(), "integer division overflow");
  v = harness.EvalOn("i % (0 - 1)", RowWithInt(INT64_MIN));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().message(), "integer modulo overflow");
}

TEST(EvalTest, SignedOverflowWrapsTwosComplement) {
  ExprHarness harness;
  auto v = harness.EvalOn("i + 1", RowWithInt(INT64_MAX));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->int_value(), INT64_MIN);
  v = harness.EvalOn("i * 2", RowWithInt(INT64_MAX));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), -2);
  v = harness.EvalOn("i - 2", RowWithInt(INT64_MIN));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), INT64_MAX - 1);
  // Negating INT64_MIN wraps back to itself.
  v = harness.EvalOn("0 - i", RowWithInt(INT64_MIN));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), INT64_MIN);
}

TEST(ValueTest, SaturatingFloatToIntCasts) {
  EXPECT_EQ(SaturatingDoubleToInt64(std::nan("")), 0);
  EXPECT_EQ(SaturatingDoubleToInt64(1e300), INT64_MAX);
  EXPECT_EQ(SaturatingDoubleToInt64(-1e300), INT64_MIN);
  EXPECT_EQ(SaturatingDoubleToInt64(9.75), 9);
  EXPECT_EQ(SaturatingDoubleToInt64(-9.75), -9);
  EXPECT_EQ(SaturatingDoubleToUint64(std::nan("")), 0u);
  EXPECT_EQ(SaturatingDoubleToUint64(-1.0), 0u);
  EXPECT_EQ(SaturatingDoubleToUint64(1e300), UINT64_MAX);
  EXPECT_EQ(SaturatingDoubleToUint64(9.75), 9u);
  auto casted = CastValue(Value::Float(1e300), DataType::kInt);
  ASSERT_TRUE(casted.ok());
  EXPECT_EQ(casted->int_value(), INT64_MAX);
  casted = CastValue(Value::Float(-1.0), DataType::kUint);
  ASSERT_TRUE(casted.ok());
  EXPECT_EQ(casted->uint_value(), 0u);
}

TEST(EvalTest, ComparisonAndLogic) {
  ExprHarness harness;
  auto v = harness.EvalOn("t >= 120 AND NOT (i > 0)", SampleRow());
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->bool_value());
  v = harness.EvalOn("t < 120 OR i > 0", SampleRow());
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->bool_value());
}

TEST(EvalTest, BitwiseOps) {
  ExprHarness harness;
  auto v = harness.EvalOn("t & 15", SampleRow());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->uint_value(), 8u);  // 120 & 15
  v = harness.EvalOn("t | 7", SampleRow());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->uint_value(), 127u);
}

TEST(EvalTest, IpEquality) {
  ExprHarness harness;
  auto v = harness.EvalOn("addr = 10.0.0.1", SampleRow());
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->bool_value());
  v = harness.EvalOn("addr = 10.0.0.2", SampleRow());
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->bool_value());
}

TEST(EvalTest, StringEquality) {
  ExprHarness harness;
  auto v = harness.EvalOn("s = 'HTTP/1.1 200 OK'", SampleRow());
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->bool_value());
}

TEST(EvalTest, ParamsEvaluate) {
  ExprHarness harness({{"port", DataType::kUint}});
  auto v = harness.EvalOn("t > $port", SampleRow(), {Value::Uint(100)});
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_TRUE(v->bool_value());
  v = harness.EvalOn("t > $port", SampleRow(), {Value::Uint(500)});
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->bool_value());
}

TEST(EvalTest, UdfCall) {
  ExprHarness harness;
  auto v = harness.EvalOn("str_len(s)", SampleRow());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->uint_value(), 15u);
}

TEST(EvalTest, UdfWithHandleArg) {
  ExprHarness harness;
  auto v = harness.EvalOn("match_regex(s, 'HTTP/1')", SampleRow());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_TRUE(v->bool_value());
}

TEST(EvalTest, PartialFunctionMissYieldsNoValue) {
  ExprHarness harness;
  // 10.0.0.1 is not covered by the 192.168/16 prefix: getlpmid misses.
  auto v = harness.EvalOn("getlpmid(addr, 'inline:192.168.0.0/16 7')",
                          SampleRow());
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), Status::Code::kNotFound);  // harness marker
}

TEST(EvalTest, PartialFunctionHit) {
  ExprHarness harness;
  auto v = harness.EvalOn("getlpmid(addr, 'inline:10.0.0.0/8 42')",
                          SampleRow());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->uint_value(), 42u);
}

TEST(FoldTest, FoldsConstantSubtrees) {
  ExprHarness harness;
  auto ir = harness.ToIr("t + (2 * 3 + 4)");
  ASSERT_TRUE(ir.ok());
  IrPtr folded = FoldConstants(*ir);
  // Right child of the top-level + must now be the constant 10.
  ASSERT_EQ(folded->kind, IrKind::kBinary);
  const IrPtr& right = folded->children[1];
  ASSERT_EQ(right->kind, IrKind::kConst);
  EXPECT_EQ(right->constant.uint_value(), 10u);
}

TEST(FoldTest, DoesNotFoldFieldsOrParams) {
  ExprHarness harness({{"p", DataType::kInt}});
  auto ir = harness.ToIr("t + $p");
  ASSERT_TRUE(ir.ok());
  IrPtr folded = FoldConstants(*ir);
  EXPECT_EQ(folded->kind, IrKind::kBinary);
}

TEST(FoldTest, KeepsRuntimeErrorSubtrees) {
  ExprHarness harness;
  auto ir = harness.ToIr("1 / 0");
  ASSERT_TRUE(ir.ok());
  IrPtr folded = FoldConstants(*ir);
  EXPECT_EQ(folded->kind, IrKind::kBinary);  // not folded
}

TEST(CostTest, CheapExpressionIsLftaSafe) {
  ExprHarness harness;
  auto ir = harness.ToIr("t / 60 + 1");
  ASSERT_TRUE(ir.ok());
  EXPECT_TRUE(IsLftaSafe(*ir));
}

TEST(CostTest, RegexIsNotLftaSafe) {
  ExprHarness harness;
  auto ir = harness.ToIr("match_regex(s, 'HTTP/1')");
  ASSERT_TRUE(ir.ok());
  EXPECT_FALSE(IsLftaSafe(*ir));
  EXPECT_GT(EstimateCost(*ir), kLftaCostBudget);
}

TEST(CostTest, LpmIsNotLftaSafe) {
  ExprHarness harness;
  auto ir = harness.ToIr("getlpmid(addr, 'inline:10.0.0.0/8 1')");
  ASSERT_TRUE(ir.ok());
  EXPECT_FALSE(IsLftaSafe(*ir));
}

TEST(CostTest, CheapUdfIsLftaSafe) {
  ExprHarness harness;
  auto ir = harness.ToIr("ip_in_subnet(addr, 10.0.0.0, 8)");
  ASSERT_TRUE(ir.ok()) << ir.status().ToString();
  EXPECT_TRUE(IsLftaSafe(*ir));
}

TEST(CodegenTest, DisassembleShowsInstructions) {
  ExprHarness harness;
  auto ir = harness.ToIr("t / 60");
  ASSERT_TRUE(ir.ok());
  auto compiled = Compile(*ir);
  ASSERT_TRUE(compiled.ok());
  std::string text = compiled->Disassemble();
  EXPECT_NE(text.find("load_field"), std::string::npos);
  EXPECT_NE(text.find("div"), std::string::npos);
}

TEST(CodegenTest, HandleArgMustBeLiteralOrParam) {
  ExprHarness harness;
  // Pattern argument computed from a field: rejected at type check.
  EXPECT_FALSE(harness.ToIr("match_regex(s, s)").ok());
}

}  // namespace
}  // namespace gigascope::expr
