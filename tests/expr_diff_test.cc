// Differential check of the bytecode VM against a reference evaluator.
//
// A seeded generator builds small arithmetic, comparison and logic trees
// over t (UINT), i (INT) and f (FLOAT) and prints each as GSQL text. The
// text is parsed, type-checked, constant-folded and compiled, and runs on
// one expr::Evaluator. The reference below evaluates the tree itself from
// the typing rules alone, over hostile rows: INT64_MIN, INT64_MAX, -1, 0,
// UINT64_MAX, NaN, +-1e300 and zero divisors. Both must agree on ok/error,
// the error message, the result type and the value bits.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/rng.h"
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
  return StreamSchema("T", StreamKind::kStream, fields);
}

/// Parses and type-checks one expression over TestSchema.
class TypeChecker {
 public:
  TypeChecker() {
    catalog_.PutStreamSchema(TestSchema());
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

 private:
  gsql::Catalog catalog_;
  TypeCheckContext ctx_;
  std::optional<Result<gsql::ResolvedSelect>> resolved_;
};

/// A generated expression: a field ('t', 'i' or 'f'), an INT literal, a
/// FLOAT literal (lit + 0.5), unary minus, or a binary operator.
struct Gen {
  enum class Kind { kField, kInt, kFloat, kNeg, kBinary };
  Kind kind = Kind::kInt;
  char field = 0;
  uint64_t lit = 0;
  std::string op;
  std::shared_ptr<const Gen> left, right;
};
using GenPtr = std::shared_ptr<const Gen>;

GenPtr MakeGen(Gen::Kind kind, char field, uint64_t lit, std::string op = "",
               GenPtr left = nullptr, GenPtr right = nullptr) {
  auto gen = std::make_shared<Gen>();
  gen->kind = kind;
  gen->field = field;
  gen->lit = lit;
  gen->op = std::move(op);
  gen->left = std::move(left);
  gen->right = std::move(right);
  return gen;
}

GenPtr GenBinary(std::string op, GenPtr left, GenPtr right) {
  return MakeGen(Gen::Kind::kBinary, 0, 0, std::move(op), std::move(left),
                 std::move(right));
}

/// `(0 - n)`: the grammar's negative integers.
GenPtr GenMinus(uint64_t n) {
  return GenBinary("-", MakeGen(Gen::Kind::kInt, 0, 0),
                   MakeGen(Gen::Kind::kInt, 0, n));
}

std::string Print(const Gen& gen) {
  switch (gen.kind) {
    case Gen::Kind::kField: return std::string(1, gen.field);
    case Gen::Kind::kInt: return std::to_string(gen.lit);
    case Gen::Kind::kFloat: return std::to_string(gen.lit) + ".5";
    case Gen::Kind::kNeg: return "(-" + Print(*gen.left) + ")";
    case Gen::Kind::kBinary:
      return "(" + Print(*gen.left) + " " + gen.op + " " +
             Print(*gen.right) + ")";
  }
  return "";
}

GenPtr GenNumeric(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextBelow(3) == 0) {
    switch (rng->NextBelow(7)) {
      case 0: return MakeGen(Gen::Kind::kField, 't', 0);
      case 1: return MakeGen(Gen::Kind::kField, 'i', 0);
      case 2: return MakeGen(Gen::Kind::kField, 'f', 0);
      case 3: return MakeGen(Gen::Kind::kInt, 0, rng->NextBelow(100));
      case 4: return GenMinus(rng->NextBelow(100));
      case 5: return MakeGen(Gen::Kind::kFloat, 0, rng->NextBelow(8));
      default: {
        const char field = rng->NextBool(0.5) ? 'i' : 't';
        return MakeGen(Gen::Kind::kNeg, 0, 0, "",
                       MakeGen(Gen::Kind::kField, field, 0));
      }
    }
  }
  // Each draw is its own statement, so the corpus does not depend on the
  // order a compiler evaluates arguments in.
  static const char* kOps[] = {"+", "-", "*", "/", "%"};
  const std::string op = kOps[rng->NextBelow(5)];
  GenPtr left = GenNumeric(rng, depth - 1);
  // A quarter of the divisors are the guarded values 0 and -1.
  if ((op == "/" || op == "%") && rng->NextBool(0.25)) {
    return GenBinary(op, std::move(left), GenMinus(rng->NextBelow(2)));
  }
  GenPtr right = GenNumeric(rng, depth - 1);
  return GenBinary(op, std::move(left), std::move(right));
}

GenPtr GenBool(Rng* rng, int depth) {
  const bool leaf = depth <= 0 || rng->NextBelow(3) == 0;
  static const char* kCmps[] = {"=", "<>", "<", "<=", ">", ">="};
  const std::string op =
      leaf ? kCmps[rng->NextBelow(6)] : (rng->NextBool(0.5) ? "AND" : "OR");
  GenPtr left = leaf ? GenNumeric(rng, 1) : GenBool(rng, depth - 1);
  GenPtr right = leaf ? GenNumeric(rng, 1) : GenBool(rng, depth - 1);
  return GenBinary(op, std::move(left), std::move(right));
}

/// A row of TestSchema: t, i and f.
struct RefRow {
  uint64_t t = 0;
  int64_t i = 0;
  double f = 0;
};

RefRow GenRefRow(Rng* rng) {
  static const uint64_t kT[] = {0, 1, UINT64_MAX};
  static const int64_t kI[] = {0, -1, INT64_MIN, INT64_MAX};
  static const double kF[] = {0.0, -1.5, 1e300, -1e300, std::nan("")};
  RefRow row;
  const uint64_t t = rng->NextBelow(5);
  row.t = t < 3 ? kT[t] : (t == 3 ? rng->NextBelow(1000) : rng->Next());
  const uint64_t i = rng->NextBelow(6);
  row.i = i < 4 ? kI[i]
                : static_cast<int64_t>(i == 4 ? rng->NextBelow(200) - 100
                                              : rng->Next());
  const uint64_t f = rng->NextBelow(6);
  row.f = f < 5 ? kF[f] : rng->NextDouble() * 1000.0 - 500.0;
  return row;
}

bool IsArithmetic(const std::string& op) {
  return op == "+" || op == "-" || op == "*" || op == "/" || op == "%";
}

/// Mixed numeric operands: FLOAT wins, then UINT, else INT.
DataType Promote(DataType a, DataType b) {
  if (a == DataType::kFloat || b == DataType::kFloat) return DataType::kFloat;
  if (a == DataType::kUint || b == DataType::kUint) return DataType::kUint;
  return DataType::kInt;
}

/// The static type of `gen`, or nullopt where the type checker must
/// refuse it: '%' over FLOAT. Integer literals are INT; unary minus turns
/// UINT into INT.
std::optional<DataType> RefType(const Gen& gen) {
  switch (gen.kind) {
    case Gen::Kind::kField:
      return gen.field == 't'   ? DataType::kUint
             : gen.field == 'i' ? DataType::kInt
                                : DataType::kFloat;
    case Gen::Kind::kInt: return DataType::kInt;
    case Gen::Kind::kFloat: return DataType::kFloat;
    case Gen::Kind::kNeg: {
      std::optional<DataType> type = RefType(*gen.left);
      if (type == DataType::kUint) return DataType::kInt;
      return type;
    }
    case Gen::Kind::kBinary: break;
  }
  std::optional<DataType> left = RefType(*gen.left);
  std::optional<DataType> right = RefType(*gen.right);
  if (!left.has_value() || !right.has_value()) return std::nullopt;
  if (!IsArithmetic(gen.op)) return DataType::kBool;
  const DataType common = Promote(*left, *right);
  if (gen.op == "%" && common == DataType::kFloat) return std::nullopt;
  return common;
}

/// A reference value: INT, UINT, FLOAT or BOOL.
using RefValue = std::variant<int64_t, uint64_t, double, bool>;

DataType RefTypeOf(const RefValue& value) {
  static const DataType kTypes[] = {DataType::kInt, DataType::kUint,
                                    DataType::kFloat, DataType::kBool};
  return kTypes[value.index()];
}

/// The C++ conversion of a numeric value (two's complement between INT
/// and UINT).
template <typename T>
T As(const RefValue& value) {
  return std::visit([](auto v) { return static_cast<T>(v); }, value);
}

/// Integer arithmetic wraps around; INT64_MIN / -1 and division or modulo
/// by zero are errors.
template <typename T>
Result<RefValue> Arithmetic(const std::string& op, T a, T b) {
  if (op == "/" || op == "%") {
    const bool div = op == "/";
    if (b == 0) {
      return Status::InvalidArgument(div ? "division by zero"
                                         : "modulo by zero");
    }
    if constexpr (std::is_same_v<T, double>) {
      return RefValue(a / b);  // '%' over FLOAT never type-checks
    } else {
      if constexpr (std::is_signed_v<T>) {
        if (a == INT64_MIN && b == -1) {
          return Status::InvalidArgument(div ? "integer division overflow"
                                             : "integer modulo overflow");
        }
      }
      return RefValue(div ? a / b : a % b);
    }
  }
  if constexpr (std::is_same_v<T, int64_t>) {
    // The same operation on the two's-complement bits.
    GS_ASSIGN_OR_RETURN(RefValue bits,
                        Arithmetic<uint64_t>(op, static_cast<uint64_t>(a),
                                             static_cast<uint64_t>(b)));
    return RefValue(As<int64_t>(bits));
  } else {
    return RefValue(op == "+" ? a + b : (op == "-" ? a - b : a * b));
  }
}

/// NaN is neither below nor above anything, so it compares equal to every
/// value, NaN included.
template <typename T>
int Cmp3(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Evaluates a tree RefType accepts. AND and OR evaluate both sides, so an
/// error on either side is the result, the left one first. Counts the
/// comparisons that see a NaN in `nan_compares`.
Result<RefValue> RefEval(const Gen& gen, const RefRow& row,
                         int* nan_compares) {
  switch (gen.kind) {
    case Gen::Kind::kField:
      if (gen.field == 't') return RefValue(row.t);
      if (gen.field == 'i') return RefValue(row.i);
      return RefValue(row.f);
    case Gen::Kind::kInt: return RefValue(static_cast<int64_t>(gen.lit));
    case Gen::Kind::kFloat:
      return RefValue(static_cast<double>(gen.lit) + 0.5);
    case Gen::Kind::kNeg: {
      GS_ASSIGN_OR_RETURN(RefValue v, RefEval(*gen.left, row, nan_compares));
      if (const double* f = std::get_if<double>(&v)) return RefValue(-*f);
      return RefValue(static_cast<int64_t>(0 - As<uint64_t>(v)));  // wraps
    }
    case Gen::Kind::kBinary: break;
  }
  GS_ASSIGN_OR_RETURN(RefValue l, RefEval(*gen.left, row, nan_compares));
  GS_ASSIGN_OR_RETURN(RefValue r, RefEval(*gen.right, row, nan_compares));
  if (gen.op == "AND") return RefValue(std::get<bool>(l) && std::get<bool>(r));
  if (gen.op == "OR") return RefValue(std::get<bool>(l) || std::get<bool>(r));
  int cmp = 0;
  switch (Promote(RefTypeOf(l), RefTypeOf(r))) {
    case DataType::kInt:
      if (IsArithmetic(gen.op)) {
        return Arithmetic(gen.op, As<int64_t>(l), As<int64_t>(r));
      }
      cmp = Cmp3(As<int64_t>(l), As<int64_t>(r));
      break;
    case DataType::kUint:
      if (IsArithmetic(gen.op)) {
        return Arithmetic(gen.op, As<uint64_t>(l), As<uint64_t>(r));
      }
      cmp = Cmp3(As<uint64_t>(l), As<uint64_t>(r));
      break;
    default:
      if (IsArithmetic(gen.op)) {
        return Arithmetic(gen.op, As<double>(l), As<double>(r));
      }
      cmp = Cmp3(As<double>(l), As<double>(r));
      if (std::isnan(As<double>(l)) || std::isnan(As<double>(r))) {
        ++*nan_compares;
      }
  }
  const std::string& op = gen.op;
  return RefValue(op == "="    ? cmp == 0
                  : op == "<>" ? cmp != 0
                  : op == "<"  ? cmp < 0
                  : op == "<=" ? cmp <= 0
                  : op == ">"  ? cmp > 0
                               : cmp >= 0);
}

/// Whether the VM's value has the reference's type and bits.
bool SameBits(const Value& vm, const RefValue& ref) {
  switch (vm.type()) {
    case DataType::kInt: return ref == RefValue(vm.int_value());
    case DataType::kUint: return ref == RefValue(vm.uint_value());
    case DataType::kBool: return ref == RefValue(vm.bool_value());
    case DataType::kFloat: {
      const double* f = std::get_if<double>(&ref);
      const double v = vm.float_value();
      return f != nullptr && std::memcmp(f, &v, sizeof(v)) == 0;
    }
    default: return false;
  }
}

TEST(EvalDifferentialTest, RandomExpressionsMatchReference) {
  Rng rng(0x9e3779b97f4a7c15ull);
  TypeChecker checker;
  Evaluator evaluator;
  int valid = 0;
  int nan_compares = 0;
  std::map<std::string, int> errors;  // message -> count
  for (int n = 0; n < 400; ++n) {
    GenPtr gen = rng.NextBool(0.3) ? GenBool(&rng, 2) : GenNumeric(&rng, 3);
    const std::string text = Print(*gen);
    const std::optional<DataType> type = RefType(*gen);
    auto ir = checker.ToIr(text);
    ASSERT_EQ(ir.ok(), type.has_value())
        << text << ": " << (ir.ok() ? "accepted" : ir.status().ToString());
    if (!ir.ok()) continue;
    ASSERT_EQ((*ir)->type, *type) << text;
    auto compiled = Compile(FoldConstants(*ir));
    ASSERT_TRUE(compiled.ok()) << text << ": " << compiled.status().ToString();
    ++valid;
    for (int r = 0; r < 24; ++r) {
      const RefRow ref_row = GenRefRow(&rng);
      const std::vector<Value> row = {Value::Uint(ref_row.t),
                                      Value::Int(ref_row.i),
                                      Value::Float(ref_row.f)};
      std::vector<uint8_t> packed;
      std::vector<const uint8_t*> at;
      PackValues(row, &packed, &at);
      EvalContext ctx;
      ctx.row0 = at;
      EvalOutput out;
      const Status status = evaluator.Eval(*compiled, ctx, &out);
      const Result<RefValue> want = RefEval(*gen, ref_row, &nan_compares);
      const std::string what = text + " on t=" + row[0].ToString() +
                               " i=" + row[1].ToString() +
                               " f=" + row[2].ToString();
      ASSERT_EQ(status.ok(), want.ok())
          << what << ": vm " << status.ToString() << ", reference "
          << want.status().ToString();
      if (!status.ok()) {
        EXPECT_EQ(status.message(), want.status().message()) << what;
        ++errors[want.status().message()];
        continue;
      }
      ASSERT_TRUE(out.has_value) << what;
      EXPECT_TRUE(SameBits(out.value, *want))
          << what << ": vm " << out.value.ToString();
    }
  }
  // The corpus must be large, reach every runtime error and compare NaNs;
  // otherwise it checks less than it claims.
  EXPECT_GE(valid, 40);
  EXPECT_GE(nan_compares, 1);
  for (const char* message :
       {"division by zero", "modulo by zero", "integer division overflow",
        "integer modulo overflow"}) {
    EXPECT_GE(errors[message], 1) << message;
  }
}

}  // namespace
}  // namespace gigascope::expr
