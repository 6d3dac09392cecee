#include "expr/vm.h"

#include "common/logging.h"

namespace gigascope::expr {

namespace {

Status ArithmeticOp(ByteOp op, const Value& left, const Value& right,
                    Value* out) {
  GS_CHECK(left.type() == right.type());
  switch (left.type()) {
    case DataType::kInt: {
      int64_t a = left.int_value();
      int64_t b = right.int_value();
      // Signed add/sub/mul wrap two's-complement (via the uint64 round-trip,
      // defined behavior) and INT64_MIN / -1 is a counted eval error rather
      // than a SIGFPE.
      uint64_t ua = static_cast<uint64_t>(a);
      uint64_t ub = static_cast<uint64_t>(b);
      switch (op) {
        case ByteOp::kAdd:
          *out = Value::Int(static_cast<int64_t>(ua + ub));
          return Status::Ok();
        case ByteOp::kSub:
          *out = Value::Int(static_cast<int64_t>(ua - ub));
          return Status::Ok();
        case ByteOp::kMul:
          *out = Value::Int(static_cast<int64_t>(ua * ub));
          return Status::Ok();
        case ByteOp::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          if (a == INT64_MIN && b == -1) {
            return Status::InvalidArgument("integer division overflow");
          }
          *out = Value::Int(a / b);
          return Status::Ok();
        case ByteOp::kMod:
          if (b == 0) return Status::InvalidArgument("modulo by zero");
          if (a == INT64_MIN && b == -1) {
            return Status::InvalidArgument("integer modulo overflow");
          }
          *out = Value::Int(a % b);
          return Status::Ok();
        case ByteOp::kBitAnd: *out = Value::Int(a & b); return Status::Ok();
        case ByteOp::kBitOr: *out = Value::Int(a | b); return Status::Ok();
        default:
          break;
      }
      break;
    }
    case DataType::kUint: {
      uint64_t a = left.uint_value();
      uint64_t b = right.uint_value();
      switch (op) {
        case ByteOp::kAdd: *out = Value::Uint(a + b); return Status::Ok();
        case ByteOp::kSub: *out = Value::Uint(a - b); return Status::Ok();
        case ByteOp::kMul: *out = Value::Uint(a * b); return Status::Ok();
        case ByteOp::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          *out = Value::Uint(a / b);
          return Status::Ok();
        case ByteOp::kMod:
          if (b == 0) return Status::InvalidArgument("modulo by zero");
          *out = Value::Uint(a % b);
          return Status::Ok();
        case ByteOp::kBitAnd: *out = Value::Uint(a & b); return Status::Ok();
        case ByteOp::kBitOr: *out = Value::Uint(a | b); return Status::Ok();
        default:
          break;
      }
      break;
    }
    case DataType::kFloat: {
      double a = left.float_value();
      double b = right.float_value();
      switch (op) {
        case ByteOp::kAdd: *out = Value::Float(a + b); return Status::Ok();
        case ByteOp::kSub: *out = Value::Float(a - b); return Status::Ok();
        case ByteOp::kMul: *out = Value::Float(a * b); return Status::Ok();
        case ByteOp::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          *out = Value::Float(a / b);
          return Status::Ok();
        default:
          break;
      }
      break;
    }
    default:
      break;
  }
  return Status::Internal("arithmetic on unsupported type");
}

}  // namespace

Status Evaluator::Eval(const CompiledExpr& expr, const EvalContext& ctx,
                       EvalOutput* out) {
  std::vector<Value>& stack = stack_;
  stack.clear();
  stack.reserve(expr.max_stack);
  out->has_value = true;

  for (const Instr& instr : expr.code) {
    switch (instr.op) {
      case ByteOp::kPushConst:
        stack.push_back(expr.constants[instr.a]);
        break;
      case ByteOp::kLoadField: {
        const PackedFields row = instr.a == 0 ? ctx.row0 : ctx.row1;
        if (instr.b >= row.size() || row[instr.b] == nullptr) {
          return Status::Internal("field load outside the input row");
        }
        stack.push_back(ReadField(instr.type, row[instr.b]));
        break;
      }
      case ByteOp::kLoadParam:
        if (ctx.params == nullptr || instr.a >= ctx.params->size()) {
          return Status::Internal("parameter slot out of range");
        }
        stack.push_back((*ctx.params)[instr.a]);
        break;
      case ByteOp::kCall: {
        const CallSite& site = expr.calls[instr.a];
        size_t arity = site.handles.size();
        std::vector<Value> args(arity);
        // Stack args fill the non-handle positions right-to-left.
        for (size_t i = arity; i-- > 0;) {
          if (site.handles[i] == nullptr) {
            args[i] = std::move(stack.back());
            stack.pop_back();
          }
        }
        Value result;
        bool has_result = true;
        GS_RETURN_IF_ERROR(
            site.fn->invoke(args, site.handles, &result, &has_result));
        if (!has_result) {
          if (!site.fn->partial) {
            return Status::Internal("non-partial function '" + site.fn->name +
                                    "' returned no result");
          }
          out->has_value = false;
          return Status::Ok();
        }
        stack.push_back(std::move(result));
        break;
      }
      case ByteOp::kNeg: {
        Value& top = stack.back();
        if (top.type() == DataType::kInt) {
          // Wrapping negation: -INT64_MIN stays INT64_MIN, no UB.
          top = Value::Int(
              static_cast<int64_t>(-static_cast<uint64_t>(top.int_value())));
        } else if (top.type() == DataType::kFloat) {
          top = Value::Float(-top.float_value());
        } else {
          return Status::Internal("negation of unsupported type");
        }
        break;
      }
      case ByteOp::kNot: {
        Value& top = stack.back();
        top = Value::Bool(!top.bool_value());
        break;
      }
      case ByteOp::kCast: {
        GS_ASSIGN_OR_RETURN(
            Value casted,
            CastValue(stack.back(), static_cast<DataType>(instr.a)));
        stack.back() = std::move(casted);
        break;
      }
      case ByteOp::kAnd:
      case ByteOp::kOr: {
        Value right = std::move(stack.back());
        stack.pop_back();
        Value& left = stack.back();
        bool result = instr.op == ByteOp::kAnd
                          ? (left.bool_value() && right.bool_value())
                          : (left.bool_value() || right.bool_value());
        left = Value::Bool(result);
        break;
      }
      case ByteOp::kCmpEq:
      case ByteOp::kCmpNe:
      case ByteOp::kCmpLt:
      case ByteOp::kCmpLe:
      case ByteOp::kCmpGt:
      case ByteOp::kCmpGe: {
        Value right = std::move(stack.back());
        stack.pop_back();
        Value& left = stack.back();
        left = Value::Bool(CompareHolds(instr.op, left.Compare(right)));
        break;
      }
      default: {
        Value right = std::move(stack.back());
        stack.pop_back();
        Value& left = stack.back();
        Value result;
        GS_RETURN_IF_ERROR(ArithmeticOp(instr.op, left, right, &result));
        left = std::move(result);
        break;
      }
    }
  }
  if (stack.size() != 1) {
    return Status::Internal("expression stack imbalance");
  }
  out->value = std::move(stack.back());
  return Status::Ok();
}

std::optional<std::vector<FilterTerm>> MatchFilterTerms(
    const CompiledExpr& expr) {
  auto is_compare = [](ByteOp op) {
    switch (op) {
      case ByteOp::kCmpEq:
      case ByteOp::kCmpNe:
      case ByteOp::kCmpLt:
      case ByteOp::kCmpLe:
      case ByteOp::kCmpGt:
      case ByteOp::kCmpGe:
        return true;
      default:
        return false;
    }
  };
  const std::vector<Instr>& code = expr.code;
  std::vector<FilterTerm> terms;
  size_t i = 0;
  auto parse_term = [&]() {
    if (i + 3 > code.size()) return false;
    if (code[i].op != ByteOp::kLoadField || code[i].a != 0) return false;
    if (code[i + 1].op != ByteOp::kPushConst ||
        code[i + 1].a >= expr.constants.size()) {
      return false;
    }
    if (!is_compare(code[i + 2].op)) return false;
    FilterTerm term;
    term.field = code[i].b;
    term.cmp = code[i + 2].op;
    term.constant = expr.constants[code[i + 1].a];
    terms.push_back(std::move(term));
    i += 3;
    return true;
  };
  // `a AND b AND c` compiles left-associated: term, (term, kAnd)*.
  if (!parse_term()) return std::nullopt;
  while (i < code.size()) {
    if (!parse_term()) return std::nullopt;
    if (i >= code.size() || code[i].op != ByteOp::kAnd) return std::nullopt;
    ++i;
  }
  return terms;
}

}  // namespace gigascope::expr
