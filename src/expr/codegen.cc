#include "expr/codegen.h"

#include <algorithm>

namespace gigascope::expr {

namespace {

using gsql::BinaryOp;
using gsql::UnaryOp;

const char* ByteOpName(ByteOp op) {
  switch (op) {
    case ByteOp::kPushConst: return "push_const";
    case ByteOp::kLoadField: return "load_field";
    case ByteOp::kLoadParam: return "load_param";
    case ByteOp::kCall: return "call";
    case ByteOp::kAdd: return "add";
    case ByteOp::kSub: return "sub";
    case ByteOp::kMul: return "mul";
    case ByteOp::kDiv: return "div";
    case ByteOp::kMod: return "mod";
    case ByteOp::kBitAnd: return "bitand";
    case ByteOp::kBitOr: return "bitor";
    case ByteOp::kNeg: return "neg";
    case ByteOp::kNot: return "not";
    case ByteOp::kCmpEq: return "cmpeq";
    case ByteOp::kCmpNe: return "cmpne";
    case ByteOp::kCmpLt: return "cmplt";
    case ByteOp::kCmpLe: return "cmple";
    case ByteOp::kCmpGt: return "cmpgt";
    case ByteOp::kCmpGe: return "cmpge";
    case ByteOp::kAnd: return "and";
    case ByteOp::kOr: return "or";
    case ByteOp::kCast: return "cast";
  }
  return "?";
}

ByteOp BinaryToByteOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return ByteOp::kAdd;
    case BinaryOp::kSub: return ByteOp::kSub;
    case BinaryOp::kMul: return ByteOp::kMul;
    case BinaryOp::kDiv: return ByteOp::kDiv;
    case BinaryOp::kMod: return ByteOp::kMod;
    case BinaryOp::kBitAnd: return ByteOp::kBitAnd;
    case BinaryOp::kBitOr: return ByteOp::kBitOr;
    case BinaryOp::kEq: return ByteOp::kCmpEq;
    case BinaryOp::kNeq: return ByteOp::kCmpNe;
    case BinaryOp::kLt: return ByteOp::kCmpLt;
    case BinaryOp::kLe: return ByteOp::kCmpLe;
    case BinaryOp::kGt: return ByteOp::kCmpGt;
    case BinaryOp::kGe: return ByteOp::kCmpGe;
    case BinaryOp::kAnd: return ByteOp::kAnd;
    case BinaryOp::kOr: return ByteOp::kOr;
  }
  return ByteOp::kAdd;
}

class Generator {
 public:
  explicit Generator(const std::vector<Value>& param_values)
      : param_values_(param_values) {}

  Result<CompiledExpr> Run(const IrPtr& ir) {
    GS_RETURN_IF_ERROR(Emit(ir));
    out_.result_type = ir->type;
    out_.max_stack = max_depth_;
    return std::move(out_);
  }

 private:
  void Push(ByteOp op, uint16_t a = 0, uint16_t b = 0,
            DataType type = DataType::kInt) {
    out_.code.push_back({op, type, a, b});
  }

  void TrackDepth(int delta) {
    depth_ += delta;
    max_depth_ = std::max(max_depth_, static_cast<size_t>(std::max(0, depth_)));
  }

  uint16_t AddConstant(Value value) {
    out_.constants.push_back(std::move(value));
    return static_cast<uint16_t>(out_.constants.size() - 1);
  }

  Status Emit(const IrPtr& ir) {
    switch (ir->kind) {
      case IrKind::kConst: {
        uint16_t index = AddConstant(ir->constant);
        Push(ByteOp::kPushConst, index);
        TrackDepth(1);
        return Status::Ok();
      }
      case IrKind::kField:
        Push(ByteOp::kLoadField, static_cast<uint16_t>(ir->input),
             static_cast<uint16_t>(ir->field), ir->type);
        TrackDepth(1);
        return Status::Ok();
      case IrKind::kParam:
        Push(ByteOp::kLoadParam, static_cast<uint16_t>(ir->param_index));
        TrackDepth(1);
        return Status::Ok();
      case IrKind::kCast: {
        GS_RETURN_IF_ERROR(Emit(ir->children[0]));
        Push(ByteOp::kCast, static_cast<uint16_t>(ir->type));
        return Status::Ok();
      }
      case IrKind::kUnary: {
        GS_RETURN_IF_ERROR(Emit(ir->children[0]));
        Push(ir->unary_op == UnaryOp::kNeg ? ByteOp::kNeg : ByteOp::kNot);
        return Status::Ok();
      }
      case IrKind::kBinary: {
        GS_RETURN_IF_ERROR(Emit(ir->children[0]));
        GS_RETURN_IF_ERROR(Emit(ir->children[1]));
        Push(BinaryToByteOp(ir->binary_op));
        TrackDepth(-1);
        return Status::Ok();
      }
      case IrKind::kCall:
        return EmitCall(ir);
    }
    return Status::Internal("unknown IR node in codegen");
  }

  Status EmitCall(const IrPtr& ir) {
    const FunctionInfo* fn = ir->fn;
    CallSite site;
    site.fn = fn;
    site.handles.resize(ir->children.size());
    uint16_t stack_args = 0;
    for (size_t i = 0; i < ir->children.size(); ++i) {
      bool is_handle =
          i < fn->pass_by_handle.size() && fn->pass_by_handle[i];
      if (is_handle) {
        GS_ASSIGN_OR_RETURN(Value literal, HandleLiteral(ir->children[i]));
        if (fn->make_handle == nullptr) {
          return Status::Internal("function '" + fn->name +
                                  "' declares a handle argument but has no "
                                  "handle builder");
        }
        GS_ASSIGN_OR_RETURN(site.handles[i], fn->make_handle(literal));
      } else {
        GS_RETURN_IF_ERROR(Emit(ir->children[i]));
        ++stack_args;
      }
    }
    site.stack_args = stack_args;
    out_.calls.push_back(std::move(site));
    Push(ByteOp::kCall, static_cast<uint16_t>(out_.calls.size() - 1));
    TrackDepth(1 - static_cast<int>(stack_args));
    return Status::Ok();
  }

  Result<Value> HandleLiteral(const IrPtr& arg) {
    if (arg->kind == IrKind::kConst) return arg->constant;
    if (arg->kind == IrKind::kParam) {
      if (arg->param_index >= param_values_.size()) {
        return Status::InvalidArgument(
            "pass-by-handle argument '$" + arg->name +
            "' has no instantiation-time value");
      }
      return param_values_[arg->param_index];
    }
    // A cast of a literal is still resolvable.
    if (arg->kind == IrKind::kCast && arg->children[0]->kind == IrKind::kConst) {
      return CastValue(arg->children[0]->constant, arg->type);
    }
    return Status::InvalidArgument(
        "pass-by-handle argument must be a literal or query parameter");
  }

  const std::vector<Value>& param_values_;
  CompiledExpr out_;
  int depth_ = 0;
  size_t max_depth_ = 0;
};

}  // namespace

std::string CompiledExpr::Disassemble() const {
  std::string out;
  for (size_t i = 0; i < code.size(); ++i) {
    const Instr& instr = code[i];
    out += std::to_string(i) + ": " + ByteOpName(instr.op);
    switch (instr.op) {
      case ByteOp::kPushConst:
        out += " " + constants[instr.a].ToString();
        break;
      case ByteOp::kLoadField:
        out += " in" + std::to_string(instr.a) + "[" + std::to_string(instr.b) +
               "]";
        break;
      case ByteOp::kLoadParam:
        out += " p" + std::to_string(instr.a);
        break;
      case ByteOp::kCall:
        out += " " + calls[instr.a].fn->name;
        break;
      case ByteOp::kCast:
        out += std::string(" ") +
               gsql::DataTypeName(static_cast<DataType>(instr.a));
        break;
      default:
        break;
    }
    out += "\n";
  }
  return out;
}

Result<CompiledExpr> Compile(const IrPtr& ir,
                             const std::vector<Value>& param_values) {
  if (ir == nullptr) return Status::Internal("cannot compile null IR");
  Generator generator(param_values);
  return generator.Run(ir);
}

}  // namespace gigascope::expr
