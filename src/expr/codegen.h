#ifndef GIGASCOPE_EXPR_CODEGEN_H_
#define GIGASCOPE_EXPR_CODEGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "expr/ir.h"

namespace gigascope::expr {

/// Bytecode operations for the expression VM.
///
/// The paper's GSQL processor generates C/C++ per query; this repository
/// generates compact stack bytecode instead (see DESIGN.md §3). The codegen
/// still runs once per query at compile time, producing a self-contained
/// artifact with resolved constants, call sites, and pre-built handles.
enum class ByteOp : uint8_t {
  kPushConst,  // a: constant-pool index
  kLoadField,  // a: input (0/1), b: field index, type: the field's type
  kLoadParam,  // a: parameter slot
  kCall,       // a: call-site index
  kAdd, kSub, kMul, kDiv, kMod, kBitAnd, kBitOr,
  kNeg, kNot,
  kCmpEq, kCmpNe, kCmpLt, kCmpLe, kCmpGt, kCmpGe,
  kAnd, kOr,
  kCast,       // a: target DataType
};

struct Instr {
  ByteOp op;
  /// kLoadField: the type the field's packed bytes are read as.
  DataType type = DataType::kInt;
  uint16_t a = 0;
  uint16_t b = 0;
};
static_assert(sizeof(Instr) == 6, "the type takes Instr's spare byte");

/// One resolved function call: descriptor plus pre-processed handles for
/// pass-by-handle arguments (built once at compile time — the paper's
/// "parameter handle registration function").
struct CallSite {
  const FunctionInfo* fn = nullptr;
  /// Size = arity; non-null exactly at pass-by-handle positions.
  std::vector<std::shared_ptr<void>> handles;
  /// Number of arguments taken from the VM stack (arity minus handles).
  uint16_t stack_args = 0;
};

/// A compiled, immediately executable expression.
struct CompiledExpr {
  DataType result_type = DataType::kInt;
  std::vector<Instr> code;
  std::vector<Value> constants;
  std::vector<CallSite> calls;
  /// Upper bound of the value stack during evaluation.
  size_t max_stack = 0;

  std::string Disassemble() const;
};

/// Compiles typed IR to bytecode. `param_values` supplies instantiation-time
/// parameter values, needed only to build handles for pass-by-handle
/// arguments that are query parameters.
Result<CompiledExpr> Compile(const IrPtr& ir,
                             const std::vector<Value>& param_values = {});

}  // namespace gigascope::expr

#endif  // GIGASCOPE_EXPR_CODEGEN_H_
