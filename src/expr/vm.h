#ifndef GIGASCOPE_EXPR_VM_H_
#define GIGASCOPE_EXPR_VM_H_

#include <optional>
#include <span>
#include <vector>

#include "expr/codegen.h"

namespace gigascope::expr {

/// Where an input tuple's fields are: element f points at field f's packed
/// bytes (see ReadField). Only the fields an expression loads must be set.
using PackedFields = std::span<const uint8_t* const>;

/// Inputs to one expression evaluation: up to two packed tuples and the
/// current query-parameter block. kLoadField reads its field straight from
/// the packed bytes; a load past a span's end is an evaluation error.
struct EvalContext {
  PackedFields row0;
  PackedFields row1;
  const std::vector<Value>* params = nullptr;
};

/// Result of one evaluation. `has_value == false` means a partial function
/// produced no result: the tuple being processed must be discarded (§2.2).
struct EvalOutput {
  bool has_value = true;
  Value value;
};

/// Evaluates compiled expressions. The value stack persists across calls,
/// so a batch of N tuples pays one stack allocation instead of N. Owned by
/// exactly one operator and called only from its polling thread.
class Evaluator {
 public:
  /// Runtime failures (division by zero, missing field row, function
  /// error) return a non-OK status; operators count such tuples in
  /// `eval_errors` and drop them.
  Status Eval(const CompiledExpr& expr, const EvalContext& ctx,
              EvalOutput* out);

 private:
  std::vector<Value> stack_;
};

/// Whether comparison `op` holds for a three-way result `cmp` (negative,
/// zero or positive).
inline bool CompareHolds(ByteOp op, int cmp) {
  switch (op) {
    case ByteOp::kCmpEq: return cmp == 0;
    case ByteOp::kCmpNe: return cmp != 0;
    case ByteOp::kCmpLt: return cmp < 0;
    case ByteOp::kCmpLe: return cmp <= 0;
    case ByteOp::kCmpGt: return cmp > 0;
    case ByteOp::kCmpGe: return cmp >= 0;
    default: return false;
  }
}

/// One conjunct of a filter in `field <cmp> constant` form (the field is
/// always from row0).
struct FilterTerm {
  size_t field = 0;
  ByteOp cmp = ByteOp::kCmpEq;
  Value constant;
};

/// Recognizes predicates of the shape `t1 AND t2 AND ... AND tn` where
/// every term is `LoadField(row0, f); PushConst(c); Cmp*` — the dominant
/// LFTA filter shape after constant folding (`protocol = 6 AND destPort =
/// 80`). Returns the terms in evaluation order, or nullopt for any other
/// bytecode; callers fall back to the general VM. Matching terms evaluate
/// identically to the VM (Value::Compare on same-type operands), which is
/// what lets ops::Filter compare packed bytes directly without
/// decoding the row.
std::optional<std::vector<FilterTerm>> MatchFilterTerms(
    const CompiledExpr& expr);

}  // namespace gigascope::expr

#endif  // GIGASCOPE_EXPR_VM_H_
