#ifndef GIGASCOPE_OPS_FILTER_H_
#define GIGASCOPE_OPS_FILTER_H_

#include <bit>
#include <optional>
#include <vector>

#include "expr/codegen.h"
#include "expr/vm.h"
#include "rts/tuple.h"

namespace gigascope::ops {

/// A single-input operator's WHERE over its packed input tuples, shared by
/// select/project and both aggregations. A conjunction of `field <cmp>
/// constant` terms over fixed-offset fields (the dominant LFTA filter
/// shape) runs straight off the framed bytes (raw()), so a rejected tuple
/// is read no further; any other predicate runs in the VM over the fields
/// the caller located (AddLoadedFields). A partial-function miss rejects.
class Filter {
 public:
  enum class Outcome { kPass, kReject, kError };

  /// `predicate` (none: every tuple passes) must outlive the filter.
  Filter(const std::optional<expr::CompiledExpr>& predicate,
         const rts::TupleCodec& input_codec);

  /// Whether the whole predicate runs on the packed bytes.
  bool raw() const { return !raw_terms_.empty(); }

  /// The raw pass over framed tuple `framed`: false rejects it. True when
  /// the predicate is not raw().
  bool RawPass(ByteSpan framed) const;

  /// Adds the input fields the VM predicate loads to `reads` (none when
  /// the predicate is absent or raw()).
  void AddLoadedFields(const gsql::StreamSchema& schema,
                       rts::ReadSet* reads) const;

  /// Evaluates the VM predicate over the located fields `at`; kPass when
  /// there is none to evaluate (absent or raw()).
  Outcome Eval(expr::PackedFields at, expr::Evaluator* vm,
               const std::vector<expr::Value>* params) const;

 private:
  /// One predicate conjunct evaluated on packed bytes: the field at a
  /// fixed offset compared against a pre-extracted constant.
  struct RawTerm {
    size_t offset = 0;
    gsql::DataType type = gsql::DataType::kUint;
    expr::ByteOp cmp = expr::ByteOp::kCmpEq;
    uint64_t u = 0;  // kUint/kIp/kBool constant
    int64_t i = 0;   // kInt constant
    double f = 0;    // kFloat constant
  };

  template <typename T>
  static int ThreeWay(T a, T b) {
    // Identical to Value::Compare's cmp3 (NaN compares "equal" for floats).
    return a < b ? -1 : (a > b ? 1 : 0);
  }

  std::vector<RawTerm> raw_terms_;  // empty: the VM evaluates it
  /// The predicate the VM evaluates; null when absent or raw().
  const expr::CompiledExpr* vm_predicate_ = nullptr;
};

// Inline, like Eval: both run on every tuple.
inline bool Filter::RawPass(ByteSpan framed) const {
  const uint8_t* data = framed.data();
  for (const RawTerm& term : raw_terms_) {
    int cmp = 0;
    switch (term.type) {
      case gsql::DataType::kUint:
        cmp = ThreeWay(LoadLe64(data + term.offset), term.u);
        break;
      case gsql::DataType::kIp:
        cmp = ThreeWay<uint64_t>(LoadLe32(data + term.offset), term.u);
        break;
      case gsql::DataType::kBool:
        cmp = ThreeWay<uint64_t>(data[term.offset] != 0 ? 1 : 0, term.u);
        break;
      case gsql::DataType::kInt:
        cmp = ThreeWay(static_cast<int64_t>(LoadLe64(data + term.offset)),
                       term.i);
        break;
      case gsql::DataType::kFloat:
        cmp = ThreeWay(std::bit_cast<double>(LoadLe64(data + term.offset)),
                       term.f);
        break;
      case gsql::DataType::kString:
        return false;  // never built
    }
    if (!expr::CompareHolds(term.cmp, cmp)) return false;
  }
  return true;
}

inline Filter::Outcome Filter::Eval(
    expr::PackedFields at, expr::Evaluator* vm,
    const std::vector<expr::Value>* params) const {
  if (vm_predicate_ == nullptr) return Outcome::kPass;
  expr::EvalContext ctx;
  ctx.row0 = at;
  ctx.params = params;
  expr::EvalOutput result;
  if (!vm->Eval(*vm_predicate_, ctx, &result).ok()) return Outcome::kError;
  // Partial-function miss or false: the tuple is discarded (§2.2).
  return result.has_value && result.value.bool_value() ? Outcome::kPass
                                                       : Outcome::kReject;
}

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_FILTER_H_
