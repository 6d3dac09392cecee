#include "expr/fold.h"

#include "expr/codegen.h"
#include "expr/vm.h"

namespace gigascope::expr {

IrPtr FoldConstants(const IrPtr& ir) {
  if (ir == nullptr) return nullptr;
  if (ir->kind == IrKind::kConst) return ir;

  // Fold children first; a node folds only if every child became constant,
  // so fields, parameters, and calls naturally stop propagation.
  auto folded = std::make_shared<IrNode>(*ir);
  folded->children.clear();
  for (const IrPtr& child : ir->children) {
    folded->children.push_back(FoldConstants(child));
  }

  if (ir->kind == IrKind::kField || ir->kind == IrKind::kParam ||
      ir->kind == IrKind::kCall) {
    return folded;
  }

  for (const IrPtr& child : folded->children) {
    if (child->kind != IrKind::kConst) return folded;
  }

  auto compiled = Compile(folded);
  if (!compiled.ok()) return folded;
  EvalOutput out;
  Status status = Evaluator().Eval(*compiled, EvalContext{}, &out);
  // On evaluation failure (e.g. literal division by zero) keep the subtree
  // so the error surfaces per tuple at runtime.
  if (!status.ok() || !out.has_value) return folded;
  return MakeConst(std::move(out.value));
}

}  // namespace gigascope::expr
