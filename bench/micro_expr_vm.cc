// Microbenchmark: expression evaluation — the per-tuple cost at the heart
// of every LFTA/HFTA — through the bytecode VM. Each case runs one
// persistent expr::Evaluator, as every operator does, so the value stack is
// allocated once rather than per evaluation, and loads its fields from a
// packed tuple located once, as operators hand it to the VM.

#include <benchmark/benchmark.h>

#include "expr/codegen.h"
#include "expr/vm.h"

namespace {

using gigascope::expr::CompiledExpr;
using gigascope::expr::EvalContext;
using gigascope::expr::EvalOutput;
using gigascope::expr::Evaluator;
using gigascope::expr::IrPtr;
using gigascope::expr::Value;
using gigascope::gsql::BinaryOp;
using gigascope::gsql::DataType;

/// `values` packed back to back, with each field located.
struct Packed {
  explicit Packed(const std::vector<Value>& values) {
    gigascope::expr::PackValues(values, &bytes, &at);
  }
  std::vector<uint8_t> bytes;
  std::vector<const uint8_t*> at;
};

IrPtr Field(size_t index, DataType type) {
  return gigascope::expr::MakeFieldRef(0, index, type, "f");
}

IrPtr ConstU(uint64_t v) {
  return gigascope::expr::MakeConst(Value::Uint(v));
}

IrPtr Bin(BinaryOp op, DataType type, IrPtr l, IrPtr r) {
  return gigascope::expr::MakeBinaryIr(op, type, std::move(l), std::move(r));
}

// The paper's canonical LFTA predicate: ipVersion = 4 AND protocol = 6
// AND destPort = 80 over a packed tuple.
void BM_LftaPredicate(benchmark::State& state) {
  auto ir = Bin(
      BinaryOp::kAnd, DataType::kBool,
      Bin(BinaryOp::kAnd, DataType::kBool,
          Bin(BinaryOp::kEq, DataType::kBool, Field(0, DataType::kUint),
              ConstU(4)),
          Bin(BinaryOp::kEq, DataType::kBool, Field(1, DataType::kUint),
              ConstU(6))),
      Bin(BinaryOp::kEq, DataType::kBool, Field(2, DataType::kUint),
          ConstU(80)));
  CompiledExpr predicate = *gigascope::expr::Compile(ir);
  const Packed row({Value::Uint(4), Value::Uint(6), Value::Uint(80)});
  EvalContext ctx;
  ctx.row0 = row.at;
  EvalOutput out;
  Evaluator evaluator;
  for (auto _ : state) {
    evaluator.Eval(predicate, ctx, &out).ok();
    benchmark::DoNotOptimize(out.value.bool_value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LftaPredicate);

void BM_BucketExpression(benchmark::State& state) {
  // time/60: the group-key expression of the paper's examples.
  auto ir = Bin(BinaryOp::kDiv, DataType::kUint, Field(0, DataType::kUint),
                ConstU(60));
  CompiledExpr compiled = *gigascope::expr::Compile(ir);
  const Packed row({Value::Uint(123456)});
  EvalContext ctx;
  ctx.row0 = row.at;
  EvalOutput out;
  Evaluator evaluator;
  for (auto _ : state) {
    evaluator.Eval(compiled, ctx, &out).ok();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketExpression);

void BM_DeepArithmetic(benchmark::State& state) {
  // ((((f0+1)*3)-2)/2) % 97 — a deeper tree to expose dispatch overhead.
  auto ir = Bin(
      BinaryOp::kMod, DataType::kUint,
      Bin(BinaryOp::kDiv, DataType::kUint,
          Bin(BinaryOp::kSub, DataType::kUint,
              Bin(BinaryOp::kMul, DataType::kUint,
                  Bin(BinaryOp::kAdd, DataType::kUint,
                      Field(0, DataType::kUint), ConstU(1)),
                  ConstU(3)),
              ConstU(2)),
          ConstU(2)),
      ConstU(97));
  CompiledExpr compiled = *gigascope::expr::Compile(ir);
  const Packed row({Value::Uint(9999)});
  EvalContext ctx;
  ctx.row0 = row.at;
  EvalOutput out;
  Evaluator evaluator;
  for (auto _ : state) {
    evaluator.Eval(compiled, ctx, &out).ok();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeepArithmetic);

// The aggregate update loop: per tuple, the ordered/LFTA aggregates
// evaluate every group-key expression and every aggregate argument. This
// models `GROUP BY time/60 ... sum(len*8+14)` — one key + one arg per row.
void BM_AggUpdate(benchmark::State& state) {
  CompiledExpr key = *gigascope::expr::Compile(
      Bin(BinaryOp::kDiv, DataType::kUint, Field(0, DataType::kUint),
          ConstU(60)));
  CompiledExpr arg = *gigascope::expr::Compile(
      Bin(BinaryOp::kAdd, DataType::kUint,
          Bin(BinaryOp::kMul, DataType::kUint, Field(1, DataType::kUint),
              ConstU(8)),
          ConstU(14)));
  const Packed row({Value::Uint(123456), Value::Uint(1500)});
  EvalContext ctx;
  ctx.row0 = row.at;
  EvalOutput out;
  Evaluator evaluator;
  for (auto _ : state) {
    evaluator.Eval(key, ctx, &out).ok();
    benchmark::DoNotOptimize(out);
    evaluator.Eval(arg, ctx, &out).ok();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AggUpdate);

}  // namespace
