// E9 — §2.1/§2.2: the join window bounds the join's state. Sweep the band
// width B of the window constraint and report the join's buffered-tuple
// high-water mark; also sweep the input band (almost-sorted input) to show
// the extra slack it demands.

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "expr/codegen.h"
#include "ops/join.h"

namespace {

using gigascope::Rng;
using gigascope::expr::Value;
using gigascope::gsql::DataType;
using gigascope::gsql::FieldDef;
using gigascope::gsql::OrderSpec;
using gigascope::gsql::StreamKind;
using gigascope::gsql::StreamSchema;
using gigascope::ops::WindowJoinNode;

StreamSchema SideSchema(const std::string& name, uint64_t band) {
  std::vector<FieldDef> fields;
  fields.push_back({"ts", DataType::kUint,
                    band > 0 ? OrderSpec::Banded(band)
                             : OrderSpec::Increasing()});
  return StreamSchema(name, StreamKind::kStream, fields);
}

struct JoinRun {
  uint64_t matches;
  uint64_t high_water;
};

JoinRun Run(int64_t window, uint64_t input_band, uint64_t tuples,
            bool order_preserving = false) {
  gigascope::rts::StreamRegistry registry;
  registry.DeclareStream(SideSchema("l", input_band)).ok();
  registry.DeclareStream(SideSchema("r", input_band)).ok();

  WindowJoinNode::Spec spec;
  spec.name = "j";
  spec.left_schema = SideSchema("l", input_band);
  spec.right_schema = SideSchema("r", input_band);
  std::vector<FieldDef> out_fields;
  out_fields.push_back({"ts", DataType::kUint, OrderSpec::Increasing()});
  out_fields.push_back({"r_ts", DataType::kUint, OrderSpec::None()});
  spec.output_schema = StreamSchema("j", StreamKind::kStream, out_fields);
  registry.DeclareStream(spec.output_schema).ok();
  spec.left_field = 0;
  spec.right_field = 0;
  spec.lo = -window;
  spec.hi = window;
  spec.left_band = input_band;
  spec.right_band = input_band;
  spec.order_preserving = order_preserving;

  auto left = registry.Subscribe("l", 1 << 16);
  auto right = registry.Subscribe("r", 1 << 16);
  auto params = std::make_shared<std::vector<Value>>();
  WindowJoinNode node(std::move(spec), *left, *right, &registry, params);

  // Both sides share one clock (a duplex link's two directions observe the
  // same time), so buffered state reflects the window, not stream drift.
  Rng rng(9);
  gigascope::rts::TupleCodec codec(SideSchema("l", input_band));
  uint64_t base = 0;
  for (uint64_t i = 0; i < tuples; ++i) {
    base += 4 + rng.NextBelow(8);
    uint64_t tl = base;
    uint64_t tr = base + rng.NextBelow(4);
    uint64_t jitter_l =
        input_band > 0 ? rng.NextBelow(input_band + 1) : 0;
    uint64_t jitter_r =
        input_band > 0 ? rng.NextBelow(input_band + 1) : 0;
    gigascope::rts::StreamBatch left;
    left.AppendTuple(codec, {Value::Uint(tl >= jitter_l ? tl - jitter_l : 0)});
    registry.PublishBatch("l", std::move(left));
    gigascope::rts::StreamBatch right;
    right.AppendTuple(codec,
                      {Value::Uint(tr >= jitter_r ? tr - jitter_r : 0)});
    registry.PublishBatch("r", std::move(right));
    if (i % 32 == 31) node.Poll(1 << 20);
  }
  node.Poll(1 << 20);
  JoinRun result;
  result.matches = node.tuples_out();
  result.high_water = node.buffer_high_water();
  return result;
}

}  // namespace

int main() {
  const uint64_t kTuples = 20000;
  std::printf(
      "E9: window join state vs window width (|l.ts - r.ts| <= B),\n"
      "    %llu tuples per side, mean inter-arrival 8 ticks\n\n",
      static_cast<unsigned long long>(kTuples));
  std::printf("%-14s %-12s %14s %16s\n", "window B", "input band",
              "matches", "peak buffered");
  for (uint64_t input_band : {uint64_t{0}, uint64_t{16}}) {
    for (int64_t window : {0, 1, 4, 16, 64, 256}) {
      JoinRun run = Run(window, input_band, kTuples);
      std::printf("%-14lld %-12llu %14llu %16llu\n",
                  static_cast<long long>(window),
                  static_cast<unsigned long long>(input_band),
                  static_cast<unsigned long long>(run.matches),
                  static_cast<unsigned long long>(run.high_water));
    }
  }

  // §2.1's algorithm choice: "monotonically increasing requires more
  // buffer space" — the order-preserving join buffers completed matches
  // until the output bound passes them.
  std::printf("\njoin algorithm ablation (window B, monotone inputs):\n");
  std::printf("%-14s %22s %22s\n", "window B", "eager peak buffered",
              "order-preserving peak");
  for (int64_t window : {1, 16, 64, 256}) {
    JoinRun eager = Run(window, 0, kTuples, false);
    JoinRun preserving = Run(window, 0, kTuples, true);
    std::printf("%-14lld %22llu %22llu\n", static_cast<long long>(window),
                static_cast<unsigned long long>(eager.high_water),
                static_cast<unsigned long long>(preserving.high_water));
  }
  std::printf(
      "\nexpected shape: buffered state grows linearly with the window\n"
      "width and gains a constant slack for banded (almost-sorted) "
      "inputs\n— the ordering property is exactly what bounds the join's "
      "state.\n");
  return 0;
}
