// Property-style parameterized suites over randomized inputs: invariants
// that must hold for any seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "bpf/interpreter.h"
#include "channel_reader.h"
#include "core/engine.h"
#include "expr/vm.h"
#include "ops/aggregate.h"
#include "ops/lfta_agg.h"
#include "ops/merge.h"
#include "plan/ordering.h"
#include "rts/punctuation.h"
#include "rts/shed_state.h"
#include "rts/tuple.h"
#include "workload/traffic_gen.h"

namespace gigascope {
namespace {

using expr::CompiledExpr;
using expr::Value;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderKind;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

// ---------------------------------------------------------------------------
// Tuple codec: Decode(Encode(row)) == row for random schemas and rows.
// ---------------------------------------------------------------------------

class CodecRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecRoundTrip, RandomSchemaAndRows) {
  Rng rng(GetParam());
  // Random schema of 1..10 fields.
  size_t num_fields = 1 + rng.NextBelow(10);
  std::vector<FieldDef> fields;
  for (size_t f = 0; f < num_fields; ++f) {
    DataType type = static_cast<DataType>(rng.NextBelow(6));
    fields.push_back(
        {"f" + std::to_string(f), type, OrderSpec::None()});
  }
  StreamSchema schema("random", StreamKind::kStream, fields);
  rts::TupleCodec codec(schema);

  for (int round = 0; round < 50; ++round) {
    rts::Row row;
    for (size_t f = 0; f < num_fields; ++f) {
      switch (fields[f].type) {
        case DataType::kBool:
          row.push_back(Value::Bool(rng.NextBool(0.5)));
          break;
        case DataType::kInt:
          row.push_back(Value::Int(static_cast<int64_t>(rng.Next())));
          break;
        case DataType::kUint:
          row.push_back(Value::Uint(rng.Next()));
          break;
        case DataType::kFloat:
          row.push_back(Value::Float(rng.NextDouble() * 1e9));
          break;
        case DataType::kIp:
          row.push_back(Value::Ip(static_cast<uint32_t>(rng.Next())));
          break;
        case DataType::kString: {
          std::string s;
          size_t len = rng.NextBelow(64);
          for (size_t i = 0; i < len; ++i) {
            s += static_cast<char>(rng.NextBelow(256));
          }
          row.push_back(Value::String(std::move(s)));
          break;
        }
      }
    }
    ByteBuffer buffer;
    codec.Encode(row, &buffer);
    auto decoded = codec.Decode(ByteSpan(buffer.data(), buffer.size()));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->size(), row.size());
    for (size_t f = 0; f < row.size(); ++f) {
      EXPECT_EQ((*decoded)[f], row[f]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Merge: for ANY interleaving of sorted inputs, the output is sorted and
// preserves multiset cardinality.
// ---------------------------------------------------------------------------

class MergeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeProperty, OutputSortedAndComplete) {
  Rng rng(GetParam());
  StreamSchema schema("s", StreamKind::kStream,
                      {FieldDef{"t", DataType::kUint,
                                OrderSpec::Increasing()}});
  rts::StreamRegistry registry;
  const size_t kInputs = 2 + rng.NextBelow(3);  // 2..4 inputs
  std::vector<rts::Subscription> subs;
  for (size_t i = 0; i < kInputs; ++i) {
    StreamSchema named("in" + std::to_string(i), StreamKind::kStream,
                       schema.fields());
    ASSERT_TRUE(registry.DeclareStream(named).ok());
    auto sub = registry.Subscribe(named.name(), 4096);
    ASSERT_TRUE(sub.ok());
    subs.push_back(*sub);
  }
  ops::MergeNode::Spec spec;
  spec.name = "merged";
  spec.schema = StreamSchema("merged", StreamKind::kStream, schema.fields());
  ASSERT_TRUE(registry.DeclareStream(spec.schema).ok());
  spec.merge_field = 0;
  ops::MergeNode node(std::move(spec), subs, &registry);
  auto out = registry.Subscribe("merged", 65536);
  ASSERT_TRUE(out.ok());

  // Generate per-input sorted sequences and feed them in random
  // interleaving with interleaved polls.
  std::vector<std::vector<uint64_t>> sequences(kInputs);
  std::vector<uint64_t> cursors(kInputs, 0);
  size_t total = 0;
  for (size_t i = 0; i < kInputs; ++i) {
    uint64_t t = 0;
    size_t n = 20 + rng.NextBelow(200);
    for (size_t j = 0; j < n; ++j) {
      t += rng.NextBelow(5);  // non-strict increase
      sequences[i].push_back(t);
    }
    total += n;
  }
  rts::TupleCodec codec(schema);
  std::vector<size_t> positions(kInputs, 0);
  size_t sent = 0;
  while (sent < total) {
    size_t i = rng.NextBelow(kInputs);
    if (positions[i] >= sequences[i].size()) continue;
    registry.PublishBatch(
        "in" + std::to_string(i),
        testing_util::TupleBatch(codec,
                                 {Value::Uint(sequences[i][positions[i]++])}));
    ++sent;
    if (rng.NextBool(0.1)) node.Poll(1000);
  }
  node.Poll(100000);
  node.Flush();

  std::vector<uint64_t> merged;
  rts::StreamBatch message_batch;
  while ((*out)->TryPop(&message_batch)) {
    for (const rts::BatchItem& message : message_batch.items()) {
      if (message.kind != rts::MessageKind::kTuple) continue;
      auto row = codec.Decode(message_batch.payload(message));
      ASSERT_TRUE(row.ok());
      merged.push_back((*row)[0].uint_value());
    }
  }
  ASSERT_EQ(merged.size(), total);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  // Multiset equality with the concatenated inputs.
  std::vector<uint64_t> expected;
  for (const auto& sequence : sequences) {
    expected.insert(expected.end(), sequence.begin(), sequence.end());
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(merged, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// LFTA direct-mapped pre-aggregation + superaggregation == exact
// aggregation, for ANY table size (collisions only change *when* partials
// are emitted, never the final sums).
// ---------------------------------------------------------------------------

class SplitAggEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SplitAggEquivalence, TableSizeDoesNotChangeResults) {
  const int log2_slots = GetParam();
  core::EngineOptions options;
  options.lfta_hash_log2 = log2_slots;
  core::Engine engine(options);
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name flows; } "
      "SELECT tb, destIP, count(*), sum(len), min(len), max(len) "
      "FROM eth0.PKT GROUP BY time/2 AS tb, destIP");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_TRUE(info->split_aggregation);
  auto sub = engine.Subscribe("flows", 1 << 20);
  ASSERT_TRUE(sub.ok());

  // Deterministic synthetic traffic; compute the reference aggregation
  // directly from the packets.
  workload::TrafficConfig config;
  config.seed = 99;
  config.num_flows = 64;
  config.offered_bits_per_sec = 20e6;
  workload::TrafficGenerator gen(config);
  struct Cell {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = UINT64_MAX;
    uint64_t max = 0;
    bool operator==(const Cell&) const = default;
  };
  std::map<std::pair<uint64_t, uint32_t>, Cell> reference;
  for (int i = 0; i < 4000; ++i) {
    net::Packet packet = gen.Next();
    auto decoded = net::DecodePacket(packet.view());
    ASSERT_TRUE(decoded.ok());
    uint64_t tb =
        static_cast<uint64_t>(SimTimeToSeconds(packet.timestamp)) / 2;
    auto& cell = reference[{tb, decoded->ip->dst_addr}];
    cell.count += 1;
    cell.sum += packet.orig_len;
    cell.min = std::min<uint64_t>(cell.min, packet.orig_len);
    cell.max = std::max<uint64_t>(cell.max, packet.orig_len);
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
  }
  engine.PumpUntilIdle();
  engine.FlushAll();

  std::map<std::pair<uint64_t, uint32_t>, Cell> measured;
  while (auto row = (*sub)->NextRow()) {
    auto& cell = measured[{(*row)[0].uint_value(), (*row)[1].ip_value()}];
    cell.count += (*row)[2].uint_value();
    cell.sum += (*row)[3].uint_value();
    cell.min = std::min(cell.min, (*row)[4].uint_value());
    cell.max = std::max(cell.max, (*row)[5].uint_value());
  }
  EXPECT_EQ(measured, reference);
}

INSTANTIATE_TEST_SUITE_P(TableSizes, SplitAggEquivalence,
                         ::testing::Values(0, 2, 4, 8, 12));

// ---------------------------------------------------------------------------
// Packed group state against a reference: a std::map over Values computes
// every group's COUNT/SUM/MIN/MAX from the whole input, and the split plan
// (LFTA direct-mapped table feeding the HFTA superaggregate, shaped as the
// splitter shapes it) and the HFTA-only plan must both produce exactly its
// rows. Keys of every type (FLOAT with +-0 and NaN, STRINGs empty, short
// and long), a computed key, a partial UDF, a banded ordered key, L1
// weights above 1, a one-slot table and L3 coldest eviction are covered.
// ---------------------------------------------------------------------------

namespace packed_groups {

using expr::AggFn;
using expr::AggregateSpec;
using expr::IrPtr;

constexpr uint64_t kBand = 3;

enum Column { kT, kB, kI, kU, kF, kIp, kS };

StreamSchema InputSchema() {
  return StreamSchema(
      "gin", StreamKind::kStream,
      {FieldDef{"t", DataType::kUint, OrderSpec::Banded(kBand)},
       FieldDef{"b", DataType::kBool, OrderSpec::None()},
       FieldDef{"i", DataType::kInt, OrderSpec::None()},
       FieldDef{"u", DataType::kUint, OrderSpec::None()},
       FieldDef{"f", DataType::kFloat, OrderSpec::None()},
       FieldDef{"ip", DataType::kIp, OrderSpec::None()},
       FieldDef{"s", DataType::kString, OrderSpec::None()}});
}

IrPtr Col(Column column) {
  const FieldDef field = InputSchema().field(column);
  return expr::MakeFieldRef(0, column, field.type, field.name);
}

/// pick(u): u, or no result when u is a multiple of 3.
const expr::FunctionInfo* Pick() {
  static const expr::FunctionInfo info = [] {
    expr::FunctionInfo fn;
    fn.name = "pick";
    fn.return_type = DataType::kUint;
    fn.arg_types = {DataType::kUint};
    fn.pass_by_handle = {false};
    fn.partial = true;
    fn.lfta_safe = true;
    fn.cost = 1;
    fn.invoke = [](const std::vector<Value>& args,
                   const std::vector<std::shared_ptr<void>>&, Value* out,
                   bool* has_result) {
      *has_result = args[0].uint_value() % 3 != 0;
      if (*has_result) *out = args[0];
      return Status::Ok();
    };
    return fn;
  }();
  return &info;
}

AggregateSpec Agg(AggFn fn, IrPtr arg) {
  AggregateSpec spec;
  spec.fn = fn;
  if (fn == AggFn::kCount) {
    spec.result_type = DataType::kUint;
    return spec;
  }
  const DataType type = arg->type;
  spec.result_type = fn != AggFn::kSum           ? type
                     : type == DataType::kFloat ? DataType::kFloat
                     : type == DataType::kInt   ? DataType::kInt
                                                : DataType::kUint;
  spec.arg = std::move(arg);
  return spec;
}

/// One query shape: GROUP BY t, <keys>; the aggregates of Aggregates().
struct Query {
  std::vector<IrPtr> keys;  // keys[0] is t, the banded ordered key
  std::vector<AggregateSpec> aggs;
};

std::vector<AggregateSpec> Aggregates() {
  std::vector<AggregateSpec> aggs = {
      Agg(AggFn::kCount, nullptr), Agg(AggFn::kSum, Col(kI)),
      Agg(AggFn::kSum, Col(kU)),   Agg(AggFn::kSum, Col(kF)),
      Agg(AggFn::kSum, Col(kIp))};
  for (Column column : {kB, kI, kU, kF, kIp, kS}) {
    aggs.push_back(Agg(AggFn::kMin, Col(column)));
    aggs.push_back(Agg(AggFn::kMax, Col(column)));
  }
  return aggs;
}

std::vector<Query> Queries() {
  std::vector<Query> queries;
  for (Column column : {kB, kI, kU, kF, kIp, kS}) {
    queries.push_back({{Col(kT), Col(column)}, Aggregates()});
  }
  // A computed key (i * 2, wrapping) beside FLOAT and STRING keys, and a
  // partial UDF whose misses drop the tuple.
  Query computed{{Col(kT),
                  expr::MakeBinaryIr(gsql::BinaryOp::kMul, DataType::kInt,
                                     Col(kI),
                                     expr::MakeConst(Value::Int(2))),
                  Col(kF), Col(kS)},
                 Aggregates()};
  computed.aggs.push_back(
      Agg(AggFn::kSum, expr::MakeCallIr(Pick(), {Col(kU)})));
  queries.push_back(std::move(computed));
  return queries;
}

struct Input {
  rts::Row row;
  uint32_t weight = 1;
};

/// Seeded input: t banded-increasing within kBand, every column drawn
/// from a small pool of edge values so groups repeat.
std::vector<Input> MakeInput(uint64_t seed, size_t count) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<int64_t> ints = {0, 1, -1, 7, -7, INT64_MAX, INT64_MIN};
  const std::vector<uint64_t> uints = {0, 1, 2, 3, 4, 5, UINT64_MAX};
  const std::vector<double> floats = {0.0, -0.0, nan, -nan,
                                      1.5, -2.25, 3.0, 1024.0};
  const std::vector<uint32_t> ips = {0, 1, 0x0a000001, 0xffffffff};
  const std::vector<std::string> strings = {
      "", "a", "ab", std::string("ab\0c", 4), "\xff", "fifteen-bytes!!",
      "sixteen-bytes!!!", "a string well past the inline key capacity"};
  const std::vector<uint32_t> weights = {1, 1, 1, 2, 5};
  Rng rng(seed);
  std::vector<Input> input;
  uint64_t max_t = 10;
  for (size_t n = 0; n < count; ++n) {
    if (rng.NextBool(0.03)) max_t += 1 + rng.NextBelow(2);
    Input in;
    in.row = {Value::Uint(max_t - rng.NextBelow(kBand + 1)),
              Value::Bool(rng.NextBool(0.5)),
              Value::Int(ints[rng.NextBelow(ints.size())]),
              Value::Uint(uints[rng.NextBelow(uints.size())]),
              Value::Float(floats[rng.NextBelow(floats.size())]),
              Value::Ip(ips[rng.NextBelow(ips.size())]),
              Value::String(strings[rng.NextBelow(strings.size())])};
    in.weight = weights[rng.NextBelow(weights.size())];
    input.push_back(std::move(in));
  }
  return input;
}

/// Canonical text of a value: FLOAT as an exact hex float, any NaN alike.
std::string Show(const Value& value) {
  if (value.type() == DataType::kFloat) {
    if (std::isnan(value.float_value())) return "f:nan";
    char text[64];
    std::snprintf(text, sizeof(text), "f:%a", value.float_value());
    return text;
  }
  if (value.type() == DataType::kString) {
    std::string text = "s:";
    for (unsigned char c : value.string_value()) {
      text += std::to_string(c) + ".";
    }
    return text;
  }
  return std::to_string(static_cast<int>(value.type())) + ":" +
         value.ToString();
}

std::string ShowRow(const rts::Row& row) {
  std::string text;
  for (const Value& value : row) text += Show(value) + " | ";
  return text;
}

// -- The reference: one pass over the whole input, per group a Value row.

Value CanonicalFloat(double d) {
  if (std::isnan(d)) {
    return Value::Float(std::numeric_limits<double>::quiet_NaN());
  }
  return Value::Float(d == 0 ? 0.0 : d);
}

/// Value::Compare, with NaN after every number.
int Order(const Value& a, const Value& b) {
  if (a.type() == DataType::kFloat &&
      (std::isnan(a.float_value()) || std::isnan(b.float_value()))) {
    return static_cast<int>(std::isnan(a.float_value())) -
           static_cast<int>(std::isnan(b.float_value()));
  }
  return a.Compare(b);
}

Value Evaluate(const IrPtr& ir, const rts::Row& row, bool* has_value) {
  auto compiled = expr::Compile(ir);
  EXPECT_TRUE(compiled.ok());
  std::vector<uint8_t> packed;
  std::vector<const uint8_t*> at;
  expr::PackValues(row, &packed, &at);
  expr::EvalContext ctx;
  ctx.row0 = at;
  expr::EvalOutput out;
  EXPECT_TRUE(expr::Evaluator().Eval(*compiled, ctx, &out).ok());
  *has_value = out.has_value;
  return out.value;
}

std::vector<std::string> Reference(const Query& query,
                                   const std::vector<Input>& input) {
  std::map<std::string, rts::Row> groups;  // key text -> keys ++ aggregates
  for (const Input& in : input) {
    rts::Row keys;
    bool has_value = true;
    for (const IrPtr& key : query.keys) {
      Value v = Evaluate(key, in.row, &has_value);
      keys.push_back(v.type() == DataType::kFloat
                         ? CanonicalFloat(v.float_value())
                         : v);
    }
    std::vector<Value> args;
    for (const AggregateSpec& agg : query.aggs) {
      args.push_back(agg.arg != nullptr
                         ? Evaluate(agg.arg, in.row, &has_value)
                         : Value());
      if (!has_value) break;
    }
    if (!has_value) continue;  // a partial miss drops the tuple
    const uint64_t w = in.weight;
    auto [it, fresh] = groups.emplace(ShowRow(keys), keys);
    rts::Row& group = it->second;
    for (size_t a = 0; a < query.aggs.size(); ++a) {
      const AggregateSpec& agg = query.aggs[a];
      Value v = args[a];
      if (v.type() == DataType::kFloat && agg.fn != AggFn::kSum) {
        v = CanonicalFloat(v.float_value());
      }
      if (fresh) {
        switch (agg.fn) {
          case AggFn::kCount: group.push_back(Value::Uint(0)); break;
          case AggFn::kSum:
            group.push_back(Value::Default(agg.result_type));
            break;
          default: group.push_back(v); break;
        }
      }
      Value& cell = group[keys.size() + a];
      switch (agg.fn) {
        case AggFn::kCount:
          cell = Value::Uint(cell.uint_value() + w);
          break;
        case AggFn::kSum:
          if (v.type() == DataType::kFloat) {
            cell = Value::Float(cell.float_value() +
                                v.float_value() * static_cast<double>(w));
          } else if (v.type() == DataType::kInt) {
            cell = Value::Int(static_cast<int64_t>(
                static_cast<uint64_t>(cell.int_value()) +
                static_cast<uint64_t>(v.int_value()) * w));
          } else {
            cell = Value::Uint(cell.uint_value() + v.uint_value() * w);
          }
          break;
        case AggFn::kMin:
          if (Order(v, cell) < 0) cell = v;
          break;
        case AggFn::kMax:
          if (Order(v, cell) > 0) cell = v;
          break;
        case AggFn::kAvg:
          break;
      }
    }
  }
  std::vector<std::string> rows;
  for (const auto& [key, row] : groups) rows.push_back(ShowRow(row));
  std::sort(rows.begin(), rows.end());
  return rows;
}

// -- The engine's operators, wired as the planner and splitter wire them.

CompiledExpr MustCompile(const IrPtr& ir) {
  auto compiled = expr::Compile(ir);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

ops::OrderedAggregateNode::Spec MakeSpec(
    const std::string& name, const StreamSchema& input,
    const std::vector<IrPtr>& keys, const std::vector<AggregateSpec>& aggs) {
  ops::OrderedAggregateNode::Spec spec;
  spec.name = name;
  spec.input_schema = input;
  std::vector<FieldDef> fields;
  for (size_t k = 0; k < keys.size(); ++k) {
    fields.push_back({"k" + std::to_string(k), keys[k]->type,
                      k == 0 ? OrderSpec::Banded(kBand) : OrderSpec::None()});
    spec.keys.push_back(MustCompile(keys[k]));
    spec.key_punctuation_source.push_back(k == 0 ? 0 : -1);
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    fields.push_back({"a" + std::to_string(a), aggs[a].result_type,
                      OrderSpec::None()});
    spec.agg_specs.push_back(aggs[a]);
    if (aggs[a].arg == nullptr) {
      spec.agg_args.emplace_back();
    } else {
      spec.agg_args.emplace_back(MustCompile(aggs[a].arg));
    }
  }
  spec.output_schema = StreamSchema(name, StreamKind::kStream, fields);
  spec.ordered_key = 0;
  spec.ordered_key_band = kBand;
  spec.output_batch = 8;
  return spec;
}

/// The superaggregate over an LFTA's partials, as plan::SplitPlan builds it.
ops::OrderedAggregateNode::Spec SuperSpec(
    const std::string& name, const ops::OrderedAggregateNode::Spec& lfta) {
  const StreamSchema& partials = lfta.output_schema;
  std::vector<IrPtr> keys;
  for (size_t k = 0; k < lfta.keys.size(); ++k) {
    const FieldDef& field = partials.field(k);
    keys.push_back(expr::MakeFieldRef(0, k, field.type, field.name));
  }
  std::vector<AggregateSpec> aggs;
  for (size_t a = 0; a < lfta.agg_specs.size(); ++a) {
    const FieldDef& field = partials.field(lfta.keys.size() + a);
    AggregateSpec super;
    super.fn = lfta.agg_specs[a].fn == AggFn::kCount ? AggFn::kSum
                                                     : lfta.agg_specs[a].fn;
    super.arg = expr::MakeFieldRef(0, lfta.keys.size() + a, field.type,
                                   field.name);
    super.result_type = lfta.agg_specs[a].result_type;
    aggs.push_back(std::move(super));
  }
  return MakeSpec(name, partials, keys, aggs);
}

struct Plan {
  bool split = false;
  int log2_slots = 12;
  uint32_t table_cap_pct = 100;  // < 100: L3 coldest eviction
};

std::vector<std::string> RunPlan(const Plan& plan, const Query& query,
                             const std::vector<Input>& input, uint64_t seed) {
  rts::StreamRegistry registry;
  EXPECT_TRUE(registry.DeclareStream(InputSchema()).ok());
  auto params = std::make_shared<std::vector<Value>>();
  rts::ShedState shed;
  shed.table_cap_pct.store(plan.table_cap_pct);
  std::vector<std::unique_ptr<rts::QueryNode>> nodes;  // upstream first
  ops::LftaAggregateNode* lfta = nullptr;  // fed from `source`
  auto source = registry.Subscribe("gin", 1 << 14);
  EXPECT_TRUE(source.ok());
  auto spec = MakeSpec(plan.split ? "partials" : "groups", InputSchema(),
                       query.keys, query.aggs);
  EXPECT_TRUE(registry.DeclareStream(spec.output_schema).ok());
  if (plan.split) {
    auto super = SuperSpec("groups", spec);
    EXPECT_TRUE(registry.DeclareStream(super.output_schema).ok());
    auto partials = registry.Subscribe("partials", 1 << 14);
    EXPECT_TRUE(partials.ok());
    auto fed = std::make_unique<ops::LftaAggregateNode>(
        std::move(spec), plan.log2_slots, &registry, params, &shed);
    lfta = fed.get();
    nodes.push_back(std::move(fed));
    nodes.push_back(std::make_unique<ops::OrderedAggregateNode>(
        std::move(super), *partials, &registry, params));
  } else {
    nodes.push_back(std::make_unique<ops::OrderedAggregateNode>(
        std::move(spec), *source, &registry, params));
  }
  auto out = registry.Subscribe("groups", 1 << 14);
  EXPECT_TRUE(out.ok());
  const StreamSchema out_schema = registry.GetSchema("groups").value();

  std::vector<std::string> rows;
  rts::TupleCodec out_codec(out_schema);
  auto drain = [&] {
    if (lfta != nullptr) testing_util::FeedAll(source->get(), lfta);
    for (auto& node : nodes) node->Poll(1 << 20);
    rts::StreamBatch batch;
    while ((*out)->TryPop(&batch)) {
      for (const rts::BatchItem& item : batch.items()) {
        if (item.kind != rts::MessageKind::kTuple) continue;
        auto row = out_codec.Decode(batch.payload(item));
        EXPECT_TRUE(row.ok());
        rows.push_back(ShowRow(*row));
      }
    }
  };

  // Small batches of weighted tuples, with a punctuation now and then at
  // the band's guarantee (no later t falls below max - band).
  rts::TupleCodec codec(InputSchema());
  Rng rng(seed * 7 + 1);
  uint64_t max_t = 0;
  for (size_t n = 0; n < input.size();) {
    rts::StreamBatch batch;
    for (size_t end = std::min(input.size(), n + 1 + rng.NextBelow(16));
         n < end; ++n) {
      rts::MessageMeta meta;
      meta.weight = input[n].weight;
      batch.AppendTuple(codec, input[n].row, meta);
      max_t = std::max(max_t, input[n].row[kT].uint_value());
    }
    if (rng.NextBool(0.1) && max_t >= kBand) {
      uint8_t packed[8];
      StoreLe64(packed, max_t - kBand);
      const rts::Bound bound[] = {{kT, packed}};
      rts::AppendPunctuation(bound, InputSchema(), {}, &batch);
    }
    registry.PublishBatch("gin", std::move(batch));
    drain();
  }
  for (auto& node : nodes) {
    node->Flush();
    drain();
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace packed_groups

class PackedGroupDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PackedGroupDifferential, SplitAndHftaOnlyEqualTheReference) {
  using namespace packed_groups;
  const std::vector<Input> input = MakeInput(GetParam(), 3000);
  const std::vector<Plan> plans = {
      {false, 12, 100},  // HFTA only
      {true, 12, 100},   // split, roomy table
      {true, 0, 100},    // split, one slot: every new key collides
      {true, 3, 50},     // split, L3 evicts the coldest beyond 4 groups
  };
  for (const Query& query : Queries()) {
    const std::vector<std::string> expected = Reference(query, input);
    ASSERT_FALSE(expected.empty());
    for (const Plan& plan : plans) {
      EXPECT_EQ(RunPlan(plan, query, input, GetParam()), expected)
          << "split=" << plan.split << " log2_slots=" << plan.log2_slots
          << " cap=" << plan.table_cap_pct << " keys=" << query.keys.size()
          << " key1=" << query.keys[1]->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedGroupDifferential,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Many queries over one interface: each subscriber sees exactly what its
// own query selects, regardless of the others (the stream manager's
// fan-out isolation).
// ---------------------------------------------------------------------------

class FanoutProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FanoutProperty, TenQueriesAgreeWithTheirOwnPredicates) {
  core::Engine engine;
  engine.AddInterface("eth0");
  struct Query {
    uint16_t port_floor;
    std::unique_ptr<core::TupleSubscription> sub;
    uint64_t expected = 0;
  };
  std::vector<Query> queries;
  for (int i = 0; i < 10; ++i) {
    uint16_t floor = static_cast<uint16_t>(6000 * i);
    char text[256];
    std::snprintf(text, sizeof(text),
                  "DEFINE { query_name q%d; } "
                  "SELECT time, destPort FROM eth0.PKT "
                  "WHERE destPort >= %u",
                  i, static_cast<unsigned>(floor));
    auto info = engine.AddQuery(text);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    auto sub = engine.Subscribe(info->name, 1 << 18);
    ASSERT_TRUE(sub.ok());
    queries.push_back({floor, std::move(sub).value(), 0});
  }

  workload::TrafficConfig config;
  config.seed = GetParam();
  config.num_flows = 300;
  config.offered_bits_per_sec = 20e6;
  workload::TrafficGenerator gen(config);
  for (int i = 0; i < 3000; ++i) {
    net::Packet packet = gen.Next();
    auto decoded = net::DecodePacket(packet.view());
    ASSERT_TRUE(decoded.ok());
    uint16_t port = decoded->is_tcp()   ? decoded->tcp->dst_port
                    : decoded->is_udp() ? decoded->udp->dst_port
                                        : 0;
    for (Query& query : queries) {
      if (port >= query.port_floor) ++query.expected;
    }
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
    if (i % 512 == 511) engine.PumpUntilIdle();
  }
  engine.PumpUntilIdle();
  for (Query& query : queries) {
    uint64_t received = 0;
    while (query.sub->NextRow()) ++received;
    EXPECT_EQ(received, query.expected)
        << "query with floor " << query.port_floor;
    EXPECT_EQ(query.sub->dropped(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FanoutProperty, ::testing::Values(41, 43));

// ---------------------------------------------------------------------------
// NIC pushdown: the generated BPF program accepts a superset of what the
// LFTA predicate accepts, on arbitrary generated traffic.
// ---------------------------------------------------------------------------

class NicSupersetProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NicSupersetProperty, BpfNeverDropsAMatchingPacket) {
  core::Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name f; } "
      "SELECT time FROM eth0.PKT "
      "WHERE ipVersion = 4 AND protocol = 6 AND destPort = 80 AND len > 80");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_TRUE(info->has_nic_program);
  auto sub = engine.Subscribe("f", 1 << 20);
  ASSERT_TRUE(sub.ok());

  workload::TrafficConfig config;
  config.seed = GetParam();
  config.num_flows = 200;
  config.port80_fraction = 0.3;
  config.offered_bits_per_sec = 20e6;
  workload::TrafficGenerator gen(config);
  for (int i = 0; i < 2000; ++i) {
    net::Packet packet = gen.Next();
    bool lfta_would_match = false;
    auto decoded = net::DecodePacket(packet.view());
    if (decoded.ok() && decoded->is_tcp() &&
        decoded->tcp->dst_port == 80 && packet.orig_len > 80) {
      lfta_would_match = true;
    }
    bool bpf_accepts = bpf::Matches(info->nic_program, packet.view());
    if (lfta_would_match) {
      EXPECT_TRUE(bpf_accepts) << "BPF dropped a matching packet " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NicSupersetProperty,
                         ::testing::Values(3, 7, 31, 127));

// ---------------------------------------------------------------------------
// Ordering lattice laws.
// ---------------------------------------------------------------------------

std::vector<OrderSpec> AllSpecs() {
  return {
      OrderSpec::None(),
      OrderSpec::Strict(),
      OrderSpec::Increasing(),
      OrderSpec::Banded(1),
      OrderSpec::Banded(30),
      OrderSpec{OrderKind::kNonRepeating, 0, {}},
      OrderSpec{OrderKind::kDecreasing, 0, {}},
      OrderSpec{OrderKind::kStrictlyDecreasing, 0, {}},
  };
}

TEST(OrderingLattice, ImpliesIsReflexive) {
  for (const OrderSpec& spec : AllSpecs()) {
    EXPECT_TRUE(plan::OrderImplies(spec, spec)) << spec.ToString();
  }
}

TEST(OrderingLattice, ImpliesIsTransitive) {
  auto specs = AllSpecs();
  for (const auto& a : specs) {
    for (const auto& b : specs) {
      for (const auto& c : specs) {
        if (plan::OrderImplies(a, b) && plan::OrderImplies(b, c)) {
          EXPECT_TRUE(plan::OrderImplies(a, c))
              << a.ToString() << " => " << b.ToString() << " => "
              << c.ToString();
        }
      }
    }
  }
}

TEST(OrderingLattice, WeakestCommonIsImpliedByBoth) {
  auto specs = AllSpecs();
  for (const auto& a : specs) {
    for (const auto& b : specs) {
      OrderSpec common = plan::WeakestCommonOrder(a, b);
      if (common.kind == OrderKind::kNone) continue;
      // Strictness may be lost, so check via the weakened forms: every
      // stream ordered by `a` is also ordered by `common`.
      EXPECT_TRUE(plan::OrderImplies(a, common))
          << a.ToString() << " vs " << b.ToString() << " -> "
          << common.ToString();
      EXPECT_TRUE(plan::OrderImplies(b, common));
    }
  }
}

TEST(OrderingLattice, WeakestCommonIsCommutative) {
  auto specs = AllSpecs();
  for (const auto& a : specs) {
    for (const auto& b : specs) {
      EXPECT_EQ(plan::WeakestCommonOrder(a, b),
                plan::WeakestCommonOrder(b, a));
    }
  }
}

}  // namespace
}  // namespace gigascope
