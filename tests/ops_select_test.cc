#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "channel_reader.h"
#include "expr/codegen.h"
#include "ops/select_project.h"
#include "rts/punctuation.h"

namespace gigascope::ops {
namespace {

using expr::CompiledExpr;
using expr::Value;
using gsql::BinaryOp;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

StreamSchema InputSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"t", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"v", DataType::kUint, OrderSpec::None()});
  return StreamSchema("in", StreamKind::kStream, fields);
}

StreamSchema OutputSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"tb", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"v2", DataType::kUint, OrderSpec::None()});
  return StreamSchema("out", StreamKind::kStream, fields);
}

CompiledExpr MustCompile(const expr::IrPtr& ir) {
  auto compiled = expr::Compile(ir);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

class SelectProjectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.DeclareStream(InputSchema()).ok());
    ASSERT_TRUE(registry_.DeclareStream(OutputSchema()).ok());

    SelectProjectNode::Spec spec;
    spec.name = "out";
    spec.input_schema = InputSchema();
    spec.output_schema = OutputSchema();
    // WHERE v > 10
    spec.predicate = MustCompile(expr::MakeBinaryIr(
        BinaryOp::kGt, DataType::kBool,
        expr::MakeFieldRef(0, 1, DataType::kUint, "v"),
        expr::MakeConst(Value::Uint(10))));
    // SELECT t/60 AS tb, v*2 AS v2
    spec.projections.push_back(MustCompile(expr::MakeBinaryIr(
        BinaryOp::kDiv, DataType::kUint,
        expr::MakeFieldRef(0, 0, DataType::kUint, "t"),
        expr::MakeConst(Value::Uint(60)))));
    spec.projections.push_back(MustCompile(expr::MakeBinaryIr(
        BinaryOp::kMul, DataType::kUint,
        expr::MakeFieldRef(0, 1, DataType::kUint, "v"),
        expr::MakeConst(Value::Uint(2)))));
    spec.punctuation_source = {0, -1};  // tb maps from field t

    auto input = registry_.Subscribe("in", 64);
    ASSERT_TRUE(input.ok());
    params_ = std::make_shared<std::vector<Value>>();
    node_ = std::make_unique<SelectProjectNode>(std::move(spec), *input,
                                                &registry_, params_);
    auto output = registry_.Subscribe("out", 64);
    ASSERT_TRUE(output.ok());
    output_ = *output;
    reader_ = std::make_unique<testing_util::ChannelReader>(output_.get());
    codec_ = std::make_unique<rts::TupleCodec>(OutputSchema());
  }

  void Send(uint64_t t, uint64_t v) {
    rts::TupleCodec codec(InputSchema());
    registry_.PublishBatch(
        "in",
        testing_util::TupleBatch(codec, {Value::Uint(t), Value::Uint(v)}));
  }

  std::optional<rts::Row> Receive() {
    rts::BatchItem item;
    ByteSpan payload;
    while (reader_->Next(&item, &payload)) {
      if (item.kind != rts::MessageKind::kTuple) continue;
      auto row = codec_->Decode(payload);
      if (row.ok()) return std::move(row).value();
    }
    return std::nullopt;
  }

  std::optional<ByteBuffer> ReceivePunctuation() {
    rts::BatchItem item;
    ByteSpan payload;
    while (reader_->Next(&item, &payload)) {
      if (item.kind != rts::MessageKind::kPunctuation) continue;
      return ByteBuffer(payload.begin(), payload.end());
    }
    return std::nullopt;
  }

  rts::StreamRegistry registry_;
  rts::ParamBlock params_;
  std::unique_ptr<SelectProjectNode> node_;
  rts::Subscription output_;
  std::unique_ptr<testing_util::ChannelReader> reader_;
  std::unique_ptr<rts::TupleCodec> codec_;
};

TEST_F(SelectProjectTest, FiltersAndProjects) {
  Send(120, 50);
  Send(130, 5);  // filtered out: v <= 10
  Send(240, 11);
  EXPECT_EQ(node_->Poll(100), 3u);

  auto row1 = Receive();
  ASSERT_TRUE(row1.has_value());
  EXPECT_EQ((*row1)[0].uint_value(), 2u);    // 120/60
  EXPECT_EQ((*row1)[1].uint_value(), 100u);  // 50*2
  auto row2 = Receive();
  ASSERT_TRUE(row2.has_value());
  EXPECT_EQ((*row2)[0].uint_value(), 4u);
  EXPECT_FALSE(Receive().has_value());
  EXPECT_EQ(node_->tuples_in(), 3u);
  EXPECT_EQ(node_->tuples_out(), 2u);
}

TEST_F(SelectProjectTest, PollRespectsBudget) {
  for (int i = 0; i < 10; ++i) Send(100, 100);
  EXPECT_EQ(node_->Poll(4), 4u);
  EXPECT_EQ(node_->Poll(100), 6u);
  EXPECT_EQ(node_->Poll(100), 0u);
}

TEST_F(SelectProjectTest, PunctuationMapsThroughProjection) {
  registry_.PublishBatch("in", testing_util::PunctuationBatch(
                                   InputSchema(), 0, Value::Uint(600)));
  node_->Poll(10);
  auto out = ReceivePunctuation();
  ASSERT_TRUE(out.has_value());
  const ByteSpan payload(out->data(), out->size());
  // Bound on t=600 becomes bound tb = 600/60 = 10 on output field 0.
  const uint8_t* bound = rts::FindBound(payload, OutputSchema(), 0);
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(LoadLe64(bound), 10u);
  EXPECT_EQ(rts::FindBound(payload, OutputSchema(), 1), nullptr);
}

TEST_F(SelectProjectTest, MalformedTupleCountsEvalError) {
  // not a valid encoding
  registry_.PublishBatch("in", testing_util::RawBatch({1, 2, 3}));
  node_->Poll(10);
  EXPECT_EQ(node_->eval_errors(), 1u);
  EXPECT_EQ(node_->tuples_out(), 0u);
}

TEST_F(SelectProjectTest, MalformedTuplesCountOneEvalErrorRawFilterOnOrOff) {
  // The fixture's `v > 10` runs as a raw-byte filter; `v * 1 > 10` does not
  // match the raw term shape and goes through the VM.
  ASSERT_TRUE(node_->has_raw_filter());
  SelectProjectNode::Spec spec;
  spec.name = "vm";
  spec.input_schema = InputSchema();
  std::vector<FieldDef> out_fields;
  out_fields.push_back({"v", DataType::kUint, OrderSpec::None()});
  spec.output_schema = StreamSchema("vm", StreamKind::kStream, out_fields);
  spec.predicate = MustCompile(expr::MakeBinaryIr(
      BinaryOp::kGt, DataType::kBool,
      expr::MakeBinaryIr(BinaryOp::kMul, DataType::kUint,
                         expr::MakeFieldRef(0, 1, DataType::kUint, "v"),
                         expr::MakeConst(Value::Uint(1))),
      expr::MakeConst(Value::Uint(10))));
  spec.projections.push_back(
      MustCompile(expr::MakeFieldRef(0, 1, DataType::kUint, "v")));
  spec.punctuation_source = {-1};
  ASSERT_TRUE(registry_.DeclareStream(spec.output_schema).ok());
  auto input = registry_.Subscribe("in", 64);
  ASSERT_TRUE(input.ok());
  SelectProjectNode vm_node(std::move(spec), *input, &registry_, params_);
  ASSERT_FALSE(vm_node.has_raw_filter());

  rts::TupleCodec codec(InputSchema());
  ByteBuffer passing;  // v = 50 passes the predicate
  codec.Encode({Value::Uint(1), Value::Uint(50)}, &passing);
  ByteBuffer failing;  // v = 5 fails it
  codec.Encode({Value::Uint(1), Value::Uint(5)}, &failing);
  std::vector<ByteBuffer> malformed;
  malformed.push_back(ByteBuffer(passing.begin(), passing.end() - 1));
  malformed.push_back(ByteBuffer(failing.begin(), failing.end() - 1));
  malformed.push_back(passing);
  malformed.back().push_back(0);  // trailing byte
  malformed.push_back(failing);
  malformed.back().push_back(0);
  malformed.push_back(ByteBuffer{});
  for (const ByteBuffer& bytes : malformed) {
    registry_.PublishBatch("in", testing_util::RawBatch(bytes));
  }
  node_->Poll(100);
  vm_node.Poll(100);
  EXPECT_EQ(node_->eval_errors(), malformed.size());
  EXPECT_EQ(vm_node.eval_errors(), malformed.size());
  EXPECT_EQ(node_->tuples_in(), malformed.size());
  EXPECT_EQ(node_->tuples_out(), 0u);
  EXPECT_EQ(vm_node.tuples_out(), 0u);
  EXPECT_FALSE(Receive().has_value());
}

// Bare-column projections copy packed bytes: fields reordered, repeated
// and located behind strings, under a predicate only the VM can run, and
// the identity projection that forwards the whole tuple with its weight.
TEST(SelectProjectCopyTest, ColumnProjectionsCopyPackedFields) {
  std::vector<FieldDef> in_fields;
  in_fields.push_back({"t", DataType::kUint, OrderSpec::Increasing()});
  in_fields.push_back({"a", DataType::kString, OrderSpec::None()});
  in_fields.push_back({"v", DataType::kUint, OrderSpec::None()});
  in_fields.push_back({"b", DataType::kString, OrderSpec::None()});
  in_fields.push_back({"ip", DataType::kIp, OrderSpec::None()});
  const StreamSchema in("cin", StreamKind::kStream, in_fields);
  rts::StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(in).ok());
  auto params = std::make_shared<std::vector<Value>>();

  // SELECT b, t, a, b, ip WHERE v * 1 > 10
  const std::vector<uint32_t> picked = {3, 0, 1, 3, 4};
  SelectProjectNode::Spec reorder;
  reorder.name = "reorder";
  reorder.input_schema = in;
  std::vector<FieldDef> out_fields;
  for (uint32_t f : picked) {
    out_fields.push_back({"o" + std::to_string(out_fields.size()),
                          in_fields[f].type, OrderSpec::None()});
    reorder.projections.push_back(MustCompile(expr::MakeFieldRef(
        0, f, in_fields[f].type, in_fields[f].name)));
    reorder.punctuation_source.push_back(f == 0 ? 0 : -1);
  }
  out_fields[1].order = OrderSpec::Increasing();
  reorder.output_schema =
      StreamSchema("reorder", StreamKind::kStream, out_fields);
  reorder.predicate = MustCompile(expr::MakeBinaryIr(
      BinaryOp::kGt, DataType::kBool,
      expr::MakeBinaryIr(BinaryOp::kMul, DataType::kUint,
                         expr::MakeFieldRef(0, 2, DataType::kUint, "v"),
                         expr::MakeConst(Value::Uint(1))),
      expr::MakeConst(Value::Uint(10))));
  // SELECT t, a, v, b, ip (the identity)
  SelectProjectNode::Spec identity;
  identity.name = "identity";
  identity.input_schema = in;
  identity.output_schema = StreamSchema("identity", StreamKind::kStream,
                                        in_fields);
  for (uint32_t f = 0; f < in_fields.size(); ++f) {
    identity.projections.push_back(MustCompile(expr::MakeFieldRef(
        0, f, in_fields[f].type, in_fields[f].name)));
    identity.punctuation_source.push_back(f == 0 ? 0 : -1);
  }
  ASSERT_TRUE(registry.DeclareStream(reorder.output_schema).ok());
  ASSERT_TRUE(registry.DeclareStream(identity.output_schema).ok());
  auto in1 = registry.Subscribe("cin", 64);
  auto in2 = registry.Subscribe("cin", 64);
  ASSERT_TRUE(in1.ok() && in2.ok());
  const StreamSchema reorder_schema = reorder.output_schema;
  SelectProjectNode reorder_node(std::move(reorder), *in1, &registry, params);
  SelectProjectNode identity_node(std::move(identity), *in2, &registry,
                                  params);
  auto reorder_out = registry.Subscribe("reorder", 64);
  auto identity_out = registry.Subscribe("identity", 64);
  ASSERT_TRUE(reorder_out.ok() && identity_out.ok());

  const std::vector<rts::Row> rows = {
      {Value::Uint(1), Value::String(""), Value::Uint(50),
       Value::String("a string longer than fifteen bytes"), Value::Ip(7)},
      {Value::Uint(2), Value::String("x"), Value::Uint(5),  // filtered
       Value::String("y"), Value::Ip(8)},
      {Value::Uint(3), Value::String("abc"), Value::Uint(11),
       Value::String(""), Value::Ip(0xffffffff)},
  };
  rts::TupleCodec codec(in);
  rts::StreamBatch batch;
  rts::MessageMeta meta;
  meta.weight = 3;
  for (const rts::Row& row : rows) batch.AppendTuple(codec, row, meta);
  registry.PublishBatch("cin", std::move(batch));
  reorder_node.Poll(100);
  identity_node.Poll(100);

  auto read = [](rts::Subscription& out, const StreamSchema& schema) {
    rts::TupleCodec out_codec(schema);
    std::vector<rts::Row> got;
    rts::StreamBatch popped;
    while (out->TryPop(&popped)) {
      for (const rts::BatchItem& item : popped.items()) {
        EXPECT_EQ(item.weight, 3u);  // the sampling weight rides through
        auto row = out_codec.Decode(popped.payload(item));
        EXPECT_TRUE(row.ok());
        got.push_back(*row);
      }
    }
    return got;
  };
  std::vector<rts::Row> expected;
  for (size_t r : {0, 2}) {
    rts::Row row;
    for (uint32_t f : picked) row.push_back(rows[r][f]);
    expected.push_back(row);
  }
  EXPECT_EQ(read(*reorder_out, reorder_schema), expected);
  EXPECT_EQ(read(*identity_out, in), rows);
}

// The copy path as byte runs: fixed-width fields adjacent in both the
// input and the output share a run, on either side of a string; fields out
// of input order, repeated, or separated by a string do not. Every output
// must equal the fields picked from the input row, whatever the strings'
// lengths.
TEST(SelectProjectCopyTest, AdjacentFixedFieldsCopyAsOneRun) {
  std::vector<FieldDef> in_fields;
  in_fields.push_back({"u0", DataType::kUint, OrderSpec::None()});
  in_fields.push_back({"ip1", DataType::kIp, OrderSpec::None()});
  in_fields.push_back({"b2", DataType::kBool, OrderSpec::None()});
  in_fields.push_back({"s3", DataType::kString, OrderSpec::None()});
  in_fields.push_back({"u4", DataType::kUint, OrderSpec::None()});
  in_fields.push_back({"f5", DataType::kFloat, OrderSpec::None()});
  in_fields.push_back({"s6", DataType::kString, OrderSpec::None()});
  in_fields.push_back({"i7", DataType::kInt, OrderSpec::None()});
  const StreamSchema in("rin", StreamKind::kStream, in_fields);
  rts::StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(in).ok());

  const std::vector<std::vector<uint32_t>> projections = {
      {0, 1, 2},                    // one run, before the first string
      {4, 5, 7},                    // one run, then one across a string
      {1, 2, 0, 5, 4},              // out of order: runs restart
      {2, 3, 4, 5, 6, 7},           // strings between fixed runs
      {7, 6, 6, 3, 0, 1, 2, 3, 4},  // strings first and repeated
  };
  std::vector<std::unique_ptr<SelectProjectNode>> nodes;
  std::vector<rts::Subscription> outs;
  std::vector<StreamSchema> out_schemas;
  for (size_t p = 0; p < projections.size(); ++p) {
    SelectProjectNode::Spec spec;
    spec.name = "runs" + std::to_string(p);
    spec.input_schema = in;
    std::vector<FieldDef> out_fields;
    for (uint32_t f : projections[p]) {
      out_fields.push_back({"o" + std::to_string(out_fields.size()),
                            in_fields[f].type, OrderSpec::None()});
      spec.projections.push_back(MustCompile(expr::MakeFieldRef(
          0, f, in_fields[f].type, in_fields[f].name)));
      spec.punctuation_source.push_back(-1);
    }
    spec.output_schema =
        StreamSchema(spec.name, StreamKind::kStream, out_fields);
    out_schemas.push_back(spec.output_schema);
    ASSERT_TRUE(registry.DeclareStream(spec.output_schema).ok());
    auto input = registry.Subscribe("rin", 64);
    ASSERT_TRUE(input.ok());
    nodes.push_back(std::make_unique<SelectProjectNode>(
        std::move(spec), *input, &registry,
        std::make_shared<std::vector<Value>>()));
    auto out = registry.Subscribe(out_schemas.back().name(), 64);
    ASSERT_TRUE(out.ok());
    outs.push_back(*out);
  }

  std::vector<rts::Row> rows;
  for (uint64_t r = 0; r < 4; ++r) {
    const char letter = static_cast<char>('a' + r);
    rows.push_back({Value::Uint(0x0102030405060708 + r),
                    Value::Ip(static_cast<uint32_t>(0xa0b0c0d0 + r)),
                    Value::Bool(r % 2 == 1),
                    Value::String(std::string(r * 9, letter)),
                    Value::Uint(r << 40),
                    Value::Float(-1.5 * static_cast<double>(r)),
                    Value::String(std::string(20 - r * 6, 'z')),
                    Value::Int(-static_cast<int64_t>(r) - 1)});
  }
  rts::TupleCodec codec(in);
  rts::StreamBatch batch;
  for (const rts::Row& row : rows) batch.AppendTuple(codec, row);
  registry.PublishBatch("rin", std::move(batch));

  for (size_t p = 0; p < projections.size(); ++p) {
    nodes[p]->Poll(100);
    rts::TupleCodec out_codec(out_schemas[p]);
    std::vector<rts::Row> got;
    rts::StreamBatch popped;
    while (outs[p]->TryPop(&popped)) {
      for (const rts::BatchItem& item : popped.items()) {
        auto row = out_codec.Decode(popped.payload(item));
        ASSERT_TRUE(row.ok()) << "projection " << p;
        got.push_back(*row);
      }
    }
    std::vector<rts::Row> expected;
    for (const rts::Row& row : rows) {
      rts::Row picked;
      for (uint32_t f : projections[p]) picked.push_back(row[f]);
      expected.push_back(picked);
    }
    EXPECT_EQ(got, expected) << "projection " << p;
  }
}

TEST_F(SelectProjectTest, ParamChangeTakesEffectImmediately) {
  // Rebuild a node whose predicate uses a parameter: v > $threshold.
  SelectProjectNode::Spec spec;
  spec.name = "pout";
  spec.input_schema = InputSchema();
  std::vector<FieldDef> out_fields;
  out_fields.push_back({"v", DataType::kUint, OrderSpec::None()});
  spec.output_schema = StreamSchema("pout", StreamKind::kStream, out_fields);
  auto predicate_ir = expr::MakeBinaryIr(
      BinaryOp::kGt, DataType::kBool,
      expr::MakeFieldRef(0, 1, DataType::kUint, "v"),
      expr::MakeParamRef(0, DataType::kUint, "threshold"));
  spec.predicate = MustCompile(predicate_ir);
  spec.projections.push_back(
      MustCompile(expr::MakeFieldRef(0, 1, DataType::kUint, "v")));
  spec.punctuation_source = {-1};

  auto params = std::make_shared<std::vector<Value>>(
      std::vector<Value>{Value::Uint(100)});
  ASSERT_TRUE(registry_.DeclareStream(spec.output_schema).ok());
  auto input = registry_.Subscribe("in", 64);
  ASSERT_TRUE(input.ok());
  SelectProjectNode node(std::move(spec), *input, &registry_, params);
  auto output = registry_.Subscribe("pout", 64);

  Send(1, 50);
  node.Poll(10);
  EXPECT_EQ(node.tuples_out(), 0u);  // 50 <= 100

  (*params)[0] = Value::Uint(10);  // change the parameter on the fly (§3)
  Send(2, 50);
  node.Poll(10);
  EXPECT_EQ(node.tuples_out(), 1u);  // 50 > 10
}

}  // namespace
}  // namespace gigascope::ops
