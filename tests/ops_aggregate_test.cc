#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>

#include "channel_reader.h"
#include "common/rng.h"
#include "expr/codegen.h"
#include "ops/aggregate.h"
#include "ops/lfta_agg.h"
#include "rts/punctuation.h"

namespace gigascope::ops {
namespace {

using expr::AggFn;
using expr::AggregateSpec;
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
  fields.push_back({"key", DataType::kUint, OrderSpec::None()});
  fields.push_back({"len", DataType::kUint, OrderSpec::None()});
  return StreamSchema("in", StreamKind::kStream, fields);
}

StreamSchema AggOutputSchema(const std::string& name) {
  std::vector<FieldDef> fields;
  fields.push_back({"tb", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"key", DataType::kUint, OrderSpec::None()});
  fields.push_back({"cnt", DataType::kUint, OrderSpec::None()});
  fields.push_back({"total", DataType::kUint, OrderSpec::None()});
  return StreamSchema(name, StreamKind::kStream, fields);
}

CompiledExpr MustCompile(const expr::IrPtr& ir) {
  auto compiled = expr::Compile(ir);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

/// SELECT t/10 AS tb, key, count(*), sum(len) GROUP BY tb, key.
OrderedAggregateNode::Spec MakeSpec(const std::string& name) {
  OrderedAggregateNode::Spec spec;
  spec.name = name;
  spec.input_schema = InputSchema();
  spec.output_schema = AggOutputSchema(name);
  spec.keys.push_back(MustCompile(expr::MakeBinaryIr(
      BinaryOp::kDiv, DataType::kUint,
      expr::MakeFieldRef(0, 0, DataType::kUint, "t"),
      expr::MakeConst(Value::Uint(10)))));
  spec.keys.push_back(
      MustCompile(expr::MakeFieldRef(0, 1, DataType::kUint, "key")));
  AggregateSpec count;
  count.fn = AggFn::kCount;
  count.result_type = DataType::kUint;
  spec.agg_specs.push_back(count);
  AggregateSpec sum;
  sum.fn = AggFn::kSum;
  sum.arg = expr::MakeFieldRef(0, 2, DataType::kUint, "len");
  sum.result_type = DataType::kUint;
  spec.agg_specs.push_back(sum);
  spec.agg_args.emplace_back();  // count(*): no arg
  spec.agg_args.emplace_back(
      MustCompile(expr::MakeFieldRef(0, 2, DataType::kUint, "len")));
  spec.ordered_key = 0;
  spec.key_punctuation_source = {0, -1};
  return spec;
}

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.DeclareStream(InputSchema()).ok());
    ASSERT_TRUE(registry_.DeclareStream(AggOutputSchema("agg")).ok());
    params_ = std::make_shared<std::vector<Value>>();
    auto input = registry_.Subscribe("in", 1024);
    ASSERT_TRUE(input.ok());
    node_ = std::make_unique<OrderedAggregateNode>(MakeSpec("agg"), *input,
                                                   &registry_, params_);
    auto output = registry_.Subscribe("agg", 1024);
    ASSERT_TRUE(output.ok());
    output_ = *output;
    codec_ = std::make_unique<rts::TupleCodec>(AggOutputSchema("agg"));
  }

  void Send(uint64_t t, uint64_t key, uint64_t len) {
    rts::TupleCodec codec(InputSchema());
    registry_.PublishBatch(
        "in", testing_util::TupleBatch(codec, {Value::Uint(t), Value::Uint(key),
                                               Value::Uint(len)}));
  }

  std::vector<rts::Row> ReceiveAll() {
    std::vector<rts::Row> rows;
    rts::StreamBatch message_batch;
    while (output_->TryPop(&message_batch)) {
      for (const rts::BatchItem& message : message_batch.items()) {
        if (message.kind != rts::MessageKind::kTuple) continue;
        auto row = codec_->Decode(message_batch.payload(message));
        if (row.ok()) rows.push_back(std::move(row).value());
      }
    }
    return rows;
  }

  rts::StreamRegistry registry_;
  rts::ParamBlock params_;
  std::unique_ptr<OrderedAggregateNode> node_;
  rts::Subscription output_;
  std::unique_ptr<rts::TupleCodec> codec_;
};

TEST_F(AggregateTest, GroupsAccumulateUntilEpochCloses) {
  Send(1, 100, 10);
  Send(2, 100, 20);
  Send(3, 200, 5);
  node_->Poll(100);
  // Bucket 0 still open: nothing emitted.
  EXPECT_TRUE(ReceiveAll().empty());
  EXPECT_EQ(node_->open_groups(), 2u);

  // Bucket 1 arrives: bucket-0 groups close and flush.
  Send(12, 100, 1);
  node_->Poll(100);
  auto rows = ReceiveAll();
  ASSERT_EQ(rows.size(), 2u);
  // Sorted by (tb, key): (0,100,cnt=2,sum=30) then (0,200,cnt=1,sum=5).
  EXPECT_EQ(rows[0][0].uint_value(), 0u);
  EXPECT_EQ(rows[0][1].uint_value(), 100u);
  EXPECT_EQ(rows[0][2].uint_value(), 2u);
  EXPECT_EQ(rows[0][3].uint_value(), 30u);
  EXPECT_EQ(rows[1][1].uint_value(), 200u);
  EXPECT_EQ(rows[1][2].uint_value(), 1u);
  EXPECT_EQ(rows[1][3].uint_value(), 5u);
  EXPECT_EQ(node_->open_groups(), 1u);
}

TEST_F(AggregateTest, FlushEmitsOpenGroups) {
  Send(1, 100, 10);
  Send(5, 200, 20);
  node_->Poll(100);
  node_->Flush();
  auto rows = ReceiveAll();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(node_->open_groups(), 0u);
}

TEST_F(AggregateTest, PunctuationClosesGroups) {
  Send(1, 100, 10);
  Send(3, 200, 20);
  node_->Poll(100);
  ASSERT_TRUE(ReceiveAll().empty());

  // Punctuation: t >= 50, so bucket 5 is the floor; buckets < 5 close.
  registry_.PublishBatch("in", testing_util::PunctuationBatch(
                                   InputSchema(), 0, Value::Uint(50)));
  node_->Poll(100);
  auto rows = ReceiveAll();
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(node_->open_groups(), 0u);
}

TEST_F(AggregateTest, EmitsPunctuationDownstreamOnEpochAdvance) {
  Send(1, 100, 10);
  Send(12, 100, 10);
  node_->Poll(100);
  // Look for a punctuation on the output stream bounding tb.
  bool saw_punctuation = false;
  rts::StreamBatch message_batch;
  auto sub = registry_.Subscribe("agg", 64);
  // (Subscribe happened after publish; pull again through a new round.)
  Send(25, 100, 1);
  node_->Poll(100);
  while ((*sub)->TryPop(&message_batch)) {
    for (const rts::BatchItem& message : message_batch.items()) {
      if (message.kind == rts::MessageKind::kPunctuation) {
        const uint8_t* bound = rts::FindBound(
            message_batch.payload(message), AggOutputSchema("agg"), 0);
        ASSERT_NE(bound, nullptr);
        EXPECT_EQ(LoadLe64(bound), 2u);  // 25/10
        saw_punctuation = true;
      }
    }
  }
  EXPECT_TRUE(saw_punctuation);
}

TEST_F(AggregateTest, MinMaxAggregates) {
  OrderedAggregateNode::Spec spec;
  spec.name = "mm";
  spec.input_schema = InputSchema();
  std::vector<FieldDef> fields;
  fields.push_back({"tb", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"lo", DataType::kUint, OrderSpec::None()});
  fields.push_back({"hi", DataType::kUint, OrderSpec::None()});
  spec.output_schema = StreamSchema("mm", StreamKind::kStream, fields);
  spec.keys.push_back(MustCompile(expr::MakeBinaryIr(
      BinaryOp::kDiv, DataType::kUint,
      expr::MakeFieldRef(0, 0, DataType::kUint, "t"),
      expr::MakeConst(Value::Uint(10)))));
  AggregateSpec min_spec;
  min_spec.fn = AggFn::kMin;
  min_spec.result_type = DataType::kUint;
  AggregateSpec max_spec;
  max_spec.fn = AggFn::kMax;
  max_spec.result_type = DataType::kUint;
  spec.agg_specs = {min_spec, max_spec};
  spec.agg_args.emplace_back(
      MustCompile(expr::MakeFieldRef(0, 2, DataType::kUint, "len")));
  spec.agg_args.emplace_back(
      MustCompile(expr::MakeFieldRef(0, 2, DataType::kUint, "len")));
  spec.ordered_key = 0;
  spec.key_punctuation_source = {0};

  ASSERT_TRUE(registry_.DeclareStream(spec.output_schema).ok());
  auto input = registry_.Subscribe("in", 64);
  ASSERT_TRUE(input.ok());
  OrderedAggregateNode node(std::move(spec), *input, &registry_, params_);
  auto output = registry_.Subscribe("mm", 64);

  Send(1, 0, 50);
  Send(2, 0, 10);
  Send(3, 0, 90);
  node.Poll(100);
  node.Flush();
  rts::TupleCodec codec(StreamSchema("mm", StreamKind::kStream, fields));
  rts::StreamBatch message_batch;
  rts::Row row;
  bool got = false;
  while ((*output)->TryPop(&message_batch)) {
    for (const rts::BatchItem& message : message_batch.items()) {
      if (message.kind != rts::MessageKind::kTuple) continue;
      auto decoded = codec.Decode(message_batch.payload(message));
      ASSERT_TRUE(decoded.ok());
      row = *decoded;
      got = true;
    }
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(row[1].uint_value(), 10u);
  EXPECT_EQ(row[2].uint_value(), 90u);
}

// No GROUP BY: every tuple folds into the one group with an empty key,
// which both tables hold, compare and emit like any other.
TEST_F(AggregateTest, EmptyKeyIsOneGroup) {
  auto make_spec = [](const std::string& name) {
    OrderedAggregateNode::Spec spec = MakeSpec(name);
    spec.keys.clear();
    spec.key_punctuation_source.clear();
    spec.ordered_key = -1;
    std::vector<FieldDef> fields;
    fields.push_back({"cnt", DataType::kUint, OrderSpec::None()});
    fields.push_back({"total", DataType::kUint, OrderSpec::None()});
    spec.output_schema = StreamSchema(name, StreamKind::kStream, fields);
    return spec;
  };
  auto hfta_spec = make_spec("all");
  auto lfta_spec = make_spec("lall");
  ASSERT_TRUE(registry_.DeclareStream(hfta_spec.output_schema).ok());
  ASSERT_TRUE(registry_.DeclareStream(lfta_spec.output_schema).ok());
  auto hfta_in = registry_.Subscribe("in", 64);
  auto lfta_in = registry_.Subscribe("in", 64);
  ASSERT_TRUE(hfta_in.ok() && lfta_in.ok());
  OrderedAggregateNode hfta(std::move(hfta_spec), *hfta_in, &registry_,
                            params_);
  LftaAggregateNode lfta(std::move(lfta_spec), 0, &registry_, params_);
  auto hfta_out = registry_.Subscribe("all", 64);
  auto lfta_out = registry_.Subscribe("lall", 64);
  ASSERT_TRUE(hfta_out.ok() && lfta_out.ok());

  Send(1, 100, 10);
  Send(2, 200, 20);
  Send(30, 300, 30);
  hfta.Poll(100);
  testing_util::FeedAll(lfta_in->get(), &lfta);
  EXPECT_EQ(hfta.open_groups(), 1u);
  hfta.Flush();
  lfta.Flush();
  for (rts::Subscription* out : {&*hfta_out, &*lfta_out}) {
    rts::TupleCodec codec(registry_.GetSchema("all").value());
    std::vector<rts::Row> rows;
    rts::StreamBatch batch;
    while ((*out)->TryPop(&batch)) {
      for (const rts::BatchItem& item : batch.items()) {
        auto row = codec.Decode(batch.payload(item));
        ASSERT_TRUE(row.ok());
        rows.push_back(*row);
      }
    }
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][0].uint_value(), 3u);
    EXPECT_EQ(rows[0][1].uint_value(), 60u);
  }
}

// SUM over INT wraps modulo 2^64 like the VM's INT `+` and `*`, in the
// HFTA map and the LFTA table alike, weighted or not (no signed overflow).
TEST(SumWrapTest, IntSumWrapsThroughUint64) {
  std::vector<FieldDef> in_fields;
  in_fields.push_back({"t", DataType::kUint, OrderSpec::Increasing()});
  in_fields.push_back({"v", DataType::kInt, OrderSpec::None()});
  const StreamSchema in("ints", StreamKind::kStream, in_fields);
  rts::StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(in).ok());
  auto params = std::make_shared<std::vector<Value>>();

  auto make_spec = [&](const std::string& name) {
    OrderedAggregateNode::Spec spec;
    spec.name = name;
    spec.input_schema = in;
    std::vector<FieldDef> out_fields;
    out_fields.push_back({"t", DataType::kUint, OrderSpec::Increasing()});
    out_fields.push_back({"total", DataType::kInt, OrderSpec::None()});
    spec.output_schema = StreamSchema(name, StreamKind::kStream, out_fields);
    spec.keys.push_back(
        MustCompile(expr::MakeFieldRef(0, 0, DataType::kUint, "t")));
    AggregateSpec sum;
    sum.fn = AggFn::kSum;
    sum.arg = expr::MakeFieldRef(0, 1, DataType::kInt, "v");
    sum.result_type = DataType::kInt;
    spec.agg_specs.push_back(sum);
    spec.agg_args.emplace_back(MustCompile(sum.arg));
    spec.ordered_key = 0;
    spec.key_punctuation_source = {0};
    EXPECT_TRUE(registry.DeclareStream(spec.output_schema).ok());
    return spec;
  };
  auto hfta_in = registry.Subscribe("ints", 64);
  auto lfta_in = registry.Subscribe("ints", 64);
  ASSERT_TRUE(hfta_in.ok() && lfta_in.ok());
  OrderedAggregateNode hfta(make_spec("hsum"), *hfta_in, &registry, params);
  LftaAggregateNode lfta(make_spec("lsum"), 4, &registry, params);
  auto hfta_out = registry.Subscribe("hsum", 64);
  auto lfta_out = registry.Subscribe("lsum", 64);
  ASSERT_TRUE(hfta_out.ok() && lfta_out.ok());

  // Group t=1: INT64_MAX twice. Group t=2: INT64_MAX once under an L1
  // weight of 2. Group t=3: INT64_MIN with weight 2, plus -1.
  rts::TupleCodec codec(in);
  auto send = [&](uint64_t t, int64_t v, uint32_t weight) {
    rts::MessageMeta meta;
    meta.weight = weight;
    rts::StreamBatch batch;
    batch.AppendTuple(codec, {Value::Uint(t), Value::Int(v)}, meta);
    registry.PublishBatch("ints", std::move(batch));
  };
  send(1, INT64_MAX, 1);
  send(1, INT64_MAX, 1);
  send(2, INT64_MAX, 2);
  send(3, INT64_MIN, 2);
  send(3, -1, 1);
  hfta.Poll(100);
  testing_util::FeedAll(lfta_in->get(), &lfta);
  hfta.Flush();
  lfta.Flush();

  auto totals = [](rts::Subscription& out, const StreamSchema& schema) {
    rts::TupleCodec out_codec(schema);
    std::map<uint64_t, int64_t> by_t;
    rts::StreamBatch batch;
    while (out->TryPop(&batch)) {
      for (const rts::BatchItem& item : batch.items()) {
        if (item.kind != rts::MessageKind::kTuple) continue;
        auto row = out_codec.Decode(batch.payload(item));
        EXPECT_TRUE(row.ok());
        // Partials re-merge, wrapping like the aggregate itself.
        const auto v = static_cast<uint64_t>((*row)[1].int_value());
        int64_t& total = by_t[(*row)[0].uint_value()];
        total = static_cast<int64_t>(static_cast<uint64_t>(total) + v);
      }
    }
    return by_t;
  };
  const std::map<uint64_t, int64_t> expected = {{1, -2}, {2, -2}, {3, -1}};
  EXPECT_EQ(totals(*hfta_out, registry.GetSchema("hsum").value()), expected);
  EXPECT_EQ(totals(*lfta_out, registry.GetSchema("lsum").value()), expected);
}

// --- Direct-mapped LFTA table ---

TEST_F(AggregateTest, MalformedTuplesCountOneEvalErrorAndEmitNothing) {
  // Both aggregates, and an LFTA whose read set ({t}) skips the other
  // fields: framing is still checked in full.
  OrderedAggregateNode::Spec narrow = MakeSpec("lagg");
  narrow.keys.pop_back();  // group by t/10 only
  narrow.key_punctuation_source = {0};
  narrow.agg_specs.pop_back();  // count(*) only
  narrow.agg_args.pop_back();
  std::vector<FieldDef> fields;
  fields.push_back({"tb", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"cnt", DataType::kUint, OrderSpec::None()});
  narrow.output_schema = StreamSchema("lagg", StreamKind::kStream, fields);
  ASSERT_TRUE(registry_.DeclareStream(narrow.output_schema).ok());
  auto input = registry_.Subscribe("in", 64);
  ASSERT_TRUE(input.ok());
  LftaAggregateNode lfta(std::move(narrow), 4, &registry_, params_);
  auto lfta_out = registry_.Subscribe("lagg", 64);
  ASSERT_TRUE(lfta_out.ok());

  rts::TupleCodec codec(InputSchema());
  ByteBuffer valid;
  codec.Encode({Value::Uint(1), Value::Uint(2), Value::Uint(3)}, &valid);
  std::vector<ByteBuffer> malformed;
  malformed.push_back(ByteBuffer(valid.begin(), valid.end() - 1));
  malformed.push_back(ByteBuffer(valid.begin(), valid.begin() + 8));
  malformed.push_back(valid);
  malformed.back().push_back(0);  // trailing byte
  for (const ByteBuffer& bytes : malformed) {
    registry_.PublishBatch("in", testing_util::RawBatch(bytes));
  }
  node_->Poll(100);
  testing_util::FeedAll(input->get(), &lfta);
  node_->Flush();
  lfta.Flush();
  EXPECT_EQ(node_->eval_errors(), malformed.size());
  EXPECT_EQ(lfta.eval_errors(), malformed.size());
  EXPECT_EQ(node_->tuples_out(), 0u);
  EXPECT_EQ(lfta.tuples_out(), 0u);
  EXPECT_TRUE(ReceiveAll().empty());
  EXPECT_EQ((*lfta_out)->pushed(), 0u);
}

// A WHERE folded into the aggregation runs before anything else: a tuple
// it rejects, or on which it fails, neither folds into a group nor
// advances the ordered key, in the HFTA map and the fed LFTA table alike;
// only the failures count as eval errors.
TEST_F(AggregateTest, WhereRejectsAndErrorsBeforeGrouping) {
  // SELECT t, key, count(*), sum(len) WHERE 100 / len > 5 GROUP BY t, key:
  // len 10 passes, len 50 is rejected, len 0 fails (division by zero).
  auto make_spec = [](const std::string& name) {
    OrderedAggregateNode::Spec spec = MakeSpec(name);
    spec.keys[0] =
        MustCompile(expr::MakeFieldRef(0, 0, DataType::kUint, "t"));
    spec.predicate = MustCompile(expr::MakeBinaryIr(
        BinaryOp::kGt, DataType::kBool,
        expr::MakeBinaryIr(BinaryOp::kDiv, DataType::kUint,
                           expr::MakeConst(Value::Uint(100)),
                           expr::MakeFieldRef(0, 2, DataType::kUint, "len")),
        expr::MakeConst(Value::Uint(5))));
    return spec;
  };
  ASSERT_TRUE(registry_.DeclareStream(AggOutputSchema("w")).ok());
  ASSERT_TRUE(registry_.DeclareStream(AggOutputSchema("lw")).ok());
  auto hfta_in = registry_.Subscribe("in", 64);
  auto lfta_in = registry_.Subscribe("in", 64);
  ASSERT_TRUE(hfta_in.ok() && lfta_in.ok());
  OrderedAggregateNode hfta(make_spec("w"), *hfta_in, &registry_, params_);
  LftaAggregateNode lfta(make_spec("lw"), 4, &registry_, params_);
  auto hfta_out = registry_.Subscribe("w", 64);
  auto lfta_out = registry_.Subscribe("lw", 64);
  ASSERT_TRUE(hfta_out.ok() && lfta_out.ok());

  Send(1, 7, 10);  // passes: group (1, 7)
  Send(1, 7, 50);  // rejected
  Send(1, 7, 0);   // fails
  Send(2, 7, 50);  // rejected: t = 2 would close t = 1
  Send(3, 7, 0);   // fails: so would t = 3
  hfta.Poll(100);
  testing_util::FeedAll(lfta_in->get(), &lfta);
  lfta.Poll(100);  // publishes whatever the LFTA wrote
  EXPECT_EQ(hfta.eval_errors(), 2u);
  EXPECT_EQ(lfta.eval_errors(), 2u);
  EXPECT_EQ(hfta.groups_flushed(), 0u);
  EXPECT_EQ(hfta.open_groups(), 1u);
  EXPECT_EQ((*hfta_out)->pushed(), 0u);
  EXPECT_EQ((*lfta_out)->pushed(), 0u);  // no partial, no punctuation

  hfta.Flush();
  lfta.Flush();
  for (rts::Subscription* out : {&*hfta_out, &*lfta_out}) {
    rts::TupleCodec codec(AggOutputSchema("w"));
    std::vector<rts::Row> rows;
    rts::StreamBatch batch;
    while ((*out)->TryPop(&batch)) {
      for (const rts::BatchItem& item : batch.items()) {
        if (item.kind != rts::MessageKind::kTuple) continue;
        auto row = codec.Decode(batch.payload(item));
        ASSERT_TRUE(row.ok());
        rows.push_back(*row);
      }
    }
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][0].uint_value(), 1u);
    EXPECT_EQ(rows[0][1].uint_value(), 7u);
    EXPECT_EQ(rows[0][2].uint_value(), 1u);   // one tuple folded
    EXPECT_EQ(rows[0][3].uint_value(), 10u);  // its len alone
  }
}

/// COUNT(*) grouped by one UINT key, packed as the LFTA table keeps it.
class CountTable {
 public:
  explicit CountTable(int log2_slots)
      : layout_({DataType::kUint}, {CountSpec()}, {DataType::kUint}),
        table_(log2_slots, &layout_),
        codec_(StreamSchema("partial", StreamKind::kStream,
                            {FieldDef{"key", DataType::kUint,
                                      OrderSpec::None()},
                             FieldDef{"cnt", DataType::kUint,
                                      OrderSpec::None()}})) {}

  /// Folds one tuple of `key`; returns the partials it ejected.
  std::vector<std::pair<uint64_t, uint64_t>> Upsert(uint64_t key) {
    uint8_t bytes[8];
    StoreLe64(bytes, key);
    const uint8_t* args[] = {nullptr};  // count(*)
    std::vector<std::pair<uint64_t, uint64_t>> out;
    table_.Upsert(ByteSpan(bytes, sizeof(bytes)), args, 1,
                  [&](const GroupRef& group) { out.push_back(Decode(group)); });
    return out;
  }

  std::vector<std::pair<uint64_t, uint64_t>> DrainAll() {
    std::vector<std::pair<uint64_t, uint64_t>> out;
    table_.DrainAll(
        [&](const GroupRef& group) { out.push_back(Decode(group)); });
    return out;
  }

  const DirectMappedAggTable& table() const { return table_; }

 private:
  static AggregateSpec CountSpec() {
    AggregateSpec count;
    count.fn = AggFn::kCount;
    count.result_type = DataType::kUint;
    return count;
  }

  /// The (key, count) of an emitted partial, through its packed output.
  std::pair<uint64_t, uint64_t> Decode(const GroupRef& group) const {
    ByteBuffer bytes(layout_.OutputSize(group));
    layout_.WriteOutput(group, bytes.data());
    auto row = codec_.Decode(ByteSpan(bytes.data(), bytes.size()));
    EXPECT_TRUE(row.ok());
    return {(*row)[0].uint_value(), (*row)[1].uint_value()};
  }

  GroupLayout layout_;
  DirectMappedAggTable table_;
  rts::TupleCodec codec_;
};

using Partial = std::pair<uint64_t, uint64_t>;

TEST(DirectMappedTableTest, UpsertAndDrain) {
  CountTable table(4);  // 16 slots
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(table.Upsert(7).empty());  // the repeated key folds
  }
  EXPECT_EQ(table.table().occupied(), 1u);
  auto drained = table.DrainAll();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0], (Partial{7, 3}));
  EXPECT_EQ(table.table().occupied(), 0u);
}

TEST(DirectMappedTableTest, CollisionEjectsIncumbent) {
  CountTable table(0);  // 1 slot: every new key collides
  EXPECT_TRUE(table.Upsert(1).empty());
  auto ejected = table.Upsert(2);
  ASSERT_EQ(ejected.size(), 1u);
  EXPECT_EQ(ejected[0], (Partial{1, 1}));
  EXPECT_EQ(table.table().evictions(), 1u);
  EXPECT_EQ(table.DrainAll(), (std::vector<Partial>{{2, 1}}));
}

TEST(DirectMappedTableTest, EvictionRateDropsWithTableSize) {
  auto run = [](int log2_slots) {
    CountTable table(log2_slots);
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) table.Upsert(rng.NextBelow(256));
    return table.table().evictions();
  };
  uint64_t small = run(3);
  uint64_t large = run(10);
  EXPECT_GT(small, large * 2);
}

// --- Banded ordered keys (§2.1: Netflow start times are
// banded-increasing(30); groups must survive the band) ---

StreamSchema BandedInputSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"bt", DataType::kUint, OrderSpec::Banded(10)});
  fields.push_back({"v", DataType::kUint, OrderSpec::None()});
  return StreamSchema("bin", StreamKind::kStream, fields);
}

class BandedAggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.DeclareStream(BandedInputSchema()).ok());
    OrderedAggregateNode::Spec spec;
    spec.name = "bagg";
    spec.input_schema = BandedInputSchema();
    std::vector<FieldDef> out_fields;
    out_fields.push_back({"bt", DataType::kUint, OrderSpec::Banded(10)});
    out_fields.push_back({"cnt", DataType::kUint, OrderSpec::None()});
    spec.output_schema = StreamSchema("bagg", StreamKind::kStream,
                                      out_fields);
    spec.keys.push_back(
        MustCompile(expr::MakeFieldRef(0, 0, DataType::kUint, "bt")));
    AggregateSpec count;
    count.fn = AggFn::kCount;
    count.result_type = DataType::kUint;
    spec.agg_specs.push_back(count);
    spec.agg_args.emplace_back();
    spec.ordered_key = 0;
    spec.ordered_key_band = 10;
    spec.key_punctuation_source = {0};
    ASSERT_TRUE(registry_.DeclareStream(spec.output_schema).ok());
    auto input = registry_.Subscribe("bin", 1024);
    ASSERT_TRUE(input.ok());
    params_ = std::make_shared<std::vector<Value>>();
    node_ = std::make_unique<OrderedAggregateNode>(std::move(spec), *input,
                                                   &registry_, params_);
    auto output = registry_.Subscribe("bagg", 1024);
    ASSERT_TRUE(output.ok());
    output_ = *output;
  }

  void Send(uint64_t bt) {
    rts::TupleCodec codec(BandedInputSchema());
    registry_.PublishBatch(
        "bin",
        testing_util::TupleBatch(codec, {Value::Uint(bt), Value::Uint(1)}));
  }

  std::vector<std::pair<uint64_t, uint64_t>> ReceiveGroups() {
    std::vector<std::pair<uint64_t, uint64_t>> groups;
    rts::TupleCodec codec(registry_.GetSchema("bagg").value());
    rts::StreamBatch message_batch;
    while (output_->TryPop(&message_batch)) {
      for (const rts::BatchItem& message : message_batch.items()) {
        if (message.kind != rts::MessageKind::kTuple) continue;
        auto row = codec.Decode(message_batch.payload(message));
        if (row.ok()) {
          groups.emplace_back((*row)[0].uint_value(), (*row)[1].uint_value());
        }
      }
    }
    return groups;
  }

  rts::StreamRegistry registry_;
  rts::ParamBlock params_;
  std::unique_ptr<OrderedAggregateNode> node_;
  rts::Subscription output_;
};

TEST_F(BandedAggregateTest, GroupsWithinBandStayOpen) {
  Send(15);
  Send(20);  // advance by 5 < band: nothing may close
  node_->Poll(100);
  EXPECT_TRUE(ReceiveGroups().empty());
  EXPECT_EQ(node_->open_groups(), 2u);
}

TEST_F(BandedAggregateTest, LateTupleWithinBandJoinsItsGroup) {
  Send(15);
  Send(20);
  Send(12);  // late, within band 10 of the max (20)
  Send(12);
  node_->Poll(100);
  EXPECT_EQ(node_->open_groups(), 3u);
  // Advance far enough to close everything below 35-10=25.
  Send(35);
  node_->Poll(100);
  auto groups = ReceiveGroups();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::pair<uint64_t, uint64_t>{12, 2}));
  EXPECT_EQ(groups[1], (std::pair<uint64_t, uint64_t>{15, 1}));
  EXPECT_EQ(groups[2], (std::pair<uint64_t, uint64_t>{20, 1}));
}

TEST_F(BandedAggregateTest, CloseBoundTrailsByBand) {
  Send(100);
  Send(109);
  Send(111);  // close bound = 101: flushes only the group at 100
  node_->Poll(100);
  auto groups = ReceiveGroups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].first, 100u);
  EXPECT_EQ(node_->open_groups(), 2u);
}

TEST_F(BandedAggregateTest, PunctuationIsAuthoritativeDespiteBand) {
  Send(100);
  Send(105);
  node_->Poll(100);
  // An upstream punctuation is a hard guarantee (not band-relative).
  registry_.PublishBatch("bin", testing_util::PunctuationBatch(
                                    BandedInputSchema(), 0,
                                    Value::Uint(200)));
  node_->Poll(100);
  EXPECT_EQ(ReceiveGroups().size(), 2u);
  EXPECT_EQ(node_->open_groups(), 0u);
}


// -- Order-preserving key encoding and the radix close --------------------

/// Edge values of every key type. FLOATs include both zeros and both NaN
/// signs: group keys canonicalize them, so each pair is one key.
std::vector<Value> EdgeValues(DataType type) {
  switch (type) {
    case DataType::kInt:
      return {Value::Int(std::numeric_limits<int64_t>::min()), Value::Int(-1),
              Value::Int(0), Value::Int(std::numeric_limits<int64_t>::max())};
    case DataType::kUint:
      return {Value::Uint(0), Value::Uint(uint64_t{1} << 63),
              Value::Uint(std::numeric_limits<uint64_t>::max())};
    case DataType::kIp:
      return {Value::Ip(0), Value::Ip(1), Value::Ip(0x7fffffff),
              Value::Ip(0x80000000), Value::Ip(0xffffffff)};
    case DataType::kBool:
      return {Value::Bool(false), Value::Bool(true)};
    case DataType::kFloat: {
      const double inf = std::numeric_limits<double>::infinity();
      const double nan = std::numeric_limits<double>::quiet_NaN();
      return {Value::Float(-inf),
              Value::Float(-1.0),
              Value::Float(-std::numeric_limits<double>::denorm_min()),
              Value::Float(-0.0),
              Value::Float(0.0),
              Value::Float(std::numeric_limits<double>::denorm_min()),
              Value::Float(inf),
              Value::Float(nan),
              Value::Float(std::copysign(nan, -1.0))};
    }
    case DataType::kString:
      return {Value::String(""), Value::String("a"),
              Value::String(std::string("a\0", 2)),
              Value::String(std::string("a\0\xff", 3)), Value::String("ab"),
              Value::String(std::string(300, 'q'))};
  }
  return {};
}

/// A random value of `type`, drawn so that ties, shared prefixes and zero
/// bytes are common.
Value RandomValue(DataType type, Rng* rng) {
  switch (type) {
    case DataType::kInt:
      return Value::Int(static_cast<int64_t>(rng->Next()) >>
                        rng->NextBelow(64));
    case DataType::kUint:
      return Value::Uint(rng->Next() >> rng->NextBelow(64));
    case DataType::kIp:
      return Value::Ip(static_cast<uint32_t>(rng->Next() >> 32));
    case DataType::kBool:
      return Value::Bool(rng->NextBool(0.5));
    case DataType::kFloat:
      return Value::Float((rng->NextDouble() - 0.5) *
                          std::ldexp(1.0, static_cast<int>(
                                              rng->NextBelow(200)) - 100));
    case DataType::kString: {
      std::string s(rng->NextBelow(9), 'a');
      for (char& c : s) c = "\0a\xff"[rng->NextBelow(3)];
      return Value::String(s);
    }
  }
  return Value();
}

/// The packed group key of `values` (canonicalized, as GroupInput packs it).
ByteBuffer PackKey(const std::vector<Value>& values) {
  ByteBuffer key;
  ByteBuffer field;
  for (const Value& value : values) {
    PackKeyValue(value.type(), value, &field);
    key.insert(key.end(), field.begin(), field.end());
  }
  return key;
}

/// The reference order of two packed keys: field by field by ComparePacked.
int CompareKeysByField(const std::vector<DataType>& types, const uint8_t* a,
                       const uint8_t* b) {
  for (DataType type : types) {
    const int cmp = rts::ComparePacked(type, a, b);
    if (cmp != 0) return cmp < 0 ? -1 : 1;
    a += expr::FieldSize(type, a);
    b += expr::FieldSize(type, b);
  }
  return 0;
}

int Sign(int v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }

/// Key layouts under test: every type alone, STRING keys before
/// fixed-width ones, and fixed-width keys around a STRING.
std::vector<std::vector<DataType>> KeyLayouts() {
  using T = DataType;
  return {{T::kInt},
          {T::kUint},
          {T::kIp},
          {T::kBool},
          {T::kFloat},
          {T::kString},
          {T::kUint, T::kIp},
          {T::kString, T::kInt},
          {T::kString, T::kFloat, T::kUint},
          {T::kString, T::kString},
          {T::kBool, T::kString, T::kIp},
          {T::kInt, T::kFloat, T::kString, T::kBool}};
}

/// Up to `limit` distinct keys of `types`: every combination of the edge
/// values when there are at most `limit`, then a seeded mix of edge and
/// random values. Fewer when the layout has fewer distinct keys.
std::vector<ByteBuffer> KeysOf(const std::vector<DataType>& types,
                               size_t limit, uint64_t seed) {
  std::vector<ByteBuffer> keys;
  std::set<ByteBuffer> seen;
  size_t product = 1;
  for (DataType type : types) product *= EdgeValues(type).size();
  if (product <= limit) {
    for (size_t n = 0; n < product; ++n) {
      std::vector<Value> values;
      size_t rest = n;
      for (DataType type : types) {
        const std::vector<Value> edges = EdgeValues(type);
        values.push_back(edges[rest % edges.size()]);
        rest /= edges.size();
      }
      ByteBuffer key = PackKey(values);
      if (seen.insert(key).second) keys.push_back(std::move(key));
    }
  }
  Rng rng(seed);
  for (size_t attempt = 0; keys.size() < limit && attempt < 100 * limit;
       ++attempt) {
    std::vector<Value> values;
    for (DataType type : types) {
      const std::vector<Value> edges = EdgeValues(type);
      values.push_back(rng.NextBool(0.5) ? edges[rng.NextBelow(edges.size())]
                                         : RandomValue(type, &rng));
    }
    ByteBuffer key = PackKey(values);
    if (seen.insert(key).second) keys.push_back(std::move(key));
  }
  return keys;
}

TEST(OrderedKeyTest, MemcmpOfEncodingsFollowsComparePacked) {
  for (const std::vector<DataType>& types : KeyLayouts()) {
    GroupLayout layout(types, {}, {});
    const bool fixed = std::count(types.begin(), types.end(),
                                  DataType::kString) == 0;
    ASSERT_EQ(layout.fixed_width_keys(), fixed);
    const std::vector<ByteBuffer> keys = KeysOf(types, 400, 7);
    ASSERT_GE(keys.size(), 2u);
    std::vector<ByteBuffer> encoded;
    for (const ByteBuffer& key : keys) {
      ByteBuffer e(layout.OrderedKeySize(key.data()) + 1, 0xee);
      uint8_t* end = layout.WriteOrderedKey(key.data(), e.data());
      ASSERT_EQ(static_cast<size_t>(end - e.data()), e.size() - 1);
      EXPECT_EQ(e.back(), 0xee);  // nothing written past the size
      e.pop_back();
      // The radix close takes every fixed-width encoding as one row width.
      if (fixed) {
        ASSERT_EQ(e.size(), layout.OrderedKeySize(keys[0].data()));
      }
      encoded.push_back(std::move(e));
    }
    // memcmp over the shorter length alone: no encoding is a proper prefix
    // of another, so different keys never tie.
    for (size_t a = 0; a < keys.size(); ++a) {
      for (size_t b = 0; b < keys.size(); ++b) {
        const size_t common = std::min(encoded[a].size(), encoded[b].size());
        ASSERT_EQ(Sign(std::memcmp(encoded[a].data(), encoded[b].data(),
                                   common)),
                  CompareKeysByField(types, keys[a].data(), keys[b].data()))
            << "layout of " << types.size() << " fields, keys " << a
            << " and " << b;
      }
    }
  }
}

/// SELECT <every input field>, count(*) GROUP BY <every input field>,
/// unordered, so Flush closes every group at once.
OrderedAggregateNode::Spec KeyOrderSpec(const std::vector<DataType>& types) {
  std::vector<FieldDef> in_fields;
  std::vector<FieldDef> out_fields;
  OrderedAggregateNode::Spec spec;
  for (size_t f = 0; f < types.size(); ++f) {
    const std::string name = "k" + std::to_string(f);
    in_fields.push_back({name, types[f], OrderSpec::None()});
    out_fields.push_back({name, types[f], OrderSpec::None()});
    spec.keys.push_back(MustCompile(expr::MakeFieldRef(
        0, static_cast<uint32_t>(f), types[f], name)));
    spec.key_punctuation_source.push_back(static_cast<int>(f));
  }
  out_fields.push_back({"cnt", DataType::kUint, OrderSpec::None()});
  spec.name = "korder";
  spec.input_schema = StreamSchema("kin", StreamKind::kStream, in_fields);
  spec.output_schema = StreamSchema("korder", StreamKind::kStream, out_fields);
  AggregateSpec count;
  count.fn = AggFn::kCount;
  count.result_type = DataType::kUint;
  spec.agg_specs.push_back(count);
  spec.agg_args.emplace_back();
  return spec;
}

/// Folds one tuple of each of `arrival` (distinct packed keys of `types`,
/// in that order, so arrival[0] is row 0 of the close's sort) into an
/// unordered aggregate, flushes it, and checks that the groups come out in
/// std::sort's order by ComparePacked, field by field.
void ExpectCloseInKeyOrder(const std::vector<DataType>& types,
                           const std::vector<ByteBuffer>& arrival,
                           const std::string& what) {
  rts::StreamRegistry registry;
  OrderedAggregateNode::Spec spec = KeyOrderSpec(types);
  const StreamSchema input_schema = spec.input_schema;
  ASSERT_TRUE(registry.DeclareStream(input_schema).ok());
  ASSERT_TRUE(registry.DeclareStream(spec.output_schema).ok());
  auto input = registry.Subscribe("kin", 16);
  ASSERT_TRUE(input.ok());
  OrderedAggregateNode node(std::move(spec), *input, &registry,
                            std::make_shared<std::vector<Value>>());
  auto output = registry.Subscribe("korder", 1 << 16);
  ASSERT_TRUE(output.ok());

  // Packed keys are packed tuples of the input schema.
  rts::StreamBatch batch;
  for (const ByteBuffer& key : arrival) {
    batch.Append(rts::MessageMeta{}, ByteSpan(key.data(), key.size()));
  }
  registry.PublishBatch("kin", std::move(batch));
  node.Poll(1 << 20);
  ASSERT_EQ(node.open_groups(), arrival.size()) << what;
  node.Flush();

  std::vector<ByteBuffer> keys = arrival;
  std::sort(keys.begin(), keys.end(),
            [&](const ByteBuffer& a, const ByteBuffer& b) {
              return CompareKeysByField(types, a.data(), b.data()) < 0;
            });
  testing_util::ChannelReader reader(output->get());
  rts::BatchItem item;
  ByteSpan payload;
  size_t emitted = 0;
  while (reader.Next(&item, &payload)) {
    if (item.kind != rts::MessageKind::kTuple) continue;
    ASSERT_LT(emitted, keys.size()) << what;
    const ByteBuffer& want = keys[emitted++];
    // An output tuple starts with its group's packed key.
    ASSERT_GE(payload.size(), want.size());
    ASSERT_EQ(ByteSpan(payload.data(), want.size()),
              ByteSpan(want.data(), want.size()))
        << what << ", row " << emitted - 1;
  }
  EXPECT_EQ(emitted, keys.size()) << what;
}

TEST(OrderedKeyTest, CloseEmitsGroupsInKeyOrder) {
  size_t closes = 0;
  for (const std::vector<DataType>& types : KeyLayouts()) {
    for (size_t n : {1, 2, 1000}) {
      std::vector<ByteBuffer> keys = KeysOf(types, n, 11 + n);
      if (keys.size() < n) continue;  // BOOL alone has two keys
      ++closes;
      // Arrive in a scrambled order, each group once.
      Rng rng(n);
      for (size_t i = keys.size(); i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.NextBelow(i)]);
      }
      ExpectCloseInKeyOrder(types, keys,
                            "layout of " + std::to_string(types.size()) +
                                " fields, n " + std::to_string(n));
    }
  }
  EXPECT_EQ(closes, 3 * KeyLayouts().size() - 1);
}

// Key sets built to exercise the radix close's pass that finds the byte
// columns where some key differs from row 0 (the first group to arrive).
TEST(OrderedKeyTest, CloseSortsStructuredKeySets) {
  using T = DataType;
  const std::vector<DataType> tb_ip = {T::kUint, T::kIp};
  auto key = [](std::vector<Value> values) { return PackKey(values); };

  // Only row 0 differs in a byte column: the top byte of its IP, then the
  // last byte of its tb. Row 0 must sort last, though its other bytes put
  // it first.
  for (bool in_tb : {false, true}) {
    std::vector<ByteBuffer> keys;
    keys.push_back(key({Value::Uint(in_tb ? 9 : 5),
                        Value::Ip(in_tb ? 0x0a000000 : 0x0b000000)}));
    for (uint32_t i = 1; i < 300; ++i) {
      keys.push_back(key({Value::Uint(5), Value::Ip(0x0a000000 + i)}));
    }
    ExpectCloseInKeyOrder(tb_ip, keys,
                          in_tb ? "row 0 alone differs in tb"
                                : "row 0 alone differs in IP");
  }

  // Keys that differ in one middle byte only: byte 4 of an 8-byte UINT.
  {
    std::vector<ByteBuffer> keys;
    for (uint64_t i = 0; i < 256; ++i) {
      keys.push_back(key({Value::Uint(0x1100000022 | ((i * 151 % 256) << 24)),
                          Value::Ip(0x0a000001)}));
    }
    ExpectCloseInKeyOrder(tb_ip, keys, "one middle byte");
  }

  // One Flush closes two tb values together.
  {
    Rng rng(5);
    std::vector<ByteBuffer> keys;
    std::set<ByteBuffer> seen;
    while (keys.size() < 1000) {
      ByteBuffer k = key({Value::Uint(7 + rng.NextBelow(2)),
                          Value::Ip(static_cast<uint32_t>(rng.Next()))});
      if (seen.insert(k).second) keys.push_back(std::move(k));
    }
    ExpectCloseInKeyOrder(tb_ip, keys, "two tb values");
  }

  // INT and FLOAT keys that cross zero, alone and together.
  {
    std::vector<ByteBuffer> ints;
    std::vector<ByteBuffer> floats;
    std::vector<ByteBuffer> both;
    for (int64_t i = -300; i < 300; i += 2) {
      ints.push_back(key({Value::Int(i * 7)}));
      floats.push_back(key({Value::Float(static_cast<double>(i) / 64)}));
      both.push_back(key({Value::Int(i % 3), Value::Float(-i * 0.25)}));
    }
    ExpectCloseInKeyOrder({T::kInt}, ints, "INT across zero");
    ExpectCloseInKeyOrder({T::kFloat}, floats, "FLOAT across zero");
    ExpectCloseInKeyOrder({T::kInt, T::kFloat}, both,
                          "INT and FLOAT across zero");
  }
}

}  // namespace
}  // namespace gigascope::ops
