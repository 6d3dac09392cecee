#include <gtest/gtest.h>

#include <algorithm>

#include "channel_reader.h"
#include "core/engine.h"
#include "expr/codegen.h"
#include "ops/join.h"
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

StreamSchema SideSchema(const std::string& name) {
  std::vector<FieldDef> fields;
  fields.push_back({"ts", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"v", DataType::kUint, OrderSpec::None()});
  return StreamSchema(name, StreamKind::kStream, fields);
}

StreamSchema JoinedSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"ts", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"v", DataType::kUint, OrderSpec::None()});
  fields.push_back({"r_ts", DataType::kUint, OrderSpec::None()});
  fields.push_back({"r_v", DataType::kUint, OrderSpec::None()});
  return StreamSchema("joined", StreamKind::kStream, fields);
}

/// `l.v <op> r.v`, of type `type`.
expr::IrPtr SideValues(BinaryOp op, DataType type) {
  return expr::MakeBinaryIr(op, type,
                            expr::MakeFieldRef(0, 1, DataType::kUint, "v"),
                            expr::MakeFieldRef(1, 1, DataType::kUint, "v"));
}

class JoinTest : public ::testing::Test {
 protected:
  /// Window: left.ts - right.ts in [lo, hi]; no residual predicate by
  /// default.
  void Init(int64_t lo, int64_t hi, expr::IrPtr predicate = nullptr,
            bool order_preserving = false) {
    ASSERT_TRUE(registry_.DeclareStream(SideSchema("l")).ok());
    ASSERT_TRUE(registry_.DeclareStream(SideSchema("r")).ok());
    ASSERT_TRUE(registry_.DeclareStream(JoinedSchema()).ok());
    WindowJoinNode::Spec spec;
    spec.name = "joined";
    spec.left_schema = SideSchema("l");
    spec.right_schema = SideSchema("r");
    spec.output_schema = JoinedSchema();
    spec.left_field = 0;
    spec.right_field = 0;
    spec.lo = lo;
    spec.hi = hi;
    spec.order_preserving = order_preserving;
    if (predicate != nullptr) {
      auto compiled = expr::Compile(predicate);
      ASSERT_TRUE(compiled.ok());
      spec.predicate = std::move(compiled).value();
    }
    auto in_l = registry_.Subscribe("l", 4096);
    auto in_r = registry_.Subscribe("r", 4096);
    ASSERT_TRUE(in_l.ok() && in_r.ok());
    params_ = std::make_shared<std::vector<Value>>();
    node_ = std::make_unique<WindowJoinNode>(std::move(spec), *in_l, *in_r,
                                             &registry_, params_);
    auto output = registry_.Subscribe("joined", 8192);
    ASSERT_TRUE(output.ok());
    output_ = *output;
    codec_ = std::make_unique<rts::TupleCodec>(JoinedSchema());
  }

  void Send(const std::string& stream, uint64_t ts, uint64_t v) {
    rts::TupleCodec codec(SideSchema(stream));
    registry_.PublishBatch(
        stream,
        testing_util::TupleBatch(codec, {Value::Uint(ts), Value::Uint(v)}));
  }

  /// Returns (left_ts, right_ts) pairs.
  std::vector<std::pair<uint64_t, uint64_t>> ReceivePairs() {
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    rts::StreamBatch message_batch;
    while (output_->TryPop(&message_batch)) {
      for (const rts::BatchItem& message : message_batch.items()) {
        if (message.kind != rts::MessageKind::kTuple) continue;
        auto row = codec_->Decode(message_batch.payload(message));
        if (row.ok()) {
          pairs.emplace_back((*row)[0].uint_value(), (*row)[2].uint_value());
        }
      }
    }
    return pairs;
  }

  rts::StreamRegistry registry_;
  rts::ParamBlock params_;
  std::unique_ptr<WindowJoinNode> node_;
  rts::Subscription output_;
  std::unique_ptr<rts::TupleCodec> codec_;
};

/// Standalone harness for the buffer-cost ablation (no gtest fixture).
size_t JoinScenarioHighWater(bool order_preserving) {
  rts::StreamRegistry registry;
  registry.DeclareStream(SideSchema("l")).ok();
  registry.DeclareStream(SideSchema("r")).ok();
  registry.DeclareStream(JoinedSchema()).ok();
  WindowJoinNode::Spec spec;
  spec.name = "joined";
  spec.left_schema = SideSchema("l");
  spec.right_schema = SideSchema("r");
  spec.output_schema = JoinedSchema();
  spec.lo = -8;
  spec.hi = 8;
  spec.order_preserving = order_preserving;
  auto left = registry.Subscribe("l", 4096);
  auto right = registry.Subscribe("r", 4096);
  auto params = std::make_shared<std::vector<Value>>();
  WindowJoinNode node(std::move(spec), *left, *right, &registry, params);
  rts::TupleCodec codec(SideSchema("l"));
  for (uint64_t t = 1; t <= 400; ++t) {
    for (const char* stream : {"l", "r"}) {
      registry.PublishBatch(
          stream,
          testing_util::TupleBatch(codec, {Value::Uint(t), Value::Uint(0)}));
    }
    if (t % 16 == 0) node.Poll(1 << 20);
  }
  node.Poll(1 << 20);
  return node.buffer_high_water();
}

TEST_F(JoinTest, EqualityWindowJoinsMatchingTimestamps) {
  Init(0, 0);
  Send("l", 1, 10);
  Send("l", 2, 20);
  Send("r", 2, 200);
  Send("r", 3, 300);
  node_->Poll(100);
  auto pairs = ReceivePairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], std::make_pair(uint64_t{2}, uint64_t{2}));
}

TEST_F(JoinTest, BandWindowJoinsNearbyTimestamps) {
  Init(-1, 1);
  Send("l", 5, 0);
  Send("r", 4, 0);
  Send("r", 5, 0);
  Send("r", 6, 0);
  Send("r", 7, 0);  // outside the window
  node_->Poll(100);
  auto pairs = ReceivePairs();
  EXPECT_EQ(pairs.size(), 3u);
}

TEST_F(JoinTest, ResidualPredicateFilters) {
  Init(0, 0, SideValues(BinaryOp::kEq, DataType::kBool));
  Send("l", 1, 10);
  Send("r", 1, 10);  // v matches
  Send("l", 2, 20);
  Send("r", 2, 99);  // v differs
  node_->Poll(100);
  auto pairs = ReceivePairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, 1u);
}

TEST_F(JoinTest, ResidualPredicateErrorsAreCounted) {
  // l.v / r.v > 0: a zero divisor is an evaluation error, counted in
  // eval_errors like every other operator counts it; that pair joins
  // nothing. A non-zero divisor joins.
  Init(0, 0,
       expr::MakeBinaryIr(BinaryOp::kGt, DataType::kBool,
                          SideValues(BinaryOp::kDiv, DataType::kUint),
                          expr::MakeConst(Value::Uint(0))));
  Send("l", 1, 10);
  Send("r", 1, 0);  // 10 / 0
  Send("l", 2, 10);
  Send("r", 2, 5);  // 10 / 5 = 2 > 0
  node_->Poll(100);
  auto pairs = ReceivePairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, 2u);
  EXPECT_EQ(node_->eval_errors(), 1u);
}

TEST_F(JoinTest, BothArrivalOrdersProduceSameMatches) {
  Init(0, 0);
  Send("l", 1, 0);
  Send("r", 1, 0);  // right after left
  Send("r", 2, 0);
  Send("l", 2, 0);  // left after right
  node_->Poll(100);
  auto pairs = ReceivePairs();
  EXPECT_EQ(pairs.size(), 2u);
}

TEST_F(JoinTest, NoDuplicateEmission) {
  Init(-2, 2);
  for (uint64_t t = 1; t <= 5; ++t) {
    Send("l", t, 0);
    Send("r", t, 0);
  }
  node_->Poll(1000);
  auto pairs = ReceivePairs();
  // Count of pairs with |l-r| <= 2, l,r in 1..5: for each l, r in
  // [l-2, l+2] ∩ [1,5].
  size_t expected = 0;
  for (int l = 1; l <= 5; ++l) {
    for (int r = 1; r <= 5; ++r) {
      if (std::abs(l - r) <= 2) ++expected;
    }
  }
  EXPECT_EQ(pairs.size(), expected);
}

TEST_F(JoinTest, WatermarksBoundBufferState) {
  Init(0, 0);
  // Streams advance together: purged state stays tiny.
  for (uint64_t t = 1; t <= 1000; ++t) {
    Send("l", t, 0);
    Send("r", t, 0);
    if (t % 10 == 0) node_->Poll(100);
  }
  node_->Poll(1000);
  EXPECT_LE(node_->buffered_left(), 4u);
  EXPECT_LE(node_->buffered_right(), 4u);
}

TEST_F(JoinTest, WiderWindowBuffersMore) {
  Init(-50, 50);
  for (uint64_t t = 1; t <= 500; ++t) {
    Send("l", t, 0);
    Send("r", t, 0);
    if (t % 10 == 0) node_->Poll(100);
  }
  node_->Poll(10000);
  // Window of +/-50 keeps roughly 50 tuples alive per side.
  EXPECT_GE(node_->buffer_high_water(), 50u);
  EXPECT_LE(node_->buffer_high_water(), 250u);
}

TEST_F(JoinTest, PunctuationAdvancesWatermark) {
  Init(0, 0);
  Send("l", 1, 0);
  Send("l", 2, 0);
  node_->Poll(100);
  EXPECT_EQ(node_->buffered_left(), 2u);
  // The right stream is silent; a punctuation r.ts >= 10 proves tuples 1-2
  // can never match and purges them.
  registry_.PublishBatch("r", testing_util::PunctuationBatch(
                                  SideSchema("r"), 0, Value::Uint(10)));
  node_->Poll(100);
  EXPECT_EQ(node_->buffered_left(), 0u);
}

TEST_F(JoinTest, FlushClearsBuffers) {
  Init(-5, 5);
  Send("l", 1, 0);
  Send("r", 100, 0);
  node_->Poll(100);
  node_->Flush();
  EXPECT_EQ(node_->buffered_left(), 0u);
  EXPECT_EQ(node_->buffered_right(), 0u);
}

TEST_F(JoinTest, EagerAlgorithmEmitsOutOfOrderWithinBand) {
  Init(-3, 3);
  // Left 5 arrives and matches right 3..7 as they come; then left 2
  // arrives late-ish and matches right 3, emitting key 2 after key 5.
  Send("l", 5, 0);
  Send("r", 3, 0);
  Send("l", 6, 0);
  node_->Poll(100);
  auto pairs = ReceivePairs();
  ASSERT_GE(pairs.size(), 2u);
  // Eager emission order follows arrival: (5,3) then (6,3) — keys are at
  // most banded, not guaranteed sorted across interleavings.
  EXPECT_EQ(pairs[0].first, 5u);
}

TEST_F(JoinTest, OrderPreservingAlgorithmSortsOutput) {
  Init(-3, 3, /*predicate=*/nullptr, /*order_preserving=*/true);
  // Matches complete out of order; releases must come back sorted.
  Send("l", 5, 0);
  Send("r", 5, 0);   // match key 5 completes first
  Send("l", 3, 0);   // within nothing — monotone stream, fine: 3 < 5?
  node_->Poll(100);
  // (Use a fresh setup below with genuinely out-of-order completion.)
  node_->Flush();
  auto pairs = ReceivePairs();
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LE(pairs[i - 1].first, pairs[i].first);
  }
}

TEST_F(JoinTest, OrderPreservingHoldsUntilBoundPasses) {
  Init(-2, 2, nullptr, /*order_preserving=*/true);
  Send("l", 10, 0);
  Send("r", 10, 0);
  node_->Poll(100);
  // Match complete but bound = min(L, R+lo) = min(10, 8) = 8 < 10: held.
  EXPECT_TRUE(ReceivePairs().empty());
  EXPECT_EQ(node_->pending_matches(), 1u);
  // Watermarks advance past the hold point.
  Send("l", 20, 0);
  Send("r", 20, 0);
  node_->Poll(100);
  auto pairs = ReceivePairs();
  ASSERT_GE(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, 10u);
}

TEST_F(JoinTest, OrderPreservingOutputSortedUnderBandedCompletion) {
  Init(-4, 4, nullptr, /*order_preserving=*/true);
  // Right arrives far ahead; lefts then complete matches newest-first.
  Send("r", 10, 0);
  Send("r", 12, 0);
  Send("l", 12, 0);  // completes (12,10) (12,12)
  Send("l", 9, 0);   // completes (9,10) (9,12) — earlier key, later time
  node_->Poll(100);
  node_->Flush();
  auto pairs = ReceivePairs();
  ASSERT_EQ(pairs.size(), 4u);
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LE(pairs[i - 1].first, pairs[i].first)
        << "order-preserving output out of order at " << i;
  }
}

/// Sides that carry a STRING between fixed-width fields, joined on an INT
/// window key: (ts INT, name STRING, v UINT) and (ts INT, tag STRING,
/// w FLOAT).
StreamSchema StringSide(const std::string& name, bool left) {
  std::vector<FieldDef> fields;
  fields.push_back({"ts", DataType::kInt, OrderSpec::Increasing()});
  fields.push_back({left ? "name" : "tag", DataType::kString,
                    OrderSpec::None()});
  fields.push_back(left ? FieldDef{"v", DataType::kUint, OrderSpec::None()}
                        : FieldDef{"w", DataType::kFloat, OrderSpec::None()});
  return StreamSchema(name, StreamKind::kStream, fields);
}

StreamSchema StringJoined() {
  std::vector<FieldDef> fields = StringSide("l", true).fields();
  const StreamSchema right = StringSide("r", false);
  for (const FieldDef& field : right.fields()) {
    fields.push_back({"r_" + field.name, field.type, OrderSpec::None()});
  }
  return StreamSchema("joined", StreamKind::kStream, fields);
}

/// A window join over the STRING sides whose residual predicate compares a
/// STRING from each side (`l.name = r.tag`), window l.ts - r.ts in [-1, 1].
class StringJoinTest : public ::testing::Test {
 protected:
  void Init(bool order_preserving) {
    ASSERT_TRUE(registry_.DeclareStream(StringSide("l", true)).ok());
    ASSERT_TRUE(registry_.DeclareStream(StringSide("r", false)).ok());
    ASSERT_TRUE(registry_.DeclareStream(StringJoined()).ok());
    WindowJoinNode::Spec spec;
    spec.name = "joined";
    spec.left_schema = StringSide("l", true);
    spec.right_schema = StringSide("r", false);
    spec.output_schema = StringJoined();
    spec.lo = -1;
    spec.hi = 1;
    spec.order_preserving = order_preserving;
    auto compiled = expr::Compile(expr::MakeBinaryIr(
        BinaryOp::kEq, DataType::kBool,
        expr::MakeFieldRef(0, 1, DataType::kString, "name"),
        expr::MakeFieldRef(1, 1, DataType::kString, "tag")));
    ASSERT_TRUE(compiled.ok());
    spec.predicate = std::move(compiled).value();
    auto in_l = registry_.Subscribe("l", 4096);
    auto in_r = registry_.Subscribe("r", 4096);
    ASSERT_TRUE(in_l.ok() && in_r.ok());
    node_ = std::make_unique<WindowJoinNode>(
        std::move(spec), *in_l, *in_r, &registry_,
        std::make_shared<std::vector<Value>>());
    auto output = registry_.Subscribe("joined", 8192);
    ASSERT_TRUE(output.ok());
    output_ = *output;
  }

  static rts::Row Left(int64_t ts, const std::string& name, uint64_t v) {
    return {Value::Int(ts), Value::String(name), Value::Uint(v)};
  }
  static rts::Row Right(int64_t ts, const std::string& tag, double w) {
    return {Value::Int(ts), Value::String(tag), Value::Float(w)};
  }

  void Send(bool left, const rts::Row& row) {
    const rts::TupleCodec codec(StringSide(left ? "l" : "r", left));
    registry_.PublishBatch(left ? "l" : "r",
                           testing_util::TupleBatch(codec, row));
    (left ? lefts_ : rights_).push_back(row);
  }

  void SendRaw(bool left, const ByteBuffer& bytes) {
    registry_.PublishBatch(left ? "l" : "r", testing_util::RawBatch(bytes));
  }

  /// Every output tuple's bytes, in arrival order.
  std::vector<ByteBuffer> Received() {
    std::vector<ByteBuffer> out;
    rts::StreamBatch batch;
    while (output_->TryPop(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        if (batch.item(i).kind != rts::MessageKind::kTuple) continue;
        const ByteSpan bytes = batch.payload(i);
        out.emplace_back(bytes.begin(), bytes.end());
      }
    }
    return out;
  }

  /// Encode(left ++ right) of every pair the window and predicate admit.
  std::vector<ByteBuffer> Expected() const {
    const rts::TupleCodec codec(StringJoined());
    std::vector<ByteBuffer> out;
    for (const rts::Row& l : lefts_) {
      for (const rts::Row& r : rights_) {
        const int64_t delta = l[0].int_value() - r[0].int_value();
        if (delta < -1 || delta > 1 || !(l[1] == r[1])) continue;
        rts::Row joined = l;
        joined.insert(joined.end(), r.begin(), r.end());
        out.emplace_back();
        codec.Encode(joined, &out.back());
      }
    }
    return out;
  }

  /// Both sides step their INT key from -4 to 4, across zero, with names
  /// that match, differ, are empty, long, or hold a zero byte.
  void SendCrossingZero(bool poll_often) {
    const std::string names[] = {"", "a", std::string("a\0b", 3),
                                 std::string(300, 'x')};
    for (int64_t ts = -4; ts <= 4; ++ts) {
      const auto i = static_cast<size_t>(ts + 4);
      Send(true, Left(ts, names[i % 4], i));
      Send(false,
           Right(ts, names[(i + 1) % 4], -0.5 * static_cast<double>(ts)));
      Send(false, Right(ts, names[i % 4], 1.5));
      if (poll_often) node_->Poll(1 << 20);
    }
    node_->Poll(1 << 20);
  }

  /// Feeds each side a tuple cut one byte short and one whose string
  /// length runs past its end: each is one eval error and changes nothing,
  /// and the next good tuple is still joined.
  void CheckMalformed(bool order_preserving) {
    Init(order_preserving);
    Send(true, Left(0, "k", 1));
    Send(false, Right(5, "k", 2.0));
    node_->Poll(1 << 20);
    ASSERT_TRUE(Received().empty());
    const size_t left_buffered = node_->buffered_left();
    const size_t right_buffered = node_->buffered_right();
    uint64_t errors = node_->eval_errors();
    for (const bool left : {true, false}) {
      // Each would match the buffered tuple on the other side if read.
      const rts::TupleCodec codec(StringSide(left ? "l" : "r", left));
      ByteBuffer cut;
      codec.Encode(left ? Left(5, "k", 3) : Right(0, "k", 4.0), &cut);
      ByteBuffer long_string = cut;
      cut.pop_back();
      StoreLe32(long_string.data() + 8, 0xfffffff0u);  // the string's length
      for (const ByteBuffer* bad : {&cut, &long_string}) {
        SendRaw(left, *bad);
        node_->Poll(1 << 20);
        EXPECT_EQ(node_->eval_errors(), ++errors) << left;
        EXPECT_TRUE(Received().empty()) << left;
        EXPECT_EQ(node_->buffered_left(), left_buffered) << left;
        EXPECT_EQ(node_->buffered_right(), right_buffered) << left;
        EXPECT_EQ(node_->pending_matches(), 0u) << left;
      }
    }
    Send(true, Left(5, "k", 6));
    node_->Poll(1 << 20);
    node_->Flush();
    const std::vector<ByteBuffer> want = Expected();
    ASSERT_EQ(want.size(), 1u);
    EXPECT_EQ(Received(), want);
    EXPECT_EQ(node_->eval_errors(), errors);
  }

  rts::StreamRegistry registry_;
  std::unique_ptr<WindowJoinNode> node_;
  rts::Subscription output_;
  std::vector<rts::Row> lefts_;
  std::vector<rts::Row> rights_;
};

TEST_F(StringJoinTest, EagerMatchesAreLeftBytesThenRightBytes) {
  Init(/*order_preserving=*/false);
  SendCrossingZero(/*poll_often=*/true);
  node_->Flush();
  std::vector<ByteBuffer> got = Received();
  std::vector<ByteBuffer> want = Expected();
  ASSERT_GE(want.size(), 9u);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(node_->eval_errors(), 0u);
}

TEST_F(StringJoinTest, OrderPreservingMatchesAreLeftBytesThenRightBytes) {
  Init(/*order_preserving=*/true);
  SendCrossingZero(/*poll_often=*/false);
  node_->Flush();
  std::vector<ByteBuffer> got = Received();
  // Released in left-key order.
  const rts::TupleCodec codec(StringJoined());
  for (size_t i = 1; i < got.size(); ++i) {
    auto before = codec.Decode(ByteSpan(got[i - 1].data(), got[i - 1].size()));
    auto after = codec.Decode(ByteSpan(got[i].data(), got[i].size()));
    ASSERT_TRUE(before.ok() && after.ok());
    EXPECT_LE((*before)[0].int_value(), (*after)[0].int_value()) << i;
  }
  std::vector<ByteBuffer> want = Expected();
  ASSERT_GE(want.size(), 9u);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST_F(StringJoinTest, EagerSkipsMalformedTuplesOnEitherSide) {
  CheckMalformed(/*order_preserving=*/false);
}

TEST_F(StringJoinTest, OrderPreservingSkipsMalformedTuplesOnEitherSide) {
  CheckMalformed(/*order_preserving=*/true);
}

TEST(JoinAblationTest, OrderPreservingCostsMoreBuffer) {
  size_t eager = JoinScenarioHighWater(false);
  size_t preserving = JoinScenarioHighWater(true);
  EXPECT_GT(preserving, eager);  // "requires more buffer space" (§2.1)
}

/// A window join on an ordered FLOAT or IP attribute, end to end through
/// the engine: every row joins, and the join's output bounds are bounds of
/// the attribute's own type that no later row falls below.
class TypedWindowJoinTest : public ::testing::TestWithParam<DataType> {};

TEST_P(TypedWindowJoinTest, JoinsAndBoundsInTheAttributesType) {
  const DataType type = GetParam();
  core::Engine engine;
  for (const char* name : {"l", "r"}) {
    ASSERT_TRUE(engine
                    .DeclareStream(StreamSchema(
                        name, StreamKind::kStream,
                        {FieldDef{"ts", type, OrderSpec::Increasing()},
                         FieldDef{"v", DataType::kUint, OrderSpec::None()}}))
                    .ok());
  }
  auto info = engine.AddQuery(
      "DEFINE { query_name joined; } "
      "SELECT l.ts AS ts, l.v AS lv, r.v AS rv FROM l, r "
      "WHERE l.ts = r.ts");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto output = engine.registry().Subscribe("joined", 64);
  ASSERT_TRUE(output.ok());
  const auto key = [type](uint64_t i) {
    return type == DataType::kFloat
               ? Value::Float(static_cast<double>(i) + 0.5)
               : Value::Ip(0x0a000000u + static_cast<uint32_t>(i));
  };
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(engine.InjectRow("l", {key(i), Value::Uint(i)}).ok());
    ASSERT_TRUE(engine.InjectRow("r", {key(i), Value::Uint(10 * i)}).ok());
  }
  engine.PumpUntilIdle();
  engine.FlushAll();

  const StreamSchema schema = engine.registry().GetSchema("joined").value();
  ASSERT_EQ(schema.field(0).type, type);
  const rts::TupleCodec codec(schema);
  std::vector<uint64_t> joined;  // lv
  std::optional<Value> bound;    // the latest output bound
  size_t bounds = 0;
  rts::StreamBatch batch;
  while ((*output)->TryPop(&batch)) {
    for (size_t m = 0; m < batch.size(); ++m) {
      if (batch.item(m).kind == rts::MessageKind::kPunctuation) {
        const uint8_t* at = rts::FindBound(batch.payload(m), schema, 0);
        ASSERT_NE(at, nullptr);
        bound = expr::ReadField(type, at);
        ++bounds;
        continue;
      }
      auto row = codec.Decode(batch.payload(m));
      ASSERT_TRUE(row.ok());
      EXPECT_EQ((*row)[2].uint_value(), 10 * (*row)[1].uint_value());
      if (bound.has_value()) {
        EXPECT_GE((*row)[0].Compare(*bound), 0) << bound->ToString();
      }
      joined.push_back((*row)[1].uint_value());
    }
  }
  EXPECT_EQ(joined, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_GT(bounds, 0u);
}

INSTANTIATE_TEST_SUITE_P(OrderedTypes, TypedWindowJoinTest,
                         ::testing::Values(DataType::kFloat, DataType::kIp));

}  // namespace
}  // namespace gigascope::ops
