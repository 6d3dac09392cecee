#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "channel_reader.h"
#include "ops/merge.h"
#include "rts/punctuation.h"

namespace gigascope::ops {
namespace {

using expr::Value;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

StreamSchema MergeSchema(const std::string& name, uint64_t band = 0) {
  std::vector<FieldDef> fields;
  fields.push_back({"time", DataType::kUint,
                    band > 0 ? OrderSpec::Banded(band)
                             : OrderSpec::Increasing()});
  fields.push_back({"v", DataType::kUint, OrderSpec::None()});
  return StreamSchema(name, StreamKind::kStream, fields);
}

class MergeTest : public ::testing::Test {
 protected:
  void Init(uint64_t band = 0) {
    ASSERT_TRUE(registry_.DeclareStream(MergeSchema("a", band)).ok());
    ASSERT_TRUE(registry_.DeclareStream(MergeSchema("b", band)).ok());
    ASSERT_TRUE(registry_.DeclareStream(MergeSchema("merged", band)).ok());
    MergeNode::Spec spec;
    spec.name = "merged";
    spec.schema = MergeSchema("merged", band);
    spec.merge_field = 0;
    spec.band = band;
    auto in_a = registry_.Subscribe("a", 4096);
    auto in_b = registry_.Subscribe("b", 4096);
    ASSERT_TRUE(in_a.ok() && in_b.ok());
    node_ = std::make_unique<MergeNode>(std::move(spec),
                                        std::vector<rts::Subscription>{
                                            *in_a, *in_b},
                                        &registry_);
    auto output = registry_.Subscribe("merged", 8192);
    ASSERT_TRUE(output.ok());
    output_ = *output;
    codec_ = std::make_unique<rts::TupleCodec>(MergeSchema("merged", band));
  }

  void Send(const std::string& stream, uint64_t time, uint64_t v) {
    rts::TupleCodec codec(MergeSchema(stream));
    registry_.PublishBatch(
        stream,
        testing_util::TupleBatch(codec, {Value::Uint(time), Value::Uint(v)}));
  }

  void SendHeartbeat(const std::string& stream, uint64_t time) {
    registry_.PublishBatch(stream, testing_util::PunctuationBatch(
                                       MergeSchema(stream), 0,
                                       Value::Uint(time)));
  }

  std::vector<uint64_t> ReceiveTimes() {
    std::vector<uint64_t> times;
    rts::StreamBatch message_batch;
    while (output_->TryPop(&message_batch)) {
      for (const rts::BatchItem& message : message_batch.items()) {
        if (message.kind != rts::MessageKind::kTuple) continue;
        auto row = codec_->Decode(message_batch.payload(message));
        if (row.ok()) times.push_back((*row)[0].uint_value());
      }
    }
    return times;
  }

  /// Every output message in order, "t<time>" for a tuple and "p<bound>"
  /// for a punctuation; `batches` counts the batches they came in.
  std::vector<std::string> ReceiveMessages(size_t* batches = nullptr) {
    std::vector<std::string> messages;
    rts::StreamBatch batch;
    while (output_->TryPop(&batch)) {
      if (batches != nullptr) ++*batches;
      for (size_t m = 0; m < batch.size(); ++m) {
        if (batch.item(m).kind == rts::MessageKind::kTuple) {
          auto row = codec_->Decode(batch.payload(m));
          messages.push_back(
              row.ok() ? "t" + std::to_string((*row)[0].uint_value()) : "t?");
          continue;
        }
        const uint8_t* bound =
            rts::FindBound(batch.payload(m), codec_->schema(), 0);
        messages.push_back(
            bound != nullptr ? "p" + std::to_string(LoadLe64(bound)) : "p?");
      }
    }
    return messages;
  }

  rts::StreamRegistry registry_;
  std::unique_ptr<MergeNode> node_;
  rts::Subscription output_;
  std::unique_ptr<rts::TupleCodec> codec_;
};

TEST_F(MergeTest, InterleavesInOrder) {
  Init();
  Send("a", 1, 0);
  Send("a", 5, 0);
  Send("b", 2, 0);
  Send("b", 7, 0);
  node_->Poll(100);
  // a's head is 1, b guarantees >= 2 ... emits 1; then 2 (a guarantees 5);
  // then 5 (b guarantees 7). 7 waits: a might still produce 5 or 6.
  EXPECT_EQ(ReceiveTimes(), (std::vector<uint64_t>{1, 2, 5}));
  EXPECT_EQ(node_->buffered(), 1u);
}

TEST_F(MergeTest, SlowStreamBlocksWithoutHeartbeat) {
  Init();
  for (uint64_t t = 1; t <= 50; ++t) Send("a", t, 0);
  node_->Poll(1000);
  // b has produced nothing and has no watermark: nothing can be emitted.
  EXPECT_TRUE(ReceiveTimes().empty());
  EXPECT_EQ(node_->buffered(), 50u);
}

TEST_F(MergeTest, HeartbeatUnblocks) {
  Init();
  for (uint64_t t = 1; t <= 50; ++t) Send("a", t, 0);
  SendHeartbeat("b", 40);  // b promises nothing before time 40
  node_->Poll(1000);
  auto times = ReceiveTimes();
  ASSERT_EQ(times.size(), 40u);
  EXPECT_EQ(times.front(), 1u);
  EXPECT_EQ(times.back(), 40u);
  EXPECT_EQ(node_->buffered(), 10u);
}

TEST_F(MergeTest, OutputIsSorted) {
  Init();
  Send("a", 3, 0);
  Send("b", 1, 0);
  Send("a", 6, 0);
  Send("b", 4, 0);
  Send("a", 9, 0);
  Send("b", 8, 0);
  node_->Poll(100);
  node_->Flush();
  auto times = ReceiveTimes();
  ASSERT_EQ(times.size(), 6u);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

TEST_F(MergeTest, TiesAllowedAcrossStreams) {
  Init();
  Send("a", 5, 1);
  Send("b", 5, 2);
  node_->Poll(100);
  node_->Flush();
  EXPECT_EQ(ReceiveTimes(), (std::vector<uint64_t>{5, 5}));
}

TEST_F(MergeTest, BandedInputsReorderWithinBand) {
  Init(/*band=*/10);
  // Banded stream a delivers slightly out of order.
  Send("a", 12, 0);
  Send("a", 8, 0);   // within band 10 of 12
  Send("a", 15, 0);
  Send("b", 30, 0);
  Send("b", 31, 0);
  node_->Poll(100);
  node_->Flush();
  auto times = ReceiveTimes();
  ASSERT_EQ(times.size(), 5u);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

TEST_F(MergeTest, BandedWatermarkIsSlackened) {
  Init(/*band=*/10);
  Send("a", 20, 0);  // watermark only 10: future a tuples may be >= 10
  Send("b", 5, 0);
  node_->Poll(100);
  // b's head (5) < a's watermark (10): emit. But a's head (20) needs b
  // watermark >= 20; b only guarantees 5-10=0... wait: band applies per
  // stream's own declaration; b's tuple at 5 gives watermark 5-10=0 too.
  auto times = ReceiveTimes();
  EXPECT_EQ(times, (std::vector<uint64_t>{5}));
}

TEST_F(MergeTest, EmitsDownstreamPunctuation) {
  Init();
  Send("a", 10, 0);
  Send("b", 20, 0);
  auto sub = registry_.Subscribe("merged", 64);
  Send("a", 30, 0);
  Send("b", 40, 0);
  node_->Poll(100);
  bool saw_punctuation = false;
  rts::StreamBatch message_batch;
  while ((*sub)->TryPop(&message_batch)) {
    for (const rts::BatchItem& message : message_batch.items()) {
      if (message.kind == rts::MessageKind::kPunctuation) {
        saw_punctuation = true;
      }
    }
  }
  EXPECT_TRUE(saw_punctuation);
}

TEST_F(MergeTest, NoTupleFollowsAHigherBound) {
  Init();
  Send("a", 5, 0);
  Send("a", 8, 0);
  Send("b", 3, 0);
  Send("b", 6, 0);
  node_->Poll(100);
  // 8 waits for b to pass it. The bound is the least of a's head (8) and
  // b's watermark (6), published after every tuple below it.
  EXPECT_EQ(ReceiveMessages(),
            (std::vector<std::string>{"t3", "t5", "t6", "p6"}));
}

TEST_F(MergeTest, HeartbeatsOnEveryInputReachTheOutput) {
  Init();
  for (uint64_t t = 10; t <= 30; t += 10) {
    SendHeartbeat("a", t);
    SendHeartbeat("b", t + 5);
    node_->Poll(100);
  }
  // Without a tuple the output still advances, to the slower input's bound.
  EXPECT_EQ(ReceiveMessages(),
            (std::vector<std::string>{"p10", "p20", "p30"}));
}

TEST_F(MergeTest, MergedTuplesShareOutputBatches) {
  Init();
  for (uint64_t t = 1; t <= 200; ++t) Send(t % 2 == 1 ? "a" : "b", t, 0);
  SendHeartbeat("a", 1000);
  SendHeartbeat("b", 1000);
  node_->Poll(1000);
  size_t batches = 0;
  const std::vector<std::string> messages = ReceiveMessages(&batches);
  ASSERT_EQ(messages.size(), 201u);
  EXPECT_EQ(messages.front(), "t1");
  EXPECT_EQ(messages.back(), "p1000");
  // 200 tuples in batches of at most 64, the last closed by the bound.
  EXPECT_EQ(batches, 4u);
}

TEST_F(MergeTest, BufferHighWaterTracked) {
  Init();
  for (uint64_t t = 1; t <= 30; ++t) Send("a", t, 0);
  node_->Poll(1000);
  EXPECT_GE(node_->buffer_high_water(), 30u);
}

TEST_F(MergeTest, SkewedBandedInputSortsViaBinaryInsert) {
  // Adversarial insertion pattern for the sorted buffer: every block of
  // ten arrives fully reversed, so all but the first tuple of each block
  // take the binary-search (upper_bound) insertion path. The output must
  // still come out sorted, and the high-water mark must reflect the full
  // buffered backlog — the same accounting as the linear-append path.
  Init(/*band=*/64);
  std::vector<uint64_t> sent;
  for (uint64_t block = 0; block < 10; ++block) {
    for (uint64_t j = 0; j < 10; ++j) {
      uint64_t t = block * 10 + (9 - j) + 1;
      Send("a", t, 0);
      sent.push_back(t);
    }
  }
  node_->Poll(1000);
  // b is silent: nothing can be emitted, everything is buffered.
  EXPECT_TRUE(ReceiveTimes().empty());
  EXPECT_EQ(node_->buffered(), sent.size());
  EXPECT_EQ(node_->buffer_high_water(), sent.size());

  SendHeartbeat("b", 1000);
  node_->Poll(1000);
  node_->Flush();
  auto times = ReceiveTimes();
  std::sort(sent.begin(), sent.end());
  EXPECT_EQ(times, sent);  // fully sorted, nothing lost or duplicated
  // Draining must never push the mark higher than the true backlog.
  EXPECT_EQ(node_->buffer_high_water(), sent.size());
}

/// Merge on a field that follows a STRING: (tag STRING, time UINT).
StreamSchema TaggedSchema(const std::string& name) {
  return StreamSchema(
      name, StreamKind::kStream,
      {FieldDef{"tag", DataType::kString, OrderSpec::None()},
       FieldDef{"time", DataType::kUint, OrderSpec::Increasing()}});
}

TEST(MergeMalformedTest, MalformedTuplesAreCountedAndSkipped) {
  rts::StreamRegistry registry;
  for (const char* name : {"a", "b", "merged"}) {
    ASSERT_TRUE(registry.DeclareStream(TaggedSchema(name)).ok());
  }
  MergeNode::Spec spec;
  spec.name = "merged";
  spec.schema = TaggedSchema("merged");
  spec.merge_field = 1;
  auto in_a = registry.Subscribe("a", 64);
  auto in_b = registry.Subscribe("b", 64);
  auto output = registry.Subscribe("merged", 64);
  ASSERT_TRUE(in_a.ok() && in_b.ok() && output.ok());
  MergeNode node(std::move(spec), {*in_a, *in_b}, &registry);
  const rts::TupleCodec codec(TaggedSchema("merged"));
  auto send = [&](const char* stream, const std::string& tag, uint64_t time) {
    registry.PublishBatch(stream, testing_util::TupleBatch(
                                      codec, {Value::String(tag),
                                              Value::Uint(time)}));
  };

  send("a", "first", 1);
  node.Poll(100);
  ASSERT_EQ(node.buffered(), 1u);
  ByteBuffer cut;
  codec.Encode({Value::String("bad"), Value::Uint(2)}, &cut);
  ByteBuffer long_string = cut;
  cut.pop_back();
  StoreLe32(long_string.data(), 0xfffffff0u);  // the tag's length
  uint64_t errors = 0;
  for (const char* stream : {"a", "b"}) {
    for (const ByteBuffer* bad : {&cut, &long_string}) {
      registry.PublishBatch(stream, testing_util::RawBatch(*bad));
      node.Poll(100);
      EXPECT_EQ(node.eval_errors(), ++errors) << stream;
      EXPECT_EQ(node.buffered(), 1u) << stream;
      EXPECT_EQ(node.tuples_out(), 0u) << stream;
    }
  }
  // The next good tuple is still merged: b's 3 releases a's 1.
  send("b", "second", 3);
  node.Poll(100);
  EXPECT_EQ(node.tuples_out(), 1u);
  node.Flush();
  EXPECT_EQ(node.tuples_out(), 2u);
  EXPECT_EQ(node.eval_errors(), errors);
  std::vector<uint64_t> times;
  rts::StreamBatch batch;
  while ((*output)->TryPop(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch.item(i).kind != rts::MessageKind::kTuple) continue;
      auto row = codec.Decode(batch.payload(i));
      ASSERT_TRUE(row.ok());
      times.push_back((*row)[1].uint_value());
    }
  }
  EXPECT_EQ(times, (std::vector<uint64_t>{1, 3}));
}

}  // namespace
}  // namespace gigascope::ops
