// Malformed-input hardening: hostile bytes through the packet-interpretation
// path and hostile rows through the defrag operator must never crash, read
// out of bounds, or grow state without bound. Undecodable input is counted
// in `parse_errors` and processing continues. Runs clean under ASan/UBSan
// (scripts/check_asan.sh) — the `robustness` ctest label.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.h"
#include "net/headers.h"
#include "ops/defrag.h"
#include "telemetry/metric_names.h"

namespace gigascope {
namespace {

using core::Engine;
using expr::Value;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

net::Packet MakeRawPacket(SimTime timestamp, ByteBuffer bytes) {
  net::Packet packet;
  packet.orig_len = static_cast<uint32_t>(bytes.size());
  packet.bytes = std::move(bytes);
  packet.timestamp = timestamp;
  return packet;
}

ByteBuffer ValidTcpBytes() {
  net::TcpPacketSpec spec;
  spec.src_addr = 0xac100001;
  spec.dst_addr = 0x0a000001;
  spec.src_port = 40000;
  spec.dst_port = 80;
  spec.payload = "GET / HTTP/1.0";
  return net::BuildTcpPacket(spec);
}

uint64_t Metric(const Engine& engine, const std::string& entity,
                const std::string& metric) {
  for (const auto& sample : engine.telemetry().Snapshot()) {
    if (sample.entity == entity && sample.metric == metric) {
      return sample.value;
    }
  }
  return 0;
}

/// Engine with one interface and a select-all probe so the PKT stream (and
/// its full interpretation plan) is live.
class MalformedPacketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.AddInterface("eth0");
    auto info = engine_.AddQuery(
        "DEFINE { query_name probe; } "
        "SELECT time, protocol, destPort, len FROM eth0.PKT");
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    auto sub = engine_.Subscribe("probe");
    ASSERT_TRUE(sub.ok());
    sub_ = std::move(sub).value();
  }

  void Inject(const ByteBuffer& bytes) {
    ++injected_;
    ASSERT_TRUE(
        engine_
            .InjectPacket("eth0", MakeRawPacket(
                                      injected_ * kNanosPerSecond, bytes))
            .ok());
  }

  Engine engine_;
  std::unique_ptr<core::TupleSubscription> sub_;
  SimTime injected_ = 0;
};

TEST_F(MalformedPacketTest, TruncatedEthernetCountedAsParseErrors) {
  // Everything shorter than an Ethernet header is undecodable.
  for (size_t len = 0; len < net::kEthernetHeaderLen; ++len) {
    Inject(ByteBuffer(len, 0x5a));
  }
  engine_.PumpUntilIdle();
  EXPECT_EQ(Metric(engine_, "eth0.PKT", telemetry::metric::kParseErrors),
            net::kEthernetHeaderLen);
  // The engine keeps running: a valid packet still interprets afterwards.
  Inject(ValidTcpBytes());
  engine_.PumpUntilIdle();
  engine_.FlushAll();
  bool saw_tcp = false;
  while (auto row = sub_->NextRow()) {
    if ((*row)[1].uint_value() == net::kIpProtoTcp) saw_tcp = true;
  }
  EXPECT_TRUE(saw_tcp);
}

TEST_F(MalformedPacketTest, TruncationLadderNeverFaults) {
  // A valid packet truncated at every possible length: the decoder must
  // stop at whatever layer the bytes no longer support, never read past
  // the buffer.
  ByteBuffer valid = ValidTcpBytes();
  for (size_t len = 0; len <= valid.size(); ++len) {
    Inject(ByteBuffer(valid.begin(), valid.begin() + static_cast<long>(len)));
  }
  engine_.PumpUntilIdle();
  engine_.FlushAll();
  // Sub-Ethernet truncations are parse errors; deeper ones interpret with
  // absent layers defaulted.
  EXPECT_EQ(Metric(engine_, "eth0.PKT", telemetry::metric::kParseErrors),
            net::kEthernetHeaderLen);
}

TEST_F(MalformedPacketTest, HeaderLyingIhlAndLengthNeverFaults) {
  ByteBuffer valid = ValidTcpBytes();
  // IHL claims a 60-byte IP header but only 20 bytes are present.
  ByteBuffer lying_ihl = valid;
  lying_ihl[net::kEthernetHeaderLen] = 0x4F;  // version 4, IHL 15
  Inject(lying_ihl);
  // Total-length field claims 64 KiB.
  ByteBuffer lying_len = valid;
  lying_len[net::kEthernetHeaderLen + 2] = 0xFF;
  lying_len[net::kEthernetHeaderLen + 3] = 0xFF;
  Inject(lying_len);
  // IHL below the minimum (garbage header length).
  ByteBuffer tiny_ihl = valid;
  tiny_ihl[net::kEthernetHeaderLen] = 0x41;  // version 4, IHL 1
  Inject(tiny_ihl);
  // No crash and no OOB is the assertion; rows may or may not decode deep
  // layers. The engine survives a valid packet afterwards.
  Inject(ValidTcpBytes());
  engine_.PumpUntilIdle();
  engine_.FlushAll();
  SUCCEED();
}

TEST_F(MalformedPacketTest, RandomGarbageCorpusNeverFaults) {
  // Deterministic xorshift corpus: 512 packets of pseudo-random length and
  // content, interleaved with valid traffic.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 512; ++i) {
    ByteBuffer bytes(next() % 200, 0);
    for (auto& b : bytes) b = static_cast<uint8_t>(next());
    Inject(bytes);
    if (i % 16 == 0) Inject(ValidTcpBytes());
  }
  engine_.PumpUntilIdle();
  engine_.FlushAll();
  uint64_t rows = 0;
  while (sub_->NextRow()) ++rows;
  EXPECT_GT(rows, 0u);  // valid interleave still flowed end to end
}

/// Hostile defrag input: a caller-declared PKT-shaped stream fed with
/// InjectRow gives full control over the fragment header fields — rows are
/// not constrained by what the wire format can express, so the operator's
/// own bounds are the only defense.
class HostileDefragTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<FieldDef> fields;
    fields.push_back({"time", DataType::kUint, OrderSpec::Increasing()});
    fields.push_back({"srcIP", DataType::kIp, OrderSpec::None()});
    fields.push_back({"destIP", DataType::kIp, OrderSpec::None()});
    fields.push_back({"protocol", DataType::kUint, OrderSpec::None()});
    fields.push_back({"ipId", DataType::kUint, OrderSpec::None()});
    fields.push_back({"fragOffset", DataType::kUint, OrderSpec::None()});
    fields.push_back({"moreFrags", DataType::kUint, OrderSpec::None()});
    fields.push_back({"ipPayload", DataType::kString, OrderSpec::None()});
    StreamSchema schema("frags", StreamKind::kStream, fields);
    ASSERT_TRUE(engine_.DeclareStream(schema).ok());
    auto input = engine_.registry().Subscribe("frags", 4096);
    ASSERT_TRUE(input.ok());
    ops::IpDefragNode::Spec spec;
    spec.name = "defrag0";
    spec.input_schema = schema;
    auto node = ops::IpDefragNode::Create(std::move(spec), *input,
                                          &engine_.registry());
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    node_ = node->get();
    ASSERT_TRUE(engine_.AddNode(std::move(node).value()).ok());
    auto sub = engine_.Subscribe("defrag0");
    ASSERT_TRUE(sub.ok());
    sub_ = std::move(sub).value();
  }

  void InjectFrag(uint64_t time, uint64_t ip_id, uint64_t offset_units,
                  uint64_t more_frags, const std::string& payload) {
    rts::Row row;
    row.push_back(Value::Uint(time));
    row.push_back(Value::Ip(0x0a000001));
    row.push_back(Value::Ip(0x0a000002));
    row.push_back(Value::Uint(net::kIpProtoUdp));
    row.push_back(Value::Uint(ip_id));
    row.push_back(Value::Uint(offset_units));
    row.push_back(Value::Uint(more_frags));
    row.push_back(Value::String(payload));
    ASSERT_TRUE(engine_.InjectRow("frags", row).ok());
  }

  Engine engine_;
  ops::IpDefragNode* node_ = nullptr;
  std::unique_ptr<core::TupleSubscription> sub_;
};

TEST_F(HostileDefragTest, FragmentClaimingSpanPastDeclaredEndIsTruncated) {
  // A fragment after the MF=0 one claims bytes beyond the declared total
  // length. Before hardening this threw std::out_of_range from
  // string::replace past the datagram end.
  InjectFrag(1, 7, 0, 1, std::string(100, 'a'));   // covers [0, 100)
  InjectFrag(1, 7, 8, 1, std::string(40, 'b'));    // covers [64, 104)
  InjectFrag(1, 7, 5, 0, std::string(10, 'c'));    // MF=0: total_len = 50
  engine_.PumpUntilIdle();
  auto row = sub_->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[4].string_value().size(), 50u);
  EXPECT_EQ(node_->open_assemblies(), 0u);
}

TEST_F(HostileDefragTest, ImpossibleFragOffsetRejected) {
  // The IPv4 fragment-offset field is 13 bits; anything larger is a lie.
  InjectFrag(1, 8, ops::IpDefragNode::kMaxFragOffsetUnits + 1, 1, "xx");
  InjectFrag(1, 8, uint64_t{1} << 40, 1, "xx");
  engine_.PumpUntilIdle();
  EXPECT_EQ(node_->parse_errors(), 2u);
  EXPECT_EQ(node_->open_assemblies(), 0u);
  EXPECT_FALSE(sub_->NextRow().has_value());
}

TEST_F(HostileDefragTest, DataPastDatagramLimitRejected) {
  // Maximum legal offset plus a payload that would cross 64 KiB.
  InjectFrag(1, 9, ops::IpDefragNode::kMaxFragOffsetUnits, 0,
             std::string(100, 'x'));
  engine_.PumpUntilIdle();
  EXPECT_EQ(node_->parse_errors(), 1u);
  EXPECT_EQ(node_->open_assemblies(), 0u);
  // The boundary itself is accepted: 7 bytes at the max offset end exactly
  // at 65535.
  InjectFrag(2, 10, ops::IpDefragNode::kMaxFragOffsetUnits, 1,
             std::string(7, 'y'));
  engine_.PumpUntilIdle();
  EXPECT_EQ(node_->parse_errors(), 1u);
  EXPECT_EQ(node_->open_assemblies(), 1u);
}

TEST_F(HostileDefragTest, FragmentFloodOnOneKeyIsBounded) {
  // More fragments than a legitimate 64 KiB datagram can hold, all on one
  // assembly key and never completing: the assembly is abandoned instead
  // of growing without bound.
  const size_t cap = ops::IpDefragNode::kMaxFragmentsPerAssembly;
  for (size_t i = 0; i <= cap; ++i) {
    InjectFrag(1, 11, i % (ops::IpDefragNode::kMaxFragOffsetUnits + 1), 1,
               "z");
    if (i % 1024 == 0) engine_.PumpUntilIdle();
  }
  engine_.PumpUntilIdle();
  EXPECT_GE(node_->parse_errors(), 1u);
  EXPECT_EQ(node_->open_assemblies(), 0u);
  EXPECT_FALSE(sub_->NextRow().has_value());
}

TEST_F(HostileDefragTest, OverlappingHostileFragmentsStayWithinSpan) {
  InjectFrag(1, 12, 0, 1, std::string(32, 'a'));  // [0, 32)
  InjectFrag(1, 12, 2, 0, std::string(32, 'b'));  // [16, 48), total 48
  engine_.PumpUntilIdle();
  auto row = sub_->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[4].string_value().size(), 48u);
  EXPECT_EQ(node_->parse_errors(), 0u);
}

/// A value's type and exact contents, a FLOAT by its bit pattern, so -0.0
/// and every NaN compare by what was decoded rather than by ==.
std::string ValueBits(const Value& value) {
  std::string out = std::to_string(static_cast<int>(value.type())) + ":";
  switch (value.type()) {
    case DataType::kBool:
      return out + (value.bool_value() ? "1" : "0");
    case DataType::kInt:
      return out + std::to_string(value.int_value());
    case DataType::kUint:
      return out + std::to_string(value.uint_value());
    case DataType::kFloat:
      return out +
             std::to_string(std::bit_cast<uint64_t>(value.float_value()));
    case DataType::kIp:
      return out + std::to_string(value.ip_value());
    case DataType::kString:
      return out + value.string_value();
  }
  return out;
}

// The subscriber edge builds each row in place from the packed bits. Every
// row NextRow returns must equal TupleCodec::Decode's row of the same bytes,
// field by field in type and bits, over each type's edge values; a
// truncated tuple in the middle of a batch is skipped, and the rows after
// it still come back.
TEST(SubscriberDecodeTest, NextRowMatchesDecodeForEveryType) {
  const StreamSchema schema(
      "edges", StreamKind::kStream,
      {FieldDef{"b", DataType::kBool, OrderSpec::None()},
       FieldDef{"s", DataType::kString, OrderSpec::None()},
       FieldDef{"i", DataType::kInt, OrderSpec::None()},
       FieldDef{"u", DataType::kUint, OrderSpec::None()},
       FieldDef{"f", DataType::kFloat, OrderSpec::None()},
       FieldDef{"ip", DataType::kIp, OrderSpec::None()}});
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<Value>> columns = {
      {Value::Bool(false), Value::Bool(true)},
      {Value::String(""), Value::String(std::string("a\0b", 3)),
       Value::String(std::string(1500, 'p'))},
      {Value::Int(std::numeric_limits<int64_t>::min()), Value::Int(-1),
       Value::Int(0), Value::Int(std::numeric_limits<int64_t>::max())},
      {Value::Uint(std::numeric_limits<uint64_t>::max()), Value::Uint(0),
       Value::Uint(1)},
      {Value::Float(-0.0),
       Value::Float(std::numeric_limits<double>::quiet_NaN()),
       Value::Float(inf), Value::Float(-inf), Value::Float(0.5)},
      {Value::Ip(0), Value::Ip(0xffffffff), Value::Ip(0x0a000001)},
  };
  // Row r takes value r mod n of each column, so every value appears.
  std::vector<rts::Row> rows;
  for (size_t r = 0; r < 12; ++r) {
    rts::Row row;
    for (const std::vector<Value>& column : columns) {
      row.push_back(column[r % column.size()]);
    }
    rows.push_back(std::move(row));
  }

  rts::StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(schema).ok());
  auto channel = registry.Subscribe("edges", 64);
  ASSERT_TRUE(channel.ok());
  core::TupleSubscription sub(*channel, schema);
  const rts::TupleCodec codec(schema);

  // Every third row is preceded by its own bytes cut one short, in the
  // middle of a batch; a punctuation closes each batch of four or more.
  std::vector<ByteBuffer> sent;
  rts::StreamBatch batch;
  for (size_t r = 0; r < rows.size(); ++r) {
    ByteBuffer bytes;
    codec.Encode(rows[r], &bytes);
    if (r % 3 == 1) {
      batch.Append(rts::MessageMeta{},
                   ByteSpan(bytes.data(), bytes.size() - 1));
      ASSERT_FALSE(codec.Decode(batch.payload(batch.size() - 1)).ok());
    }
    batch.Append(rts::MessageMeta{}, ByteSpan(bytes.data(), bytes.size()));
    sent.push_back(std::move(bytes));
    if (batch.size() >= 4 || r + 1 == rows.size()) {
      rts::MessageMeta punctuation;
      punctuation.kind = rts::MessageKind::kPunctuation;
      batch.Append(punctuation, ByteSpan());
      registry.PublishBatch("edges", std::move(batch));
      batch = rts::StreamBatch();
    }
  }

  for (size_t r = 0; r < rows.size(); ++r) {
    auto row = sub.NextRow();
    ASSERT_TRUE(row.has_value()) << "row " << r;
    auto decoded = codec.Decode(ByteSpan(sent[r].data(), sent[r].size()));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(row->size(), schema.num_fields());
    ASSERT_EQ(decoded->size(), schema.num_fields());
    for (size_t f = 0; f < schema.num_fields(); ++f) {
      EXPECT_EQ(ValueBits((*row)[f]), ValueBits((*decoded)[f]))
          << "row " << r << " field " << f;
      EXPECT_EQ(ValueBits((*row)[f]), ValueBits(rows[r][f]))
          << "row " << r << " field " << f;
    }
  }
  EXPECT_FALSE(sub.NextRow().has_value());
  EXPECT_EQ(sub.pending(), 0u);
  // The four truncated tuples are counted, not lost without a trace.
  EXPECT_EQ(sub.malformed(), 4u);
  EXPECT_EQ(sub.dropped(), 0u);
}

}  // namespace
}  // namespace gigascope
