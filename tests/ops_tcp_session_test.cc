#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "channel_reader.h"
#include "core/engine.h"
#include "net/headers.h"
#include "ops/tcp_session.h"

namespace gigascope::ops {
namespace {

using core::Engine;
using expr::Value;

class TcpSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.AddInterface("eth0");
    ASSERT_TRUE(engine_
                    .AddQuery("DEFINE { query_name probe; } "
                              "SELECT time FROM eth0.PKT")
                    .ok());
    auto input = engine_.registry().Subscribe("eth0.PKT", 65536);
    ASSERT_TRUE(input.ok());
    TcpSessionNode::Spec spec;
    spec.name = "sessions";
    auto schema = engine_.registry().GetSchema("eth0.PKT");
    ASSERT_TRUE(schema.ok());
    spec.input_schema = *schema;
    spec.timeout_seconds = 60;
    auto node =
        TcpSessionNode::Create(std::move(spec), *input, &engine_.registry());
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    node_ = node->get();
    ASSERT_TRUE(engine_.AddNode(std::move(node).value()).ok());
    auto sub = engine_.Subscribe("sessions");
    ASSERT_TRUE(sub.ok());
    sub_ = std::move(sub).value();
  }

  /// Injects one TCP packet; src/dst are logical endpoints A=initiator.
  void Packet(uint64_t second, bool from_initiator, uint8_t flags,
              const std::string& payload = "",
              uint16_t initiator_port = 40000) {
    net::TcpPacketSpec spec;
    if (from_initiator) {
      spec.src_addr = 0x0a000001;
      spec.dst_addr = 0x0a000002;
      spec.src_port = initiator_port;
      spec.dst_port = 80;
    } else {
      spec.src_addr = 0x0a000002;
      spec.dst_addr = 0x0a000001;
      spec.src_port = 80;
      spec.dst_port = initiator_port;
    }
    spec.flags = flags;
    spec.payload = payload;
    net::Packet packet;
    packet.bytes = net::BuildTcpPacket(spec);
    packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
    packet.timestamp = static_cast<SimTime>(second) * kNanosPerSecond;
    ASSERT_TRUE(engine_.InjectPacket("eth0", packet).ok());
  }

  std::vector<rts::Row> Sessions() {
    engine_.PumpUntilIdle();
    std::vector<rts::Row> rows;
    while (auto row = sub_->NextRow()) rows.push_back(std::move(*row));
    return rows;
  }

  Engine engine_;
  TcpSessionNode* node_ = nullptr;
  std::unique_ptr<core::TupleSubscription> sub_;
};

TEST_F(TcpSessionTest, FullLifecycleEmitsClosedSession) {
  Packet(1, true, net::kTcpFlagSyn);                       // SYN
  Packet(1, false, net::kTcpFlagSyn | net::kTcpFlagAck);   // SYN|ACK
  Packet(2, true, net::kTcpFlagAck, "GET / HTTP/1.0\r\n");
  Packet(3, false, net::kTcpFlagAck | net::kTcpFlagPsh, "200 OK");
  Packet(4, true, net::kTcpFlagFin | net::kTcpFlagAck);
  Packet(5, false, net::kTcpFlagFin | net::kTcpFlagAck);
  auto sessions = Sessions();
  ASSERT_EQ(sessions.size(), 1u);
  const rts::Row& session = sessions[0];
  EXPECT_EQ(session[0].uint_value(), 5u);          // end time
  EXPECT_EQ(session[1].ip_value(), 0x0a000001u);   // initiator
  EXPECT_EQ(session[2].ip_value(), 0x0a000002u);
  EXPECT_EQ(session[3].uint_value(), 40000u);
  EXPECT_EQ(session[4].uint_value(), 80u);
  EXPECT_EQ(session[5].uint_value(), 6u);          // packets, both ways
  EXPECT_GT(session[6].uint_value(), 0u);          // bytes
  EXPECT_EQ(session[7].uint_value(), 4u);          // duration 1..5
  EXPECT_EQ(session[8].string_value(), "closed");
  EXPECT_EQ(node_->open_sessions(), 0u);
}

TEST_F(TcpSessionTest, ResetEndsSessionImmediately) {
  Packet(1, true, net::kTcpFlagSyn);
  Packet(2, false, net::kTcpFlagRst);
  auto sessions = Sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0][8].string_value(), "reset");
  EXPECT_EQ(node_->sessions_reset(), 1u);
}

TEST_F(TcpSessionTest, OneFinIsNotEnough) {
  Packet(1, true, net::kTcpFlagSyn);
  Packet(2, false, net::kTcpFlagSyn | net::kTcpFlagAck);
  Packet(3, true, net::kTcpFlagFin | net::kTcpFlagAck);
  auto sessions = Sessions();
  EXPECT_TRUE(sessions.empty());
  EXPECT_EQ(node_->open_sessions(), 1u);
}

TEST_F(TcpSessionTest, MidstreamTrafficIgnored) {
  // No SYN observed: data packets must not create a session.
  Packet(1, true, net::kTcpFlagAck, "mid-stream data");
  Packet(2, false, net::kTcpFlagAck, "reply");
  auto sessions = Sessions();
  EXPECT_TRUE(sessions.empty());
  EXPECT_EQ(node_->open_sessions(), 0u);
}

TEST_F(TcpSessionTest, IdleSessionTimesOut) {
  Packet(1, true, net::kTcpFlagSyn);
  Packet(2, false, net::kTcpFlagSyn | net::kTcpFlagAck);
  // Unrelated much-later SYN triggers the expiry sweep (timeout 60s).
  Packet(100, true, net::kTcpFlagSyn, "", 41000);
  auto sessions = Sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0][8].string_value(), "timeout");
  EXPECT_EQ(node_->sessions_timed_out(), 1u);
  EXPECT_EQ(node_->open_sessions(), 1u);  // the new SYN
}

TEST_F(TcpSessionTest, ConcurrentSessionsKeptApart) {
  for (uint16_t port = 50000; port < 50004; ++port) {
    Packet(1, true, net::kTcpFlagSyn, "", port);
  }
  for (uint16_t port = 50000; port < 50004; ++port) {
    Packet(2, true, net::kTcpFlagFin, "", port);
    Packet(3, false, net::kTcpFlagFin, "", port);
  }
  auto sessions = Sessions();
  EXPECT_EQ(sessions.size(), 4u);
  EXPECT_EQ(node_->sessions_closed(), 4u);
}

TEST_F(TcpSessionTest, EndTimesMonotone) {
  // Interleave closes and timeouts; emitted times must never regress
  // (the output field is declared INCREASING).
  Packet(1, true, net::kTcpFlagSyn, "", 51000);
  Packet(2, true, net::kTcpFlagSyn, "", 52000);
  Packet(3, true, net::kTcpFlagRst, "", 52000);   // close the newer first
  Packet(100, true, net::kTcpFlagSyn, "", 53000); // times out the older
  auto sessions = Sessions();
  ASSERT_GE(sessions.size(), 2u);
  uint64_t last = 0;
  for (const rts::Row& session : sessions) {
    EXPECT_GE(session[0].uint_value(), last);
    last = session[0].uint_value();
  }
}

TEST_F(TcpSessionTest, GsqlComposesOverSessions) {
  // §5's motivation: once sessions are a stream, GSQL aggregates them.
  auto info = engine_.AddQuery(
      "DEFINE { query_name longcount; } "
      "SELECT time, count(*) FROM sessions "
      "WHERE duration > 2 GROUP BY time");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto sub = engine_.Subscribe("longcount");
  ASSERT_TRUE(sub.ok());

  Packet(1, true, net::kTcpFlagSyn);
  Packet(10, true, net::kTcpFlagFin);
  Packet(10, false, net::kTcpFlagFin);   // duration 9: qualifies
  Packet(11, true, net::kTcpFlagSyn, "", 42000);
  Packet(12, true, net::kTcpFlagRst, "", 42000);  // duration 1: filtered
  engine_.PumpUntilIdle();
  engine_.FlushAll();

  int qualifying = 0;
  while (auto row = (*sub)->NextRow()) {
    qualifying += static_cast<int>((*row)[1].uint_value());
  }
  EXPECT_EQ(qualifying, 1);
}

TEST_F(TcpSessionTest, MalformedTuplesAreCountedAndSkipped) {
  Packet(1, true, net::kTcpFlagSyn);
  engine_.PumpUntilIdle();
  ASSERT_EQ(node_->open_sessions(), 1u);

  // A SYN that would open a second session, packed as the protocol stream
  // carries it, then damaged: cut one byte short, and with the payload
  // string's length running past the end.
  auto schema = engine_.registry().GetSchema("eth0.PKT");
  ASSERT_TRUE(schema.ok());
  const rts::TupleCodec codec(*schema);
  net::TcpPacketSpec spec;
  spec.src_addr = 0x0a000003;
  spec.dst_addr = 0x0a000002;
  spec.src_port = 45000;
  spec.dst_port = 80;
  spec.flags = net::kTcpFlagSyn;
  spec.payload = "syn";
  net::Packet packet;
  packet.bytes = net::BuildTcpPacket(spec);
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  packet.timestamp = 2 * kNanosPerSecond;
  ByteBuffer cut;
  codec.Encode(core::InterpretPacket(*schema, packet), &cut);
  ByteBuffer long_string = cut;
  cut.pop_back();
  StoreLe32(const_cast<uint8_t*>(codec.Locate(
                long_string.data(), *schema->FieldIndex("payload"))),
            0xfffffff0u);
  for (const ByteBuffer* bad : {&cut, &long_string}) {
    const uint64_t errors = node_->eval_errors();
    engine_.registry().PublishBatch("eth0.PKT", testing_util::RawBatch(*bad));
    EXPECT_TRUE(Sessions().empty());
    EXPECT_EQ(node_->eval_errors(), errors + 1);
    EXPECT_EQ(node_->open_sessions(), 1u);
  }
  // The next good tuple is still tracked, and closes the first session.
  Packet(3, true, net::kTcpFlagRst);
  auto sessions = Sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0][8].string_value(), "reset");
  EXPECT_EQ(node_->open_sessions(), 0u);
  EXPECT_EQ(node_->eval_errors(), 2u);
}

// A full table evicts its stalest session as a timeout: the lowest
// last_time, ties to the first key in table order. 3 x max_sessions
// distinct SYNs arrive over four seconds, 48 a second and their ports
// shuffled within each second; no second brings more than max_sessions,
// so every eviction finds a session of an earlier second, all of whose
// sessions have arrived. The timeout rows are then exactly the 2 x
// max_sessions smallest (time, key) pairs, in (time, key) order.
TEST(TcpSessionEvictionTest, FullTableEvictsInTimeThenKeyOrder) {
  constexpr size_t kMaxSessions = 64;
  constexpr uint16_t kPerSecond = 48;
  constexpr uint16_t kSyns = 3 * kMaxSessions;
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name probe; } "
                            "SELECT time FROM eth0.PKT")
                  .ok());
  auto input = engine.registry().Subscribe("eth0.PKT", 65536);
  ASSERT_TRUE(input.ok());
  TcpSessionNode::Spec spec;
  spec.name = "sessions";
  spec.input_schema = *engine.registry().GetSchema("eth0.PKT");
  spec.max_sessions = kMaxSessions;
  auto node = TcpSessionNode::Create(std::move(spec), *input,
                                     &engine.registry());
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  TcpSessionNode* sessions = node->get();
  ASSERT_TRUE(engine.AddNode(std::move(node).value()).ok());
  auto sub = engine.Subscribe("sessions");
  ASSERT_TRUE(sub.ok());

  // Every SYN runs from 10.0.0.1 to 10.0.0.2:80, so the table orders its
  // sessions by source port.
  std::vector<std::pair<uint64_t, uint16_t>> offered;
  for (uint16_t i = 0; i < kSyns; ++i) {
    const uint64_t second = 1 + i / kPerSecond;
    const auto port = static_cast<uint16_t>(
        40000 + (i / kPerSecond) * kPerSecond + (i * 29) % kPerSecond);
    offered.emplace_back(second, port);
    net::TcpPacketSpec syn;
    syn.src_addr = 0x0a000001;
    syn.dst_addr = 0x0a000002;
    syn.src_port = port;
    syn.dst_port = 80;
    syn.flags = net::kTcpFlagSyn;
    net::Packet packet;
    packet.bytes = net::BuildTcpPacket(syn);
    packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
    packet.timestamp = static_cast<SimTime>(second) * kNanosPerSecond;
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
  }
  engine.PumpUntilIdle();

  std::vector<std::pair<uint64_t, uint16_t>> evicted;
  while (auto row = (*sub)->NextRow()) {
    EXPECT_EQ((*row)[8].string_value(), "timeout");
    evicted.emplace_back((*row)[0].uint_value(),
                         static_cast<uint16_t>((*row)[3].uint_value()));
  }
  std::sort(offered.begin(), offered.end());
  offered.resize(kSyns - kMaxSessions);
  EXPECT_EQ(evicted, offered);
  EXPECT_EQ(sessions->open_sessions(), kMaxSessions);
  EXPECT_EQ(sessions->sessions_timed_out(), kSyns - kMaxSessions);
}

TEST(TcpSessionCreateTest, RejectsSchemaWithoutTcpFields) {
  rts::StreamRegistry registry;
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"time", gsql::DataType::kUint,
                    gsql::OrderSpec::Increasing()});
  gsql::StreamSchema schema("thin", gsql::StreamKind::kStream, fields);
  ASSERT_TRUE(registry.DeclareStream(schema).ok());
  auto input = registry.Subscribe("thin", 16);
  ASSERT_TRUE(input.ok());
  TcpSessionNode::Spec spec;
  spec.name = "s";
  spec.input_schema = schema;
  EXPECT_FALSE(
      TcpSessionNode::Create(std::move(spec), *input, &registry).ok());
}

}  // namespace
}  // namespace gigascope::ops
