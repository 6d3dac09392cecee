#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "channel_reader.h"
#include "core/engine.h"
#include "net/headers.h"
#include "ops/defrag.h"

namespace gigascope::ops {
namespace {

using core::Engine;
using expr::Value;

net::Packet MakePacket(SimTime timestamp, const ByteBuffer& bytes) {
  net::Packet packet;
  packet.bytes = bytes;
  packet.orig_len = static_cast<uint32_t>(bytes.size());
  packet.timestamp = timestamp;
  return packet;
}

ByteBuffer BigUdpDatagram(const std::string& payload, uint16_t ip_id) {
  net::UdpPacketSpec spec;
  spec.src_addr = 0x0a000001;
  spec.dst_addr = 0x0a000002;
  spec.src_port = 1111;
  spec.dst_port = 2222;
  spec.ip_id = ip_id;
  spec.payload = payload;
  return net::BuildUdpPacket(spec);
}

TEST(FragmentTest, SplitsAndTagsFragments) {
  ByteBuffer packet = BigUdpDatagram(std::string(1000, 'x'), 7);
  auto fragments = net::FragmentIpv4Packet(packet, 256);
  ASSERT_TRUE(fragments.ok()) << fragments.status().ToString();
  // 1008 bytes of IP payload (8 UDP header + 1000) in 256-byte chunks.
  ASSERT_EQ(fragments->size(), 4u);
  for (size_t i = 0; i < fragments->size(); ++i) {
    auto decoded = net::DecodePacket(
        ByteSpan((*fragments)[i].data(), (*fragments)[i].size()));
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(decoded->is_ipv4());
    EXPECT_EQ(decoded->ip->identification, 7);
    EXPECT_EQ(decoded->ip->fragment_offset, i * 256 / 8);
    EXPECT_EQ(decoded->ip->more_fragments(), i + 1 < fragments->size());
    // Checksums must be valid per fragment.
    ByteSpan header((*fragments)[i].data() + net::kEthernetHeaderLen,
                    net::kIpv4MinHeaderLen);
    EXPECT_EQ(net::InternetChecksum(header), 0);
  }
}

TEST(FragmentTest, SmallPacketPassesThrough) {
  ByteBuffer packet = BigUdpDatagram("small", 1);
  auto fragments = net::FragmentIpv4Packet(packet, 256);
  ASSERT_TRUE(fragments.ok());
  ASSERT_EQ(fragments->size(), 1u);
  EXPECT_EQ((*fragments)[0], packet);
}

TEST(FragmentTest, RejectsBadMtu) {
  ByteBuffer packet = BigUdpDatagram("x", 1);
  EXPECT_FALSE(net::FragmentIpv4Packet(packet, 0).ok());
  EXPECT_FALSE(net::FragmentIpv4Packet(packet, 100).ok());  // not mult of 8
}

/// End-to-end fixture: engine + defrag node over eth0.PKT.
class DefragTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.AddInterface("eth0");
    // Force the protocol stream into existence with a trivial query.
    ASSERT_TRUE(engine_
                    .AddQuery("DEFINE { query_name probe; } "
                              "SELECT time FROM eth0.PKT")
                    .ok());
    auto input = engine_.registry().Subscribe("eth0.PKT", 4096);
    ASSERT_TRUE(input.ok());
    IpDefragNode::Spec spec;
    spec.name = "defrag0";
    auto schema = engine_.registry().GetSchema("eth0.PKT");
    ASSERT_TRUE(schema.ok());
    spec.input_schema = *schema;
    spec.timeout_seconds = 30;
    auto node = IpDefragNode::Create(std::move(spec), *input,
                                     &engine_.registry());
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    node_ = node->get();
    ASSERT_TRUE(engine_.AddNode(std::move(node).value()).ok());
    auto sub = engine_.Subscribe("defrag0");
    ASSERT_TRUE(sub.ok());
    sub_ = std::move(sub).value();
  }

  void Inject(SimTime timestamp, const ByteBuffer& bytes) {
    ASSERT_TRUE(engine_.InjectPacket("eth0", MakePacket(timestamp, bytes))
                    .ok());
  }

  Engine engine_;
  IpDefragNode* node_ = nullptr;
  std::unique_ptr<core::TupleSubscription> sub_;
};

TEST_F(DefragTest, ReassemblesInOrderFragments) {
  std::string payload(1000, 'a');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  auto fragments =
      net::FragmentIpv4Packet(BigUdpDatagram(payload, 9), 256);
  ASSERT_TRUE(fragments.ok());
  for (const auto& fragment : *fragments) {
    Inject(kNanosPerSecond, fragment);
  }
  engine_.PumpUntilIdle();
  auto row = sub_->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].ip_value(), 0x0a000001u);
  EXPECT_EQ((*row)[3].uint_value(), net::kIpProtoUdp);
  const std::string& datagram = (*row)[4].string_value();
  ASSERT_EQ(datagram.size(), net::kUdpHeaderLen + payload.size());
  EXPECT_EQ(datagram.substr(net::kUdpHeaderLen), payload);
  EXPECT_EQ(node_->open_assemblies(), 0u);
}

TEST_F(DefragTest, ReassemblesOutOfOrderFragments) {
  auto fragments =
      net::FragmentIpv4Packet(BigUdpDatagram(std::string(900, 'z'), 10),
                              256);
  ASSERT_TRUE(fragments.ok());
  ASSERT_GE(fragments->size(), 3u);
  // Deliver last-first.
  for (auto it = fragments->rbegin(); it != fragments->rend(); ++it) {
    Inject(kNanosPerSecond, *it);
  }
  engine_.PumpUntilIdle();
  EXPECT_TRUE(sub_->NextRow().has_value());
}

TEST_F(DefragTest, UnfragmentedPacketsPassThrough) {
  Inject(kNanosPerSecond, BigUdpDatagram("hello", 11));
  engine_.PumpUntilIdle();
  auto row = sub_->NextRow();
  ASSERT_TRUE(row.has_value());
  // UDP header (8 bytes) then payload.
  EXPECT_EQ((*row)[4].string_value().substr(net::kUdpHeaderLen), "hello");
}

TEST_F(DefragTest, MissingFragmentNeverEmits) {
  auto fragments =
      net::FragmentIpv4Packet(BigUdpDatagram(std::string(900, 'q'), 12),
                              256);
  ASSERT_TRUE(fragments.ok());
  for (size_t i = 0; i < fragments->size(); ++i) {
    if (i == 1) continue;  // drop one middle fragment
    Inject(kNanosPerSecond, (*fragments)[i]);
  }
  engine_.PumpUntilIdle();
  EXPECT_FALSE(sub_->NextRow().has_value());
  EXPECT_EQ(node_->open_assemblies(), 1u);
}

TEST_F(DefragTest, InterleavedDatagramsKeptApart) {
  auto a = net::FragmentIpv4Packet(BigUdpDatagram(std::string(600, 'a'), 21),
                                   256);
  auto b = net::FragmentIpv4Packet(BigUdpDatagram(std::string(600, 'b'), 22),
                                   256);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    Inject(kNanosPerSecond, (*a)[i]);
    if (i < b->size()) Inject(kNanosPerSecond, (*b)[i]);
  }
  engine_.PumpUntilIdle();
  int complete = 0;
  bool saw_a = false, saw_b = false;
  while (auto row = sub_->NextRow()) {
    ++complete;
    const std::string& datagram = (*row)[4].string_value();
    if (datagram.find(std::string(100, 'a')) != std::string::npos)
      saw_a = true;
    if (datagram.find(std::string(100, 'b')) != std::string::npos)
      saw_b = true;
  }
  EXPECT_EQ(complete, 2);
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST_F(DefragTest, StaleAssembliesTimeOut) {
  auto fragments =
      net::FragmentIpv4Packet(BigUdpDatagram(std::string(900, 't'), 30),
                              256);
  ASSERT_TRUE(fragments.ok());
  Inject(kNanosPerSecond, (*fragments)[0]);  // only the first fragment
  engine_.PumpUntilIdle();
  EXPECT_EQ(node_->open_assemblies(), 1u);
  // A much later unrelated packet expires the assembly (timeout 30s).
  Inject(100 * kNanosPerSecond, BigUdpDatagram("later", 31));
  engine_.PumpUntilIdle();
  EXPECT_EQ(node_->open_assemblies(), 0u);
  EXPECT_EQ(node_->timeouts(), 1u);
}

// A full reassembly cache evicts its oldest partial: the lowest
// first-seen time, ties to the first key in table order (here the lower
// IP id). With room for two, A (id 40, second 1) goes when C arrives, and
// of B (id 30) and C (id 20), both first seen at second 2, C goes when D
// arrives. B and D then complete; A and C were dropped as timeouts.
TEST(DefragEvictionTest, FullCacheEvictsOldestThenFirstKey) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name probe; } "
                            "SELECT time FROM eth0.PKT")
                  .ok());
  auto input = engine.registry().Subscribe("eth0.PKT", 4096);
  ASSERT_TRUE(input.ok());
  IpDefragNode::Spec spec;
  spec.name = "defrag0";
  spec.input_schema = *engine.registry().GetSchema("eth0.PKT");
  spec.max_assemblies = 2;
  auto node =
      IpDefragNode::Create(std::move(spec), *input, &engine.registry());
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  IpDefragNode* defrag = node->get();
  ASSERT_TRUE(engine.AddNode(std::move(node).value()).ok());
  auto sub = engine.Subscribe("defrag0");
  ASSERT_TRUE(sub.ok());

  struct Datagram {
    uint16_t ip_id;
    uint64_t second;
    char fill;
  };
  const Datagram datagrams[] = {
      {40, 1, 'a'}, {30, 2, 'b'}, {20, 2, 'c'}, {10, 3, 'd'}};
  std::map<uint16_t, std::vector<ByteBuffer>> fragments;
  for (const Datagram& d : datagrams) {
    auto split = net::FragmentIpv4Packet(
        BigUdpDatagram(std::string(600, d.fill), d.ip_id), 256);
    ASSERT_TRUE(split.ok());
    fragments[d.ip_id] = *split;
    // The first fragment opens the assembly.
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakePacket(static_cast<SimTime>(d.second) *
                                                 kNanosPerSecond,
                                             (*split)[0]))
                    .ok());
  }
  engine.PumpUntilIdle();
  EXPECT_EQ(defrag->open_assemblies(), 2u);
  EXPECT_EQ(defrag->timeouts(), 2u);

  for (uint16_t ip_id : {30, 10}) {
    for (size_t f = 1; f < fragments[ip_id].size(); ++f) {
      ASSERT_TRUE(engine
                      .InjectPacket("eth0", MakePacket(3 * kNanosPerSecond,
                                                       fragments[ip_id][f]))
                      .ok());
    }
  }
  engine.PumpUntilIdle();
  std::string completed;
  while (auto row = (*sub)->NextRow()) {
    completed += (*row)[4].string_value().back();
  }
  EXPECT_EQ(completed, "bd");
  EXPECT_EQ(defrag->open_assemblies(), 0u);
}

TEST_F(DefragTest, QueryComposesOverDefragOutput) {
  // §3: "we have ... built a query tree using it" — a GSQL query reads the
  // defrag node's output stream like any other.
  auto info = engine_.AddQuery(
      "DEFINE { query_name big; } "
      "SELECT time, srcIP, str_len(datagram) AS sz FROM defrag0 "
      "WHERE str_len(datagram) > 500");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto sub = engine_.Subscribe("big");
  ASSERT_TRUE(sub.ok());

  auto fragments =
      net::FragmentIpv4Packet(BigUdpDatagram(std::string(900, 'c'), 40),
                              256);
  ASSERT_TRUE(fragments.ok());
  for (const auto& fragment : *fragments) {
    Inject(kNanosPerSecond, fragment);
  }
  Inject(2 * kNanosPerSecond, BigUdpDatagram("tiny", 41));
  engine_.PumpUntilIdle();

  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[2].uint_value(), 900u + net::kUdpHeaderLen);
  EXPECT_FALSE((*sub)->NextRow().has_value());  // the tiny one is filtered
}

TEST_F(DefragTest, MalformedTuplesAreCountedAndSkipped) {
  auto fragments =
      net::FragmentIpv4Packet(BigUdpDatagram(std::string(600, 'm'), 50),
                              256);
  ASSERT_TRUE(fragments.ok());
  ASSERT_EQ(fragments->size(), 3u);
  Inject(kNanosPerSecond, (*fragments)[0]);
  engine_.PumpUntilIdle();
  ASSERT_EQ(node_->open_assemblies(), 1u);

  // The missing fragments, packed as the protocol stream carries them,
  // then damaged: cut one byte short, and with the ipPayload string's
  // length running past the end.
  auto schema = engine_.registry().GetSchema("eth0.PKT");
  ASSERT_TRUE(schema.ok());
  const rts::TupleCodec codec(*schema);
  const size_t ip_payload = *schema->FieldIndex("ipPayload");
  for (size_t i = 1; i < fragments->size(); ++i) {
    ByteBuffer cut;
    codec.Encode(core::InterpretPacket(
                     *schema, MakePacket(kNanosPerSecond, (*fragments)[i])),
                 &cut);
    ByteBuffer long_string = cut;
    cut.pop_back();
    StoreLe32(const_cast<uint8_t*>(
                  codec.Locate(long_string.data(), ip_payload)),
              0xfffffff0u);
    for (const ByteBuffer* bad : {&cut, &long_string}) {
      const uint64_t errors = node_->eval_errors();
      engine_.registry().PublishBatch("eth0.PKT",
                                      testing_util::RawBatch(*bad));
      engine_.PumpUntilIdle();
      EXPECT_EQ(node_->eval_errors(), errors + 1) << i;
      EXPECT_EQ(node_->open_assemblies(), 1u) << i;
      EXPECT_EQ(node_->parse_errors(), 0u) << i;
      EXPECT_FALSE(sub_->NextRow().has_value()) << i;
    }
  }
  // The good fragments still complete the datagram.
  Inject(kNanosPerSecond, (*fragments)[1]);
  Inject(kNanosPerSecond, (*fragments)[2]);
  engine_.PumpUntilIdle();
  auto row = sub_->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[4].string_value().substr(net::kUdpHeaderLen),
            std::string(600, 'm'));
  EXPECT_EQ(node_->open_assemblies(), 0u);
  EXPECT_EQ(node_->eval_errors(), 4u);
}

TEST(DefragCreateTest, RejectsSchemaWithoutFragmentFields) {
  rts::StreamRegistry registry;
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"time", gsql::DataType::kUint,
                    gsql::OrderSpec::Increasing()});
  gsql::StreamSchema schema("thin", gsql::StreamKind::kStream, fields);
  ASSERT_TRUE(registry.DeclareStream(schema).ok());
  auto input = registry.Subscribe("thin", 16);
  ASSERT_TRUE(input.ok());
  IpDefragNode::Spec spec;
  spec.name = "d";
  spec.input_schema = schema;
  auto node = IpDefragNode::Create(std::move(spec), *input, &registry);
  EXPECT_FALSE(node.ok());
}

}  // namespace
}  // namespace gigascope::ops
