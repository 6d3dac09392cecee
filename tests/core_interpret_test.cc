// Tests for the packet interpretation library (§2.2: "the Gigascope run
// time system interprets the data packets as a collection of fields using
// a library of interpretation functions") and the sampling UDF.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "frame_corpus.h"
#include "gsql/catalog.h"
#include "net/headers.h"
#include "rts/punctuation.h"
#include "workload/traffic_gen.h"

namespace gigascope::core {
namespace {

using expr::Value;
using gsql::DataType;

net::Packet SamplePacket() {
  net::TcpPacketSpec spec;
  spec.src_addr = 0x0a000001;
  spec.dst_addr = 0xc0a80102;
  spec.src_port = 49152;
  spec.dst_port = 443;
  spec.seq = 777;
  spec.flags = net::kTcpFlagSyn | net::kTcpFlagAck;
  spec.ip_id = 999;
  spec.payload = "TLS-ish bytes";
  net::Packet packet;
  packet.bytes = net::BuildTcpPacket(spec);
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  packet.timestamp = 5 * kNanosPerSecond + 123;
  return packet;
}

TEST(InterpretPacketTest, AllPktFieldsExtracted) {
  auto schema = gsql::Catalog::BuiltinPacketSchema();
  net::Packet packet = SamplePacket();
  rts::Row row = InterpretPacket(schema, packet);
  ASSERT_EQ(row.size(), schema.num_fields());

  auto get = [&](const char* name) {
    auto index = schema.FieldIndex(name);
    EXPECT_TRUE(index.has_value()) << name;
    return row[*index];
  };
  EXPECT_EQ(get("time").uint_value(), 5u);
  EXPECT_EQ(get("timestamp").uint_value(),
            static_cast<uint64_t>(packet.timestamp));
  EXPECT_EQ(get("srcIP").ip_value(), 0x0a000001u);
  EXPECT_EQ(get("destIP").ip_value(), 0xc0a80102u);
  EXPECT_EQ(get("srcPort").uint_value(), 49152u);
  EXPECT_EQ(get("destPort").uint_value(), 443u);
  EXPECT_EQ(get("protocol").uint_value(), net::kIpProtoTcp);
  EXPECT_EQ(get("ipVersion").uint_value(), 4u);
  EXPECT_EQ(get("len").uint_value(), packet.orig_len);
  EXPECT_EQ(get("tcpFlags").uint_value(),
            uint64_t{net::kTcpFlagSyn | net::kTcpFlagAck});
  EXPECT_EQ(get("tcpSeq").uint_value(), 777u);
  EXPECT_EQ(get("ipId").uint_value(), 999u);
  EXPECT_EQ(get("fragOffset").uint_value(), 0u);
  EXPECT_EQ(get("moreFrags").uint_value(), 0u);
  EXPECT_EQ(get("payload").string_value(), "TLS-ish bytes");
  // ipPayload = TCP header + payload.
  EXPECT_EQ(get("ipPayload").string_value().size(),
            net::kTcpMinHeaderLen + 13);
}

/// The row of `schema`'s PKT fields that `packet` should interpret to at
/// sim time `t`: each header field as net::DecodePacket reads it in the
/// frame (HeadersPropertyTest pins that against the bytes), `payload` as
/// its payload and `ipPayload` as the frame after the IP header, each of
/// the two empty unless wanted. A layer DecodePacket does not find reads
/// as zero.
rts::Row ExpectedRow(const gsql::StreamSchema& schema,
                     const net::Packet& packet, SimTime t, bool payload,
                     bool ip_payload) {
  std::map<std::string, Value> by_name = {
      {"time", Value::Uint(static_cast<uint64_t>(SimTimeToSeconds(t)))},
      {"timestamp", Value::Uint(static_cast<uint64_t>(t))},
      {"len", Value::Uint(packet.orig_len)},
      {"srcIP", Value::Ip(0)}, {"destIP", Value::Ip(0)},
      {"srcPort", Value::Uint(0)}, {"destPort", Value::Uint(0)},
      {"protocol", Value::Uint(0)}, {"ipVersion", Value::Uint(0)},
      {"tcpFlags", Value::Uint(0)}, {"tcpSeq", Value::Uint(0)},
      {"ipId", Value::Uint(0)}, {"fragOffset", Value::Uint(0)},
      {"moreFrags", Value::Uint(0)},
      {"payload", Value::String("")}, {"ipPayload", Value::String("")}};
  auto text = [](const uint8_t* data, size_t size) {
    return Value::String(std::string(reinterpret_cast<const char*>(data),
                                     size));
  };
  const auto decoded = net::DecodePacket(packet.view());
  if (decoded.ok()) {
    if (payload) {
      by_name["payload"] =
          text(decoded->payload.data(), decoded->payload.size());
    }
    if (decoded->ip.has_value()) {
      const net::Ipv4Header& ip = *decoded->ip;
      by_name["srcIP"] = Value::Ip(ip.src_addr);
      by_name["destIP"] = Value::Ip(ip.dst_addr);
      by_name["protocol"] = Value::Uint(ip.protocol);
      by_name["ipVersion"] = Value::Uint(ip.version);
      by_name["ipId"] = Value::Uint(ip.identification);
      by_name["fragOffset"] = Value::Uint(ip.fragment_offset);
      by_name["moreFrags"] = Value::Uint(ip.more_fragments() ? 1 : 0);
      const size_t start = net::kEthernetHeaderLen + ip.header_len;
      if (ip_payload) {
        by_name["ipPayload"] =
            text(packet.bytes.data() + start, packet.bytes.size() - start);
      }
    }
    if (decoded->tcp.has_value()) {
      by_name["srcPort"] = Value::Uint(decoded->tcp->src_port);
      by_name["destPort"] = Value::Uint(decoded->tcp->dst_port);
      by_name["tcpFlags"] = Value::Uint(decoded->tcp->flags);
      by_name["tcpSeq"] = Value::Uint(decoded->tcp->seq);
    } else if (decoded->udp.has_value()) {
      by_name["srcPort"] = Value::Uint(decoded->udp->src_port);
      by_name["destPort"] = Value::Uint(decoded->udp->dst_port);
    }
  }
  rts::Row row;
  for (const gsql::FieldDef& field : schema.fields()) {
    row.push_back(by_name.at(field.name));
  }
  return row;
}

TEST(InterpretPacketTest, HeaderCorpusInterpretsToWhatTheFrameHolds) {
  // DecodePacket and interpretation share one header walk, so every frame
  // of the decoder's property corpus — each spec cut at every length, and
  // the byte flips — must interpret to the fields and payloads the
  // decoder reads in it.
  const gsql::StreamSchema schema = gsql::Catalog::BuiltinPacketSchema();
  size_t frames = 0;
  net::corpus::ForEachCorpusFrame(
      [&](const ByteBuffer& cut, const std::string& what) {
        net::Packet packet;
        packet.bytes = cut;
        packet.orig_len = static_cast<uint32_t>(cut.size());
        packet.timestamp =
            3 * kNanosPerSecond + static_cast<SimTime>(frames++);
        const rts::Row expected =
            ExpectedRow(schema, packet, packet.timestamp, true, true);
        const rts::Row row = InterpretPacket(schema, packet);
        for (size_t f = 0; f < schema.num_fields(); ++f) {
          if (!(row[f] == expected[f])) {
            ADD_FAILURE() << what << ", cut at " << cut.size() << ": "
                          << schema.field(f).name << " is "
                          << row[f].ToString() << ", want "
                          << expected[f].ToString();
            return false;
          }
        }
        return true;
      });
  EXPECT_GT(frames, 100000u);
}

TEST(InterpretPacketTest, FragmentFieldsReflectFragmentation) {
  auto schema = gsql::Catalog::BuiltinPacketSchema();
  net::UdpPacketSpec spec;
  spec.payload = std::string(600, 'f');
  spec.ip_id = 42;
  auto fragments = net::FragmentIpv4Packet(net::BuildUdpPacket(spec), 256);
  ASSERT_TRUE(fragments.ok());
  ASSERT_GE(fragments->size(), 2u);

  net::Packet first;
  first.bytes = (*fragments)[0];
  first.orig_len = static_cast<uint32_t>(first.bytes.size());
  rts::Row row = InterpretPacket(schema, first);
  auto index_of = [&](const char* name) {
    return *schema.FieldIndex(name);
  };
  EXPECT_EQ(row[index_of("ipId")].uint_value(), 42u);
  EXPECT_EQ(row[index_of("fragOffset")].uint_value(), 0u);
  EXPECT_EQ(row[index_of("moreFrags")].uint_value(), 1u);

  net::Packet second;
  second.bytes = (*fragments)[1];
  second.orig_len = static_cast<uint32_t>(second.bytes.size());
  row = InterpretPacket(schema, second);
  EXPECT_EQ(row[index_of("fragOffset")].uint_value(), 256u / 8);
  // Non-first fragments have no transport header: ports default to 0.
  EXPECT_EQ(row[index_of("destPort")].uint_value(), 0u);
}

TEST(InterpretPacketTest, MalformedPacketYieldsDefaults) {
  auto schema = gsql::Catalog::BuiltinPacketSchema();
  net::Packet junk;
  junk.bytes = {1, 2, 3};  // shorter than Ethernet
  junk.orig_len = 3;
  junk.timestamp = kNanosPerSecond;
  rts::Row row = InterpretPacket(schema, junk);
  ASSERT_EQ(row.size(), schema.num_fields());
  EXPECT_EQ(row[*schema.FieldIndex("time")].uint_value(), 1u);
  EXPECT_EQ(row[*schema.FieldIndex("srcIP")].ip_value(), 0u);
  EXPECT_EQ(row[*schema.FieldIndex("payload")].string_value(), "");
}

TEST(InterpretPacketTest, PlannedInterpretationMatchesNameResolved) {
  auto schema = gsql::Catalog::BuiltinPacketSchema();
  InterpretPlan plan = BuildInterpretPlan(schema);
  net::Packet packet = SamplePacket();
  rts::Row by_name = InterpretPacket(schema, packet);
  rts::Row by_plan = InterpretPacket(plan, packet);
  ASSERT_EQ(by_plan.size(), by_name.size());
  for (size_t f = 0; f < by_name.size(); ++f) {
    EXPECT_EQ(by_plan[f].Compare(by_name[f]), 0) << f;
  }
}

TEST(InterpretPacketTest, UnwantedPayloadFieldsInterpretAsDefaults) {
  auto schema = gsql::Catalog::BuiltinPacketSchema();
  InterpretPlan plan = BuildInterpretPlan(schema);
  plan.wanted[*schema.FieldIndex("payload")] = false;
  plan.wanted[*schema.FieldIndex("ipPayload")] = false;
  rts::Row row = InterpretPacket(plan, SamplePacket());
  EXPECT_EQ(row[*schema.FieldIndex("payload")].string_value(), "");
  EXPECT_EQ(row[*schema.FieldIndex("ipPayload")].string_value(), "");
  // Fixed-width fields are never gated.
  EXPECT_EQ(row[*schema.FieldIndex("destPort")].uint_value(), 443u);
  EXPECT_EQ(row[*schema.FieldIndex("srcIP")].ip_value(), 0x0a000001u);
}

TEST(InterpretPacketTest, UnknownFieldsGetTypeDefaults) {
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"time", DataType::kUint, gsql::OrderSpec::Increasing()});
  fields.push_back({"mystery", DataType::kFloat, gsql::OrderSpec::None()});
  fields.push_back({"note", DataType::kString, gsql::OrderSpec::None()});
  gsql::StreamSchema schema("CUSTOM", gsql::StreamKind::kProtocol, fields);
  rts::Row row = InterpretPacket(schema, SamplePacket());
  EXPECT_DOUBLE_EQ(row[1].float_value(), 0.0);
  EXPECT_EQ(row[2].string_value(), "");
}

TEST(InterpretPacketTest, StringBetweenFixedFieldsLandsAtCodecOffsets) {
  // Strings first, between and last: every field after a string sits at
  // an offset that moves with the string's length.
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"payload", DataType::kString, gsql::OrderSpec::None()});
  fields.push_back({"time", DataType::kUint, gsql::OrderSpec::Increasing()});
  fields.push_back({"srcIP", DataType::kIp, gsql::OrderSpec::None()});
  fields.push_back({"ipPayload", DataType::kString, gsql::OrderSpec::None()});
  fields.push_back({"flag", DataType::kBool, gsql::OrderSpec::None()});
  fields.push_back({"destPort", DataType::kUint, gsql::OrderSpec::None()});
  fields.push_back({"note", DataType::kString, gsql::OrderSpec::None()});
  fields.push_back({"len", DataType::kUint, gsql::OrderSpec::None()});
  gsql::StreamSchema schema("eth0.MIXED", gsql::StreamKind::kStream, fields);
  const net::Packet packet = SamplePacket();
  const std::string ip_payload(
      packet.bytes.begin() + net::kEthernetHeaderLen + net::kIpv4MinHeaderLen,
      packet.bytes.end());

  rts::Row row = InterpretPacket(schema, packet);
  EXPECT_EQ(row[0].string_value(), "TLS-ish bytes");
  EXPECT_EQ(row[1].uint_value(), 5u);
  EXPECT_EQ(row[2].ip_value(), 0x0a000001u);
  EXPECT_EQ(row[3].string_value(), ip_payload);
  EXPECT_FALSE(row[4].bool_value());
  EXPECT_EQ(row[5].uint_value(), 443u);
  EXPECT_EQ(row[6].string_value(), "");
  EXPECT_EQ(row[7].uint_value(), packet.orig_len);

  // The engine's path: a source packs into its batch under its gates, and
  // a gate opened between packets takes effect on the next one.
  rts::StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(schema).ok());
  auto channel = registry.Subscribe(schema.name(), 64);
  ASSERT_TRUE(channel.ok());
  PacketSource::Options options;
  options.punctuation_interval = 0;
  PacketSource source(schema, options, /*materialize_all=*/false, &registry);
  ASSERT_FALSE(source.Inject(packet, PacketSource::Offer{}));
  source.WantField(3);  // ipPayload
  ASSERT_FALSE(source.Inject(packet, PacketSource::Offer{}));
  ASSERT_TRUE(source.FlushBatch());
  rts::StreamBatch batch;
  ASSERT_TRUE((*channel)->TryPop(&batch));
  ASSERT_EQ(batch.size(), 2u);

  const rts::TupleCodec codec(schema);
  const rts::ReadSet all = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<const uint8_t*> at(all.size());
  for (size_t k = 0; k < batch.size(); ++k) {
    const ByteSpan tuple = batch.payload(k);
    ASSERT_TRUE(codec.Framed(tuple)) << k;
    codec.LocateFields(tuple.data(), all, at.data());
    const std::string wanted_ip_payload = k == 0 ? "" : ip_payload;
    EXPECT_EQ(LoadLe32(at[0]), 0u) << k;  // payload: never wanted
    EXPECT_EQ(LoadLe64(at[1]), 5u) << k;
    EXPECT_EQ(LoadLe32(at[2]), 0x0a000001u) << k;
    ASSERT_EQ(LoadLe32(at[3]), wanted_ip_payload.size()) << k;
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(at[3] + 4),
                          wanted_ip_payload.size()),
              wanted_ip_payload)
        << k;
    EXPECT_EQ(*at[4], 0) << k;
    EXPECT_EQ(LoadLe64(at[5]), 443u) << k;
    EXPECT_EQ(LoadLe32(at[6]), 0u) << k;
    EXPECT_EQ(LoadLe64(at[7]), packet.orig_len) << k;
    EXPECT_EQ(at[7] + 8, tuple.data() + tuple.size()) << k;
  }
}

// --- PacketSource: batching, punctuation, clamping ---

/// Every punctuation on `channel`, as (time, timestamp) bounds.
std::vector<std::pair<uint64_t, uint64_t>> DrainPunctuations(
    rts::RingChannel* channel, const gsql::StreamSchema& schema) {
  std::vector<std::pair<uint64_t, uint64_t>> bounds;
  rts::StreamBatch message_batch;
  while (channel->TryPop(&message_batch)) {
    for (const rts::BatchItem& message : message_batch.items()) {
      if (message.kind != rts::MessageKind::kPunctuation) continue;
      const ByteSpan payload = message_batch.payload(message);
      const uint8_t* time =
          rts::FindBound(payload, schema, *schema.FieldIndex("time"));
      const uint8_t* timestamp =
          rts::FindBound(payload, schema, *schema.FieldIndex("timestamp"));
      EXPECT_TRUE(time != nullptr && timestamp != nullptr);
      bounds.emplace_back(LoadLe64(time), LoadLe64(timestamp));
    }
  }
  return bounds;
}

TEST(PacketSourceTest, OnePunctuationRuleForTuplesShedPacketsAndHeartbeats) {
  gsql::StreamSchema schema("eth0.PKT", gsql::StreamKind::kStream,
                            gsql::Catalog::BuiltinPacketSchema().fields());
  rts::StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(schema).ok());
  auto channel = registry.Subscribe("eth0.PKT", 64);
  ASSERT_TRUE(channel.ok());
  PacketSource::Options options;
  options.punctuation_interval = 2;
  PacketSource source(schema, options, /*materialize_all=*/false, &registry);
  telemetry::Registry metrics;
  source.RegisterTelemetry(&metrics);

  auto at = [](SimTime t) {
    net::Packet packet = SamplePacket();
    packet.timestamp = t;
    return packet;
  };
  PacketSource::Offer kept;
  PacketSource::Offer shed;
  shed.shed = true;
  // Two kept packets close an interval, two shed ones the next: both
  // punctuate at the closing packet's time.
  EXPECT_FALSE(source.Inject(at(3 * kNanosPerSecond), kept));
  EXPECT_TRUE(source.Inject(at(4 * kNanosPerSecond), kept));
  EXPECT_FALSE(source.Inject(at(5 * kNanosPerSecond), shed));
  EXPECT_TRUE(source.Inject(at(6 * kNanosPerSecond), shed));
  // A heartbeat punctuates at its own time; one behind the source's bound
  // re-states the bound instead of moving it backwards.
  EXPECT_TRUE(source.Heartbeat(7 * kNanosPerSecond));
  EXPECT_TRUE(source.Heartbeat(2 * kNanosPerSecond));
  // A packet stamped behind the bound is clamped to it and counted.
  EXPECT_FALSE(source.Inject(at(8 * kNanosPerSecond), kept));
  EXPECT_TRUE(source.Inject(at(1 * kNanosPerSecond), kept));
  EXPECT_EQ(source.last_punct_time(), 7 * kNanosPerSecond);

  const std::vector<std::pair<uint64_t, uint64_t>> expected = {
      {4, 4 * kNanosPerSecond},
      {6, 6 * kNanosPerSecond},
      {7, 7 * kNanosPerSecond},
      {7, 7 * kNanosPerSecond},
      {7, 7 * kNanosPerSecond}};
  EXPECT_EQ(DrainPunctuations(channel->get(), schema), expected);
  std::map<std::string, uint64_t> counters;
  for (const telemetry::MetricSample& sample : metrics.Snapshot()) {
    counters[sample.metric] = sample.value;
  }
  EXPECT_EQ(counters["packets"], 6u);
  EXPECT_EQ(counters["time_regressions"], 1u);
  EXPECT_EQ(counters["last_punct_sec"], 7u);
}

TEST(PacketSourceTest, PunctuatesAtIntervalMultiplesAndPacksAtCodecOffsets) {
  // Every offered packet counts toward the punctuation interval, shed or
  // kept, so the source punctuates at exactly packet k * interval. A
  // payload gate opened mid-stream recompiles the store program: every
  // tuple, before and after, is exactly the codec's packing of its row.
  const gsql::StreamSchema schema(
      "eth0.PKT", gsql::StreamKind::kStream,
      gsql::Catalog::BuiltinPacketSchema().fields());
  const size_t payload_field = *schema.FieldIndex("payload");
  const size_t timestamp_field = *schema.FieldIndex("timestamp");
  const rts::TupleCodec codec(schema);
  constexpr size_t kPackets = 1000;
  constexpr size_t kGateOpensAt = 400;
  workload::TrafficConfig traffic;
  traffic.mean_payload = 60;
  workload::TrafficGenerator generator(traffic);
  std::vector<net::Packet> packets;
  for (size_t i = 0; i < kPackets; ++i) packets.push_back(generator.Next());

  for (size_t interval : {1, 3, 256}) {
    for (uint32_t weight : {1, 2, 5}) {  // L1 shedding off, 1 in 2, 1 in 5
      SCOPED_TRACE("interval " + std::to_string(interval) + ", weight " +
                   std::to_string(weight));
      rts::StreamRegistry registry;
      ASSERT_TRUE(registry.DeclareStream(schema).ok());
      auto channel = registry.Subscribe(schema.name(), 4096);
      ASSERT_TRUE(channel.ok());
      PacketSource::Options options;
      options.punctuation_interval = interval;
      PacketSource source(schema, options, /*materialize_all=*/false,
                          &registry);
      std::vector<size_t> kept;  // packet index of each tuple
      for (size_t i = 0; i < kPackets; ++i) {
        if (i == kGateOpensAt) source.WantField(payload_field);
        // The engine's deterministic 1-in-k phase: offered packet i + 1.
        PacketSource::Offer offer;
        offer.weight = weight;
        offer.shed = weight > 1 && (i + 1) % weight != 0;
        if (!offer.shed) kept.push_back(i);
        source.Inject(packets[i], offer);
      }
      source.FlushBatch();

      std::vector<size_t> punctuated;  // 1-based packet numbers
      size_t tuples = 0;
      rts::StreamBatch batch;
      while ((*channel)->TryPop(&batch)) {
        for (const rts::BatchItem& item : batch.items()) {
          const ByteSpan bytes = batch.payload(item);
          if (item.kind == rts::MessageKind::kPunctuation) {
            const uint8_t* bound =
                rts::FindBound(bytes, schema, timestamp_field);
            ASSERT_NE(bound, nullptr);
            for (size_t i = 0; i < kPackets; ++i) {
              if (static_cast<uint64_t>(packets[i].timestamp) ==
                  LoadLe64(bound)) {
                punctuated.push_back(i + 1);
              }
            }
            continue;
          }
          ASSERT_LT(tuples, kept.size());
          const net::Packet& packet = packets[kept[tuples++]];
          ByteBuffer want;
          codec.Encode(ExpectedRow(schema, packet, packet.timestamp,
                                   kept[tuples - 1] >= kGateOpensAt, false),
                       &want);
          ASSERT_EQ(ByteBuffer(bytes.begin(), bytes.end()), want)
              << "tuple of packet " << kept[tuples - 1];
        }
      }
      EXPECT_EQ(tuples, kept.size());
      std::vector<size_t> expected;
      for (size_t k = interval; k <= kPackets; k += interval) {
        expected.push_back(k);
      }
      EXPECT_EQ(punctuated, expected);
    }
  }
}

// --- sample(): §5's analyst-controlled sampling, deterministically ---

TEST(SampleUdfTest, DeterministicAndProportional) {
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name sampled; param rate FLOAT = 0.25; } "
      "SELECT time, srcIP FROM eth0.PKT "
      "WHERE sample(srcPort, $rate)");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // Hash-based sampling is cheap integer work: LFTA-resident.
  EXPECT_TRUE(info->has_lfta);
  EXPECT_FALSE(info->has_hfta);

  auto sub = engine.Subscribe("sampled", 1 << 18);
  ASSERT_TRUE(sub.ok());
  const int kPackets = 8000;
  for (int i = 0; i < kPackets; ++i) {
    net::TcpPacketSpec spec;
    spec.src_port = static_cast<uint16_t>(i);  // the sampling key
    spec.dst_port = 80;
    net::Packet packet;
    packet.bytes = net::BuildTcpPacket(spec);
    packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
    packet.timestamp = (i + 1) * 1000;
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
    if (i % 1024 == 0) engine.PumpUntilIdle();
  }
  engine.PumpUntilIdle();
  int kept = 0;
  while ((*sub)->NextRow()) ++kept;
  EXPECT_NEAR(static_cast<double>(kept) / kPackets, 0.25, 0.03);
}

TEST(SampleUdfTest, SameKeyAlwaysSameDecision) {
  auto fn = udf::FunctionRegistry::Default()->Resolve("sample");
  ASSERT_TRUE(fn.ok());
  std::vector<std::shared_ptr<void>> handles(2);
  for (uint64_t key : {0ull, 1ull, 42ull, 1000000ull}) {
    Value first, second;
    bool has_result = true;
    ASSERT_TRUE((*fn)->invoke({Value::Uint(key), Value::Float(0.5)}, handles,
                              &first, &has_result).ok());
    ASSERT_TRUE((*fn)->invoke({Value::Uint(key), Value::Float(0.5)}, handles,
                              &second, &has_result).ok());
    EXPECT_EQ(first.bool_value(), second.bool_value());
  }
}

TEST(SampleUdfTest, BoundaryFractions) {
  auto fn = udf::FunctionRegistry::Default()->Resolve("sample");
  ASSERT_TRUE(fn.ok());
  std::vector<std::shared_ptr<void>> handles(2);
  Value out;
  bool has_result = true;
  int kept_zero = 0, kept_one = 0;
  for (uint64_t key = 0; key < 100; ++key) {
    ASSERT_TRUE((*fn)->invoke({Value::Uint(key), Value::Float(0.0)}, handles,
                              &out, &has_result).ok());
    if (out.bool_value()) ++kept_zero;
    ASSERT_TRUE((*fn)->invoke({Value::Uint(key), Value::Float(1.0)}, handles,
                              &out, &has_result).ok());
    if (out.bool_value()) ++kept_one;
  }
  EXPECT_EQ(kept_zero, 0);
  EXPECT_EQ(kept_one, 100);
  // Out-of-range fraction is a runtime error (dropped tuple, not a crash).
  EXPECT_FALSE((*fn)->invoke({Value::Uint(1), Value::Float(1.5)}, handles,
                             &out, &has_result).ok());
}

}  // namespace
}  // namespace gigascope::core
