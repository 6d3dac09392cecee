#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "core/engine.h"
#include "gsql/catalog.h"
#include "rts/punctuation.h"
#include "telemetry/metric_names.h"
#include "workload/traffic_gen.h"

namespace gigascope::core {
namespace {

using expr::Value;
using gsql::DataType;

net::Packet MakeTcpPacket(SimTime timestamp, uint32_t dst_addr,
                          uint16_t dst_port, const std::string& payload,
                          uint8_t flags = net::kTcpFlagAck) {
  net::TcpPacketSpec spec;
  spec.src_addr = 0xac100001;
  spec.dst_addr = dst_addr;
  spec.src_port = 40000;
  spec.dst_port = dst_port;
  spec.flags = flags;
  spec.payload = payload;
  net::Packet packet;
  packet.bytes = net::BuildTcpPacket(spec);
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  packet.timestamp = timestamp;
  return packet;
}

net::Packet MakeUdpPacket(SimTime timestamp, uint16_t dst_port) {
  net::UdpPacketSpec spec;
  spec.src_addr = 0xac100001;
  spec.dst_addr = 0x0a000001;
  spec.src_port = 40000;
  spec.dst_port = dst_port;
  spec.payload = "x";
  net::Packet packet;
  packet.bytes = net::BuildUdpPacket(spec);
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  packet.timestamp = timestamp;
  return packet;
}

TEST(EngineTest, ThePaperTcpdestQuery) {
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name tcpdest0; } "
      "SELECT destIP, destPort, time FROM eth0.PKT "
      "WHERE ipVersion = 4 AND protocol = 6");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->has_lfta);
  EXPECT_FALSE(info->has_hfta);  // simple query: entirely an LFTA

  auto sub = engine.Subscribe("tcpdest0");
  ASSERT_TRUE(sub.ok());

  ASSERT_TRUE(engine
                  .InjectPacket("eth0", MakeTcpPacket(kNanosPerSecond,
                                                      0x0a000001, 80, "hi"))
                  .ok());
  ASSERT_TRUE(
      engine.InjectPacket("eth0", MakeUdpPacket(2 * kNanosPerSecond, 53))
          .ok());
  engine.PumpUntilIdle();

  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].ip_value(), 0x0a000001u);
  EXPECT_EQ((*row)[1].uint_value(), 80u);
  EXPECT_EQ((*row)[2].uint_value(), 1u);  // second 1
  EXPECT_FALSE((*sub)->NextRow().has_value());  // UDP filtered out
}

TEST(EngineTest, AggregationQueryEndToEnd) {
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name pkts; } "
      "SELECT tb, count(*), sum(len) FROM eth0.PKT "
      "WHERE protocol = 6 GROUP BY time/60 AS tb");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->split_aggregation);
  EXPECT_TRUE(info->has_lfta);
  EXPECT_TRUE(info->has_hfta);

  auto sub = engine.Subscribe("pkts");
  ASSERT_TRUE(sub.ok());

  // Three packets in minute 0, two in minute 1, then one in minute 2 to
  // close minute 1.
  uint64_t total_len_minute0 = 0;
  for (int i = 0; i < 3; ++i) {
    net::Packet packet =
        MakeTcpPacket((10 + i) * kNanosPerSecond, 0x0a000001, 80, "abc");
    total_len_minute0 += packet.orig_len;
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket((70 + i) * kNanosPerSecond,
                                                0x0a000001, 80, "abc"))
                    .ok());
  }
  ASSERT_TRUE(engine
                  .InjectPacket("eth0", MakeTcpPacket(130 * kNanosPerSecond,
                                                      0x0a000001, 80, "a"))
                  .ok());
  engine.PumpUntilIdle();

  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 0u);  // minute bucket 0
  EXPECT_EQ((*row)[1].uint_value(), 3u);
  EXPECT_EQ((*row)[2].uint_value(), total_len_minute0);
  row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 1u);
  EXPECT_EQ((*row)[1].uint_value(), 2u);
}

TEST(EngineTest, LftaStreamVisibleUnderMangledName) {
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name counts; } "
      "SELECT tb, count(*) FROM eth0.PKT GROUP BY time/60 AS tb");
  ASSERT_TRUE(info.ok());
  // §3: "both streams are available to the application, though the LFTA
  // query will have a mangled name".
  auto sub = engine.Subscribe(info->lfta_name);
  EXPECT_TRUE(sub.ok()) << sub.status().ToString();
}

TEST(EngineTest, QueryCompositionThroughCatalog) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name tcp80; } "
                            "SELECT time, len FROM eth0.PKT "
                            "WHERE protocol = 6 AND destPort = 80")
                  .ok());
  // Second query reads the first one's output by name (§2.2).
  auto info = engine.AddQuery(
      "DEFINE { query_name persec; } "
      "SELECT time, count(*) FROM tcp80 GROUP BY time");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info->has_lfta);  // Stream input: HFTA only

  auto sub = engine.Subscribe("persec");
  ASSERT_TRUE(sub.ok());
  for (int second = 1; second <= 3; ++second) {
    for (int i = 0; i < second; ++i) {
      ASSERT_TRUE(
          engine
              .InjectPacket("eth0",
                            MakeTcpPacket(second * kNanosPerSecond + i * 100,
                                          0x0a000001, 80, "x"))
              .ok());
    }
  }
  engine.PumpUntilIdle();
  // Seconds 1 and 2 closed (second 3 still open).
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 1u);
  EXPECT_EQ((*row)[1].uint_value(), 1u);
  row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 2u);
  EXPECT_EQ((*row)[1].uint_value(), 2u);
}

TEST(EngineTest, MergeQueryEndToEnd) {
  Engine engine;
  engine.AddInterface("eth0");
  engine.AddInterface("eth1");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name t0; } "
                            "SELECT time, destPort FROM eth0.PKT "
                            "WHERE protocol = 6")
                  .ok());
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name t1; } "
                            "SELECT time, destPort FROM eth1.PKT "
                            "WHERE protocol = 6")
                  .ok());
  auto info = engine.AddQuery(
      "DEFINE { query_name both; } MERGE t0.time : t1.time FROM t0, t1");
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  auto sub = engine.Subscribe("both");
  ASSERT_TRUE(sub.ok());

  // Interleaved traffic on the two simplex directions.
  ASSERT_TRUE(engine
                  .InjectPacket("eth0", MakeTcpPacket(1 * kNanosPerSecond,
                                                      0x0a000001, 80, "x"))
                  .ok());
  ASSERT_TRUE(engine
                  .InjectPacket("eth1", MakeTcpPacket(2 * kNanosPerSecond,
                                                      0x0a000001, 81, "x"))
                  .ok());
  ASSERT_TRUE(engine
                  .InjectPacket("eth0", MakeTcpPacket(3 * kNanosPerSecond,
                                                      0x0a000001, 82, "x"))
                  .ok());
  ASSERT_TRUE(engine
                  .InjectPacket("eth1", MakeTcpPacket(4 * kNanosPerSecond,
                                                      0x0a000001, 83, "x"))
                  .ok());
  engine.PumpUntilIdle();
  engine.FlushAll();

  std::vector<uint64_t> times;
  while (auto row = (*sub)->NextRow()) {
    times.push_back((*row)[0].uint_value());
  }
  ASSERT_EQ(times.size(), 4u);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

TEST(EngineTest, HttpFractionQueryWithRegexUdf) {
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name http80; } "
      "SELECT time, len FROM eth0.PKT "
      "WHERE protocol = 6 AND destPort = 80 "
      "AND match_regex(payload, '^[^\\n]*HTTP/1.*')");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // Regex is too expensive for an LFTA (§4): the query must split.
  EXPECT_TRUE(info->has_lfta);
  EXPECT_TRUE(info->has_hfta);

  auto sub = engine.Subscribe("http80");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine
                  .InjectPacket("eth0",
                                MakeTcpPacket(kNanosPerSecond, 0x0a000001, 80,
                                              "HTTP/1.1 200 OK\r\n"))
                  .ok());
  ASSERT_TRUE(engine
                  .InjectPacket("eth0",
                                MakeTcpPacket(2 * kNanosPerSecond, 0x0a000001,
                                              80, "opaque tunnel bytes"))
                  .ok());
  engine.PumpUntilIdle();
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 1u);
  EXPECT_FALSE((*sub)->NextRow().has_value());
}

TEST(EngineTest, GetLpmIdQueryEndToEnd) {
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name peers; } "
      "SELECT peerid, tb, count(*) FROM eth0.PKT "
      "GROUP BY time/60 AS tb, "
      "getlpmid(destIP, 'inline:10.0.0.0/8 1\n10.1.0.0/16 2') AS peerid");
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  auto sub = engine.Subscribe("peers");
  ASSERT_TRUE(sub.ok());
  // Two packets to peer 1 (10.2.x.x), one to peer 2 (10.1.x.x), one
  // unmatched (192.168.*, discarded by the partial function).
  ASSERT_TRUE(engine.InjectPacket(
      "eth0", MakeTcpPacket(1 * kNanosPerSecond, 0x0a020001, 80, "x")).ok());
  ASSERT_TRUE(engine.InjectPacket(
      "eth0", MakeTcpPacket(2 * kNanosPerSecond, 0x0a020002, 80, "x")).ok());
  ASSERT_TRUE(engine.InjectPacket(
      "eth0", MakeTcpPacket(3 * kNanosPerSecond, 0x0a010001, 80, "x")).ok());
  ASSERT_TRUE(engine.InjectPacket(
      "eth0", MakeTcpPacket(4 * kNanosPerSecond, 0xc0a80001, 80, "x")).ok());
  engine.PumpUntilIdle();
  engine.FlushAll();

  std::map<uint64_t, uint64_t> counts;
  while (auto row = (*sub)->NextRow()) {
    counts[(*row)[0].uint_value()] += (*row)[2].uint_value();
  }
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts.count(0), 0u);  // unmatched tuple was discarded
}

TEST(EngineTest, QueryParametersChangeOnTheFly) {
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name bigpkts; param minlen UINT = 1000; } "
      "SELECT time, len FROM eth0.PKT WHERE len > $minlen");
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  auto sub = engine.Subscribe("bigpkts");
  ASSERT_TRUE(sub.ok());
  net::Packet small = MakeTcpPacket(kNanosPerSecond, 0x0a000001, 80, "tiny");
  ASSERT_TRUE(engine.InjectPacket("eth0", small).ok());
  engine.PumpUntilIdle();
  EXPECT_FALSE((*sub)->NextRow().has_value());

  // Lower the threshold on the fly (§3).
  ASSERT_TRUE(engine.SetParam("bigpkts", "minlen", Value::Uint(10)).ok());
  ASSERT_TRUE(
      engine.InjectPacket("eth0", MakeTcpPacket(2 * kNanosPerSecond,
                                                0x0a000001, 80, "tiny"))
          .ok());
  engine.PumpUntilIdle();
  EXPECT_TRUE((*sub)->NextRow().has_value());
}

TEST(EngineTest, SetParamValidatesNames) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name q; param p INT = 1; } "
                            "SELECT time FROM eth0.PKT WHERE len > $p")
                  .ok());
  EXPECT_FALSE(engine.SetParam("nope", "p", Value::Int(2)).ok());
  EXPECT_FALSE(engine.SetParam("q", "nope", Value::Int(2)).ok());
  EXPECT_TRUE(engine.SetParam("q", "p", Value::Int(2)).ok());
}

TEST(EngineTest, MissingParamWithoutDefaultRejected) {
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name q; param p INT; } "
      "SELECT time FROM eth0.PKT WHERE len > $p");
  EXPECT_FALSE(info.ok());
  // Supplying the value at instantiation works.
  info = engine.AddQuery(
      "DEFINE { query_name q; param p INT; } "
      "SELECT time FROM eth0.PKT WHERE len > $p",
      {{"p", Value::Int(100)}});
  EXPECT_TRUE(info.ok()) << info.status().ToString();
}

TEST(EngineTest, DuplicateQueryNameRejected) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name q; } "
                            "SELECT time FROM eth0.PKT")
                  .ok());
  auto info = engine.AddQuery(
      "DEFINE { query_name q; } SELECT len FROM eth0.PKT");
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), Status::Code::kAlreadyExists);
}

TEST(EngineTest, CustomProtocolViaDdl) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .ExecuteDdl("CREATE PROTOCOL MINI ("
                              "time UINT INCREASING, len UINT)")
                  .ok());
  auto info = engine.AddQuery(
      "DEFINE { query_name m; } SELECT time, len FROM eth0.MINI");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto sub = engine.Subscribe("m");
  ASSERT_TRUE(sub.ok());
  net::Packet packet = MakeTcpPacket(kNanosPerSecond, 1, 2, "abc");
  ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
  engine.PumpUntilIdle();
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].uint_value(), packet.orig_len);
}

TEST(EngineTest, DdlRejectsBuiltinFieldNamesOfAnotherType) {
  // A protocol field named like a built-in extractor is written straight
  // from that extractor into the packed tuple, so it must have the type
  // the extractor produces. These used to be accepted and then abort the
  // engine on the first packet.
  struct Case {
    const char* ddl;
    const char* field;
    const char* produced;
  };
  const Case cases[] = {
      {"CREATE PROTOCOL MINI (time UINT INCREASING, srcIP UINT)", "srcIP",
       "IP"},
      {"CREATE PROTOCOL MINI (time UINT INCREASING, len INT)", "len", "UINT"},
      {"CREATE PROTOCOL MINI (time UINT INCREASING, payload UINT)", "payload",
       "STRING"},
      {"CREATE PROTOCOL MINI (time INT INCREASING, len UINT)", "time", "UINT"},
  };
  for (const Case& c : cases) {
    Engine engine;
    engine.AddInterface("eth0");
    Status status = engine.ExecuteDdl(c.ddl);
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << c.ddl;
    EXPECT_NE(status.message().find(std::string("'") + c.field + "'"),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find(std::string("produces ") + c.produced),
              std::string::npos)
        << status.message();
    // Nothing was registered: no query can name the protocol.
    EXPECT_FALSE(
        engine.AddQuery("DEFINE { query_name m; } SELECT len FROM eth0.MINI")
            .ok());
  }
  // The well-typed declaration of the same fields is accepted and runs.
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .ExecuteDdl("CREATE PROTOCOL MINI (time UINT INCREASING, "
                              "srcIP IP, payload STRING)")
                  .ok());
  auto info = engine.AddQuery(
      "DEFINE { query_name m; } SELECT time, srcIP, payload FROM eth0.MINI");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto sub = engine.Subscribe("m");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine
                  .InjectPacket("eth0",
                                MakeTcpPacket(kNanosPerSecond, 1, 2, "abc"))
                  .ok());
  engine.PumpUntilIdle();
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 1u);
  EXPECT_EQ((*row)[2].string_value(), "abc");
}

TEST(EngineTest, InjectRowAndPunctuationRejectMismatchedInput) {
  Engine engine;
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"t", DataType::kUint, gsql::OrderSpec::Increasing()});
  fields.push_back({"v", DataType::kUint, gsql::OrderSpec::None()});
  fields.push_back({"s", DataType::kString, gsql::OrderSpec::None()});
  ASSERT_TRUE(engine
                  .DeclareStream(gsql::StreamSchema(
                      "external", gsql::StreamKind::kStream, fields))
                  .ok());
  ASSERT_TRUE(
      engine.AddQuery("DEFINE { query_name q; } SELECT t, v FROM external")
          .ok());
  auto sub = engine.Subscribe("q");
  ASSERT_TRUE(sub.ok());

  const Value s = Value::String("x");
  const rts::Row bad_rows[] = {
      {Value::Uint(1), Value::Uint(2)},                     // too few
      {Value::Uint(1), Value::Uint(2), s, Value::Uint(3)},  // too many
      {Value::Uint(1), Value::Int(2), s},                   // wrong type
      {Value::Uint(1), Value::Uint(2), Value::Uint(3)},     // wrong type
  };
  for (const rts::Row& row : bad_rows) {
    EXPECT_EQ(engine.InjectRow("external", row).code(),
              Status::Code::kInvalidArgument)
        << row.size();
  }
  // A bound must have its field's type, and that type must be numeric.
  EXPECT_EQ(engine.InjectPunctuation("external", 0, Value::Int(5)).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(engine.InjectPunctuation("external", 2, s).code(),
            Status::Code::kInvalidArgument);
  // Nothing was published.
  for (const rts::Subscription& channel :
       engine.registry().Subscribers("external")) {
    EXPECT_EQ(channel->pushed(), 0u);
  }
  engine.PumpUntilIdle();
  EXPECT_FALSE((*sub)->NextRow().has_value());

  // Well-formed input still flows.
  ASSERT_TRUE(
      engine.InjectRow("external", {Value::Uint(1), Value::Uint(21), s}).ok());
  ASSERT_TRUE(engine.InjectPunctuation("external", 0, Value::Uint(2)).ok());
  engine.PumpUntilIdle();
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].uint_value(), 21u);
}

TEST(EngineTest, ExternalStreamViaInjectRow) {
  Engine engine;
  // The "write your own query node" path: declare a stream and feed it.
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"t", DataType::kUint, gsql::OrderSpec::Increasing()});
  fields.push_back({"v", DataType::kUint, gsql::OrderSpec::None()});
  ASSERT_TRUE(engine
                  .DeclareStream(gsql::StreamSchema(
                      "external", gsql::StreamKind::kStream, fields))
                  .ok());
  auto info = engine.AddQuery(
      "DEFINE { query_name doubled; } SELECT t, v * 2 AS v2 FROM external");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto sub = engine.Subscribe("doubled");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(
      engine.InjectRow("external", {Value::Uint(1), Value::Uint(21)}).ok());
  engine.PumpUntilIdle();
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].uint_value(), 42u);
}

// A FLOAT group key folds -0.0 into 0.0 and every NaN into one group, and
// closes in key order with NaN after every number.
TEST(EngineTest, FloatGroupKeysAreCanonicalAndNanSortsLast) {
  Engine engine;
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"t", DataType::kUint, gsql::OrderSpec::Increasing()});
  fields.push_back({"x", DataType::kFloat, gsql::OrderSpec::None()});
  ASSERT_TRUE(engine
                  .DeclareStream(gsql::StreamSchema(
                      "floats", gsql::StreamKind::kStream, fields))
                  .ok());
  auto info = engine.AddQuery(
      "DEFINE { query_name fx; } "
      "SELECT t, x, count(*) FROM floats GROUP BY t, x");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto sub = engine.Subscribe("fx");
  ASSERT_TRUE(sub.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double x : {0.0, -0.0, 0.0, -0.0, nan, 1.0, -nan, 2.0}) {
    ASSERT_TRUE(
        engine.InjectRow("floats", {Value::Uint(1), Value::Float(x)}).ok());
  }
  // t=2 closes every t=1 group.
  ASSERT_TRUE(
      engine.InjectRow("floats", {Value::Uint(2), Value::Float(5)}).ok());
  engine.PumpUntilIdle();

  std::vector<std::pair<double, uint64_t>> groups;
  while (auto row = (*sub)->NextRow()) {
    ASSERT_EQ((*row)[0].uint_value(), 1u);
    groups.emplace_back((*row)[1].float_value(), (*row)[2].uint_value());
  }
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0].first, 0.0);
  EXPECT_FALSE(std::signbit(groups[0].first));  // -0.0 folded into 0.0
  EXPECT_EQ(groups[0].second, 4u);
  EXPECT_EQ(groups[1], (std::pair<double, uint64_t>{1.0, 1}));
  EXPECT_EQ(groups[2], (std::pair<double, uint64_t>{2.0, 1}));
  EXPECT_TRUE(std::isnan(groups[3].first));
  EXPECT_EQ(groups[3].second, 2u);
}

TEST(EngineTest, HeartbeatClosesIdleAggregation) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name persec; } "
                            "SELECT time, count(*) FROM eth0.PKT "
                            "GROUP BY time")
                  .ok());
  auto sub = engine.Subscribe("persec");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine
                  .InjectPacket("eth0", MakeTcpPacket(kNanosPerSecond,
                                                      0x0a000001, 80, "x"))
                  .ok());
  engine.PumpUntilIdle();
  EXPECT_FALSE((*sub)->NextRow().has_value());  // second 1 still open
  // No more packets arrive, but a heartbeat advances time to second 10:
  // second 1 closes without any tuple (§3 unblocking).
  ASSERT_TRUE(engine.InjectHeartbeat("eth0", 10 * kNanosPerSecond).ok());
  engine.PumpUntilIdle();
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 1u);
  EXPECT_EQ((*row)[1].uint_value(), 1u);
}

TEST(EngineTest, WindowJoinEndToEnd) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name syns; } "
                            "SELECT time, srcIP FROM eth0.PKT "
                            "WHERE protocol = 6 AND tcpFlags = 2")
                  .ok());
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name fins; } "
                            "SELECT time, srcIP FROM eth0.PKT "
                            "WHERE protocol = 6 AND tcpFlags = 1")
                  .ok());
  auto info = engine.AddQuery(
      "DEFINE { query_name paired; } "
      "SELECT s.time, f.time FROM syns s, fins f "
      "WHERE s.time >= f.time - 2 AND s.time <= f.time + 2");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto sub = engine.Subscribe("paired");
  ASSERT_TRUE(sub.ok());

  ASSERT_TRUE(engine
                  .InjectPacket("eth0",
                                MakeTcpPacket(1 * kNanosPerSecond, 0x0a000001,
                                              80, "", net::kTcpFlagSyn))
                  .ok());
  ASSERT_TRUE(engine
                  .InjectPacket("eth0",
                                MakeTcpPacket(2 * kNanosPerSecond, 0x0a000001,
                                              80, "", net::kTcpFlagFin))
                  .ok());
  engine.PumpUntilIdle();
  // The default join algorithm is order-preserving: completed matches are
  // held until the output bound passes them (§2.1); end-of-stream flushes.
  engine.FlushAll();
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 1u);
  EXPECT_EQ((*row)[1].uint_value(), 2u);
}

TEST(EngineTest, GroupByOverJoinEndToEnd) {
  Engine engine;
  engine.AddInterface("eth0");
  // Two derived streams, then a per-second count of joined pairs.
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name syns; } "
                            "SELECT time, srcIP FROM eth0.PKT "
                            "WHERE protocol = 6 AND tcpFlags = 2")
                  .ok());
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name acks; } "
                            "SELECT time, srcIP FROM eth0.PKT "
                            "WHERE protocol = 6 AND tcpFlags = 16")
                  .ok());
  auto info = engine.AddQuery(
      "DEFINE { query_name pairs_per_sec; } "
      "SELECT s.time, count(*) FROM syns s, acks a "
      "WHERE s.time = a.time GROUP BY s.time");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info->unbounded_aggregation);

  auto sub = engine.Subscribe("pairs_per_sec");
  ASSERT_TRUE(sub.ok());
  // Second 1: 2 SYNs x 3 ACKs = 6 pairs; second 2: 1 x 1 = 1 pair.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket(kNanosPerSecond + i, 1, 80,
                                                "", net::kTcpFlagSyn))
                    .ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket(kNanosPerSecond + 10 + i, 1,
                                                80, "", net::kTcpFlagAck))
                    .ok());
  }
  ASSERT_TRUE(engine
                  .InjectPacket("eth0",
                                MakeTcpPacket(2 * kNanosPerSecond, 1, 80, "",
                                              net::kTcpFlagSyn))
                  .ok());
  ASSERT_TRUE(engine
                  .InjectPacket("eth0",
                                MakeTcpPacket(2 * kNanosPerSecond + 1, 1, 80,
                                              "", net::kTcpFlagAck))
                  .ok());
  engine.PumpUntilIdle();
  engine.FlushAll();

  std::map<uint64_t, uint64_t> counts;
  while (auto row = (*sub)->NextRow()) {
    counts[(*row)[0].uint_value()] += (*row)[1].uint_value();
  }
  EXPECT_EQ(counts[1], 6u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(EngineTest, NodeStatsExposed) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name q; } "
                            "SELECT time FROM eth0.PKT WHERE protocol = 6")
                  .ok());
  ASSERT_TRUE(engine
                  .InjectPacket("eth0", MakeTcpPacket(kNanosPerSecond,
                                                      0x0a000001, 80, "x"))
                  .ok());
  engine.PumpUntilIdle();
  auto stats = engine.GetNodeStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "q");
  EXPECT_EQ(stats[0].tuples_in, 1u);
  EXPECT_EQ(stats[0].tuples_out, 1u);
}

// A GROUP BY whose SELECT list is its keys and then its aggregates has no
// renaming projection: the HFTA superaggregate publishes under the query's
// name with the query's schema, as its terminal node. A HAVING that passes
// every group keeps the projection's node, so the second query is the plan
// with the node, over the same packets.
TEST(EngineTest, IdentityProjectionIsNotAnOperator) {
  EngineOptions options;
  options.trace_sample = 1;  // terminal nodes record e2e latency
  Engine engine(options);
  engine.AddInterface("eth0");
  const std::string body =
      "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
      "GROUP BY time AS tb, destIP";
  ASSERT_TRUE(
      engine.AddQuery("DEFINE { query_name plain; } " + body).ok());
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name kept; } " + body +
                            " HAVING count(*) > 0")
                  .ok());
  auto plain = engine.Subscribe("plain");
  auto kept = engine.Subscribe("kept");
  ASSERT_TRUE(plain.ok() && kept.ok());
  auto plain_raw = engine.registry().Subscribe("plain", 1 << 12);
  auto kept_raw = engine.registry().Subscribe("kept", 1 << 12);
  ASSERT_TRUE(plain_raw.ok() && kept_raw.ok());

  const gsql::StreamSchema& schema = (*plain)->schema();
  ASSERT_EQ(schema.num_fields(), 4u);
  const char* kNames[] = {"tb", "destIP", "count", "sum_len"};
  for (size_t f = 0; f < 4; ++f) {
    const gsql::FieldDef& field = schema.field(f);
    const gsql::FieldDef& want = (*kept)->schema().field(f);
    EXPECT_EQ(field.name, kNames[f]);
    EXPECT_EQ(field.name, want.name);
    EXPECT_EQ(field.type, want.type);
    EXPECT_EQ(field.order.ToString(), want.order.ToString()) << field.name;
  }
  EXPECT_TRUE(schema.field(0).order.IsIncreasingLike());

  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0", MakeTcpPacket(
                                              (1 + i / 12) * kNanosPerSecond,
                                              0x0a000000 + (i % 5), 80,
                                              std::string(i % 7, 'x')))
                    .ok());
  }
  engine.PumpUntilIdle();
  engine.FlushAll();

  auto drain = [](const rts::Subscription& channel) {
    std::vector<std::string> tuples;
    rts::StreamBatch batch;
    while (channel->TryPop(&batch)) {
      for (const rts::BatchItem& item : batch.items()) {
        if (item.kind != rts::MessageKind::kTuple) continue;
        const ByteSpan bytes = batch.payload(item);
        tuples.emplace_back(reinterpret_cast<const char*>(bytes.data()),
                            bytes.size());
      }
    }
    return tuples;
  };
  const std::vector<std::string> rows = drain(*plain_raw);
  EXPECT_EQ(rows.size(), 25u);  // 5 seconds x 5 destinations
  EXPECT_EQ(rows, drain(*kept_raw));

  // One node fewer: the superaggregate is the node named "plain", and it
  // reads the LFTA partials.
  std::map<std::string, Engine::NodeStats> nodes;
  for (const Engine::NodeStats& node : engine.GetNodeStats()) {
    nodes.emplace(node.name, node);
  }
  EXPECT_EQ(nodes.count("plain#0"), 0u);
  EXPECT_EQ(nodes.count("kept#0"), 1u);
  ASSERT_EQ(nodes.count("plain"), 1u);
  EXPECT_EQ(nodes.at("plain").tuples_in, nodes.at("plain_lfta").tuples_out);
  EXPECT_EQ(nodes.at("plain").tuples_out, 25u);

  uint64_t e2e_count = 0;
  for (const telemetry::MetricSample& sample : engine.telemetry().Snapshot()) {
    if (sample.entity == "plain" &&
        sample.metric == std::string(telemetry::metric::kE2eLatencyNs) +
                             "_count") {
      e2e_count = sample.value;
    }
  }
  EXPECT_GT(e2e_count, 0u);
}

TEST(EngineTest, AvgDecomposedEndToEnd) {
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name stats; } "
      "SELECT tb, avg(len), count(*) FROM eth0.PKT "
      "WHERE protocol = 6 GROUP BY time/60 AS tb");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->split_aggregation);  // AVG still splits (as SUM+COUNT)

  auto sub = engine.Subscribe("stats");
  ASSERT_TRUE(sub.ok());
  uint64_t total = 0;
  for (int i = 0; i < 4; ++i) {
    net::Packet packet = MakeTcpPacket((i + 1) * kNanosPerSecond, 0x0a000001,
                                       80, std::string(i * 100, 'x'));
    total += packet.orig_len;
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
  }
  engine.PumpUntilIdle();
  engine.FlushAll();
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ((*row)[1].float_value(), static_cast<double>(total) / 4);
  EXPECT_EQ((*row)[2].uint_value(), 4u);
}

TEST(EngineTest, HavingWithParameterEndToEnd) {
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name hot; param floor UINT = 3; } "
      "SELECT destIP, tb, count(*) FROM eth0.PKT "
      "GROUP BY time AS tb, destIP HAVING count(*) > $floor");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto sub = engine.Subscribe("hot");
  ASSERT_TRUE(sub.ok());

  // Second 1: 5 packets to A (passes floor 3), 2 to B (filtered).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket(kNanosPerSecond + i * 100,
                                                0x0a0000aa, 80, "x"))
                    .ok());
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket(kNanosPerSecond + i * 100,
                                                0x0a0000bb, 80, "x"))
                    .ok());
  }
  engine.PumpUntilIdle();
  engine.FlushAll();
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].ip_value(), 0x0a0000aau);
  EXPECT_EQ((*row)[2].uint_value(), 5u);
  EXPECT_FALSE((*sub)->NextRow().has_value());
}

TEST(EngineTest, BandedMergeToleratesInBandDisorder) {
  Engine engine;
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"bt", DataType::kUint, gsql::OrderSpec::Banded(5)});
  fields.push_back({"v", DataType::kUint, gsql::OrderSpec::None()});
  for (const char* name : {"s0", "s1"}) {
    ASSERT_TRUE(engine
                    .DeclareStream(gsql::StreamSchema(
                        name, gsql::StreamKind::kStream, fields))
                    .ok());
  }
  auto info = engine.AddQuery(
      "DEFINE { query_name m; } MERGE s0.bt : s1.bt FROM s0, s1");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // The merge attribute stays banded in the output schema.
  auto schema = engine.registry().GetSchema("m");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->field(0).order.kind,
            gsql::OrderKind::kBandedIncreasing);

  auto sub = engine.Subscribe("m");
  ASSERT_TRUE(sub.ok());
  // In-band disorder on both inputs.
  for (uint64_t value : {5ull, 3ull, 7ull, 6ull, 10ull}) {
    ASSERT_TRUE(
        engine.InjectRow("s0", {Value::Uint(value), Value::Uint(0)}).ok());
  }
  for (uint64_t value : {4ull, 2ull, 8ull, 9ull, 12ull}) {
    ASSERT_TRUE(
        engine.InjectRow("s1", {Value::Uint(value), Value::Uint(1)}).ok());
  }
  engine.PumpUntilIdle();
  engine.FlushAll();
  std::vector<uint64_t> merged;
  while (auto row = (*sub)->NextRow()) {
    merged.push_back((*row)[0].uint_value());
  }
  ASSERT_EQ(merged.size(), 10u);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
}

TEST(EngineTest, DiagnosticsNameTheProblem) {
  Engine engine;
  engine.AddInterface("eth0");
  struct Case {
    const char* query;
    const char* expected_fragment;
  };
  const Case cases[] = {
      {"SELECT nonsuch FROM eth0.PKT", "nonsuch"},
      {"SELECT time FROM eth0.NOPE", "NOPE"},
      {"SELECT time FROM wlan0.PKT", "wlan0"},
      {"SELECT destIP, count(*) FROM eth0.PKT GROUP BY time", "destIP"},
      {"SELECT time FROM eth0.PKT WHERE len > $undeclared", "undeclared"},
      {"SELECT frobnicate(len) FROM eth0.PKT", "frobnicate"},
      {"SELECT time FROM eth0.PKT WHERE payload = 5", "STRING"},
      {"SELECT l.time FROM eth0.PKT l, eth0.PKT r WHERE l.len = r.len",
       "window"},
  };
  for (const Case& test_case : cases) {
    auto info = engine.AddQuery(test_case.query);
    ASSERT_FALSE(info.ok()) << test_case.query;
    EXPECT_NE(info.status().message().find(test_case.expected_fragment),
              std::string::npos)
        << "diagnostic for \"" << test_case.query << "\" was: "
        << info.status().ToString();
  }
}

TEST(EngineTest, OverloadDropsEarliestInTheChain) {
  // §4/§5: "highly processed tuples ... are more valuable than
  // less-processed tuples". With tiny channels and a consumer that never
  // keeps up, losses land on the first ring after the LFTA, which runs
  // inside InjectPacket, not on the query's output. The payload test
  // stays in the HFTA, so that ring is the LFTA->HFTA one.
  EngineOptions options;
  options.channel_capacity = 8;
  // Per-tuple flow: ring capacity counts slots, and a slot holds a whole
  // batch — size 1 makes slot == tuple so the drop arithmetic below is
  // exact. Batched overload behavior is covered by batch_equivalence_test.
  options.batch_max_size = 1;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name q; } "
                            "SELECT time, len FROM eth0.PKT "
                            "WHERE protocol = 6 AND str_find(payload, 'x')")
                  .ok());
  auto sub = engine.Subscribe("q", 1 << 12);
  ASSERT_TRUE(sub.ok());

  // Flood without pumping: the HFTA cannot drain its input.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket((i + 1) * 1000, 0x0a000001,
                                                80, "x"))
                    .ok());
  }
  const rts::StreamRegistry& registry = engine.registry();
  uint64_t lfta_drops = registry.Total(&rts::RingChannel::dropped, "q_lfta");
  EXPECT_GE(lfta_drops, 90u);  // ~92 of 100 dropped after the LFTA alone
  EXPECT_EQ(registry.Total(&rts::RingChannel::dropped, "q"), 0u);

  engine.PumpUntilIdle();
  int delivered = 0;
  while ((*sub)->NextRow()) ++delivered;
  EXPECT_EQ(delivered, 8);  // exactly the channel's worth survived
  EXPECT_EQ((*sub)->dropped(), 0u);
}

TEST(EngineTest, SubscriptionDropAccountingVisible) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name q; } "
                            "SELECT time FROM eth0.PKT")
                  .ok());
  // A deliberately tiny subscriber buffer: the subscriber is the slow one.
  auto sub = engine.Subscribe("q", 4);
  ASSERT_TRUE(sub.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket((i + 1) * 1000, 0x0a000001,
                                                80, "x"))
                    .ok());
    engine.PumpUntilIdle();
  }
  int received = 0;
  while ((*sub)->NextRow()) ++received;
  EXPECT_EQ(received, 4);
  EXPECT_EQ((*sub)->dropped(), 46u);
}

TEST(EngineTest, InjectIntoUnknownInterfaceFails) {
  Engine engine;
  engine.AddInterface("eth0");
  net::Packet packet = MakeTcpPacket(1, 1, 1, "");
  EXPECT_FALSE(engine.InjectPacket("eth9", packet).ok());
}

TEST(EngineTest, PacketOnUnknownInterfaceCostsNothing) {
  // A refused packet must not draw a trace sample (nor step the L1
  // sampling phase): the interface is looked up before anything counts.
  EngineOptions options;
  options.trace_sample = 1;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name tcp; } "
                            "SELECT time, destIP FROM eth0.PKT "
                            "WHERE protocol = 6")
                  .ok());
  ASSERT_NE(engine.tracer(), nullptr);
  const net::Packet packet =
      MakeTcpPacket(kNanosPerSecond, 0x0a000001, 80, "x");
  EXPECT_EQ(engine.InjectPacket("eth9", packet).code(),
            Status::Code::kNotFound);
  EXPECT_EQ(engine.tracer()->sampled(), 0u);
  ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
  EXPECT_EQ(engine.tracer()->sampled(), 1u);
}

TEST(EngineTest, RawSubscriberOpensPayloadGatesMidStream) {
  // A header-only query leaves payload unmaterialized; a raw subscriber
  // that arrives later must see the payload of every packet after it.
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name ports; } "
                            "SELECT time, destPort FROM eth0.PKT "
                            "WHERE protocol = 6")
                  .ok());
  auto ports = engine.Subscribe("ports");
  ASSERT_TRUE(ports.ok());
  ASSERT_TRUE(engine
                  .InjectPacket("eth0", MakeTcpPacket(kNanosPerSecond,
                                                      0x0a000001, 80,
                                                      "before"))
                  .ok());
  engine.PumpUntilIdle();

  auto raw = engine.Subscribe("eth0.PKT");
  ASSERT_TRUE(raw.ok());
  const net::Packet after =
      MakeTcpPacket(2 * kNanosPerSecond, 0x0a000001, 81, "after");
  ASSERT_TRUE(engine.InjectPacket("eth0", after).ok());
  engine.PumpUntilIdle();

  const gsql::StreamSchema pkt = gsql::Catalog::BuiltinPacketSchema();
  auto row = (*raw)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[*pkt.FieldIndex("time")].uint_value(), 2u);
  EXPECT_EQ((*row)[*pkt.FieldIndex("destPort")].uint_value(), 81u);
  EXPECT_EQ((*row)[*pkt.FieldIndex("payload")].string_value(), "after");
  const size_t ip_payload_at =
      net::kEthernetHeaderLen + net::kIpv4MinHeaderLen;
  EXPECT_EQ((*row)[*pkt.FieldIndex("ipPayload")].string_value(),
            std::string(after.bytes.begin() + ip_payload_at,
                        after.bytes.end()));
  EXPECT_FALSE((*raw)->NextRow().has_value());

  // The header-only query saw both packets, before and after.
  std::vector<uint64_t> dest_ports;
  while (auto port_row = (*ports)->NextRow()) {
    dest_ports.push_back((*port_row)[1].uint_value());
  }
  EXPECT_EQ(dest_ports, (std::vector<uint64_t>{80, 81}));
}

TEST(EngineTest, PunctuationOnlyChannelTerminates) {
  // Regression: a subscriber on a channel that holds only punctuations
  // (ordering-update tokens, no tuples) must see NextRow() terminate with
  // nullopt rather than spin, and pending() must reflect the skipped
  // messages correctly.
  Engine engine;
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"t", DataType::kUint, gsql::OrderSpec::Increasing()});
  fields.push_back({"v", DataType::kUint, gsql::OrderSpec::None()});
  ASSERT_TRUE(engine
                  .DeclareStream(gsql::StreamSchema(
                      "external", gsql::StreamKind::kStream, fields))
                  .ok());
  auto sub = engine.Subscribe("external");
  ASSERT_TRUE(sub.ok());
  for (uint64_t t : {1ull, 2ull, 3ull}) {
    ASSERT_TRUE(
        engine.InjectPunctuation("external", 0, Value::Uint(t)).ok());
  }
  EXPECT_EQ((*sub)->pending(), 3u);
  EXPECT_FALSE((*sub)->NextRow().has_value());
  EXPECT_EQ((*sub)->pending(), 0u);  // all three were consumed, not stuck

  // A tuple behind punctuations is still found.
  ASSERT_TRUE(engine.InjectPunctuation("external", 0, Value::Uint(4)).ok());
  ASSERT_TRUE(
      engine.InjectRow("external", {Value::Uint(5), Value::Uint(7)}).ok());
  EXPECT_EQ((*sub)->pending(), 2u);
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].uint_value(), 7u);
  EXPECT_EQ((*sub)->pending(), 0u);
}

TEST(EngineTest, PendingCountsTheUnreadRestOfTheBatchBeingRead) {
  // pending() counts messages, not ring slots: ten rows that arrive as one
  // batch are ten pending messages, and the rows of that batch NextRow has
  // not returned yet stay pending after it pops the batch.
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name tcp; } "
                            "SELECT time, destIP FROM eth0.PKT "
                            "WHERE protocol = 6")
                  .ok());
  auto sub = engine.Subscribe("tcp");
  ASSERT_TRUE(sub.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket((i + 1) * kNanosPerSecond,
                                                0x0a000001, 80, "x"))
                    .ok());
  }
  engine.PumpUntilIdle();
  EXPECT_EQ((*sub)->pending(), 10u);
  size_t read = 0;
  while ((*sub)->NextRow().has_value()) {
    ++read;
    EXPECT_EQ((*sub)->pending(), 10u - read);
  }
  EXPECT_EQ(read, 10u);
}

TEST(EngineTest, FlushAllSealsTheEngine) {
  // Contract: FlushAll is the end-of-stream barrier. Afterwards the engine
  // rejects further input with FailedPrecondition, and repeated FlushAll
  // calls are no-ops (buffered state is not flushed twice).
  Engine engine;
  engine.AddInterface("eth0");
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"t", DataType::kUint, gsql::OrderSpec::Increasing()});
  ASSERT_TRUE(engine
                  .DeclareStream(gsql::StreamSchema(
                      "ext", gsql::StreamKind::kStream, fields))
                  .ok());
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name persec; } "
                            "SELECT time, count(*) FROM eth0.PKT "
                            "GROUP BY time")
                  .ok());
  auto sub = engine.Subscribe("persec");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine
                  .InjectPacket("eth0", MakeTcpPacket(kNanosPerSecond,
                                                      0x0a000001, 80, "x"))
                  .ok());
  engine.FlushAll();
  int rows = 0;
  while ((*sub)->NextRow()) ++rows;
  EXPECT_EQ(rows, 1);  // the open group was flushed exactly once

  Status status = engine.InjectPacket(
      "eth0", MakeTcpPacket(2 * kNanosPerSecond, 0x0a000001, 80, "x"));
  EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition);
  status = engine.InjectRow("ext", {Value::Uint(1)});
  EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition);
  status = engine.InjectPunctuation("ext", 0, Value::Uint(1));
  EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition);
  status = engine.InjectHeartbeat("eth0", 3 * kNanosPerSecond);
  EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(engine.StartThreads(2).code(),
            Status::Code::kFailedPrecondition);

  engine.FlushAll();  // idempotent: no second flush of operator state
  EXPECT_FALSE((*sub)->NextRow().has_value());
}

TEST(EngineThreadedTest, WorkerThreadOwnershipIsVisibleInStatsAndAnalyze) {
  // Worker threads own their nodes the way worker processes do: while the
  // pool runs, the HFTA node's metrics are tagged with its worker and
  // ANALYZE places it there; after FlushAll the inject thread owns it.
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, count(*) FROM eth0.PKT "
                            "GROUP BY time AS tb")
                  .ok());
  auto sub = engine.Subscribe("agg", 8192);
  ASSERT_TRUE(sub.ok());
  auto proc_of = [&engine](const std::string& entity) {
    for (const auto& sample : engine.telemetry().Snapshot()) {
      if (sample.entity == entity && sample.metric == "tuples_in") {
        return sample.proc;
      }
    }
    return std::string("missing");
  };
  ASSERT_TRUE(engine.StartThreads(1).ok());
  EXPECT_EQ(proc_of("agg"), "w0");
  EXPECT_EQ(proc_of("agg_lfta"), "rts");  // LFTAs stay on the inject thread
  EXPECT_NE(engine.AnalyzeText(true).find("proc: w0"), std::string::npos);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket((i + 1) * kNanosPerSecond,
                                                0x0a000001, 80, "x"))
                    .ok());
  }
  engine.FlushAll();
  EXPECT_EQ(proc_of("agg"), "rts");
  uint64_t total = 0;
  while (auto row = (*sub)->NextRow()) total += (*row)[1].uint_value();
  EXPECT_EQ(total, 100u);
}

TEST(EngineThreadedTest, MutationsRejectedWhileWorkersRun) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, count(*) FROM eth0.PKT "
                            "GROUP BY time AS tb")
                  .ok());
  ASSERT_TRUE(engine.StartThreads(2).ok());
  EXPECT_TRUE(engine.threads_running());
  EXPECT_EQ(engine
                .AddQuery("DEFINE { query_name late; } "
                          "SELECT time FROM eth0.PKT")
                .status()
                .code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(engine.Subscribe("agg").status().code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(engine.SetParam("agg", "p", Value::Uint(1)).code(),
            Status::Code::kFailedPrecondition);
  engine.StopThreads();
  EXPECT_FALSE(engine.threads_running());
}

TEST(EngineThreadedTest, SplitAggregationMatchesSingleThreaded) {
  // The same packet batch through the single-threaded pump and through the
  // worker-pool pump must produce identical aggregates: the SPSC handoff
  // loses and reorders nothing on the LFTA→HFTA channel.
  gigascope::workload::TrafficConfig config;
  config.seed = 7;
  config.num_flows = 50;
  gigascope::workload::TrafficGenerator gen(config);
  std::vector<net::Packet> batch;
  for (int i = 0; i < 4000; ++i) batch.push_back(gen.Next());
  const char* kQuery =
      "DEFINE { query_name agg; } "
      "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
      "GROUP BY time AS tb, destIP";

  auto run = [&](size_t threads) {
    Engine engine;  // default capacity 8192 > batch: no drops
    engine.AddInterface("eth0");
    auto info = engine.AddQuery(kQuery);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    auto sub = engine.Subscribe("agg", 8192);
    EXPECT_TRUE(sub.ok());
    if (threads > 0) {
      Status started = engine.StartThreads(threads);
      EXPECT_TRUE(started.ok()) << started.ToString();
    }
    for (const net::Packet& packet : batch) {
      EXPECT_TRUE(engine.InjectPacket("eth0", packet).ok());
    }
    engine.FlushAll();
    EXPECT_FALSE(engine.threads_running());  // FlushAll joined the pool
    std::vector<std::string> rows;
    while (auto row = (*sub)->NextRow()) {
      std::string text;
      for (const Value& value : *row) text += value.ToString() + "\t";
      rows.push_back(text);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  std::vector<std::string> single = run(0);
  std::vector<std::string> threaded = run(2);
  EXPECT_FALSE(single.empty());
  EXPECT_EQ(single, threaded);
}

TEST(EngineThreadedTest, StartStopRestartDrainsEverything) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name q3; } "
                            "SELECT tb, count(*) FROM eth0.PKT "
                            "GROUP BY time AS tb")
                  .ok());
  auto sub = engine.Subscribe("q3", 8192);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine.StartThreads(1).ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket((i + 1) * kNanosPerSecond,
                                                0x0a000001, 80, "x"))
                    .ok());
  }
  engine.StopThreads();
  // Undrained work survives StopThreads and can be pumped single-threaded.
  ASSERT_TRUE(engine.StartThreads(2).ok());  // restart also allowed
  engine.FlushAll();
  uint64_t total = 0;
  while (auto row = (*sub)->NextRow()) total += (*row)[1].uint_value();
  EXPECT_EQ(total, 500u);
}

TEST(EngineThreadedTest, StopAndFlushIdempotentAnyOrder) {
  // StopThreads and FlushAll must be callable repeatedly and in any order
  // without crashing, double-flushing, or losing buffered work. A clean
  // shutdown path (signal handlers, destructors, error unwinds) cannot
  // know which of the two ran first.
  Engine engine;
  engine.StopThreads();  // no-op before anything started
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name idem; } "
                            "SELECT tb, count(*) FROM eth0.PKT "
                            "GROUP BY time AS tb")
                  .ok());
  auto sub = engine.Subscribe("idem", 8192);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine.StartThreads(2).ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket((i + 1) * kNanosPerSecond,
                                                0x0a000001, 80, "x"))
                    .ok());
  }
  engine.StopThreads();
  engine.StopThreads();  // second stop is a no-op
  engine.FlushAll();     // flush after stop drains the remaining work
  engine.FlushAll();     // second flush must not re-emit groups
  engine.StopThreads();  // stop after flush is still safe
  uint64_t total = 0;
  int rows = 0;
  while (auto row = (*sub)->NextRow()) {
    total += (*row)[1].uint_value();
    ++rows;
  }
  EXPECT_EQ(total, 300u);
  EXPECT_EQ(rows, 300);  // one row per time bucket, none duplicated
  engine.FlushAll();
  engine.StopThreads();
  EXPECT_FALSE((*sub)->NextRow().has_value());
}

TEST(EngineTest, NonMonotoneTimestampClampedAndCounted) {
  // A source that emits a timestamp older than its last punctuation would
  // violate the ordering contract the punctuation already promised
  // downstream. The engine clamps the tuple to the punctuation bound and
  // counts the regression instead of propagating the violation.
  EngineOptions options;
  options.punctuation_interval = 4;
  options.batch_max_size = 1;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name mono; } "
                            "SELECT time, destPort FROM eth0.PKT")
                  .ok());
  auto sub = engine.Subscribe("mono");
  ASSERT_TRUE(sub.ok());

  // Four in-order packets emit a punctuation with bound time=4.
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket(i * kNanosPerSecond,
                                                0x0a000001, 80, "x"))
                    .ok());
  }
  // This packet claims second 2 — before the bound already published.
  ASSERT_TRUE(engine
                  .InjectPacket("eth0", MakeTcpPacket(2 * kNanosPerSecond,
                                                      0x0a000001, 81, "x"))
                  .ok());
  // And a healthy in-order packet afterwards: no further regression.
  ASSERT_TRUE(engine
                  .InjectPacket("eth0", MakeTcpPacket(6 * kNanosPerSecond,
                                                      0x0a000001, 82, "x"))
                  .ok());
  engine.FlushAll();

  uint64_t regressions = 0;
  for (const auto& sample : engine.telemetry().Snapshot()) {
    if (sample.entity == "eth0.PKT" && sample.metric == "time_regressions") {
      regressions = sample.value;
    }
  }
  EXPECT_EQ(regressions, 1u);

  // The regressed tuple surfaces clamped to the punctuation bound: time
  // never runs backwards in the output.
  uint64_t last_time = 0;
  bool saw_clamped = false;
  while (auto row = (*sub)->NextRow()) {
    uint64_t time = (*row)[0].uint_value();
    EXPECT_GE(time, last_time);
    last_time = time;
    if ((*row)[1].uint_value() == 81) {
      EXPECT_EQ(time, 4u);  // clamped from 2 to the bound
      saw_clamped = true;
    }
  }
  EXPECT_TRUE(saw_clamped);
}

TEST(EngineTest, QueryInfoCarriesNicProgram) {
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name f; } "
      "SELECT time FROM eth0.PKT "
      "WHERE ipVersion = 4 AND protocol = 6 AND destPort = 80");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->has_nic_program);
  EXPECT_GT(info->nic_program.size(), 0u);
  EXPECT_GT(info->snap_len, 0u);  // header-only query
}

// -- Parked punctuations are retried by their producer ----------------------

/// Polls `done` every millisecond for up to ten seconds.
bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A stream of (t UINT INCREASING, v UINT) named `name`.
gsql::StreamSchema TimedStream(const std::string& name) {
  return gsql::StreamSchema(
      name, gsql::StreamKind::kStream,
      {{"t", DataType::kUint, gsql::OrderSpec::Increasing()},
       {"v", DataType::kUint, gsql::OrderSpec::None()}});
}

TEST(EngineThreadedTest, WorkerDeliversItsParkedPunctuationOnceDrained) {
  // The HFTA's output ring to a one-slot subscriber fills, so the bound of
  // the next window it closes parks in the worker. Once the subscriber
  // drains, that bound must arrive with no further input and no FlushAll.
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, count(*) FROM eth0.PKT "
                            "GROUP BY time AS tb")
                  .ok());
  auto schema = engine.registry().GetSchema("agg");
  ASSERT_TRUE(schema.ok());
  auto ring = engine.registry().Subscribe("agg", /*capacity=*/1);
  ASSERT_TRUE(ring.ok());
  ASSERT_TRUE(engine.StartThreads(1).ok());
  // Second 1's heartbeat closes bucket 0: its row and bound fill the ring.
  ASSERT_TRUE(engine
                  .InjectPacket("eth0", MakeTcpPacket(kNanosPerSecond / 2,
                                                      0x0a000001, 80, "x"))
                  .ok());
  ASSERT_TRUE(engine.InjectHeartbeat("eth0", kNanosPerSecond).ok());
  ASSERT_TRUE(WaitFor([&] { return (*ring)->pushed() == 2; }));
  // Second 2's closes bucket 1 on the full ring: its row drops, the bound
  // parks.
  ASSERT_TRUE(engine
                  .InjectPacket("eth0", MakeTcpPacket(3 * kNanosPerSecond / 2,
                                                      0x0a000001, 80, "x"))
                  .ok());
  ASSERT_TRUE(engine.InjectHeartbeat("eth0", 2 * kNanosPerSecond).ok());
  ASSERT_TRUE(WaitFor([&] { return (*ring)->dropped() == 1; }));
  rts::StreamBatch batch;
  ASSERT_TRUE((*ring)->TryPop(&batch));
  EXPECT_EQ(batch.size(), 2u);

  ASSERT_TRUE(WaitFor([&] { return (*ring)->TryPop(&batch); }));
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(batch.item(0).kind, rts::MessageKind::kPunctuation);
  const uint8_t* bound = rts::FindBound(batch.payload(0), *schema, 0);
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(LoadLe64(bound), 2u);
  engine.StopThreads();
}

TEST(EngineTest, InjectedPunctuationParkedOnAFullRingClosesItsWindow) {
  // A punctuation injected into a declared stream whose consumer ring is
  // full parks; PumpUntilIdle delivers it and the aggregate over the stream
  // closes its window, with no FlushAll.
  EngineOptions options;
  options.channel_capacity = 1;
  Engine engine(options);
  ASSERT_TRUE(engine.DeclareStream(TimedStream("external")).ok());
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, count(*) FROM external "
                            "GROUP BY t AS tb")
                  .ok());
  auto sub = engine.Subscribe("agg");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(
      engine.InjectRow("external", {Value::Uint(1), Value::Uint(7)}).ok());
  ASSERT_TRUE(engine.InjectPunctuation("external", 0, Value::Uint(2)).ok());
  const auto rings = engine.registry().Subscribers("external");
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_TRUE(rings[0]->has_parked());
  EXPECT_EQ(rings[0]->pushed(), 1u);

  engine.PumpUntilIdle();
  EXPECT_FALSE(rings[0]->has_parked());
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 1u);
  EXPECT_EQ((*row)[1].uint_value(), 1u);
  EXPECT_FALSE((*sub)->NextRow().has_value());
}

TEST(EngineTest, InjectRowFollowsARedeclaredStream) {
  // InjectRow keeps one writer per injected stream; a re-declaration with
  // another field type must pack by the new schema.
  Engine engine;
  ASSERT_TRUE(engine.DeclareStream(TimedStream("s")).ok());
  ASSERT_TRUE(engine.InjectRow("s", {Value::Uint(1), Value::Uint(7)}).ok());
  ASSERT_TRUE(engine
                  .DeclareStream(gsql::StreamSchema(
                      "s", gsql::StreamKind::kStream,
                      {{"t", DataType::kUint, gsql::OrderSpec::Increasing()},
                       {"v", DataType::kString, gsql::OrderSpec::None()}}))
                  .ok());
  auto sub = engine.Subscribe("s");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(engine.InjectRow("s", {Value::Uint(2), Value::Uint(8)}).code(),
            Status::Code::kInvalidArgument);
  ASSERT_TRUE(
      engine.InjectRow("s", {Value::Uint(2), Value::String("eight")}).ok());
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 2u);
  EXPECT_EQ((*row)[1].string_value(), "eight");
  EXPECT_FALSE((*sub)->NextRow().has_value());
}

/// A user-written node that forwards each batch of `input` to its own
/// stream as one batch, through a BatchWriter.
class BatchForwarder : public rts::QueryNode {
 public:
  BatchForwarder(rts::StreamRegistry* registry, const std::string& input,
                 const std::string& output)
      : QueryNode(output),
        input_(*registry->Subscribe(input, 64)),
        writer_(registry, output, rts::BatchWriter::kDefaultMaxBatch) {
    RegisterInput(input_);
  }

  size_t Poll(size_t budget) override {
    size_t read = 0;
    while (read < budget && input_->TryPop(&batch_)) {
      for (size_t i = 0; i < batch_.size(); ++i) {
        writer_.Write(batch_.item(i), batch_.payload(i));
      }
      writer_.Flush();
      read += batch_.size();
    }
    writer_.Flush();
    return read;
  }

 private:
  rts::Subscription input_;
  rts::BatchWriter writer_;
  rts::StreamBatch batch_;
};

TEST(EngineTest, NodeAfterItsConsumerDeliversItsParkedPunctuation) {
  // The node producing `mid` is added after the query that reads it, so it
  // is polled after its consumer in every round. The punctuation it parks
  // on the consumer's one-slot ring is delivered and consumed within one
  // PumpUntilIdle.
  EngineOptions options;
  options.channel_capacity = 1;
  Engine engine(options);
  ASSERT_TRUE(engine.DeclareStream(TimedStream("in")).ok());
  ASSERT_TRUE(engine.DeclareStream(TimedStream("mid")).ok());
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, count(*) FROM mid GROUP BY t AS tb")
                  .ok());
  auto sub = engine.Subscribe("agg");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine
                  .AddNode(std::make_unique<BatchForwarder>(
                      &engine.registry(), "in", "mid"))
                  .ok());
  ASSERT_TRUE(engine.InjectRow("in", {Value::Uint(1), Value::Uint(7)}).ok());
  ASSERT_TRUE(engine.InjectPunctuation("in", 0, Value::Uint(2)).ok());
  // One round: the node forwards the row, which fills the ring, and parks
  // the bound.
  engine.Pump();
  const auto rings = engine.registry().Subscribers("mid");
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_TRUE(rings[0]->has_parked());
  EXPECT_FALSE((*sub)->NextRow().has_value());

  engine.PumpUntilIdle();
  EXPECT_EQ(rings[0]->pushed(), 2u);  // the row, then the parked bound
  EXPECT_FALSE(rings[0]->has_parked());
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 1u);
  EXPECT_EQ((*row)[1].uint_value(), 1u);
  EXPECT_FALSE((*sub)->NextRow().has_value());
}


// -- LFTAs run on the packet as it arrives ---------------------------------

/// Telemetry value of (entity, metric), if registered.
std::optional<uint64_t> Sample(const Engine& engine, const std::string& entity,
                               const std::string& metric) {
  for (const telemetry::MetricSample& sample : engine.telemetry().Snapshot()) {
    if (sample.entity == entity && sample.metric == metric) {
      return sample.value;
    }
  }
  return std::nullopt;
}

/// Whether `entity` registered any input-ring metric.
bool HasRingMetrics(const Engine& engine, const std::string& entity) {
  for (const telemetry::MetricSample& sample : engine.telemetry().Snapshot()) {
    if (sample.entity == entity &&
        sample.metric.rfind(telemetry::metric::kRingPrefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

/// `count` packets, one a second from second 1, alternating TCP to port
/// 80 + i and UDP, with payloads that differ per packet.
std::vector<net::Packet> MixedPackets(int count) {
  std::vector<net::Packet> packets;
  for (int i = 0; i < count; ++i) {
    const SimTime t = (i + 1) * kNanosPerSecond;
    packets.push_back(
        i % 2 == 0
            ? MakeTcpPacket(t, 0x0a000001 + static_cast<uint32_t>(i % 5),
                            static_cast<uint16_t>(80 + i),
                            "p" + std::to_string(i))
            : MakeUdpPacket(t, static_cast<uint16_t>(53 + i)));
  }
  return packets;
}

/// Every row `sub` holds, each rendered as tab-separated values.
std::vector<std::string> Rows(TupleSubscription* sub) {
  std::vector<std::string> rows;
  while (auto row = sub->NextRow()) {
    std::string text;
    for (const Value& value : *row) text += value.ToString() + "\t";
    rows.push_back(text);
  }
  return rows;
}

constexpr char kFedFilter[] =
    "DEFINE { query_name fed; } "
    "SELECT time, destIP, destPort FROM eth0.PKT WHERE protocol = 6";

TEST(EngineTest, PerfbenchLftasReadNoRing) {
  // filter_replay's LFTA-only filter and agg_paced's split aggregation:
  // the packet source feeds both LFTAs in place, so the protocol stream
  // has no ring and neither LFTA node reads one; the HFTA still does.
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name tcp_filter; } "
                            "SELECT time, timestamp, destIP, destPort, len "
                            "FROM eth0.PKT "
                            "WHERE ipVersion = 4 AND protocol = 6")
                  .ok());
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name dest_agg; } "
                            "SELECT tb, destIP, count(*), sum(len) "
                            "FROM eth0.PKT GROUP BY time AS tb, destIP")
                  .ok());
  EXPECT_TRUE(engine.registry().Subscribers("eth0.PKT").empty());
  EXPECT_FALSE(HasRingMetrics(engine, "tcp_filter"));
  EXPECT_FALSE(HasRingMetrics(engine, "dest_agg_lfta"));
  EXPECT_TRUE(HasRingMetrics(engine, "dest_agg"));
  const std::string analyze = engine.AnalyzeText(/*mask_volatile=*/true);
  EXPECT_EQ(analyze.find("ring: pushed="), analyze.rfind("ring: pushed="))
      << "only the HFTA reads a ring:\n"
      << analyze;

  auto filtered = engine.Subscribe("tcp_filter");
  auto aggregated = engine.Subscribe("dest_agg");
  ASSERT_TRUE(filtered.ok());
  ASSERT_TRUE(aggregated.ok());
  for (const net::Packet& packet : MixedPackets(10)) {
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
  }
  engine.FlushAll();
  EXPECT_EQ(Rows(filtered->get()).size(), 5u);   // the TCP packets
  EXPECT_EQ(Rows(aggregated->get()).size(), 10u);  // one group a second
}

TEST(EngineTest, EveryReaderOfAProtocolStreamSeesEveryPacket) {
  // Three readers of eth0.PKT: a fed LFTA filter, a raw subscriber, and
  // an unsplit HFTA (a self-join) that reads the stream through two rings.
  const std::vector<net::Packet> packets = MixedPackets(40);
  Engine alone;
  alone.AddInterface("eth0");
  ASSERT_TRUE(alone.AddQuery(kFedFilter).ok());
  auto alone_rows = alone.Subscribe("fed");
  ASSERT_TRUE(alone_rows.ok());

  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine.AddQuery(kFedFilter).ok());
  auto fed = engine.Subscribe("fed");
  ASSERT_TRUE(fed.ok());
  auto raw = engine.Subscribe("eth0.PKT");
  ASSERT_TRUE(raw.ok());
  auto join = engine.AddQuery(
      "DEFINE { query_name same; } "
      "SELECT l.time, r.len FROM eth0.PKT l, eth0.PKT r "
      "WHERE l.time = r.time");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_FALSE(join->has_lfta);
  auto same = engine.Subscribe("same");
  ASSERT_TRUE(same.ok());
  // The raw subscriber's ring and the join's two.
  EXPECT_EQ(engine.registry().Subscribers("eth0.PKT").size(), 3u);
  EXPECT_FALSE(HasRingMetrics(engine, "fed"));
  EXPECT_TRUE(HasRingMetrics(engine, "same"));

  for (const net::Packet& packet : packets) {
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
    ASSERT_TRUE(alone.InjectPacket("eth0", packet).ok());
  }
  engine.FlushAll();
  alone.FlushAll();

  const std::vector<std::string> fed_rows = Rows(fed->get());
  EXPECT_EQ(fed_rows.size(), 20u);
  EXPECT_EQ(fed_rows, Rows(alone_rows->get()));
  EXPECT_EQ(Rows(raw->get()).size(), packets.size());
  // One packet a second: each joins itself alone.
  EXPECT_EQ(Rows(same->get()).size(), packets.size());
  EXPECT_EQ(Sample(engine, "fed", telemetry::metric::kTuplesIn),
            packets.size());
}

TEST(EngineTest, QueryAddedMidStreamReadsOnlyLaterPackets) {
  // A query added after N packets is fed from the next packet on; a query
  // fed from the start answers as it would alone.
  const std::vector<net::Packet> packets = MixedPackets(30);
  constexpr size_t kBefore = 12;
  Engine alone;
  alone.AddInterface("eth0");
  ASSERT_TRUE(alone.AddQuery(kFedFilter).ok());
  auto alone_rows = alone.Subscribe("fed");
  ASSERT_TRUE(alone_rows.ok());

  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine.AddQuery(kFedFilter).ok());
  auto fed = engine.Subscribe("fed");
  ASSERT_TRUE(fed.ok());
  for (size_t i = 0; i < kBefore; ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", packets[i]).ok());
  }
  engine.PumpUntilIdle();
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name later; } "
                            "SELECT timestamp, payload FROM eth0.PKT")
                  .ok());
  auto later = engine.Subscribe("later");
  ASSERT_TRUE(later.ok());
  for (size_t i = kBefore; i < packets.size(); ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", packets[i]).ok());
  }
  for (const net::Packet& packet : packets) {
    ASSERT_TRUE(alone.InjectPacket("eth0", packet).ok());
  }
  engine.FlushAll();
  alone.FlushAll();

  std::vector<SimTime> seen;
  while (auto row = (*later)->NextRow()) {
    seen.push_back(static_cast<SimTime>((*row)[0].uint_value()));
  }
  std::vector<SimTime> expected;
  for (size_t i = kBefore; i < packets.size(); ++i) {
    expected.push_back(packets[i].timestamp);
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(Rows(fed->get()), Rows(alone_rows->get()));
}

TEST(EngineTest, SampledWeightsFoldThroughAFedLftaAggregate) {
  // L1 sampling with the split count's LFTA table fed in place: a second,
  // HFTA-heavy query on the interface fills its LFTA->HFTA ring between
  // pumps, which is the pressure; the scaled count still accounts for
  // every offered packet within 5%.
  EngineOptions options;
  options.channel_capacity = 64;
  options.batch_max_size = 4;
  options.punctuation_interval = 16;
  options.shed.enabled = true;
  options.shed.check_period = kNanosPerSecond / 10;
  options.shed.ring_occupancy = 0.1;
  options.shed.max_level = 1;  // L1 sampling only
  options.shed.drops_per_check = 0;  // occupancy is the only signal
  options.shed.hold_checks = 1000000;  // never step down during the run
  Engine engine(options);
  engine.AddInterface("eth0");
  auto counted = engine.AddQuery(
      "DEFINE { query_name counted; } "
      "SELECT tb, count(*) FROM eth0.PKT GROUP BY time AS tb");
  ASSERT_TRUE(counted.ok());
  EXPECT_TRUE(counted->split_aggregation);
  auto heavy = engine.AddQuery(
      "DEFINE { query_name heavy; } "
      "SELECT time, len FROM eth0.PKT WHERE str_find(payload, 'x')");
  ASSERT_TRUE(heavy.ok());
  EXPECT_TRUE(heavy->has_hfta);
  auto sub = engine.Subscribe("counted", 65536);
  auto heavy_sub = engine.Subscribe("heavy", 65536);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(heavy_sub.ok());

  const SimTime kMs = kNanosPerSecond / 1000;
  const int kOffered = 20000;
  for (int i = 1; i <= kOffered; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0", MakeTcpPacket(i * kMs, 0x0a000001,
                                                        80, "x"))
                    .ok());
    if (i % 100 == 50) {
      engine.PumpUntilIdle();
      while ((*heavy_sub)->NextRow()) {
      }
    }
  }
  engine.FlushAll();

  EXPECT_EQ(engine.registry().Total(&rts::RingChannel::dropped), 0u);
  EXPECT_EQ(Sample(engine, "engine", telemetry::metric::kShedLevel), 1u);
  EXPECT_GT(*Sample(engine, "engine", telemetry::metric::kShedTuples),
            static_cast<uint64_t>(kOffered) / 2);
  uint64_t total = 0;
  while (auto row = (*sub)->NextRow()) total += (*row)[1].uint_value();
  const double error =
      std::abs(static_cast<double>(total) - kOffered) / kOffered;
  EXPECT_LT(error, 0.05) << "total=" << total << " offered=" << kOffered;
}

TEST(EngineThreadedTest, BoundariesFlushFedLftaOutputToWorkers) {
  // With one slot, every new destIP evicts the LFTA table's group, so the
  // split aggregate's LFTA emits a partial per packet and no punctuation.
  // The inject thread flushes that output at each boundary (every
  // batch_max_size packets), so the worker's HFTA reads every partial with
  // no Pump call.
  EngineOptions options;
  options.batch_max_size = 16;
  options.lfta_hash_log2 = 0;
  Engine engine(options);
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name spread; } "
      "SELECT tb, destIP, count(*) FROM eth0.PKT GROUP BY time AS tb, destIP");
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info->split_aggregation);
  ASSERT_TRUE(engine.StartThreads(1).ok());
  const size_t packets = 2 * options.batch_max_size;
  for (size_t i = 0; i < packets; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket(kNanosPerSecond,
                                                0x0a000001 +
                                                    static_cast<uint32_t>(i),
                                                80, "x"))
                    .ok());
  }
  // Every packet but the last evicted one group.
  EXPECT_EQ(Sample(engine, "spread_lfta", telemetry::metric::kTuplesOut),
            packets - 1);
  uint64_t hfta_in = 0;
  EXPECT_TRUE(WaitFor([&] {
    hfta_in = 0;
    for (const Engine::NodeStats& stats : engine.GetNodeStats()) {
      if (stats.name != "spread_lfta") hfta_in += stats.tuples_in;
    }
    return hfta_in == packets - 1;
  })) << "the HFTA read " << hfta_in;
  engine.StopThreads();
}

/// A seeded trace of 3,000 packets over about 12 seconds, with a TCP
/// packet whose payload holds "GET" after every tenth one.
std::vector<net::Packet> FoldTrace() {
  workload::TrafficConfig config;
  config.seed = 23;
  config.num_flows = 40;
  config.offered_bits_per_sec = 1e6;
  workload::TrafficGenerator gen(config);
  std::vector<net::Packet> trace;
  for (int i = 0; i < 3000; ++i) {
    trace.push_back(gen.Next());
    if (i % 10 == 9) {
      trace.push_back(MakeTcpPacket(trace.back().timestamp,
                                    0x0a000002 + static_cast<uint32_t>(i % 3),
                                    80, "GET /index.html HTTP/1.1"));
    }
  }
  return trace;
}

/// Adds `queries` to `engine` in order, runs `trace` through it with a
/// heartbeat after every 200 packets, and returns the sorted rows of the
/// query named "q".
std::vector<std::string> SortedRowsOfQ(Engine* engine,
                                       const std::vector<std::string>& queries,
                                       const std::vector<net::Packet>& trace) {
  engine->AddInterface("eth0");
  for (const std::string& query : queries) {
    auto info = engine->AddQuery(query);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
  }
  auto sub = engine->Subscribe("q", 1 << 16);
  EXPECT_TRUE(sub.ok());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_TRUE(engine->InjectPacket("eth0", trace[i]).ok());
    if ((i + 1) % 200 == 0) {
      EXPECT_TRUE(engine->InjectHeartbeat("eth0", trace[i].timestamp).ok());
      engine->PumpUntilIdle();
    }
  }
  engine->FlushAll();
  std::vector<std::string> rows = Rows(sub->get());
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(EngineTest, FoldedWhereMatchesAFilterThenGroupBy) {
  // Each GROUP BY runs its WHERE inside the aggregation; its rows equal
  // those of the same GROUP BY, with no WHERE, over a scan stream that
  // applies the WHERE first. The source materializes the payload only for
  // a plan that reads it, so a WHERE on the payload checks that the
  // aggregate's WHERE counts among the fields its LFTA reads.
  struct Shape {
    std::string name;
    std::vector<std::string> folded;
    std::vector<std::string> reference;
  };
  const std::string kTcp =
      "DEFINE { query_name tcp; } "
      "SELECT time, destIP, len FROM eth0.PKT WHERE protocol = 6";
  const std::vector<Shape> shapes = {
      {"full split",
       {"DEFINE { query_name q; } "
        "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
        "WHERE protocol = 6 AND len > 100 GROUP BY time AS tb, destIP"},
       {"DEFINE { query_name s; } SELECT time, destIP, len FROM eth0.PKT "
        "WHERE protocol = 6 AND len > 100",
        "DEFINE { query_name q; } "
        "SELECT tb, destIP, count(*), sum(len) FROM s "
        "GROUP BY time AS tb, destIP"}},
      {"partial split",
       {"DEFINE { query_name q; } "
        "SELECT tb, count(*), sum(len) FROM eth0.PKT "
        "WHERE protocol = 6 AND str_find(payload, 'GET') GROUP BY time AS tb"},
       {"DEFINE { query_name s; } SELECT time, len FROM eth0.PKT "
        "WHERE protocol = 6 AND str_find(payload, 'GET')",
        "DEFINE { query_name q; } "
        "SELECT tb, count(*), sum(len) FROM s GROUP BY time AS tb"}},
      {"full split reading the payload",
       {"DEFINE { query_name q; } "
        "SELECT tb, count(*), sum(len) FROM eth0.PKT "
        "WHERE payload = 'GET /index.html HTTP/1.1' GROUP BY time AS tb"},
       {"DEFINE { query_name s; } SELECT time, len FROM eth0.PKT "
        "WHERE payload = 'GET /index.html HTTP/1.1'",
        "DEFINE { query_name q; } "
        "SELECT tb, count(*), sum(len) FROM s GROUP BY time AS tb"}},
      {"HFTA-only over a derived stream",
       {kTcp,
        "DEFINE { query_name q; } "
        "SELECT tb, destIP, count(*), sum(len) FROM tcp "
        "WHERE len > 500 GROUP BY time AS tb, destIP"},
       {kTcp,
        "DEFINE { query_name s; } SELECT time, destIP, len FROM tcp "
        "WHERE len > 500",
        "DEFINE { query_name q; } "
        "SELECT tb, destIP, count(*), sum(len) FROM s "
        "GROUP BY time AS tb, destIP"}},
  };
  const std::vector<net::Packet> trace = FoldTrace();
  for (const Shape& shape : shapes) {
    Engine folded;
    Engine reference;
    const std::vector<std::string> rows =
        SortedRowsOfQ(&folded, shape.folded, trace);
    EXPECT_GT(rows.size(), 5u) << shape.name;
    EXPECT_EQ(rows, SortedRowsOfQ(&reference, shape.reference, trace))
        << shape.name;
    if (shape.name != "full split") continue;
    // One LFTA node fed by the source, one HFTA node: no select below
    // the aggregate, no stream between them, no ring on the packets.
    std::vector<std::string> nodes;
    for (const Engine::NodeStats& stats : folded.GetNodeStats()) {
      nodes.push_back(stats.name);
    }
    std::sort(nodes.begin(), nodes.end());
    EXPECT_EQ(nodes, (std::vector<std::string>{"q", "q_lfta"}));
    EXPECT_FALSE(folded.registry().HasStream("q_lfta#0"));
    EXPECT_TRUE(folded.registry().Subscribers("eth0.PKT").empty());
  }
}

TEST(EngineTest, FoldedWhereFollowsSetParamFromTheNextPacket) {
  // `len > $minlen` is not a raw filter: the LFTA aggregate's VM reads
  // the parameter block on every packet.
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name big; param minlen UINT = 1000; } "
      "SELECT tb, count(*) FROM eth0.PKT WHERE len > $minlen "
      "GROUP BY time AS tb");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_TRUE(info->split_aggregation);
  auto sub = engine.Subscribe("big");
  ASSERT_TRUE(sub.ok());
  for (int i = 0; i < 3; ++i) {  // second 1: every packet is too short
    ASSERT_TRUE(engine
                    .InjectPacket("eth0", MakeTcpPacket(kNanosPerSecond,
                                                        0x0a000001, 80, "x"))
                    .ok());
  }
  ASSERT_TRUE(engine.SetParam("big", "minlen", Value::Uint(10)).ok());
  for (int i = 0; i < 2; ++i) {  // second 2: every packet is long enough
    ASSERT_TRUE(engine
                    .InjectPacket("eth0", MakeTcpPacket(2 * kNanosPerSecond,
                                                        0x0a000001, 80, "x"))
                    .ok());
  }
  engine.FlushAll();
  EXPECT_EQ(Rows(sub->get()), (std::vector<std::string>{"2\t2\t"}));
}

}  // namespace
}  // namespace gigascope::core
