// Golden-file tests for EXPLAIN ANALYZE: a deterministic workload runs
// through the engine, and the annotated plan rendering (actual tuple
// counts, ring health, process placement) is compared byte-for-byte
// against checked-in goldens with volatile fields (ring occupancy,
// timings) masked. The JSON rendering is checked structurally.
//
// Regenerate after an intentional change:
//   GS_UPDATE_GOLDENS=1 ./build/tests/analyze_test
// then inspect the diff under tests/golden/.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/engine.h"
#include "net/headers.h"

#ifndef GS_GOLDEN_DIR
#error "GS_GOLDEN_DIR must be defined to the tests/golden directory"
#endif

namespace gigascope::core {
namespace {

net::Packet MakeTcpPacket(SimTime timestamp, uint32_t dst_addr,
                          uint16_t dst_port) {
  net::TcpPacketSpec spec;
  spec.src_addr = 0xac100001;
  spec.dst_addr = dst_addr;
  spec.src_port = 40000;
  spec.dst_port = dst_port;
  spec.flags = net::kTcpFlagAck;
  spec.payload = "x";
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

class AnalyzeTest : public ::testing::Test {
 protected:
  // Runs `query` over 5 TCP + 3 UDP packets (one per second) through a
  // fresh single-process engine; the counts in the golden follow from
  // this fixed workload.
  void RunWorkload(Engine* engine, const std::string& query) {
    engine->AddInterface("eth0");
    auto info = engine->AddQuery(query);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    auto sub = engine->Subscribe(info->name, 8192);
    ASSERT_TRUE(sub.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(engine
                      ->InjectPacket("eth0",
                                     MakeTcpPacket((i + 1) * kNanosPerSecond,
                                                   0x0a000001, 80))
                      .ok());
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          engine
              ->InjectPacket("eth0",
                             MakeUdpPacket((i + 6) * kNanosPerSecond, 53))
              .ok());
    }
    engine->PumpUntilIdle();
    engine->FlushAll();
  }

  void CheckGolden(const std::string& golden_name, const std::string& text) {
    const std::string path =
        std::string(GS_GOLDEN_DIR) + "/" + golden_name + ".txt";
    if (std::getenv("GS_UPDATE_GOLDENS") != nullptr) {
      std::ofstream out(path);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << text;
      return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (run with GS_UPDATE_GOLDENS=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(text, expected.str()) << "ANALYZE drifted from " << path;
  }
};

TEST_F(AnalyzeTest, LftaFilterGolden) {
  Engine engine;
  RunWorkload(&engine,
              "DEFINE { query_name tcponly; } "
              "SELECT time, destIP, destPort FROM eth0.PKT "
              "WHERE ipVersion = 4 AND protocol = 6");
  CheckGolden("analyze_lfta_filter",
              engine.AnalyzeText(/*mask_volatile=*/true));
}

TEST_F(AnalyzeTest, SplitAggregateGolden) {
  Engine engine;
  RunWorkload(&engine,
              "DEFINE { query_name counts; } "
              "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
              "WHERE protocol = 6 GROUP BY time/60 AS tb, destIP");
  CheckGolden("analyze_split_aggregate",
              engine.AnalyzeText(/*mask_volatile=*/true));
}

// A node its packet source feeds in place reads no ring: its JSON carries
// no ring object. A node reading a ring carries one, as in the text.
TEST_F(AnalyzeTest, JsonRingOnlyWhereANodeReadsARing) {
  Engine filter;
  RunWorkload(&filter,
              "DEFINE { query_name tcponly; } "
              "SELECT time, destIP, destPort FROM eth0.PKT "
              "WHERE ipVersion = 4 AND protocol = 6");
  EXPECT_EQ(filter.AnalyzeJson().find("\"ring\""), std::string::npos);
  Engine split;
  RunWorkload(&split,
              "DEFINE { query_name counts; } "
              "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
              "WHERE protocol = 6 GROUP BY time/60 AS tb, destIP");
  EXPECT_NE(split.AnalyzeJson(/*mask_volatile=*/true)
                .find("\"ring\":{\"pushed\":5,\"popped\":5,\"dropped\":0}"),
            std::string::npos);
}

// The JSON rendering: balanced, one entry per query, the analyze summary
// and per-node actuals present, and the actual counts agreeing with the
// text rendering's fixed workload (8 tuples into the filter, 5 out).
TEST_F(AnalyzeTest, JsonShapeAndActuals) {
  Engine engine;
  RunWorkload(&engine,
              "DEFINE { query_name tcponly; } "
              "SELECT time, destIP, destPort FROM eth0.PKT "
              "WHERE ipVersion = 4 AND protocol = 6");
  const std::string json = engine.AnalyzeJson();
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
  }
  EXPECT_EQ(depth, 0) << "unbalanced JSON: " << json;
  EXPECT_EQ(json.rfind("{\"queries\":[", 0), 0u);
  EXPECT_NE(json.find("\"analyze\":{\"pump\":\"single\""), std::string::npos);
  EXPECT_NE(json.find("\"actual\":{"), std::string::npos);
  EXPECT_NE(json.find("\"tuples_in\":8"), std::string::npos);
  EXPECT_NE(json.find("\"tuples_out\":5"), std::string::npos);
  // Unmasked JSON carries the volatile fields; they must vanish under
  // mask_volatile so goldens and diffable artifacts stay stable.
  EXPECT_NE(json.find("\"timing\":{"), std::string::npos);
  const std::string masked = engine.AnalyzeJson(/*mask_volatile=*/true);
  EXPECT_EQ(masked.find("\"timing\":{"), std::string::npos);
}

}  // namespace
}  // namespace gigascope::core
