#include <gtest/gtest.h>

#include "bpf/interpreter.h"
#include "bpf/verifier.h"
#include "gsql/parser.h"
#include "net/headers.h"
#include "plan/splitter.h"
#include "udf/registry.h"

namespace gigascope::plan {
namespace {

using gsql::DataType;

class SplitterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        catalog_.AddSchema(gsql::Catalog::BuiltinPacketSchema()).ok());
    catalog_.AddInterface("eth0");
    options_.resolver = udf::FunctionRegistry::Default();
  }

  Result<SplitQuery> Split(std::string_view query) {
    auto stmt = gsql::ParseStatement(query);
    if (!stmt.ok()) return stmt.status();
    auto* select = std::get_if<gsql::SelectStmt>(&stmt.value());
    auto resolved = gsql::AnalyzeSelect(*select, catalog_);
    if (!resolved.ok()) return resolved.status();
    auto planned = PlanSelect(*resolved, options_);
    if (!planned.ok()) return planned.status();
    return SplitPlan(*planned);
  }

  gsql::Catalog catalog_;
  PlannerOptions options_;
};

TEST_F(SplitterTest, SimpleQueryRunsEntirelyAsLfta) {
  // §3: "a simple query can execute entirely as an LFTA".
  auto split = Split(
      "DEFINE { query_name tcpdest0; } "
      "SELECT destIP, destPort, time FROM eth0.PKT "
      "WHERE ipVersion = 4 AND protocol = 6");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_NE(split->lfta, nullptr);
  EXPECT_EQ(split->hfta, nullptr);
  EXPECT_EQ(split->lfta_name, "tcpdest0_lfta");
}

TEST_F(SplitterTest, ExpensivePredicateSplits) {
  // The §4 HTTP query: the port filter is LFTA work, the regex is not.
  auto split = Split(
      "DEFINE { query_name http; } "
      "SELECT time, len FROM eth0.PKT "
      "WHERE protocol = 6 AND destPort = 80 "
      "AND match_regex(payload, '^[^\\n]*HTTP/1.*')");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  ASSERT_NE(split->lfta, nullptr);
  ASSERT_NE(split->hfta, nullptr);
  // LFTA: filter (cheap conjuncts) + projection of needed fields.
  EXPECT_EQ(split->lfta->kind, PlanKind::kSelectProject);
  ASSERT_NE(split->lfta->predicate, nullptr);
  std::string lfta_pred = split->lfta->predicate->ToString();
  EXPECT_NE(lfta_pred.find("destPort"), std::string::npos);
  EXPECT_EQ(lfta_pred.find("match_regex"), std::string::npos);
  // HFTA: the regex.
  ASSERT_NE(split->hfta->predicate, nullptr);
  EXPECT_NE(split->hfta->predicate->ToString().find("match_regex"),
            std::string::npos);
  // The LFTA stream carries the payload for the HFTA's regex.
  EXPECT_TRUE(split->lfta_schema.FieldIndex("payload").has_value());
  // Payload referenced: full packets required.
  EXPECT_EQ(split->snap_len, 0u);
}

TEST_F(SplitterTest, AggregateQuerySplitsIntoSubAndSuper) {
  auto split = Split(
      "DEFINE { query_name counts; } "
      "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
      "WHERE protocol = 6 GROUP BY time/60 AS tb, destIP");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_TRUE(split->split_aggregation);
  ASSERT_NE(split->lfta, nullptr);
  ASSERT_NE(split->hfta, nullptr);
  // LFTA side: Aggregate over the (filtered) source.
  EXPECT_EQ(split->lfta->kind, PlanKind::kAggregate);
  // HFTA side: the superaggregate. The final projection only renamed its
  // columns, so the superaggregate publishes under the query's names.
  const PlanPtr& super = split->hfta;
  ASSERT_EQ(super->kind, PlanKind::kAggregate);
  EXPECT_EQ(super->output_schema.field(2).name, "count");
  EXPECT_EQ(super->output_schema.field(3).name, "sum_len");
  // Superaggregates: COUNT re-aggregates as SUM; SUM stays SUM.
  ASSERT_EQ(super->aggregates.size(), 2u);
  EXPECT_EQ(super->aggregates[0].fn, expr::AggFn::kSum);
  EXPECT_EQ(super->aggregates[1].fn, expr::AggFn::kSum);
  // Types survive re-aggregation.
  EXPECT_EQ(super->output_schema.fields().back().type, DataType::kUint);
}

TEST_F(SplitterTest, ExpensiveGroupKeyKeepsAggregationInHfta) {
  // The paper's getlpmid query: the prefix-match key cannot run in the
  // LFTA, so only filtering/projection is pushed down.
  auto split = Split(
      "DEFINE { query_name peers; } "
      "SELECT peerid, tb, count(*) FROM eth0.PKT "
      "GROUP BY time/60 AS tb, "
      "getlpmid(destIP, 'inline:10.0.0.0/8 1') AS peerid");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_FALSE(split->split_aggregation);
  ASSERT_NE(split->lfta, nullptr);
  EXPECT_EQ(split->lfta->kind, PlanKind::kSelectProject);
  // The aggregation lives in the HFTA.
  ASSERT_NE(split->hfta, nullptr);
  bool found_aggregate = false;
  for (PlanPtr node = split->hfta; node != nullptr;
       node = node->children.empty() ? nullptr : node->children[0]) {
    if (node->kind == PlanKind::kAggregate) {
      found_aggregate = true;
      break;
    }
  }
  EXPECT_TRUE(found_aggregate);
}

TEST_F(SplitterTest, StreamScanHasNoLfta) {
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"t", DataType::kUint, gsql::OrderSpec::Increasing()});
  catalog_.PutStreamSchema(
      gsql::StreamSchema("upstream", gsql::StreamKind::kStream, fields));
  auto split = Split("SELECT t FROM upstream WHERE t > 5");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ(split->lfta, nullptr);
  EXPECT_NE(split->hfta, nullptr);
}

TEST_F(SplitterTest, HeaderOnlyQueryGetsHeaderSnapLen) {
  auto split = Split(
      "SELECT destIP, time FROM eth0.PKT WHERE protocol = 6");
  ASSERT_TRUE(split.ok());
  EXPECT_GT(split->snap_len, 0u);
  EXPECT_LE(split->snap_len, 256u);
}

TEST_F(SplitterTest, NicProgramForPaperFilter) {
  auto split = Split(
      "SELECT time FROM eth0.PKT "
      "WHERE ipVersion = 4 AND protocol = 6 AND destPort = 80");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  ASSERT_TRUE(split->has_nic_program);
  ASSERT_TRUE(bpf::Verify(split->nic_program).ok())
      << split->nic_program.ToString();

  // The generated program behaves like the handwritten port-80 filter.
  net::TcpPacketSpec spec;
  spec.dst_port = 80;
  ByteBuffer match = net::BuildTcpPacket(spec);
  EXPECT_TRUE(bpf::Matches(split->nic_program,
                           ByteSpan(match.data(), match.size())));
  spec.dst_port = 443;
  ByteBuffer no_match = net::BuildTcpPacket(spec);
  EXPECT_FALSE(bpf::Matches(split->nic_program,
                            ByteSpan(no_match.data(), no_match.size())));
}

TEST_F(SplitterTest, NicProgramIsSupersetNotExact) {
  // len > 100 is not BPF-pushable; the NIC program must still accept
  // everything the LFTA predicate accepts.
  auto split = Split(
      "SELECT time FROM eth0.PKT "
      "WHERE ipVersion = 4 AND protocol = 17 AND len > 100");
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(split->has_nic_program);
  net::UdpPacketSpec spec;
  spec.payload = std::string(200, 'x');
  ByteBuffer big = net::BuildUdpPacket(spec);
  EXPECT_TRUE(
      bpf::Matches(split->nic_program, ByteSpan(big.data(), big.size())));
  // Small packets also pass the NIC (len check happens in the LFTA).
  spec.payload = "s";
  ByteBuffer small = net::BuildUdpPacket(spec);
  EXPECT_TRUE(
      bpf::Matches(split->nic_program, ByteSpan(small.data(), small.size())));
}

TEST_F(SplitterTest, NoNicProgramWithoutIpVersionGuard) {
  // destPort=80 alone cannot compile to BPF safely without knowing the
  // packet is IPv4/TCP, and no ipVersion conjunct exists.
  auto split = Split("SELECT time FROM eth0.PKT WHERE destPort = 80");
  ASSERT_TRUE(split.ok());
  EXPECT_FALSE(split->has_nic_program);
}

TEST_F(SplitterTest, IpEqualityPushable) {
  auto split = Split(
      "SELECT time FROM eth0.PKT "
      "WHERE ipVersion = 4 AND destIP = 10.0.0.2");
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(split->has_nic_program);
  net::TcpPacketSpec spec;
  spec.dst_addr = 0x0a000002;
  ByteBuffer match = net::BuildTcpPacket(spec);
  EXPECT_TRUE(bpf::Matches(split->nic_program,
                           ByteSpan(match.data(), match.size())));
  spec.dst_addr = 0x0a000003;
  ByteBuffer no_match = net::BuildTcpPacket(spec);
  EXPECT_FALSE(bpf::Matches(split->nic_program,
                            ByteSpan(no_match.data(), no_match.size())));
}

}  // namespace
}  // namespace gigascope::plan
