// Property-style parameterized suites over randomized inputs: invariants
// that must hold for any seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "bpf/interpreter.h"
#include "channel_reader.h"
#include "core/engine.h"
#include "expr/vm.h"
#include "ops/aggregate.h"
#include "ops/lfta_agg.h"
#include "ops/merge.h"
#include "plan/ordering.h"
#include "rts/tuple.h"
#include "workload/traffic_gen.h"

namespace gigascope {
namespace {

using expr::Value;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderKind;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

// ---------------------------------------------------------------------------
// Tuple codec: Decode(Encode(row)) == row for random schemas and rows.
// ---------------------------------------------------------------------------

class CodecRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecRoundTrip, RandomSchemaAndRows) {
  Rng rng(GetParam());
  // Random schema of 1..10 fields.
  size_t num_fields = 1 + rng.NextBelow(10);
  std::vector<FieldDef> fields;
  for (size_t f = 0; f < num_fields; ++f) {
    DataType type = static_cast<DataType>(rng.NextBelow(6));
    fields.push_back(
        {"f" + std::to_string(f), type, OrderSpec::None()});
  }
  StreamSchema schema("random", StreamKind::kStream, fields);
  rts::TupleCodec codec(schema);

  for (int round = 0; round < 50; ++round) {
    rts::Row row;
    for (size_t f = 0; f < num_fields; ++f) {
      switch (fields[f].type) {
        case DataType::kBool:
          row.push_back(Value::Bool(rng.NextBool(0.5)));
          break;
        case DataType::kInt:
          row.push_back(Value::Int(static_cast<int64_t>(rng.Next())));
          break;
        case DataType::kUint:
          row.push_back(Value::Uint(rng.Next()));
          break;
        case DataType::kFloat:
          row.push_back(Value::Float(rng.NextDouble() * 1e9));
          break;
        case DataType::kIp:
          row.push_back(Value::Ip(static_cast<uint32_t>(rng.Next())));
          break;
        case DataType::kString: {
          std::string s;
          size_t len = rng.NextBelow(64);
          for (size_t i = 0; i < len; ++i) {
            s += static_cast<char>(rng.NextBelow(256));
          }
          row.push_back(Value::String(std::move(s)));
          break;
        }
      }
    }
    ByteBuffer buffer;
    codec.Encode(row, &buffer);
    auto decoded = codec.Decode(ByteSpan(buffer.data(), buffer.size()));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->size(), row.size());
    for (size_t f = 0; f < row.size(); ++f) {
      EXPECT_EQ((*decoded)[f], row[f]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Merge: for ANY interleaving of sorted inputs, the output is sorted and
// preserves multiset cardinality.
// ---------------------------------------------------------------------------

class MergeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeProperty, OutputSortedAndComplete) {
  Rng rng(GetParam());
  StreamSchema schema("s", StreamKind::kStream,
                      {FieldDef{"t", DataType::kUint,
                                OrderSpec::Increasing()}});
  rts::StreamRegistry registry;
  const size_t kInputs = 2 + rng.NextBelow(3);  // 2..4 inputs
  std::vector<rts::Subscription> subs;
  for (size_t i = 0; i < kInputs; ++i) {
    StreamSchema named("in" + std::to_string(i), StreamKind::kStream,
                       schema.fields());
    ASSERT_TRUE(registry.DeclareStream(named).ok());
    auto sub = registry.Subscribe(named.name(), 4096);
    ASSERT_TRUE(sub.ok());
    subs.push_back(*sub);
  }
  ops::MergeNode::Spec spec;
  spec.name = "merged";
  spec.schema = StreamSchema("merged", StreamKind::kStream, schema.fields());
  ASSERT_TRUE(registry.DeclareStream(spec.schema).ok());
  spec.merge_field = 0;
  ops::MergeNode node(std::move(spec), subs, &registry);
  auto out = registry.Subscribe("merged", 65536);
  ASSERT_TRUE(out.ok());

  // Generate per-input sorted sequences and feed them in random
  // interleaving with interleaved polls.
  std::vector<std::vector<uint64_t>> sequences(kInputs);
  std::vector<uint64_t> cursors(kInputs, 0);
  size_t total = 0;
  for (size_t i = 0; i < kInputs; ++i) {
    uint64_t t = 0;
    size_t n = 20 + rng.NextBelow(200);
    for (size_t j = 0; j < n; ++j) {
      t += rng.NextBelow(5);  // non-strict increase
      sequences[i].push_back(t);
    }
    total += n;
  }
  rts::TupleCodec codec(schema);
  std::vector<size_t> positions(kInputs, 0);
  size_t sent = 0;
  while (sent < total) {
    size_t i = rng.NextBelow(kInputs);
    if (positions[i] >= sequences[i].size()) continue;
    registry.PublishBatch(
        "in" + std::to_string(i),
        testing_util::TupleBatch(codec,
                                 {Value::Uint(sequences[i][positions[i]++])}));
    ++sent;
    if (rng.NextBool(0.1)) node.Poll(1000);
  }
  node.Poll(100000);
  node.Flush();

  std::vector<uint64_t> merged;
  rts::StreamBatch message_batch;
  while ((*out)->TryPop(&message_batch)) {
    for (const rts::BatchItem& message : message_batch.items()) {
      if (message.kind != rts::MessageKind::kTuple) continue;
      auto row = codec.Decode(message_batch.payload(message));
      ASSERT_TRUE(row.ok());
      merged.push_back((*row)[0].uint_value());
    }
  }
  ASSERT_EQ(merged.size(), total);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  // Multiset equality with the concatenated inputs.
  std::vector<uint64_t> expected;
  for (const auto& sequence : sequences) {
    expected.insert(expected.end(), sequence.begin(), sequence.end());
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(merged, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// LFTA direct-mapped pre-aggregation + superaggregation == exact
// aggregation, for ANY table size (collisions only change *when* partials
// are emitted, never the final sums).
// ---------------------------------------------------------------------------

class SplitAggEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SplitAggEquivalence, TableSizeDoesNotChangeResults) {
  const int log2_slots = GetParam();
  core::EngineOptions options;
  options.lfta_hash_log2 = log2_slots;
  core::Engine engine(options);
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name flows; } "
      "SELECT tb, destIP, count(*), sum(len), min(len), max(len) "
      "FROM eth0.PKT GROUP BY time/2 AS tb, destIP");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_TRUE(info->split_aggregation);
  auto sub = engine.Subscribe("flows", 1 << 20);
  ASSERT_TRUE(sub.ok());

  // Deterministic synthetic traffic; compute the reference aggregation
  // directly from the packets.
  workload::TrafficConfig config;
  config.seed = 99;
  config.num_flows = 64;
  config.offered_bits_per_sec = 20e6;
  workload::TrafficGenerator gen(config);
  struct Cell {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = UINT64_MAX;
    uint64_t max = 0;
    bool operator==(const Cell&) const = default;
  };
  std::map<std::pair<uint64_t, uint32_t>, Cell> reference;
  for (int i = 0; i < 4000; ++i) {
    net::Packet packet = gen.Next();
    auto decoded = net::DecodePacket(packet.view());
    ASSERT_TRUE(decoded.ok());
    uint64_t tb =
        static_cast<uint64_t>(SimTimeToSeconds(packet.timestamp)) / 2;
    auto& cell = reference[{tb, decoded->ip->dst_addr}];
    cell.count += 1;
    cell.sum += packet.orig_len;
    cell.min = std::min<uint64_t>(cell.min, packet.orig_len);
    cell.max = std::max<uint64_t>(cell.max, packet.orig_len);
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
  }
  engine.PumpUntilIdle();
  engine.FlushAll();

  std::map<std::pair<uint64_t, uint32_t>, Cell> measured;
  while (auto row = (*sub)->NextRow()) {
    auto& cell = measured[{(*row)[0].uint_value(), (*row)[1].ip_value()}];
    cell.count += (*row)[2].uint_value();
    cell.sum += (*row)[3].uint_value();
    cell.min = std::min(cell.min, (*row)[4].uint_value());
    cell.max = std::max(cell.max, (*row)[5].uint_value());
  }
  EXPECT_EQ(measured, reference);
}

INSTANTIATE_TEST_SUITE_P(TableSizes, SplitAggEquivalence,
                         ::testing::Values(0, 2, 4, 8, 12));

// ---------------------------------------------------------------------------
// Many queries over one interface: each subscriber sees exactly what its
// own query selects, regardless of the others (the stream manager's
// fan-out isolation).
// ---------------------------------------------------------------------------

class FanoutProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FanoutProperty, TenQueriesAgreeWithTheirOwnPredicates) {
  core::Engine engine;
  engine.AddInterface("eth0");
  struct Query {
    uint16_t port_floor;
    std::unique_ptr<core::TupleSubscription> sub;
    uint64_t expected = 0;
  };
  std::vector<Query> queries;
  for (int i = 0; i < 10; ++i) {
    uint16_t floor = static_cast<uint16_t>(6000 * i);
    char text[256];
    std::snprintf(text, sizeof(text),
                  "DEFINE { query_name q%d; } "
                  "SELECT time, destPort FROM eth0.PKT "
                  "WHERE destPort >= %u",
                  i, static_cast<unsigned>(floor));
    auto info = engine.AddQuery(text);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    auto sub = engine.Subscribe(info->name, 1 << 18);
    ASSERT_TRUE(sub.ok());
    queries.push_back({floor, std::move(sub).value(), 0});
  }

  workload::TrafficConfig config;
  config.seed = GetParam();
  config.num_flows = 300;
  config.offered_bits_per_sec = 20e6;
  workload::TrafficGenerator gen(config);
  for (int i = 0; i < 3000; ++i) {
    net::Packet packet = gen.Next();
    auto decoded = net::DecodePacket(packet.view());
    ASSERT_TRUE(decoded.ok());
    uint16_t port = decoded->is_tcp()   ? decoded->tcp->dst_port
                    : decoded->is_udp() ? decoded->udp->dst_port
                                        : 0;
    for (Query& query : queries) {
      if (port >= query.port_floor) ++query.expected;
    }
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
    if (i % 512 == 511) engine.PumpUntilIdle();
  }
  engine.PumpUntilIdle();
  for (Query& query : queries) {
    uint64_t received = 0;
    while (query.sub->NextRow()) ++received;
    EXPECT_EQ(received, query.expected)
        << "query with floor " << query.port_floor;
    EXPECT_EQ(query.sub->dropped(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FanoutProperty, ::testing::Values(41, 43));

// ---------------------------------------------------------------------------
// NIC pushdown: the generated BPF program accepts a superset of what the
// LFTA predicate accepts, on arbitrary generated traffic.
// ---------------------------------------------------------------------------

class NicSupersetProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NicSupersetProperty, BpfNeverDropsAMatchingPacket) {
  core::Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name f; } "
      "SELECT time FROM eth0.PKT "
      "WHERE ipVersion = 4 AND protocol = 6 AND destPort = 80 AND len > 80");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_TRUE(info->has_nic_program);
  auto sub = engine.Subscribe("f", 1 << 20);
  ASSERT_TRUE(sub.ok());

  workload::TrafficConfig config;
  config.seed = GetParam();
  config.num_flows = 200;
  config.port80_fraction = 0.3;
  config.offered_bits_per_sec = 20e6;
  workload::TrafficGenerator gen(config);
  for (int i = 0; i < 2000; ++i) {
    net::Packet packet = gen.Next();
    bool lfta_would_match = false;
    auto decoded = net::DecodePacket(packet.view());
    if (decoded.ok() && decoded->is_tcp() &&
        decoded->tcp->dst_port == 80 && packet.orig_len > 80) {
      lfta_would_match = true;
    }
    bool bpf_accepts = bpf::Matches(info->nic_program, packet.view());
    if (lfta_would_match) {
      EXPECT_TRUE(bpf_accepts) << "BPF dropped a matching packet " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NicSupersetProperty,
                         ::testing::Values(3, 7, 31, 127));

// ---------------------------------------------------------------------------
// Ordering lattice laws.
// ---------------------------------------------------------------------------

std::vector<OrderSpec> AllSpecs() {
  return {
      OrderSpec::None(),
      OrderSpec::Strict(),
      OrderSpec::Increasing(),
      OrderSpec::Banded(1),
      OrderSpec::Banded(30),
      OrderSpec{OrderKind::kNonRepeating, 0, {}},
      OrderSpec{OrderKind::kDecreasing, 0, {}},
      OrderSpec{OrderKind::kStrictlyDecreasing, 0, {}},
  };
}

TEST(OrderingLattice, ImpliesIsReflexive) {
  for (const OrderSpec& spec : AllSpecs()) {
    EXPECT_TRUE(plan::OrderImplies(spec, spec)) << spec.ToString();
  }
}

TEST(OrderingLattice, ImpliesIsTransitive) {
  auto specs = AllSpecs();
  for (const auto& a : specs) {
    for (const auto& b : specs) {
      for (const auto& c : specs) {
        if (plan::OrderImplies(a, b) && plan::OrderImplies(b, c)) {
          EXPECT_TRUE(plan::OrderImplies(a, c))
              << a.ToString() << " => " << b.ToString() << " => "
              << c.ToString();
        }
      }
    }
  }
}

TEST(OrderingLattice, WeakestCommonIsImpliedByBoth) {
  auto specs = AllSpecs();
  for (const auto& a : specs) {
    for (const auto& b : specs) {
      OrderSpec common = plan::WeakestCommonOrder(a, b);
      if (common.kind == OrderKind::kNone) continue;
      // Strictness may be lost, so check via the weakened forms: every
      // stream ordered by `a` is also ordered by `common`.
      EXPECT_TRUE(plan::OrderImplies(a, common))
          << a.ToString() << " vs " << b.ToString() << " -> "
          << common.ToString();
      EXPECT_TRUE(plan::OrderImplies(b, common));
    }
  }
}

TEST(OrderingLattice, WeakestCommonIsCommutative) {
  auto specs = AllSpecs();
  for (const auto& a : specs) {
    for (const auto& b : specs) {
      EXPECT_EQ(plan::WeakestCommonOrder(a, b),
                plan::WeakestCommonOrder(b, a));
    }
  }
}

}  // namespace
}  // namespace gigascope
