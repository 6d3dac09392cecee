// Tests for the self-telemetry subsystem: single-writer counters, the
// metric registry, counter accuracy against a known workload, the built-in
// gs_stats stream (snapshot ordering + GSQL aggregation over it), and the
// thread-safety of stats readings while workers pump.

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "net/headers.h"
#include "plan/ordering.h"
#include "rts/punctuation.h"
#include "telemetry/counter.h"
#include "telemetry/registry.h"

namespace gigascope::telemetry {
namespace {

using core::Engine;
using core::EngineOptions;
using expr::Value;
using gsql::DataType;

net::Packet MakeTcpPacket(SimTime timestamp, uint32_t dst_addr,
                          uint16_t dst_port, const std::string& payload) {
  net::TcpPacketSpec spec;
  spec.src_addr = 0xac100001;
  spec.dst_addr = dst_addr;
  spec.src_port = 40000;
  spec.dst_port = dst_port;
  spec.flags = net::kTcpFlagAck;
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

std::optional<uint64_t> FindSample(const std::vector<MetricSample>& samples,
                                   const std::string& entity,
                                   const std::string& metric) {
  for (const MetricSample& sample : samples) {
    if (sample.entity == entity && sample.metric == metric) {
      return sample.value;
    }
  }
  return std::nullopt;
}

TEST(CounterTest, Basics) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  ++counter;
  counter += 4;
  EXPECT_EQ(counter.value(), 5u);
  counter.Add(5);
  EXPECT_EQ(counter.value(), 10u);
  --counter;
  counter.Sub(2);
  EXPECT_EQ(counter.value(), 7u);
  counter.Set(100);
  EXPECT_EQ(counter.value(), 100u);
  counter.Max(50);  // no-op: below current
  EXPECT_EQ(counter.value(), 100u);
  counter.Max(200);
  EXPECT_EQ(counter.value(), 200u);
}

TEST(RegistryTest, SnapshotReadsLiveCounters) {
  Registry registry;
  Counter a;
  Counter b;
  a.Set(3);
  b.Set(7);
  registry.Register("nodeA", "tuples_in", &a);
  registry.Register("nodeA", "tuples_out", &b);
  registry.RegisterReader("engine", "answer", [] { return uint64_t{42}; });
  EXPECT_EQ(registry.num_metrics(), 3u);

  auto samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(FindSample(samples, "nodeA", "tuples_in"), 3u);
  EXPECT_EQ(FindSample(samples, "nodeA", "tuples_out"), 7u);
  EXPECT_EQ(FindSample(samples, "engine", "answer"), 42u);

  // Counters are live: a later snapshot sees later values.
  a.Add(1);
  EXPECT_EQ(FindSample(registry.Snapshot(), "nodeA", "tuples_in"), 4u);
}

// The --stats-dump wire format (DESIGN.md §11): one metric per line, each
// line a self-contained JSON object with the fixed key order entity,
// metric, proc, value; lines sorted by (entity, metric, proc). Consumers
// get to `grep | jq` without a streaming JSON parser.
TEST(RegistryTest, NdjsonFormat) {
  Registry registry;
  Counter a;
  Counter b;
  a.Set(3);
  b.Set(7);
  registry.Register("nodeB", "tuples_in", &a);
  registry.Register("nodeA", "tuples_out", &b);
  registry.RegisterReader("engine", "shed_level", [] { return uint64_t{1}; });

  const std::string ndjson = FormatMetricsNdjson(registry.Snapshot());
  EXPECT_EQ(ndjson,
            "{\"entity\":\"engine\",\"metric\":\"shed_level\","
            "\"proc\":\"rts\",\"value\":1}\n"
            "{\"entity\":\"nodeA\",\"metric\":\"tuples_out\","
            "\"proc\":\"rts\",\"value\":7}\n"
            "{\"entity\":\"nodeB\",\"metric\":\"tuples_in\","
            "\"proc\":\"rts\",\"value\":3}\n");

  // Every line is balanced, standalone JSON (the NDJSON contract).
  std::istringstream lines(ndjson);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < line.size(); ++i) {
      char c = line[i];
      if (c == '"' && (i == 0 || line[i - 1] != '\\')) in_string = !in_string;
      if (in_string) continue;
      if (c == '{') ++depth;
      if (c == '}') --depth;
    }
    EXPECT_EQ(depth, 0) << line;
  }
}

// gs_stats rows carry the owning process as their final field; in the
// single-process engine everything belongs to the parent ("rts"), and the
// schema places `proc` last so positional consumers of the original five
// fields keep working.
TEST(TelemetryEngineTest, StatsStreamCarriesProcColumn) {
  gsql::StreamSchema schema = gsql::Catalog::BuiltinStatsSchema();
  ASSERT_EQ(schema.num_fields(), 6u);
  EXPECT_EQ(schema.field(5).name, "proc");
  EXPECT_EQ(schema.field(5).type, DataType::kString);

  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name base; } "
                            "SELECT time, len FROM eth0.PKT "
                            "WHERE protocol = 6")
                  .ok());
  auto channel = engine.registry().Subscribe("gs_stats", 1 << 14);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(
      engine.InjectPacket("eth0", MakeTcpPacket(kNanosPerSecond, 0x0a000001,
                                                80, "x"))
          .ok());
  engine.PumpUntilIdle();
  ASSERT_TRUE(engine.EmitStatsSnapshot(2 * kNanosPerSecond).ok());

  rts::TupleCodec codec(schema);
  size_t rows = 0;
  rts::StreamBatch message_batch;
  while ((*channel)->TryPop(&message_batch)) {
    for (const rts::BatchItem& message : message_batch.items()) {
      if (message.kind != rts::MessageKind::kTuple) continue;
      ByteSpan bytes = message_batch.payload(message);
      auto row = codec.Decode(bytes);
      ASSERT_TRUE(row.ok());
      ASSERT_EQ(row->size(), 6u);
      EXPECT_EQ((*row)[5].string_value(), "rts");
      ++rows;
    }
  }
  EXPECT_GT(rows, 0u);
}

// A known workload must produce exact counts: 5 TCP + 3 UDP packets through
// a TCP filter gives packets=8, tuples_in=8, tuples_out=5, and the
// subscriber ring — the same counters micro_ring reads — shows 5 pushes.
// The filter is fed by the packet source inside InjectPacket, so none of
// its polls reads input: busy_polls is exactly 0.
TEST(TelemetryEngineTest, CounterAccuracyKnownWorkload) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name tcponly; } "
                            "SELECT time, destIP FROM eth0.PKT "
                            "WHERE protocol = 6")
                  .ok());
  auto sub = engine.Subscribe("tcponly");
  ASSERT_TRUE(sub.ok());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket((i + 1) * kNanosPerSecond,
                                                0x0a000001, 80, "x"))
                    .ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        engine.InjectPacket("eth0", MakeUdpPacket((i + 6) * kNanosPerSecond, 53))
            .ok());
  }
  engine.PumpUntilIdle();

  auto samples = engine.telemetry().Snapshot();
  EXPECT_EQ(FindSample(samples, "eth0.PKT", "packets"), 8u);
  EXPECT_EQ(FindSample(samples, "tcponly", "tuples_in"), 8u);
  EXPECT_EQ(FindSample(samples, "tcponly", "tuples_out"), 5u);
  EXPECT_EQ(FindSample(samples, "tcponly", "eval_errors"), 0u);
  EXPECT_EQ(FindSample(samples, "tcponly", "busy_polls"), 0u);
  // Ring counters are unified: the subscriber channel's telemetry entries
  // and the TupleSubscription's own accessors read the same counters.
  EXPECT_EQ(FindSample(samples, "tcponly#sub0", "ring_pushed"), 5u);
  EXPECT_EQ(FindSample(samples, "tcponly#sub0", "ring_dropped"), 0u);
  uint64_t ring_queued = *FindSample(samples, "tcponly#sub0", "ring_pushed") -
                         *FindSample(samples, "tcponly#sub0", "ring_popped");
  EXPECT_EQ(ring_queued, (*sub)->pending());
  EXPECT_EQ((*sub)->dropped(), 0u);

  // GetNodeStats and the telemetry registry read the same counters too.
  for (const auto& stats : engine.GetNodeStats()) {
    EXPECT_EQ(FindSample(samples, stats.name, "tuples_in"), stats.tuples_in);
    EXPECT_EQ(FindSample(samples, stats.name, "tuples_out"),
              stats.tuples_out);
  }
}

// A fed LFTA reads its messages inside InjectPacket, so its polls time
// nothing: one fed message in every 64 is timed alone into tuple_ns, and
// poll_ns stays empty. 640 packets and no punctuations are 640 fed
// messages, 10 of them timed.
TEST(TelemetryEngineTest, FedLftaTimesOneMessageInSixtyFour) {
  EngineOptions options;
  options.punctuation_interval = 0;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name fed; } "
                            "SELECT time, destIP FROM eth0.PKT "
                            "WHERE protocol = 6")
                  .ok());
  auto sub = engine.Subscribe("fed");
  ASSERT_TRUE(sub.ok());
  for (int i = 0; i < 640; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket((i + 1) * kNanosPerSecond,
                                                0x0a000001, 80, "x"))
                    .ok());
    if (i % 100 == 0) engine.PumpUntilIdle();
  }
  engine.PumpUntilIdle();
  const auto samples = engine.telemetry().Snapshot();
  EXPECT_EQ(FindSample(samples, "fed", "tuples_in"), 640u);
  EXPECT_EQ(FindSample(samples, "fed", "tuple_ns_count"), 10u);
  EXPECT_EQ(FindSample(samples, "fed", "poll_ns_count"), 0u);
  EXPECT_EQ(FindSample(samples, "fed", "busy_polls"), 0u);
}

// gs_stats snapshots must be usable by the ordering machinery: the schema
// declares `time`/`ts` increasing, emitted tuples are non-decreasing in
// both, every snapshot ends with a punctuation carrying the bound, and
// plan::ImputeExprOrder sees an increasing-like order for the field — the
// property that lets the planner run ordered aggregation over gs_stats.
TEST(TelemetryEngineTest, SnapshotOrderingAndPunctuation) {
  Engine engine;
  engine.AddInterface("eth0");

  gsql::StreamSchema schema = gsql::Catalog::BuiltinStatsSchema();
  EXPECT_EQ(schema.name(), gsql::Catalog::StatsStreamName());
  EXPECT_TRUE(schema.field(0).order.IsIncreasingLike());
  EXPECT_TRUE(schema.field(1).order.IsIncreasingLike());
  expr::IrPtr time_ref =
      expr::MakeFieldRef(0, 0, schema.field(0).type, schema.field(0).name);
  EXPECT_TRUE(plan::ImputeExprOrder(time_ref, schema).IsIncreasingLike());

  auto channel = engine.registry().Subscribe("gs_stats", 1 << 12);
  ASSERT_TRUE(channel.ok());

  ASSERT_TRUE(engine.EmitStatsSnapshot(1 * kNanosPerSecond).ok());
  ASSERT_TRUE(engine.EmitStatsSnapshot(3 * kNanosPerSecond).ok());
  // A stale timestamp must not move the stream backwards.
  ASSERT_TRUE(engine.EmitStatsSnapshot(2 * kNanosPerSecond).ok());

  rts::TupleCodec codec(schema);
  uint64_t last_ts = 0;
  size_t tuples = 0;
  size_t punctuations = 0;
  rts::StreamBatch message_batch;
  while ((*channel)->TryPop(&message_batch)) {
    for (const rts::BatchItem& message : message_batch.items()) {
      ByteSpan bytes = message_batch.payload(message);
      if (message.kind == rts::MessageKind::kTuple) {
        auto row = codec.Decode(bytes);
        ASSERT_TRUE(row.ok());
        uint64_t ts = (*row)[1].uint_value();
        EXPECT_GE(ts, last_ts);
        last_ts = ts;
        ++tuples;
      } else {
        const uint8_t* bound = rts::FindBound(bytes, schema, 1);
        ASSERT_NE(bound, nullptr);
        EXPECT_GE(LoadLe64(bound), last_ts);
        ++punctuations;
      }
    }
  }
  EXPECT_GT(tuples, 0u);
  EXPECT_EQ(punctuations, 3u);
  // The clamped third snapshot reports the maximum timestamp seen so far.
  EXPECT_EQ(last_ts, 3 * kNanosPerSecond);
}

// End-to-end: a GSQL aggregation over gs_stats compiles through the normal
// planner and produces ordered per-second health rows.
TEST(TelemetryEngineTest, GsqlAggregationOverStatsStream) {
  EngineOptions options;
  options.stats_period = kNanosPerSecond;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name base; } "
                            "SELECT time, len FROM eth0.PKT "
                            "WHERE protocol = 6")
                  .ok());
  auto info = engine.AddQuery(
      "DEFINE { query_name health; } "
      "SELECT tb, node, max(value) FROM gs_stats "
      "WHERE metric = 'tuples_out' "
      "GROUP BY time AS tb, node");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto sub = engine.Subscribe("health");
  ASSERT_TRUE(sub.ok());

  // Traffic in seconds 1-3; heartbeats drive the periodic snapshots and a
  // final one at second 6 closes the last gs_stats groups.
  for (int second = 1; second <= 3; ++second) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket(second * kNanosPerSecond,
                                                0x0a000001, 80, "x"))
                    .ok());
    ASSERT_TRUE(
        engine.InjectHeartbeat("eth0", second * kNanosPerSecond).ok());
  }
  ASSERT_TRUE(engine.InjectHeartbeat("eth0", 6 * kNanosPerSecond).ok());
  engine.PumpUntilIdle();
  engine.FlushAll();

  uint64_t last_tb = 0;
  size_t rows = 0;
  bool saw_base_node = false;
  while (auto row = (*sub)->NextRow()) {
    uint64_t tb = (*row)[0].uint_value();
    EXPECT_GE(tb, last_tb);  // ordered aggregation closes groups in order
    last_tb = tb;
    if ((*row)[1].string_value() == "base") {
      saw_base_node = true;
      EXPECT_LE((*row)[2].uint_value(), 3u);
    }
    ++rows;
  }
  EXPECT_GT(rows, 0u);
  EXPECT_TRUE(saw_base_node);
}

// The run's tail used to go missing from gs_stats: work done after the
// last periodic snapshot was never reported. FlushAll now emits one
// terminal snapshot, stamped at the last input time, as it seals.
TEST(TelemetryEngineTest, FlushAllEmitsTerminalSnapshot) {
  EngineOptions options;
  options.stats_period = kNanosPerSecond;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name base; } "
                            "SELECT time, len FROM eth0.PKT "
                            "WHERE protocol = 6")
                  .ok());
  auto channel = engine.registry().Subscribe("gs_stats", 1 << 14);
  ASSERT_TRUE(channel.ok());

  // Ten packets; the last lands mid-period at 2.5s, after the final
  // periodic snapshot fires.
  const SimTime last_time = 5 * kNanosPerSecond / 2;
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket(i * kNanosPerSecond / 4,
                                                0x0a000001, 80, "x"))
                    .ok());
  }
  engine.PumpUntilIdle();
  engine.FlushAll();

  gsql::StreamSchema schema = gsql::Catalog::BuiltinStatsSchema();
  rts::TupleCodec codec(schema);
  uint64_t last_snapshot_ts = 0;
  uint64_t terminal_base_tuples = 0;
  size_t punctuations = 0;
  rts::StreamBatch message_batch;
  while ((*channel)->TryPop(&message_batch)) {
    for (const rts::BatchItem& message : message_batch.items()) {
      ByteSpan bytes = message_batch.payload(message);
      if (message.kind == rts::MessageKind::kTuple) {
        auto row = codec.Decode(bytes);
        ASSERT_TRUE(row.ok());
        last_snapshot_ts = (*row)[1].uint_value();
        if ((*row)[2].string_value() == "base" &&
            (*row)[3].string_value() == "tuples_out") {
          terminal_base_tuples = (*row)[4].uint_value();
        }
      } else {
        ++punctuations;
      }
    }
  }
  // The terminal snapshot is stamped with the last input time, not the
  // last period boundary...
  EXPECT_EQ(last_snapshot_ts, static_cast<uint64_t>(last_time));
  // ...and reports the complete run: all ten tuples, including the ones
  // processed after the 2s periodic snapshot.
  EXPECT_EQ(terminal_base_tuples, 10u);
  // Two periodic snapshots (at 1s and 2s) plus the terminal one.
  EXPECT_EQ(punctuations, 3u);
}

// TSan regression: GetNodeStats and telemetry().Snapshot() must be safe
// from a control thread while the inject thread pumps packets (with the
// periodic gs_stats emitter enabled) and workers drain the HFTA stage.
TEST(TelemetryEngineTest, StatsReadsWhileWorkersPump) {
  EngineOptions options;
  options.stats_period = kNanosPerSecond / 10;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, destIP, count(*) FROM eth0.PKT "
                            "GROUP BY time AS tb, destIP")
                  .ok());
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name statcount; } "
                            "SELECT tb, count(*) FROM gs_stats "
                            "GROUP BY time AS tb")
                  .ok());
  auto sub = engine.Subscribe("agg", 1 << 16);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine.StartThreads(2).ok());

  std::atomic<bool> done{false};
  std::thread injector([&] {
    for (int i = 0; i < 20000; ++i) {
      SimTime timestamp =
          kNanosPerSecond + (static_cast<SimTime>(i) * kNanosPerSecond) / 500;
      engine
          .InjectPacket("eth0", MakeTcpPacket(timestamp,
                                              0x0a000000 + (i % 16), 80, "x"))
          .ok();
    }
    done.store(true, std::memory_order_release);
  });

  uint64_t snapshots_seen = 0;
  while (!done.load(std::memory_order_acquire)) {
    auto stats = engine.GetNodeStats();
    EXPECT_FALSE(stats.empty());
    auto samples = engine.telemetry().Snapshot();
    auto count = FindSample(samples, "engine", "stats_snapshots");
    ASSERT_TRUE(count.has_value());
    EXPECT_GE(*count, snapshots_seen);  // monotone across reads
    snapshots_seen = *count;
  }
  injector.join();
  engine.FlushAll();

  auto samples = engine.telemetry().Snapshot();
  EXPECT_EQ(FindSample(samples, "eth0.PKT", "packets"), 20000u);
  // The LFTA half of the split sees every packet; the HFTA half only the
  // pre-aggregated partials.
  EXPECT_EQ(FindSample(samples, "agg_lfta", "tuples_in"), 20000u);
  EXPECT_GT(*FindSample(samples, "engine", "stats_snapshots"), 0u);
}

}  // namespace
}  // namespace gigascope::telemetry
