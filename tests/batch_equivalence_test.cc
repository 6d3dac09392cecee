// Batch-vs-per-tuple equivalence: the batched data plane is a pure
// transport optimization, so the byte-exact sequence of emitted tuples AND
// the positions of punctuations in every output stream must be identical
// for any batch size, single-threaded, threaded, or with HFTAs in worker
// processes (batch arenas then cross shm rings). The baseline is batch
// size 1 (per-tuple flow, the pre-batching data plane).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/engine.h"
#include "net/headers.h"
#include "telemetry/metric_names.h"
#include "workload/traffic_gen.h"

namespace gigascope::core {
namespace {

using expr::Value;
using rts::RingChannel;

/// One output message rendered for diffing: kind marker + raw payload
/// bytes. Tuple payloads are deterministic encodings, so byte equality is
/// row equality; punctuations keep their position in the sequence.
std::string RenderMessage(const rts::BatchItem& item, ByteSpan payload) {
  std::string text(item.kind == rts::MessageKind::kTuple ? "T:" : "P:");
  text.append(reinterpret_cast<const char*>(payload.data()), payload.size());
  return text;
}

/// Where the HFTAs run.
enum class Mode { kSingle, kThreads, kProcesses };

/// One run's output trace, and the engine counters that explain a lost or
/// extra message: supervision, resynchronization and every stream's ring
/// drops.
struct WorkloadRun {
  std::vector<std::string> trace;
  std::string counters;
};

std::string EngineCounters(Engine& engine) {
  std::string out;
  for (const telemetry::MetricSample& sample : engine.telemetry().Snapshot()) {
    if (sample.entity == "engine" &&
        (sample.metric == telemetry::metric::kHeartbeatMisses ||
         sample.metric == telemetry::metric::kWorkerRestarts ||
         sample.metric == telemetry::metric::kResyncGaps)) {
      out += sample.metric + "=" + std::to_string(sample.value) + " ";
    }
  }
  const rts::StreamRegistry& registry = engine.registry();
  out += std::string(telemetry::metric::kResyncDropped) + "=" +
         std::to_string(registry.Total(&RingChannel::resync_dropped));
  for (const std::string& stream : registry.StreamNames()) {
    out += " drops[" + stream + "]=" +
           std::to_string(registry.Total(&RingChannel::dropped, stream));
  }
  return out;
}

/// The index of the first message where `trace` and `baseline` differ (the
/// shorter length when one is a prefix of the other).
size_t FirstDifference(const std::vector<std::string>& trace,
                       const std::vector<std::string>& baseline) {
  const size_t common = std::min(trace.size(), baseline.size());
  return static_cast<size_t>(
      std::mismatch(trace.begin(), trace.begin() + common, baseline.begin())
          .first -
      trace.begin());
}

/// Replays a fixed randomized workload through the engine at the given
/// batch size and mode (two workers when not single) and returns the full
/// message trace of the query outputs: a stateless filter, a split
/// aggregation, the paper's HTTP regex query, whose LFTA ships payload
/// strings to the HFTA, and two aggregations whose WHERE the aggregate
/// runs itself: a split one (in the LFTA) and one whose payload test keeps
/// it, and so its WHERE, in the HFTA's worker.
WorkloadRun RunWorkload(size_t batch_size, Mode mode) {
  workload::TrafficConfig config;
  config.seed = 11;
  config.num_flows = 40;
  config.port80_fraction = 0.3;
  config.http_fraction = 0.5;
  workload::TrafficGenerator gen(config);

  EngineOptions options;
  options.batch_max_size = batch_size;
  Engine engine(options);
  engine.AddInterface("eth0");
  EXPECT_TRUE(engine
                  .AddQuery("DEFINE { query_name filter; } "
                            "SELECT time, len FROM eth0.PKT "
                            "WHERE protocol = 6")
                  .ok());
  EXPECT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, destIP, count(*), sum(len) "
                            "FROM eth0.PKT "
                            "GROUP BY time AS tb, destIP")
                  .ok());
  EXPECT_TRUE(engine
                  .AddQuery("DEFINE { query_name http80; } "
                            "SELECT time, len FROM eth0.PKT "
                            "WHERE protocol = 6 AND destPort = 80 "
                            "AND match_regex(payload, '^[^\\n]*HTTP/1.*')")
                  .ok());
  EXPECT_TRUE(engine
                  .AddQuery("DEFINE { query_name fagg; } "
                            "SELECT tb, destIP, count(*), sum(len) "
                            "FROM eth0.PKT WHERE protocol = 6 AND len > 100 "
                            "GROUP BY time AS tb, destIP")
                  .ok());
  EXPECT_TRUE(engine
                  .AddQuery("DEFINE { query_name hagg; } "
                            "SELECT tb, count(*), sum(len) FROM eth0.PKT "
                            "WHERE protocol = 6 AND str_find(payload, 'HTTP') "
                            "GROUP BY time AS tb")
                  .ok());
  const char* kOutputs[] = {"filter", "agg", "http80", "fagg", "hagg"};
  std::vector<rts::Subscription> outputs;
  for (const char* name : kOutputs) {
    auto out = engine.registry().Subscribe(name, 1 << 15);
    EXPECT_TRUE(out.ok());
    outputs.push_back(*out);
  }
  if (mode != Mode::kSingle) {
    Status started = mode == Mode::kThreads ? engine.StartThreads(2)
                                            : engine.StartProcesses(2);
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  for (int i = 0; i < 4000; ++i) {
    net::Packet packet = gen.Next();
    EXPECT_TRUE(engine.InjectPacket("eth0", packet).ok());
    // Periodic heartbeats mix explicit punctuations into the stream on top
    // of the source's own every-256-packets ones.
    if ((i + 1) % 500 == 0) {
      EXPECT_TRUE(engine.InjectHeartbeat("eth0", packet.timestamp).ok());
    }
    if ((i + 1) % 256 == 0) engine.PumpUntilIdle();
  }
  engine.FlushAll();

  WorkloadRun run;
  rts::StreamBatch batch;
  for (size_t q = 0; q < outputs.size(); ++q) {
    while (outputs[q]->TryPop(&batch)) {
      for (const rts::BatchItem& item : batch.items()) {
        run.trace.push_back(std::string(kOutputs[q]) + "/" +
                            RenderMessage(item, batch.payload(item)));
      }
    }
  }
  // No run may have lost anything to backpressure: equivalence is only
  // meaningful when every configuration saw the whole workload.
  const rts::StreamRegistry& registry = engine.registry();
  EXPECT_EQ(registry.Total(&RingChannel::dropped, "eth0.PKT"), 0u);
  for (const char* name : kOutputs) {
    EXPECT_EQ(registry.Total(&RingChannel::dropped, name), 0u) << name;
  }
  EXPECT_EQ(registry.Total(&RingChannel::oversize_dropped), 0u);
  run.counters = EngineCounters(engine);
  return run;
}

TEST(BatchEquivalenceTest, RowsAndPunctuationsMatchAcrossBatchSizes) {
  // Baseline: per-tuple flow, single-threaded.
  const std::vector<std::string> baseline =
      RunWorkload(1, Mode::kSingle).trace;
  ASSERT_FALSE(baseline.empty());
  // The regex query really matched some payloads (and rejected others).
  const auto http_rows = std::count_if(
      baseline.begin(), baseline.end(),
      [](const std::string& m) { return m.rfind("http80/T:", 0) == 0; });
  EXPECT_GT(http_rows, 0);
  // So did both folded WHEREs.
  for (const char* prefix : {"fagg/T:", "hagg/T:"}) {
    EXPECT_TRUE(std::any_of(
        baseline.begin(), baseline.end(),
        [prefix](const std::string& m) { return m.rfind(prefix, 0) == 0; }))
        << prefix;
  }

  const size_t kBatchSizes[] = {1, 7, 64, 4096};
  for (size_t batch_size : kBatchSizes) {
    for (Mode mode : {Mode::kSingle, Mode::kThreads, Mode::kProcesses}) {
      if (batch_size == 1 && mode == Mode::kSingle) continue;  // baseline
      const WorkloadRun run = RunWorkload(batch_size, mode);
      EXPECT_EQ(run.trace, baseline)
          << "batch_size=" << batch_size << " mode=" << static_cast<int>(mode)
          << ": " << run.trace.size() << " messages against "
          << baseline.size() << ", first difference at index "
          << FirstDifference(run.trace, baseline) << "; " << run.counters;
    }
  }
}

net::Packet MakeTcpPacket(SimTime timestamp) {
  net::TcpPacketSpec spec;
  spec.src_addr = 0xac100001;
  spec.dst_addr = 0x0a000001;
  spec.src_port = 40000;
  spec.dst_port = 80;
  spec.flags = net::kTcpFlagAck;
  spec.payload = "x";
  net::Packet packet;
  packet.bytes = net::BuildTcpPacket(spec);
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  packet.timestamp = timestamp;
  return packet;
}

TEST(BatchEquivalenceTest, PunctuationStillClosesWindowWhenRingFills) {
  // Overload must cost tuples, never ordering guarantees: a heartbeat that
  // lands on a full ring parks and is delivered once the ring drains, so
  // the aggregation window still closes without waiting for the seal.
  // The payload test keeps the aggregation in the HFTA, so every packet
  // crosses the agg_lfta ring after the LFTA, which runs inside
  // InjectPacket.
  EngineOptions options;
  options.channel_capacity = 4;
  options.batch_max_size = 1;  // slot == tuple: four packets fill the ring
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, count(*), max(str_find(payload, 'x')) "
                            "FROM eth0.PKT GROUP BY time AS tb")
                  .ok());
  auto sub = engine.Subscribe("agg", 64);
  ASSERT_TRUE(sub.ok());

  // Flood bucket 0 without pumping: the agg_lfta ring fills and drops.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0", MakeTcpPacket(
                                              (i + 1) * kNanosPerSecond / 64))
                    .ok());
  }
  EXPECT_GT(engine.registry().Total(&RingChannel::dropped, "agg_lfta"), 0u);
  // The window-closing heartbeat hits the still-full ring: its tuples'
  // fate (drop) must not befall the punctuation.
  ASSERT_TRUE(engine.InjectHeartbeat("eth0", 2 * kNanosPerSecond).ok());

  // Ordinary pumping — no FlushAll — must deliver the parked punctuation
  // and close bucket 0.
  engine.PumpUntilIdle();
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 0u);       // time bucket 0 closed
  EXPECT_GT((*row)[1].uint_value(), 0u);       // with the surviving tuples
  EXPECT_FALSE((*sub)->NextRow().has_value());  // exactly one group
}

}  // namespace
}  // namespace gigascope::core
