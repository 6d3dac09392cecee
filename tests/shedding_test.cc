// Closed-loop overload management (§3 graceful degradation): the controller
// walks the shedding ladder under pressure and back down with hysteresis;
// the engine keeps closing windows while shedding and its scaled aggregates
// stay near the offered load. The threaded case exercises the actuation
// atomics under TSan (scripts in build-tsan with -DGS_SANITIZE=thread).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "core/engine.h"
#include "core/shedding.h"
#include "net/headers.h"
#include "rts/shed_state.h"
#include "telemetry/metric_names.h"

namespace gigascope::core {
namespace {

net::Packet MakePacket(SimTime timestamp, uint16_t dst_port) {
  net::TcpPacketSpec spec;
  spec.src_addr = 0xac100001;
  spec.dst_addr = 0x0a000001;
  spec.src_port = 40000;
  spec.dst_port = dst_port;
  spec.payload = "x";
  net::Packet packet;
  packet.bytes = net::BuildTcpPacket(spec);
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  packet.timestamp = timestamp;
  return packet;
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

// -- Controller unit behavior -----------------------------------------------

TEST(OverloadControllerTest, LadderEscalatesOneRungPerPressuredCheck) {
  ShedConfig config;
  config.enabled = true;
  config.hold_checks = 2;
  rts::ShedState state;
  OverloadController controller(config, &state);

  EXPECT_EQ(state.Level(), 0u);
  EXPECT_EQ(state.SampleK(), 1u);
  EXPECT_EQ(state.EpochCoarsen(), 1u);
  EXPECT_EQ(state.TableCapPct(), 100u);

  PressureSignals hot;
  hot.max_ring_occupancy = 0.9;  // over the 0.5 default

  EXPECT_EQ(controller.Check(hot), 1u);
  EXPECT_EQ(state.SampleK(), kSampleK);
  EXPECT_EQ(state.EpochCoarsen(), 1u);  // L2 knob not yet engaged
  EXPECT_EQ(controller.shed_rate_pct(), 75u);  // 1-in-4 kept

  EXPECT_EQ(controller.Check(hot), 2u);
  EXPECT_EQ(state.EpochCoarsen(), kEpochCoarsen);
  EXPECT_EQ(state.TableCapPct(), 100u);

  EXPECT_EQ(controller.Check(hot), 3u);
  EXPECT_EQ(state.TableCapPct(), kTableCapPct);

  // max_level caps the ladder.
  EXPECT_EQ(controller.Check(hot), 3u);
  EXPECT_EQ(controller.checks(), 4u);
}

TEST(OverloadControllerTest, EachSignalAloneTriggersEscalation) {
  ShedConfig config;
  config.enabled = true;
  rts::ShedState state;

  {
    OverloadController controller(config, &state);
    PressureSignals s;
    s.max_punct_lag = config.punct_lag + 1;
    EXPECT_EQ(controller.Check(s), 1u);
  }
  {
    OverloadController controller(config, &state);
    PressureSignals s;
    s.max_lfta_occupancy = 0.95;
    EXPECT_EQ(controller.Check(s), 1u);
  }
  {
    OverloadController controller(config, &state);
    PressureSignals s;
    s.total_drops = 10;  // 10 new drops since the (implicit) zero baseline
    EXPECT_EQ(controller.Check(s), 1u);
    // The drop signal is a delta: the same cumulative total is calm.
    PressureSignals same;
    same.total_drops = 10;
    EXPECT_EQ(controller.Check(same), 1u);  // calm, but hysteresis holds
  }
}

TEST(OverloadControllerTest, StepsDownOnlyAfterHoldChecksCalm) {
  ShedConfig config;
  config.enabled = true;
  config.hold_checks = 3;
  rts::ShedState state;
  OverloadController controller(config, &state);

  PressureSignals hot;
  hot.max_ring_occupancy = 1.0;
  controller.Check(hot);
  controller.Check(hot);
  ASSERT_EQ(state.Level(), 2u);

  PressureSignals calm;  // all signals zero: below every recover band
  EXPECT_EQ(controller.Check(calm), 2u);  // calm 1
  EXPECT_EQ(controller.Check(calm), 2u);  // calm 2
  EXPECT_EQ(controller.Check(calm), 1u);  // calm 3: step down one rung
  EXPECT_EQ(state.SampleK(), kSampleK);  // still L1

  // A pressured check resets the calm streak.
  EXPECT_EQ(controller.Check(calm), 1u);
  EXPECT_EQ(controller.Check(hot), 2u);
  EXPECT_EQ(controller.Check(calm), 2u);
  EXPECT_EQ(controller.Check(calm), 2u);
  EXPECT_EQ(controller.Check(calm), 1u);

  // Middle band (over kRecoverFraction, under threshold) holds the level
  // without descending.
  PressureSignals middling;
  middling.max_ring_occupancy = config.ring_occupancy * 0.8;
  EXPECT_EQ(controller.Check(calm), 1u);
  EXPECT_EQ(controller.Check(calm), 1u);
  EXPECT_EQ(controller.Check(middling), 1u);  // streak reset
  EXPECT_EQ(controller.Check(calm), 1u);
  EXPECT_EQ(controller.Check(calm), 1u);
  EXPECT_EQ(controller.Check(calm), 0u);  // full hold_checks again
  EXPECT_EQ(state.SampleK(), 1u);  // exact processing restored
  EXPECT_EQ(state.TableCapPct(), 100u);
}

// -- Engine closed loop ------------------------------------------------------

/// Burst -> overload -> calm: the engine escalates to max level during an
/// unserviced burst, keeps accounting for shed tuples, then steps all the
/// way back to exact processing once the load is serviced again. The
/// payload test keeps the aggregation in the HFTA, so the pressure comes
/// from the ring between it and the LFTA that runs inside InjectPacket.
TEST(ShedEngineTest, BurstEscalatesThenRecoversToExact) {
  EngineOptions options;
  options.channel_capacity = 16;
  options.batch_max_size = 4;
  options.punctuation_interval = 8;
  options.shed.enabled = true;
  options.shed.check_period = kNanosPerSecond / 10;
  options.shed.ring_occupancy = 0.25;
  options.shed.hold_checks = 2;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name shed0; } "
                            "SELECT tb, count(*), "
                            "max(str_find(payload, 'x')) FROM eth0.PKT "
                            "GROUP BY time AS tb")
                  .ok());
  auto sub = engine.Subscribe("shed0", 8192);
  ASSERT_TRUE(sub.ok());

  const SimTime kMs = kNanosPerSecond / 1000;

  // Phase 1 — burst: inject 1500 packets over 1.5s of stream time without
  // ever pumping. Rings fill, drops mount, and every pressure check
  // escalates one rung until the ladder tops out.
  SimTime now = 0;
  for (int i = 1; i <= 1500; ++i) {
    now = i * kMs;
    ASSERT_TRUE(engine.InjectPacket("eth0", MakePacket(now, 80)).ok());
  }
  EXPECT_EQ(Metric(engine, "engine", telemetry::metric::kShedLevel), 3u);
  EXPECT_EQ(Metric(engine, "engine", telemetry::metric::kShedRate), 75u);
  EXPECT_GT(Metric(engine, "engine", telemetry::metric::kShedTuples), 0u);
  EXPECT_GT(Metric(engine, "engine", telemetry::metric::kShedChecks), 2u);

  // Phase 2 — calm: the same stream, now fully serviced after every
  // packet. Pressure vanishes; hysteresis walks the ladder back down.
  for (int i = 1501; i <= 4999; ++i) {
    now = i * kMs;
    ASSERT_TRUE(engine.InjectPacket("eth0", MakePacket(now, 80)).ok());
    engine.PumpUntilIdle();
    while ((*sub)->NextRow()) {
    }
  }
  EXPECT_EQ(Metric(engine, "engine", telemetry::metric::kShedLevel), 0u);
  EXPECT_EQ(Metric(engine, "engine", telemetry::metric::kShedRate), 0u);

  // Phase 3 — exact results resume at level 0: a fresh bucket counts
  // every packet, unscaled. Stream time stays within the punctuation-lag
  // threshold of phase 2 so the quiet gap itself reads as calm, not as a
  // stalled source.
  for (int j = 1; j <= 40; ++j) {
    ASSERT_TRUE(
        engine
            .InjectPacket("eth0", MakePacket(6 * kNanosPerSecond + j * kMs,
                                             80))
            .ok());
  }
  engine.FlushAll();
  uint64_t bucket6 = 0;
  while (auto row = (*sub)->NextRow()) {
    if ((*row)[0].uint_value() == 6) bucket6 += (*row)[1].uint_value();
  }
  EXPECT_EQ(bucket6, 40u);
}

/// Horvitz-Thompson accounting: with pressure that never loses tuples
/// (occupancy, not drops), the scaled COUNT over the whole run stays within
/// a few percent of the offered packet count even though 3 in 4 packets
/// were shed at the source. The payload test keeps the aggregation in the
/// HFTA, whose input ring supplies the pressure.
TEST(ShedEngineTest, SampledCountsScaleToOfferedLoad) {
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
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name scaled; } "
                            "SELECT tb, count(*), "
                            "max(str_find(payload, 'x')) FROM eth0.PKT "
                            "GROUP BY time AS tb")
                  .ok());
  auto sub = engine.Subscribe("scaled", 65536);
  ASSERT_TRUE(sub.ok());

  const SimTime kMs = kNanosPerSecond / 1000;
  const int kOffered = 20000;
  // Pump on an offset so pressure checks (every 100 packets of stream
  // time) land mid-cycle and see a part-full ring, never a just-drained
  // one.
  for (int i = 1; i <= kOffered; ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", MakePacket(i * kMs, 80)).ok());
    if (i % 100 == 50) engine.PumpUntilIdle();
  }
  engine.FlushAll();

  // No ring ever dropped: every offered packet was either folded (with
  // its Horvitz-Thompson weight) or deliberately shed and covered by a
  // surviving packet's weight.
  EXPECT_EQ(engine.registry().Total(&rts::RingChannel::dropped), 0u);
  EXPECT_EQ(Metric(engine, "engine", telemetry::metric::kShedLevel), 1u);
  const uint64_t shed = Metric(engine, "engine",
                               telemetry::metric::kShedTuples);
  EXPECT_GT(shed, static_cast<uint64_t>(kOffered) / 2);  // mostly shedding

  uint64_t total = 0;
  while (auto row = (*sub)->NextRow()) total += (*row)[1].uint_value();
  // Declared error: weights are stamped per message at the sampling
  // decision, so the only slack is the 1-in-k phase at the escalation
  // boundary — a handful of tuples, far under 5% at this run length.
  const double error =
      std::abs(static_cast<double>(total) - kOffered) / kOffered;
  EXPECT_LT(error, 0.05) << "total=" << total << " offered=" << kOffered;
}

/// Threaded pump under overload: the inject thread actuates the ladder
/// while workers read the shed state and fold with its weights. The value
/// of this test is TSan (build-tsan runs it): no locks on the hot path,
/// only the ShedState atomics.
TEST(ShedEngineTest, ThreadedBurstWithSheddingStaysCoherent) {
  EngineOptions options;
  options.channel_capacity = 16;
  options.batch_max_size = 4;
  options.punctuation_interval = 8;
  options.shed.enabled = true;
  options.shed.check_period = kNanosPerSecond / 20;
  options.shed.ring_occupancy = 0.25;
  options.shed.hold_checks = 2;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name threaded; } "
                            "SELECT tb, count(*) FROM eth0.PKT "
                            "GROUP BY time AS tb")
                  .ok());
  auto sub = engine.Subscribe("threaded", 8192);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine.StartThreads(2).ok());

  const SimTime kHalfMs = kNanosPerSecond / 2000;
  for (int i = 1; i <= 4000; ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", MakePacket(i * kHalfMs, 80)).ok());
  }
  engine.StopThreads();
  engine.FlushAll();

  EXPECT_GT(Metric(engine, "engine", telemetry::metric::kShedChecks), 0u);
  uint64_t total = 0;
  uint64_t rows = 0;
  while (auto row = (*sub)->NextRow()) {
    ++rows;
    total += (*row)[1].uint_value();
  }
  EXPECT_GT(rows, 0u);   // windows kept closing under overload
  EXPECT_GT(total, 0u);  // and carried (possibly scaled) counts
}

}  // namespace
}  // namespace gigascope::core
