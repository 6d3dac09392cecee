// E5 — §3 aggregate query splitting: end-to-end cost of a per-minute flow
// aggregation with the LFTA subaggregate / HFTA superaggregate split versus
// shipping every tuple to a single HFTA aggregation.
//
// "This aggregate query splitting optimization was one of our motivations
// to build Gigascope as a pure stream database."

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/engine.h"
#include "workload/traffic_gen.h"

namespace {

using Clock = std::chrono::steady_clock;
using gigascope::core::Engine;

struct RunResult {
  double seconds;
  uint64_t boundary_tuples;  // tuples crossing into the HFTA
  uint64_t results;
};

/// `split`: let the planner split (Protocol source). Otherwise force the
/// aggregation to run unsplit by routing packets through a pass-through
/// LFTA stream first (Stream sources never get LFTAs).
RunResult Run(bool split, int packets) {
  Engine engine;
  engine.AddInterface("eth0");
  std::string agg_source = "eth0.PKT";
  if (!split) {
    engine.AddQuery(
        "DEFINE { query_name rawpkts; } "
        "SELECT time, destIP, len FROM eth0.PKT").ok();
    agg_source = "rawpkts";
  }
  std::string query =
      "DEFINE { query_name flows; } "
      "SELECT tb, destIP, count(*), sum(len) FROM " +
      agg_source + " GROUP BY time/60 AS tb, destIP";
  auto info = engine.AddQuery(query);
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    std::exit(1);
  }
  auto sub = engine.Subscribe("flows", 1 << 20);
  std::string boundary =
      split ? info->lfta_name : agg_source;
  auto boundary_sub = engine.registry().Subscribe(boundary, 1 << 21);

  gigascope::workload::TrafficConfig config;
  config.seed = 3;
  config.num_flows = 2000;
  config.flow_skew = 1.0;
  config.offered_bits_per_sec = 200e6;
  gigascope::workload::TrafficGenerator gen(config);

  auto start = Clock::now();
  for (int i = 0; i < packets; ++i) {
    engine.InjectPacket("eth0", gen.Next()).ok();
    if (i % 2048 == 2047) engine.PumpUntilIdle();
  }
  engine.PumpUntilIdle();
  engine.FlushAll();
  auto end = Clock::now();

  RunResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.boundary_tuples = 0;
  gigascope::rts::StreamBatch batch;
  while ((*boundary_sub)->TryPop(&batch)) {
    for (const gigascope::rts::BatchItem& item : batch.items()) {
      if (item.kind == gigascope::rts::MessageKind::kTuple) {
        ++result.boundary_tuples;
      }
    }
  }
  result.results = 0;
  while ((*sub)->NextRow()) ++result.results;
  return result;
}

}  // namespace

int main() {
  const int kPackets = 60000;
  std::printf(
      "E5: per-minute flow aggregation, %d packets — split\n"
      "    (LFTA subaggregate + HFTA superaggregate) vs unsplit (all\n"
      "    tuples shipped to one HFTA aggregation)\n\n",
      kPackets);
  std::printf("%-10s %12s %18s %12s %14s\n", "plan", "seconds",
              "boundary tuples", "results", "pkts/sec");
  RunResult split = Run(true, kPackets);
  RunResult unsplit = Run(false, kPackets);
  std::printf("%-10s %12.3f %18llu %12llu %14.0f\n", "split", split.seconds,
              static_cast<unsigned long long>(split.boundary_tuples),
              static_cast<unsigned long long>(split.results),
              kPackets / split.seconds);
  std::printf("%-10s %12.3f %18llu %12llu %14.0f\n", "unsplit",
              unsplit.seconds,
              static_cast<unsigned long long>(unsplit.boundary_tuples),
              static_cast<unsigned long long>(unsplit.results),
              kPackets / unsplit.seconds);
  std::printf(
      "\nexpected shape: identical results; the split plan ships far fewer\n"
      "tuples across the boundary (the LFTA's early reduction) and "
      "sustains\nhigher packet rates.\n");
  return 0;
}
