// E2 — "Early data reduction is critical for performance, and the earlier
// the better" (§4) / the LFTA's purpose (§3): measure the data volume
// crossing the LFTA→HFTA channel with and without LFTA pre-processing,
// across predicate selectivities. Exits 1 unless the expected shape holds:
// pre-aggregation ships fewer tuples than filter-only at every
// selectivity, and each reduction factor grows as the selectivity falls.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/engine.h"
#include "workload/traffic_gen.h"

namespace {

using gigascope::core::Engine;
using gigascope::net::Packet;

struct Reduction {
  uint64_t packets_in = 0;
  uint64_t tuples_to_hfta = 0;
  uint64_t bytes_to_hfta = 0;
};

/// Runs a filter+aggregate query and measures traffic on the LFTA stream.
Reduction Measure(uint16_t max_port, bool with_preagg) {
  Engine engine;
  engine.AddInterface("eth0");
  // Selectivity knob: destPort < max_port matches a controllable fraction
  // of the uniformly distributed ports.
  char query[512];
  if (with_preagg) {
    std::snprintf(query, sizeof(query),
                  "DEFINE { query_name q; } "
                  "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
                  "WHERE destPort < %u GROUP BY time AS tb, destIP",
                  static_cast<unsigned>(max_port));
  } else {
    // No aggregation: every matching packet crosses to the subscriber.
    std::snprintf(query, sizeof(query),
                  "DEFINE { query_name q; } "
                  "SELECT time, destIP, len FROM eth0.PKT "
                  "WHERE destPort < %u",
                  static_cast<unsigned>(max_port));
  }
  auto info = engine.AddQuery(query);
  if (!info.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 info.status().ToString().c_str());
    std::exit(1);
  }
  // Observe the stream that crosses from the LFTA to the HFTA (or the
  // query output when the whole query is one LFTA).
  std::string boundary = info->has_hfta ? info->lfta_name : info->name;
  auto channel = engine.registry().Subscribe(boundary, 1 << 20);

  gigascope::workload::TrafficConfig config;
  config.seed = 11;
  config.num_flows = 300;
  config.offered_bits_per_sec = 40e6;
  gigascope::workload::TrafficGenerator gen(config);

  Reduction result;
  for (int i = 0; i < 30000; ++i) {
    Packet packet = gen.Next();
    ++result.packets_in;
    engine.InjectPacket("eth0", packet).ok();
    if (i % 1024 == 0) engine.PumpUntilIdle();
  }
  engine.PumpUntilIdle();
  engine.FlushAll();

  gigascope::rts::StreamBatch batch;
  while ((*channel)->TryPop(&batch)) {
    for (const gigascope::rts::BatchItem& item : batch.items()) {
      if (item.kind != gigascope::rts::MessageKind::kTuple) continue;
      ++result.tuples_to_hfta;
      result.bytes_to_hfta += item.length;
    }
  }
  return result;
}

}  // namespace

int main() {
  std::printf(
      "E2: data volume crossing the LFTA boundary, 30000 packets offered\n"
      "    (LFTA filtering and pre-aggregation = the paper's early data\n"
      "    reduction; compare tuples shipped per selectivity)\n\n");
  std::printf("%-14s %-12s %14s %14s %10s\n", "selectivity", "lfta-preagg",
              "tuples-out", "bytes-out", "reduction");

  struct Point {
    const char* label;
    uint16_t max_port;
  };
  const Point points[] = {
      {"~100%", 65535}, {"~50%", 32768}, {"~10%", 6554}, {"~1%", 655}};

  // The expected shape, checked: the run fails unless it holds.
  bool shape_holds = true;
  double last_filter_only = 0;
  double last_with_agg = 0;
  for (const Point& point : points) {
    Reduction filter_only = Measure(point.max_port, false);
    Reduction with_agg = Measure(point.max_port, true);
    const double filter_only_factor =
        static_cast<double>(filter_only.packets_in) /
        static_cast<double>(std::max<uint64_t>(filter_only.tuples_to_hfta, 1));
    const double with_agg_factor =
        static_cast<double>(with_agg.packets_in) /
        static_cast<double>(std::max<uint64_t>(with_agg.tuples_to_hfta, 1));
    std::printf("%-14s %-12s %14llu %14llu %9.1fx\n", point.label, "no",
                static_cast<unsigned long long>(filter_only.tuples_to_hfta),
                static_cast<unsigned long long>(filter_only.bytes_to_hfta),
                filter_only_factor);
    std::printf("%-14s %-12s %14llu %14llu %9.1fx\n", point.label, "yes",
                static_cast<unsigned long long>(with_agg.tuples_to_hfta),
                static_cast<unsigned long long>(with_agg.bytes_to_hfta),
                with_agg_factor);
    if (with_agg.tuples_to_hfta >= filter_only.tuples_to_hfta) {
      std::fprintf(stderr, "FAIL at %s: pre-aggregation ships %llu tuples, "
                   "filter-only %llu\n", point.label,
                   static_cast<unsigned long long>(with_agg.tuples_to_hfta),
                   static_cast<unsigned long long>(filter_only.tuples_to_hfta));
      shape_holds = false;
    }
    if (filter_only_factor <= last_filter_only ||
        with_agg_factor <= last_with_agg) {
      std::fprintf(stderr, "FAIL at %s: a reduction factor did not grow as "
                   "the selectivity fell\n", point.label);
      shape_holds = false;
    }
    last_filter_only = filter_only_factor;
    last_with_agg = with_agg_factor;
  }
  std::printf(
      "\nexpected shape: pre-aggregation ships far fewer tuples than\n"
      "filter-only at every selectivity; reduction grows as selectivity "
      "falls.\n");
  return shape_holds ? 0 : 1;
}
