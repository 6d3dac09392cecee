// E6 — §5 headline: "At peak periods, Gigascope processes 1.2 million
// packets per second using an inexpensive dual 2.4 Ghz CPU server."
//
// Measures this repository's packets/second through the full engine path
// (packet interpretation → LFTA evaluation → channels) for representative
// LFTA queries, then compares the single-threaded pump against the
// ThreadedEngine mode (LFTAs on the inject thread, HFTAs on a worker
// pool — the paper's dual-CPU split). Absolute numbers reflect this
// machine; run with --threads=N to size the worker pool (default 4).
//
// Usage: e6_headline_pps [--threads=N] [--packets=N]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/engine.h"
#include "telemetry/http_export.h"
#include "workload/traffic_gen.h"

namespace {

using Clock = std::chrono::steady_clock;
using gigascope::core::Engine;
using gigascope::core::EngineOptions;
using gigascope::net::Packet;

std::vector<Packet> MakeBatch(int packets) {
  gigascope::workload::TrafficConfig config;
  config.seed = 17;
  config.num_flows = 1000;
  config.port80_fraction = 0.1;
  config.http_fraction = 0.5;
  config.offered_bits_per_sec = 500e6;
  gigascope::workload::TrafficGenerator gen(config);
  std::vector<Packet> batch;
  batch.reserve(static_cast<size_t>(packets));
  for (int i = 0; i < packets; ++i) batch.push_back(gen.Next());
  return batch;
}

std::unique_ptr<Engine> MakeEngine(
    const std::string& query, int packets,
    gigascope::SimTime stats_period = 0, size_t trace_sample = 0,
    size_t batch_size = 0) {
  EngineOptions options;
  // Size channels so a full run fits without drops: the comparison should
  // measure operator and handoff cost, not loss policy.
  size_t capacity = 1;
  while (capacity < static_cast<size_t>(packets) + 1024) capacity <<= 1;
  options.channel_capacity = capacity;
  options.stats_period = stats_period;
  options.trace_sample = trace_sample;
  if (batch_size > 0) options.batch_max_size = batch_size;
  auto engine = std::make_unique<Engine>(options);
  engine->AddInterface("eth0");
  auto info = engine->AddQuery(query);
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    std::exit(1);
  }
  return engine;
}

double MeasurePps(const std::string& query, const std::vector<Packet>& batch,
                  gigascope::SimTime stats_period = 0,
                  size_t trace_sample = 0, size_t batch_size = 0) {
  std::unique_ptr<Engine> owned =
      MakeEngine(query, static_cast<int>(batch.size()), stats_period,
                 trace_sample, batch_size);
  Engine& engine = *owned;
  auto start = Clock::now();
  for (const Packet& packet : batch) {
    engine.InjectPacket("eth0", packet).ok();
    // Keep channels drained like the RTS does.
    if ((&packet - batch.data()) % 4096 == 4095) engine.PumpUntilIdle();
  }
  engine.FlushAll();
  auto end = Clock::now();
  return static_cast<double>(batch.size()) /
         std::chrono::duration<double>(end - start).count();
}

/// ThreadedEngine pump mode: InjectPacket drives interpretation and the
/// LFTA nodes on this thread (the paper links LFTAs into the RTS next to
/// the capture loop) while the worker pool drains the HFTA nodes through
/// the lock-free SPSC rings. FlushAll is the drain barrier.
double MeasurePpsThreaded(const std::string& query,
                          const std::vector<Packet>& batch, size_t threads) {
  std::unique_ptr<Engine> owned =
      MakeEngine(query, static_cast<int>(batch.size()));
  Engine& engine = *owned;
  auto start = Clock::now();
  if (!engine.StartThreads(threads).ok()) std::exit(1);
  for (const Packet& packet : batch) {
    engine.InjectPacket("eth0", packet).ok();
  }
  engine.FlushAll();
  auto end = Clock::now();
  return static_cast<double>(batch.size()) /
         std::chrono::duration<double>(end - start).count();
}

/// Multi-process pump mode: HFTA nodes live in supervised forked workers
/// fed over shm-backed rings (the paper's HFTAs-as-application-processes
/// split). Same drive pattern as the threaded mode; the parent pumps the
/// supervisor between injections via FlushAll's drain at the end.
double MeasurePpsProcesses(const std::string& query,
                           const std::vector<Packet>& batch, size_t workers) {
  std::unique_ptr<Engine> owned =
      MakeEngine(query, static_cast<int>(batch.size()));
  Engine& engine = *owned;
  auto start = Clock::now();
  if (!engine.StartProcesses(workers).ok()) std::exit(1);
  for (const Packet& packet : batch) {
    engine.InjectPacket("eth0", packet).ok();
  }
  engine.FlushAll();
  auto end = Clock::now();
  return static_cast<double>(batch.size()) /
         std::chrono::duration<double>(end - start).count();
}

/// One blocking GET against the local metrics endpoint; drains and
/// discards the response (a scraper's cost profile, minus parsing).
void ScrapeOnce(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const char request[] =
        "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    (void)!write(fd, request, sizeof(request) - 1);
    char buf[4096];
    while (read(fd, buf, sizeof(buf)) > 0) {
    }
  }
  close(fd);
}

/// Single-threaded pump with the HTTP metrics endpoint live and a scraper
/// thread hitting /metrics every `scrape_interval_ms` — the overhead of
/// `gsrun --metrics-port=N` under an aggressive Prometheus schedule (real
/// deployments scrape every few seconds, not every few milliseconds).
double MeasurePpsScraped(const std::string& query,
                         const std::vector<Packet>& batch,
                         int scrape_interval_ms) {
  std::unique_ptr<Engine> owned =
      MakeEngine(query, static_cast<int>(batch.size()));
  Engine& engine = *owned;
  gigascope::telemetry::MetricsHttpServer server;
  gigascope::telemetry::MetricsHttpServer::Handlers handlers;
  handlers.metrics = [&engine] {
    return gigascope::telemetry::FormatPrometheus(
        engine.telemetry().Snapshot());
  };
  handlers.analyze = [&engine] { return engine.AnalyzeJson(); };
  if (!server.Start(0, handlers).ok()) std::exit(1);
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ScrapeOnce(server.port());
      std::this_thread::sleep_for(
          std::chrono::milliseconds(scrape_interval_ms));
    }
  });
  auto start = Clock::now();
  for (const Packet& packet : batch) {
    engine.InjectPacket("eth0", packet).ok();
    if ((&packet - batch.data()) % 4096 == 4095) engine.PumpUntilIdle();
  }
  engine.FlushAll();
  auto end = Clock::now();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  server.Stop();
  return static_cast<double>(batch.size()) /
         std::chrono::duration<double>(end - start).count();
}

struct Workload {
  const char* label;
  const char* query;
};

}  // namespace

int main(int argc, char** argv) {
  size_t threads = 4;
  int packets = 200000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<size_t>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--packets=", 10) == 0) {
      packets = std::atoi(argv[i] + 10);
    } else {
      std::fprintf(stderr,
                   "usage: e6_headline_pps [--threads=N] [--packets=N]\n");
      return 2;
    }
  }
  if (threads == 0) threads = 1;

  const Workload workloads[] = {
      {"filter-only (LFTA)",
       "DEFINE { query_name q1; } "
       "SELECT time, destIP, destPort FROM eth0.PKT "
       "WHERE ipVersion = 4 AND protocol = 6"},
      {"port filter (LFTA)",
       "DEFINE { query_name q2; } "
       "SELECT time, len FROM eth0.PKT "
       "WHERE protocol = 6 AND destPort = 80"},
      {"split aggregation",
       "DEFINE { query_name q3; } "
       "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
       "GROUP BY time AS tb, destIP"},
      {"regex split query",
       "DEFINE { query_name q4; } "
       "SELECT time, len FROM eth0.PKT "
       "WHERE protocol = 6 AND destPort = 80 "
       "AND match_regex(payload, '^[^\\n]*HTTP/1.*')"},
  };

  const std::vector<Packet> batch = MakeBatch(packets);
  std::printf(
      "E6: engine throughput, %d packets per workload (paper headline:\n"
      "    1.2M pps on 2003 hardware for deployed query sets)\n\n",
      packets);
  std::printf("%-22s %16s\n", "workload", "packets/sec");
  for (const Workload& workload : workloads) {
    // Best-of-3 like every other section: scheduler noise on a shared box
    // dwarfs the per-packet cost differences being reported.
    double pps = 0;
    for (int repetition = 0; repetition < 3; ++repetition) {
      pps = std::max(pps, MeasurePps(workload.query, batch));
    }
    std::printf("%-22s %16.0f\n", workload.label, pps);
  }
  std::printf(
      "\nexpected shape: cheap LFTA-only filters are fastest; the regex\n"
      "query is slower but its LFTA pre-filter keeps the expensive work\n"
      "on ~10%% of the packets.\n");

  // Batch-size sweep: one ring slot carries a whole tuple batch, so the
  // per-slot handoff and the VM's per-message setup amortize over
  // batch_max_size messages. Size 1 is the old per-tuple data plane; 64 is
  // the engine default the headline rows above use.
  const size_t kSweep[] = {1, 8, 64, 256};
  std::printf("\nbatch-size sweep (single-threaded pump, best of 3):\n");
  std::printf("%-22s", "workload");
  for (size_t batch_size : kSweep) {
    std::printf(" %9zu", batch_size);
  }
  std::printf(" %9s\n", "64 vs 1");
  for (const Workload& workload : workloads) {
    double at_one = 0;
    double at_default = 0;
    std::printf("%-22s", workload.label);
    for (size_t batch_size : kSweep) {
      double pps = 0;
      for (int repetition = 0; repetition < 3; ++repetition) {
        pps = std::max(pps,
                       MeasurePps(workload.query, batch, 0, 0, batch_size));
      }
      if (batch_size == 1) at_one = pps;
      if (batch_size == 64) at_default = pps;
      std::printf(" %9.0f", pps);
    }
    std::printf(" %8.2fx\n", at_default / at_one);
  }

  // Pipeline parallelism across the LFTA/HFTA boundary (the paper ran on
  // a dual-CPU server with LFTAs linked into the RTS and HFTAs as
  // separate processes). Compare on the split queries — the ones with an
  // HFTA stage for the workers to take over.
  std::printf(
      "\nthreaded pump mode (%zu workers, %u hardware threads on this "
      "machine):\n%-22s %16s %16s %8s\n",
      threads, std::thread::hardware_concurrency(), "workload",
      "single pps", "threaded pps", "ratio");
  for (size_t i : {size_t{2}, size_t{3}}) {
    double single = MeasurePps(workloads[i].query, batch);
    double threaded = MeasurePpsThreaded(workloads[i].query, batch, threads);
    std::printf("%-22s %16.0f %16.0f %7.2fx\n", workloads[i].label, single,
                threaded, threaded / single);
  }
  std::printf(
      "\nobservation: the win tracks how much work the query's HFTA stage\n"
      "carries (final aggregation for q3, regex on the pre-filtered ~10%%\n"
      "for q4) and needs real cores to show up — on a single-CPU machine\n"
      "the two stages time-slice and the ratio stays near or below 1.\n");

  // Multi-process pump mode (DESIGN.md §14): the same LFTA/HFTA split,
  // but HFTAs in supervised forked workers over shm rings — the paper's
  // fault-isolation architecture. The shm copy of each batch and the
  // supervisor heartbeats are the overhead being priced against the
  // in-process single pump on the split queries.
  std::printf(
      "\nmulti-process pump mode (1 supervised worker, shm rings):\n"
      "%-22s %16s %16s %8s\n",
      "workload", "in-process pps", "process pps", "ratio");
  for (size_t i : {size_t{2}, size_t{3}}) {
    double single = 0;
    double process = 0;
    for (int repetition = 0; repetition < 3; ++repetition) {
      single = std::max(single, MeasurePps(workloads[i].query, batch));
      process = std::max(process,
                         MeasurePpsProcesses(workloads[i].query, batch, 1));
    }
    std::printf("%-22s %16.0f %16.0f %7.2fx\n", workloads[i].label, single,
                process, process / single);
  }
  std::printf(
      "\nobservation (measured 2026-10-19, 3 runs of 200000 packets on 4\n"
      "shared vCPUs): the split aggregation ran at 0.56-0.60x of\n"
      "in-process and the regex split query at 0.81-0.88x. Process\n"
      "isolation prices each ring handoff with a copy of the batch arena\n"
      "through the shm ring, and the timed region includes the fork, the\n"
      "worker's idle polls and the seal's command round trips; which of\n"
      "these costs the gap is not measured. It buys crash containment\n"
      "(see DESIGN.md §14).\n");

  // Metrics endpoint overhead: the accept thread snapshots the registry
  // and renders Prometheus text per scrape. 50ms is ~100x more aggressive
  // than a real Prometheus schedule; the hot path only pays if the
  // snapshot mutex collides with a registration (never, mid-run) — the
  // expected cost is scraper CPU competing for this container's core.
  std::printf(
      "\nmetrics endpoint overhead (--metrics-port, /metrics scraped "
      "every 50ms):\n%-22s %16s %16s %8s\n",
      "workload", "endpoint-off pps", "scraped pps", "ratio");
  for (const Workload& workload : workloads) {
    double off = 0;
    double on = 0;
    for (int repetition = 0; repetition < 5; ++repetition) {
      off = std::max(off, MeasurePps(workload.query, batch));
      on = std::max(on, MeasurePpsScraped(workload.query, batch, 50));
    }
    std::printf("%-22s %16.0f %16.0f %7.3fx\n", workload.label, off, on,
                on / off);
  }

  // Self-telemetry overhead: the counters are single-writer relaxed
  // atomics on the hot path and the gs_stats emitter fires once per
  // sim-second of traffic, so stats-on should stay within a few percent
  // of stats-off (acceptance bound: 3%).
  std::printf(
      "\ntelemetry overhead (gs_stats snapshot every 1s of capture "
      "time):\n%-22s %16s %16s %8s\n",
      "workload", "stats-off pps", "stats-on pps", "ratio");
  for (const Workload& workload : workloads) {
    // Interleaved best-of-5: scheduler noise on a shared box dwarfs the
    // per-packet cost being measured.
    double off = 0;
    double on = 0;
    for (int repetition = 0; repetition < 5; ++repetition) {
      off = std::max(off, MeasurePps(workload.query, batch));
      on = std::max(
          on, MeasurePps(workload.query, batch, gigascope::kNanosPerSecond));
    }
    std::printf("%-22s %16.0f %16.0f %7.3fx\n", workload.label, off, on,
                on / off);
  }

  // Sampled tracing overhead: untraced packets pay one RNG draw per
  // injection and a trace_id==0 branch per operator; 1-in-128 packets take
  // the mutex-guarded span-recording path. Tracing off must cost nothing
  // (the engine holds no tracer at all), and 1-in-128 sampling should sit
  // within a few percent of off.
  std::printf(
      "\ntracing overhead (--trace-sample=128, Chrome-trace event "
      "recording):\n%-22s %16s %16s %8s\n",
      "workload", "trace-off pps", "trace-on pps", "ratio");
  for (const Workload& workload : workloads) {
    double off = 0;
    double on = 0;
    for (int repetition = 0; repetition < 5; ++repetition) {
      off = std::max(off, MeasurePps(workload.query, batch));
      on = std::max(on, MeasurePps(workload.query, batch, 0, 128));
    }
    std::printf("%-22s %16.0f %16.0f %7.3fx\n", workload.label, off, on,
                on / off);
  }
  return 0;
}
