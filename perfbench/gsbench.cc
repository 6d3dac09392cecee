// The repository's benchmark program: runs one named workload through the
// engine's public API for a fixed wall-clock budget, checks every output
// row against the independent reference (reference.h), and prints its
// metrics as one JSON object on the last line of stdout.
//
//   gsbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--packets N] [--corrupt-reference]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// ledger (see README.md for which layer metric should move which
// end-to-end metric on which workload). --packets shrinks the packets
// generated per repetition (the self-test uses it); --corrupt-reference
// alters one reference row so the checker's failure path can be tested.
#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "gsql/catalog.h"
#include "net/headers.h"
#include "reference.h"
#include "rts/tuple.h"
#include "telemetry/metric_names.h"
#include "udf/regex.h"
#include "workload/traffic_gen.h"

namespace perfbench {
namespace {

using gigascope::core::Engine;
using gigascope::core::QueryInfo;
using gigascope::core::TupleSubscription;
using gigascope::net::Packet;
namespace metric = gigascope::telemetry::metric;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  const char* why;
  gigascope::workload::TrafficConfig traffic;  // seed comes from --seed
  std::vector<QueryKind> queries;
  size_t worker_threads;  // 0: single-threaded pump
  double paced_pps;       // 0: closed loop; else open loop at this rate
  size_t packets;         // generated per repetition
};

/// Default seed and the held-out seed: tune on the first, re-check a claim
/// on the second.
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kHeldOutSeed = 7919;

/// Closed-loop workloads inject this many packets, then pump and drain.
constexpr size_t kClosedGroup = 256;

std::vector<Workload> Workloads() {
  std::vector<Workload> list;
  {
    Workload w{"filter_replay",
               "per-packet path only: decode, interpret, encode, ring hop, "
               "raw-byte LFTA filter, subscriber decode; no HFTA, no windows",
               {}, {QueryKind::kTcpFilter}, 0, 0, 4000};
    // As in regex_threads, many flows and mild skew keep the TCP share
    // near 90% on every seed, so seeds change the packets, not the work.
    w.traffic.num_flows = 5000;
    w.traffic.flow_skew = 0.5;
    w.traffic.mean_payload = 400;
    w.traffic.tcp_fraction = 0.9;
    list.push_back(w);
  }
  {
    Workload w{"agg_paced",
               "open loop at a fixed rate: LFTA hashing with evictions, HFTA "
               "fold, row bursts at window close; latency as a live analyst "
               "sees it",
               {}, {QueryKind::kDestAgg}, 0, 150000, 15000};
    w.traffic.num_flows = 20000;
    // ~5.5k packets per simulated second: a window closes about every
    // 37 ms of wall time at the paced rate. Poisson arrivals (no bursts)
    // keep windows of even size, so the latency tail does not hinge on
    // which seed draws the one huge burst.
    w.traffic.offered_bits_per_sec = 20e6;
    w.traffic.burstiness = 1;
    list.push_back(w);
  }
  {
    Workload w{"regex_threads",
               "threaded pump: payload copied at interpretation, regex UDF, "
               "two HFTAs on two workers that park and wake",
               {}, {QueryKind::kHttpRegex, QueryKind::kSrcAgg}, 2, 0, 5000};
    // Many flows and mild skew keep the port-80 share near 10% on every
    // seed, so seeds change the packets, not the work mix.
    w.traffic.num_flows = 5000;
    w.traffic.flow_skew = 0.5;
    w.traffic.port80_fraction = 0.1;
    w.traffic.http_fraction = 0.5;
    w.traffic.burstiness = 1;
    list.push_back(w);
  }
  return list;
}

// ---------------------------------------------------------------------------
// Clocks and statistics

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// The figure a timing metric reports: the tenth-best of its
/// per-repetition values (the best, with fewer than ten). On a shared host
/// a vCPU is slowed by its neighbours for seconds at a time, by up to 40%,
/// which makes the per-repetition figures bimodal. The slowing comes and
/// goes on each vCPU of its own accord, and the share of slowed
/// repetitions differs from run to run; the fast end is the code's own
/// speed, and it is the same from run to run as long as ten repetitions
/// escaped the neighbours. Ten rather than one keeps a single lucky
/// repetition from setting it.
double Fast(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) return 0;
  constexpr size_t kRank = 10;
  const size_t k = std::min(kRank, values.size()) - 1;
  if (higher_is_better) {
    std::nth_element(values.begin(), values.begin() + k, values.end(),
                     std::greater<>());
  } else {
    std::nth_element(values.begin(), values.begin() + k, values.end());
  }
  return values[k];
}

/// Nanoseconds a step of a chain of dependent 64-bit multiply-adds takes
/// at a 2 GHz core clock (a step is four cycles on x86-64).
constexpr double kNominalStepNs = 2.0;

/// How much slower than a 2 GHz clock the calling thread's core runs right
/// now: the fastest of three short timed chains of dependent multiply-adds,
/// over kNominalStepNs. The chain touches no memory and shares no unit
/// with a neighbour's work, so the figure follows only the clock the host
/// grants. A shared host steps its turbo clock between about 2.3 and
/// 2.7 GHz from minute to minute; every timing is divided by this figure,
/// so the metrics read as at a steady 2 GHz.
double ClockSlowdown() {
  constexpr int kSteps = 50000;
  double best = 0;
  for (int probe = 0; probe < 3; ++probe) {
    uint64_t x = 1;
    const int64_t start = NowNs();
    for (int k = 0; k < kSteps; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      asm volatile("" : "+r"(x));
    }
    const double ns = static_cast<double>(NowNs() - start) / kSteps;
    if (probe == 0 || ns < best) best = ns;
  }
  return best / kNominalStepNs;
}

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Binds the calling thread to one CPU.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Bytes the allocator has handed out and not had back, over all arenas
/// (worker threads allocate from arenas of their own).
double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1 << 20);
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Engine set-up and one repetition

struct Setup {
  std::unique_ptr<Engine> engine;
  std::vector<std::unique_ptr<TupleSubscription>> subs;
  std::vector<QueryInfo> infos;
  double setup_s = 0;
  double add_query_s = 0;
};

/// Engine construction through AddQuery, Subscribe and StartThreads: the
/// span `setup_s` measures.
Setup MakeEngine(const Workload& w) {
  Setup s;
  const int64_t start = NowNs();
  s.engine = std::make_unique<Engine>();
  s.engine->AddInterface("eth0");
  for (QueryKind kind : w.queries) {
    const int64_t q0 = NowNs();
    auto info = s.engine->AddQuery(Query(kind).gsql);
    s.add_query_s += static_cast<double>(NowNs() - q0) * 1e-9;
    if (!info.ok()) Die("AddQuery: " + info.status().ToString());
    s.infos.push_back(info.value());
  }
  for (QueryKind kind : w.queries) {
    auto sub = s.engine->Subscribe(Query(kind).name);
    if (!sub.ok()) Die("Subscribe: " + sub.status().ToString());
    s.subs.push_back(std::move(sub.value()));
  }
  if (w.worker_threads > 0) {
    const auto started = s.engine->StartThreads(w.worker_threads);
    if (!started.ok()) Die("StartThreads: " + started.ToString());
  }
  s.setup_s = static_cast<double>(NowNs() - start) * 1e-9;
  return s;
}

/// The benchmark's queries output only INT, UINT and IP columns.
uint64_t ValueBits(const gigascope::expr::Value& v) {
  return v.type() == gigascope::gsql::DataType::kInt
             ? static_cast<uint64_t>(v.int_value())
             : v.uint_value();
}

/// Output rows of one subscription, stored in a buffer sized and touched
/// before the run so collecting them allocates nothing.
struct Collected {
  std::vector<OutRow> rows;
  std::vector<int64_t> at_ns;  // when NextRow returned the row
  size_t count = 0;
  uint64_t overflow = 0;  // rows beyond the buffer: all wrong by definition

  explicit Collected(size_t capacity) : rows(capacity), at_ns(capacity) {}
};

/// Timed spans of the public calls (the per-layer ledger's outer layers).
struct Spans {
  int64_t inject_ns = 0;
  int64_t pump_ns = 0;
  int64_t next_row_ns = 0;
  int64_t flush_ns = 0;
  int64_t sleep_ns = 0;
};

struct RepResult {
  double wall_s = 0;  // first InjectPacket through FlushAll
  double cpu_s = 0;   // process CPU over the same window
  double inject_thread_cpu_s = 0;
  size_t packets = 0;
  Spans spans;
  std::vector<double> latency_us;
  std::vector<double> late_us;  // paced only: how late each packet went in
  Comparison check;
  std::vector<gigascope::telemetry::MetricSample> telemetry;
  std::vector<QueryInfo> infos;
  double peak_mem_mb = 0;  // memory-probe repetitions only
};

class Runner {
 public:
  /// `probe_memory` samples the heap through the repetition (a cost the
  /// timed repetitions do not pay).
  Runner(const Workload& w, const std::vector<Packet>& packets, bool traced,
         bool probe_memory)
      : w_(w),
        packets_(packets),
        traced_(traced),
        probe_memory_(probe_memory) {}

  RepResult Run(const std::vector<std::vector<OutRow>>& expected) {
    RepResult r;
    r.packets = packets_.size();
    std::vector<Collected> out;
    for (const auto& rows : expected) out.emplace_back(rows.size() + 1024);
    const double mem_base = probe_memory_ ? HeapInUseMb() : 0;
    double mem_peak = mem_base;
    const auto sample_memory = [&] {
      if (probe_memory_) mem_peak = std::max(mem_peak, HeapInUseMb());
    };
    Setup s = MakeEngine(w_);
    r.infos = s.infos;
    // Due time of each packet: the schedule for an open loop, the moment
    // its group was offered for a closed loop.
    std::vector<int64_t> group_start;
    group_start.reserve(packets_.size() / kClosedGroup + 1);
    if (traced_ && w_.paced_pps > 0) r.late_us.reserve(packets_.size());

    const int64_t cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    const int64_t thread0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    const int64_t t0 = NowNs();
    const double interval_ns = w_.paced_pps > 0 ? 1e9 / w_.paced_pps : 0;
    size_t i = 0;
    for (size_t round = 0; i < packets_.size(); ++round) {
      if (round % 8 == 0) sample_memory();
      int64_t now = NowNs();
      size_t end;
      if (w_.paced_pps > 0) {
        const auto due = t0 + static_cast<int64_t>(
                                  static_cast<double>(i) * interval_ns);
        if (due > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          const int64_t woke = NowNs();
          r.spans.sleep_ns += woke - now;
          now = woke;
        }
        // Every packet that is due by now goes in.
        end = std::min(packets_.size(),
                       static_cast<size_t>(static_cast<double>(now - t0) /
                                           interval_ns) +
                           1);
        if (traced_) {
          for (size_t k = i; k < end; ++k) {
            const double due_k = static_cast<double>(t0) +
                                 static_cast<double>(k) * interval_ns;
            r.late_us.push_back((static_cast<double>(now) - due_k) * 1e-3);
          }
        }
      } else {
        group_start.push_back(now);
        end = std::min(packets_.size(), i + kClosedGroup);
      }
      for (; i < end; ++i) {
        if (!s.engine->InjectPacket("eth0", packets_[i]).ok()) {
          Die("InjectPacket failed");
        }
      }
      const int64_t injected = NowNs();
      s.engine->PumpUntilIdle();
      const int64_t pumped = NowNs();
      r.spans.inject_ns += injected - now;
      r.spans.pump_ns += pumped - injected;
      Drain(s, &out, &r.spans);
    }
    sample_memory();
    const int64_t flush0 = NowNs();
    s.engine->FlushAll();
    const int64_t flushed = NowNs();
    r.spans.flush_ns = flushed - flush0;
    sample_memory();
    Drain(s, &out, &r.spans);
    const int64_t t1 = NowNs();
    r.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    r.cpu_s =
        static_cast<double>(CpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0) * 1e-9;
    r.inject_thread_cpu_s =
        static_cast<double>(CpuNs(CLOCK_THREAD_CPUTIME_ID) - thread0) * 1e-9;
    if (traced_) r.telemetry = s.engine->telemetry().Snapshot();
    r.peak_mem_mb = mem_peak - mem_base;
    s = Setup{};  // engine and workers gone before the checks

    std::vector<int64_t> timestamps(packets_.size());
    for (size_t k = 0; k < packets_.size(); ++k) {
      timestamps[k] = packets_[k].timestamp;
    }
    for (size_t q = 0; q < out.size(); ++q) {
      Collected& c = out[q];
      for (size_t k = 0; k < c.count; ++k) {
        const int64_t idx = TriggerPacket(w_.queries[q], c.rows[k], timestamps);
        if (idx < 0) continue;
        const int64_t due =
            w_.paced_pps > 0
                ? t0 + static_cast<int64_t>(static_cast<double>(idx) *
                                            interval_ns)
                : group_start[static_cast<size_t>(idx) / kClosedGroup];
        r.latency_us.push_back(static_cast<double>(c.at_ns[k] - due) * 1e-3);
      }
      c.rows.resize(c.count);
      Comparison cmp =
          CompareRows(w_.queries[q], expected[q], std::move(c.rows));
      r.check.reference_rows += cmp.reference_rows;
      r.check.missing += cmp.missing;
      r.check.extra += cmp.extra + c.overflow;
      r.check.differing += cmp.differing;
    }
    return r;
  }

 private:
  void Drain(Setup& s, std::vector<Collected>* out, Spans* spans) const {
    for (size_t q = 0; q < s.subs.size(); ++q) {
      Collected& c = (*out)[q];
      while (true) {
        const int64_t before = traced_ ? NowNs() : 0;
        std::optional<gigascope::rts::Row> row = s.subs[q]->NextRow();
        const int64_t at = NowNs();
        if (traced_) spans->next_row_ns += at - before;
        if (!row.has_value()) break;
        if (c.count == c.rows.size()) {
          ++c.overflow;
          continue;
        }
        OutRow& dst = c.rows[c.count];
        dst = {};
        for (size_t f = 0; f < row->size() && f < dst.size(); ++f) {
          dst[f] = ValueBits((*row)[f]);
        }
        c.at_ns[c.count] = at;
        ++c.count;
      }
    }
  }

  const Workload& w_;
  const std::vector<Packet>& packets_;
  const bool traced_;
  const bool probe_memory_;
};

// ---------------------------------------------------------------------------
// Standalone layer passes (traced runs)

struct LayerPasses {
  double decode_ns = 0;
  double interpret_ns = 0;
  double encode_ns = 0;
  double decode_tuple_ns = 0;
  double regex_ns = 0;
};

/// The fastest of several timed passes, after a warm-up pass over the same
/// data.
template <typename F>
double NsPerItem(size_t items, F&& body) {
  if (items == 0) return 0;
  body();
  std::vector<double> ns;
  for (int pass = 0; pass < 7; ++pass) {
    const int64_t start = NowNs();
    body();
    ns.push_back(static_cast<double>(NowNs() - start) /
                 static_cast<double>(items));
  }
  return Fast(ns, false);
}

LayerPasses MeasureLayers(const Workload& w,
                          const std::vector<Packet>& packets) {
  LayerPasses l;
  const double clock = ClockSlowdown();
  uint64_t sink = 0;
  l.decode_ns = NsPerItem(packets.size(), [&] {
    for (const Packet& p : packets) {
      auto decoded = gigascope::net::DecodePacket(p.view());
      if (decoded.ok()) sink += decoded.value().payload.size();
    }
  });
  // Payload is materialized only when a query reads it, as the engine
  // does (only the regex query does).
  const bool wants_payload =
      std::find(w.queries.begin(), w.queries.end(), QueryKind::kHttpRegex) !=
      w.queries.end();
  const gigascope::gsql::StreamSchema schema =
      gigascope::gsql::Catalog::BuiltinPacketSchema();
  gigascope::core::InterpretPlan plan =
      gigascope::core::BuildInterpretPlan(schema);
  for (size_t f = 0; f < plan.fields.size(); ++f) {
    using Extract = gigascope::core::InterpretPlan::Extract;
    if (plan.fields[f] == Extract::kIpPayload ||
        (plan.fields[f] == Extract::kPayload && !wants_payload)) {
      plan.wanted[f] = false;
    }
  }
  std::vector<gigascope::rts::Row> rows(packets.size());
  l.interpret_ns = NsPerItem(packets.size(), [&] {
    for (size_t k = 0; k < packets.size(); ++k) {
      rows[k] = gigascope::core::InterpretPacket(plan, packets[k]);
    }
  });
  gigascope::rts::TupleCodec codec(schema);
  std::vector<gigascope::ByteBuffer> encoded(packets.size());
  l.encode_ns = NsPerItem(packets.size(), [&] {
    for (size_t k = 0; k < rows.size(); ++k) {
      encoded[k].clear();
      codec.Encode(rows[k], &encoded[k]);
    }
  });
  l.decode_tuple_ns = NsPerItem(packets.size(), [&] {
    for (const gigascope::ByteBuffer& bytes : encoded) {
      auto row = codec.Decode(
          gigascope::ByteSpan(bytes.data(), bytes.size()));
      if (row.ok()) sink += row.value().size();
    }
  });
  auto regex = gigascope::udf::Regex::Compile("^[^\n]*HTTP/1.*");
  if (!regex.ok()) Die("regex: " + regex.status().ToString());
  std::vector<std::string_view> port80;
  ParsedPacket parsed;
  for (const Packet& p : packets) {
    if (ParsePacket(p, &parsed) && parsed.protocol == 6 &&
        parsed.dst_port == 80) {
      port80.push_back(parsed.payload);
    }
  }
  l.regex_ns = NsPerItem(port80.size(), [&] {
    for (std::string_view payload : port80) {
      sink += regex.value().Matches(payload) ? 1 : 0;
    }
  });
  for (double* ns : {&l.decode_ns, &l.interpret_ns, &l.encode_ns,
                     &l.decode_tuple_ns, &l.regex_ns}) {
    *ns /= clock;
  }
  // Printing the sink keeps the compiler from discarding the passes.
  std::fprintf(stderr, "layer passes checksum %llu\n",
               static_cast<unsigned long long>(sink));
  return l;
}

// ---------------------------------------------------------------------------
// Telemetry read-out (traced runs)

struct TelemetryLedger {
  double worker_parks = 0;   // park events, summed over workers
  double source_batch_p50 = 0;
  double ring_high_water = 0;
  double ring_dropped = 0;
  double lfta_in = 0, lfta_out = 0;
  double lfta_updates = 0, lfta_evictions = 0;
  double hfta_in = 0;
  double eval_errors = 0;
};

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

TelemetryLedger ReadTelemetry(const RepResult& r) {
  std::vector<std::string> lfta_nodes;
  std::vector<std::string> hfta_nodes;
  for (const QueryInfo& info : r.infos) {
    if (info.has_hfta) {
      hfta_nodes.push_back(info.name);
      if (info.has_lfta) lfta_nodes.push_back(info.lfta_name);
    } else if (info.has_lfta) {
      lfta_nodes.push_back(info.name);
    }
  }
  const auto is_in = [](const std::vector<std::string>& names,
                        const std::string& entity) {
    return std::find(names.begin(), names.end(), entity) != names.end();
  };
  const std::string ring = metric::kRingPrefix;
  TelemetryLedger t;
  for (const auto& sample : r.telemetry) {
    const std::string& m = sample.metric;
    const auto v = static_cast<double>(sample.value);
    const bool ring_metric = m.rfind(ring, 0) == 0;
    if (sample.entity.rfind("worker", 0) == 0 &&
        m == std::string(metric::kParkNs) + metric::kCountSuffix) {
      t.worker_parks += v;
    }
    if (ring_metric && EndsWith(m, metric::kRingHighWaterSuffix)) {
      t.ring_high_water = std::max(t.ring_high_water, v);
    }
    if (ring_metric && EndsWith(m, metric::kRingDroppedSuffix)) {
      t.ring_dropped += v;
    }
    if (m == metric::kEvalErrors) t.eval_errors += v;
    if (m == metric::kLftaUpdates) t.lfta_updates += v;
    if (m == metric::kLftaEvictions) t.lfta_evictions += v;
    if (is_in(lfta_nodes, sample.entity)) {
      if (m == metric::kTuplesIn) t.lfta_in += v;
      if (m == metric::kTuplesOut) t.lfta_out += v;
      if (m == ring + metric::kRingBatchSizeSuffix + metric::kP50Suffix) {
        t.source_batch_p50 = std::max(t.source_batch_p50, v);
      }
    }
    if (is_in(hfta_nodes, sample.entity) && m == metric::kTuplesIn) {
      t.hfta_in += v;
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t k = 0; k < metrics.size(); ++k) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                k == 0 ? "" : ", ", metrics[k].name.c_str(), metrics[k].value,
                metrics[k].unit);
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  size_t packets = 0;  // 0: the workload's own
  bool corrupt_reference = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    const bool has_value = k + 1 < argc;
    if (flag == "--workload" && has_value) {
      a.workload = argv[++k];
    } else if (flag == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++k], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      a.seconds = std::atof(argv[++k]);
    } else if (flag == "--trace" && has_value) {
      a.trace = std::atoi(argv[++k]) != 0;
    } else if (flag == "--packets" && has_value) {
      a.packets = std::strtoull(argv[++k], nullptr, 10);
    } else if (flag == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else {
      Die("unknown or incomplete argument '" + flag + "'");
    }
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::vector<Workload> all = Workloads();
  const auto found = std::find_if(all.begin(), all.end(), [&](const auto& w) {
    return args.workload == w.name;
  });
  if (found == all.end()) Die("unknown workload '" + args.workload + "'");
  Workload w = *found;
  w.traffic.seed = args.seed;
  if (args.packets > 0) w.packets = args.packets;

  const auto& t = w.traffic;
  std::printf("workload %s: %s\n", w.name, w.why);
  std::printf(
      "config: seed=%llu (default %llu, held-out %llu) num_flows=%u "
      "flow_skew=%g mean_payload=%g tcp_fraction=%g port80_fraction=%g "
      "http_fraction=%g offered_bits_per_sec=%g burstiness=%g "
      "packets_per_rep=%zu workers=%zu paced_pps=%g\n",
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(kDefaultSeed),
      static_cast<unsigned long long>(kHeldOutSeed), t.num_flows, t.flow_skew,
      t.mean_payload, t.tcp_fraction, t.port80_fraction, t.http_fraction,
      t.offered_bits_per_sec, t.burstiness, w.packets, w.worker_threads,
      w.paced_pps);

  // One generator for the whole run: each repetition replays a fresh
  // stretch of the same seeded traffic, so a run covers more windows and
  // flows than one repetition holds.
  gigascope::workload::TrafficGenerator gen(w.traffic);
  std::vector<Packet> packets;
  const auto generate = [&] {
    packets.clear();
    packets.reserve(w.packets);
    for (size_t k = 0; k < w.packets; ++k) packets.push_back(gen.Next());
  };
  const auto reference = [&] {
    std::vector<std::vector<OutRow>> expected;
    for (QueryKind kind : w.queries) {
      expected.push_back(ReferenceRows(kind, packets));
    }
    return expected;
  };

  generate();
  std::vector<std::vector<OutRow>> expected = reference();

  // A single-threaded workload moves to the next allowed CPU for every
  // repetition, so a run does not spend itself on one slowed vCPU.
  const std::vector<int> cpus =
      w.worker_threads == 0 ? AllowedCpus() : std::vector<int>{};

  // Set-up is short next to a repetition, so it is sampled on its own:
  // a burst up front, then a few after every repetition, so the median
  // spans the whole run rather than one moment of it.
  std::vector<double> setup_s;
  std::vector<double> add_query_ms;
  const auto sample_setup = [&](int times, double clock) {
    for (int k = 0; k < times; ++k) {
      Setup s = MakeEngine(w);
      setup_s.push_back(s.setup_s / clock);
      add_query_ms.push_back(s.add_query_s * 1e3 / clock);
    }
  };
  sample_setup(11, ClockSlowdown());

  LayerPasses layers;
  if (args.trace) layers = MeasureLayers(w, packets);

  // Per-repetition figures of the untraced repetitions.
  std::vector<double> pps, cpu_ns, lat_p50_us, lat_p99_us, traced_pps;
  size_t latency_samples = 0;
  std::vector<double> late_us;
  std::vector<double> inject_ns, pump_ns, next_row_ns, flush_ms, residual;
  std::vector<double> inject_cpu_ns, worker_cpu_ns;
  std::vector<TelemetryLedger> ledgers;
  double mem_mb = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (size_t rep = 0; rep < 3 || NowNs() < deadline; ++rep) {
    if (!cpus.empty()) PinTo(cpus[rep % cpus.size()]);
    if (rep > 0) {
      generate();
      expected = reference();
    } else if (args.corrupt_reference && !expected[0].empty()) {
      // Column 3 is a value column (not a key) in every query, so the
      // altered row must show up as exactly one differing row.
      ++expected[0][0][3];
    }
    // Repetition 0 warms up and probes memory; its times are not used.
    // Traced runs then alternate: odd repetitions traced, even ones
    // untraced (the baseline for the tracing overhead).
    const bool traced = args.trace && rep % 2 == 1;
    const double clock_before = ClockSlowdown();
    RepResult r = Runner(w, packets, traced, rep == 0).Run(expected);
    const double clock = (clock_before + ClockSlowdown()) / 2;
    sample_setup(3, clock);
    attempted += r.check.reference_rows;
    failed += r.check.wrong();
    const auto n = static_cast<double>(r.packets);
    // An open loop's rate is its schedule's, so it is not rescaled.
    const double rate = n / r.wall_s * (w.paced_pps > 0 ? 1 : clock);
    std::fprintf(stderr,
                 "rep %zu%s: clock_slowdown=%.3f pps=%.0f "
                 "cpu_ns_per_pkt=%.1f latency_p50_us=%.1f "
                 "latency_p99_us=%.1f (unscaled pps=%.0f)\n",
                 rep, traced ? " (traced)" : "", clock, rate,
                 r.cpu_s * 1e9 / n / clock,
                 Quantile(r.latency_us, 0.5) / clock,
                 Quantile(r.latency_us, 0.99) / clock, n / r.wall_s);
    if (rep == 0) {
      mem_mb = r.peak_mem_mb;
      continue;
    }
    if (!traced) {
      pps.push_back(rate);
      cpu_ns.push_back(r.cpu_s * 1e9 / n / clock);
      lat_p50_us.push_back(Quantile(r.latency_us, 0.5) / clock);
      lat_p99_us.push_back(Quantile(r.latency_us, 0.99) / clock);
      latency_samples += r.latency_us.size();
      continue;
    }
    traced_pps.push_back(rate);
    late_us.insert(late_us.end(), r.late_us.begin(), r.late_us.end());
    const Spans& sp = r.spans;
    inject_ns.push_back(static_cast<double>(sp.inject_ns) / n / clock);
    pump_ns.push_back(static_cast<double>(sp.pump_ns) / n / clock);
    flush_ms.push_back(static_cast<double>(sp.flush_ns) * 1e-6 / clock);
    const double rows = static_cast<double>(r.check.reference_rows);
    next_row_ns.push_back(
        rows > 0 ? static_cast<double>(sp.next_row_ns) / rows / clock : 0);
    const double busy = r.wall_s * 1e9 - static_cast<double>(sp.sleep_ns);
    const auto timed = static_cast<double>(sp.inject_ns + sp.pump_ns +
                                           sp.flush_ns + sp.next_row_ns);
    residual.push_back((busy - timed) / busy);
    inject_cpu_ns.push_back(r.inject_thread_cpu_s * 1e9 / n / clock);
    worker_cpu_ns.push_back(
        std::max(0.0, r.cpu_s - r.inject_thread_cpu_s) * 1e9 / n / clock);
    ledgers.push_back(ReadTelemetry(r));
  }
  const double wrong_frac =
      attempted == 0 ? 0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  std::printf(
      "repetitions=%zu latency_samples=%zu reference_rows=%llu "
      "wrong_rows=%llu wrong_row_frac=%g\n",
      pps.size() + traced_pps.size(), latency_samples,
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), wrong_frac);

  // Each timing metric is the fast end of its per-repetition values, each
  // already scaled to a 2 GHz clock (see Fast and ClockSlowdown): many
  // short repetitions, so the slow stretches of a shared host fill the
  // slow end of the distribution, not the result.
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"pps", Fast(pps, true), "1/s"},
        {"cpu_ns_per_pkt", Fast(cpu_ns, false), "ns"},
        {"latency_p50_us", Fast(lat_p50_us, false), "us"},
        {"latency_p99_us", Fast(lat_p99_us, false), "us"},
        {"setup_s", Fast(setup_s, false), "s"},
        {"mem_mb", mem_mb, "MB"},
    };
  } else {
    const auto ledger_median = [&](double TelemetryLedger::*field) {
      std::vector<double> v;
      for (const auto& l : ledgers) v.push_back(l.*field);
      return Median(v);
    };
    const auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0;
    };
    std::vector<double> parks, filter_pass, evict, hfta_in;
    for (const auto& l : ledgers) {
      const auto n = static_cast<double>(w.packets);
      parks.push_back(l.worker_parks / n);
      filter_pass.push_back(ratio(l.lfta_out, l.lfta_in));
      evict.push_back(ratio(l.lfta_evictions, l.lfta_updates));
      hfta_in.push_back(l.hfta_in / n);
    }
    metrics = {
        {"net.decode_ns", layers.decode_ns, "ns"},
        {"core.interpret_ns", layers.interpret_ns, "ns"},
        {"rts.encode_ns", layers.encode_ns, "ns"},
        {"rts.decode_ns", layers.decode_tuple_ns, "ns"},
        {"core.inject_ns", Fast(inject_ns, false), "ns"},
        {"core.pump_ns", Fast(pump_ns, false), "ns"},
        {"core.flush_ms", Fast(flush_ms, false), "ms"},
        {"core.next_row_ns", Fast(next_row_ns, false), "ns"},
        {"core.add_query_ms", Fast(add_query_ms, false), "ms"},
        {"core.inject_thread_cpu_ns", Fast(inject_cpu_ns, false), "ns"},
        {"core.worker_cpu_ns", Fast(worker_cpu_ns, false), "ns"},
        {"core.worker_parks", Median(parks), "1/pkt"},
        {"rts.source_batch_p50", ledger_median(
                                     &TelemetryLedger::source_batch_p50),
         "count"},
        {"rts.ring_high_water",
         ledger_median(&TelemetryLedger::ring_high_water), "count"},
        {"rts.ring_dropped", ledger_median(&TelemetryLedger::ring_dropped),
         "count"},
        {"ops.filter_pass_frac", Median(filter_pass), "ratio"},
        {"ops.lfta_evict_ratio", Median(evict), "ratio"},
        {"ops.hfta_in_per_pkt", Median(hfta_in), "1/pkt"},
        {"ops.eval_errors", ledger_median(&TelemetryLedger::eval_errors),
         "count"},
        {"udf.regex_ns", layers.regex_ns, "ns"},
        {"driver.gen_late_p99_us", Quantile(late_us, 0.99), "us"},
        {"driver.latency_samples", static_cast<double>(latency_samples),
         "count"},
        {"trace.overhead_frac",
         1.0 - Fast(traced_pps, true) / Fast(pps, true),
         "ratio"},
        {"trace.residual_frac", Median(residual), "ratio"},
        {"wrong_row_frac", wrong_frac, "ratio"},
    };
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
