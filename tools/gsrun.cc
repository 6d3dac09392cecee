// gsrun — run GSQL queries over a pcap capture file.
//
// The offline companion to the live engine: every query in the program is
// compiled exactly as it would be for live capture (LFTA/HFTA split and
// all); packets from the trace replay through the interface, and each
// query's output stream prints as tab-separated rows.
//
// Usage:
//   gsrun [options] QUERIES.gsql CAPTURE.pcap [interface-name]
//
// The interface name (default "eth0") is what `FROM <iface>.PKT` in the
// queries must reference. With --threads=N the HFTA nodes run on a worker
// pool while the replay thread drives interpretation and the LFTAs. With
// --stats-period=S the engine emits its self-telemetry onto the built-in
// `gs_stats` stream every S seconds of capture time, so queries in the
// program can aggregate the engine's own health feed.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/engine.h"
#include "gsql/parser.h"
#include "net/pcap.h"
#include "telemetry/http_export.h"
#include "telemetry/registry.h"

namespace {

using gigascope::core::Engine;
using gigascope::core::EngineOptions;
using gigascope::core::TupleSubscription;

/// SIGINT/SIGTERM request a graceful stop: the replay loop breaks, then
/// the normal epilogue runs — FlushAll, row printing, a final stats dump,
/// and a properly closed trace JSON (a hard exit used to truncate it into
/// an unloadable file). A second signal takes the default action (die).
volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int sig) {
  g_stop_requested = 1;
  std::signal(sig, SIG_DFL);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: gsrun [options] QUERIES.gsql CAPTURE.pcap [interface]\n"
      "\n"
      "  QUERIES.gsql      GSQL program: CREATE statements and queries\n"
      "  CAPTURE.pcap      pcap trace replayed through the interface\n"
      "  interface         interface name bound to `FROM <iface>.PKT`\n"
      "                    (default: eth0)\n"
      "\n"
      "options:\n"
      "  --threads=N       run HFTA nodes on N worker threads; the replay\n"
      "                    thread keeps interpretation and the LFTAs\n"
      "                    (default: 0, fully single-threaded)\n"
      "  --processes=N     run HFTA nodes in N supervised worker\n"
      "                    processes over shared-memory rings; crashed or\n"
      "                    hung workers are restarted with backoff and\n"
      "                    resynchronize at the next punctuation (default:\n"
      "                    0, no extra processes)\n"
      "  --fault=SPEC      inject one deterministic fault (testing):\n"
      "                    abort:worker=W,after=N[,jitter=J,seed=S]\n"
      "                    stall:worker=W,after=N[,ms=D]\n"
      "                    torn:stream=NAME[,nth=K]\n"
      "  --stats-period=S  emit engine telemetry on the built-in gs_stats\n"
      "                    stream every S seconds of capture time (S may\n"
      "                    be fractional); queries can SELECT ... FROM\n"
      "                    gs_stats (default: off)\n"
      "  --stats-dump      after the run, print every telemetry counter\n"
      "                    on stderr as NDJSON, one metric per line with\n"
      "                    stable key order {\"entity\",\"metric\",\"proc\",\n"
      "                    \"value\"} (schema: DESIGN.md §11)\n"
      "  --analyze         after the run, print EXPLAIN ANALYZE on stderr:\n"
      "                    each query's compiled plan annotated with actual\n"
      "                    tuple counts, poll/tuple timings, ring health,\n"
      "                    and process placement with restart counts\n"
      "  --analyze-out=FILE\n"
      "                    write EXPLAIN ANALYZE as JSON to FILE\n"
      "  --metrics-port=N  serve live metrics over HTTP on 127.0.0.1:N\n"
      "                    while the run replays: GET /metrics returns\n"
      "                    Prometheus text exposition, GET /analyze the\n"
      "                    EXPLAIN ANALYZE JSON (N=0 picks a free port,\n"
      "                    printed on stderr)\n"
      "  --batch-size=N    accumulate up to N tuples per source batch\n"
      "                    before publishing into the data plane; 1\n"
      "                    restores per-tuple flow (default: 64)\n"
      "  --batch-delay=S   flush an open source batch once it is S seconds\n"
      "                    of capture time old, bounding batching latency\n"
      "                    (S may be fractional; default: 0, no age flush)\n"
      "  --trace-sample=N  tag 1-in-N injected packets and trace them\n"
      "                    through every operator (default: off)\n"
      "  --trace-out=FILE  write the collected trace as Chrome trace-event\n"
      "                    JSON to FILE after the run; load it in Perfetto\n"
      "                    or chrome://tracing (implies --trace-sample=128\n"
      "                    unless given)\n"
      "  --shed            enable closed-loop overload management: the\n"
      "                    engine reads its own telemetry and walks the\n"
      "                    shedding ladder (1-in-k source sampling with\n"
      "                    unbiased COUNT/SUM scaling, coarser LFTA epochs,\n"
      "                    bounded LFTA tables) under pressure, stepping\n"
      "                    back down with hysteresis once load subsides;\n"
      "                    shed_level/shed_rate/shed_tuples appear in\n"
      "                    gs_stats (default: off)\n"
      "  --shed-thresholds=RING,LAG,OCC\n"
      "                    escalation thresholds: RING = fraction of the\n"
      "                    fullest ring occupied, LAG = punctuation\n"
      "                    staleness in seconds (fractional ok), OCC =\n"
      "                    fraction of LFTA table slots open (default:\n"
      "                    0.5,2,0.9; implies --shed)\n"
      "  --help            this text\n");
  return 2;
}

int UnknownFlag(const char* flag) {
  std::fprintf(stderr, "gsrun: unknown or malformed option '%s'\n\n", flag);
  return Usage();
}

/// Parses "--name=<number>"; false when the value is missing or not a
/// clean non-negative number.
bool ParseNumericFlag(const char* arg, const char* prefix, double* out) {
  size_t len = std::strlen(prefix);
  if (std::strncmp(arg, prefix, len) != 0) return false;
  const char* value = arg + len;
  if (*value == '\0') return false;
  char* end = nullptr;
  double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || parsed < 0) return false;
  *out = parsed;
  return true;
}

/// Parses "--shed-thresholds=RING,LAG,OCC": exactly three clean
/// non-negative numbers, comma-separated.
bool ParseShedThresholds(const char* arg, double* ring, double* lag,
                         double* occ) {
  constexpr const char kPrefix[] = "--shed-thresholds=";
  size_t len = sizeof(kPrefix) - 1;
  if (std::strncmp(arg, kPrefix, len) != 0) return false;
  const char* value = arg + len;
  double* slots[] = {ring, lag, occ};
  for (size_t i = 0; i < 3; ++i) {
    char* end = nullptr;
    double parsed = std::strtod(value, &end);
    if (end == value || parsed < 0) return false;
    *slots[i] = parsed;
    value = end;
    if (i < 2) {
      if (*value != ',') return false;
      ++value;
    }
  }
  return *value == '\0';
}

void PrintHeader(const gigascope::gsql::StreamSchema& schema) {
  std::printf("== %s (", schema.name().c_str());
  for (size_t f = 0; f < schema.num_fields(); ++f) {
    if (f > 0) std::printf(", ");
    std::printf("%s", schema.field(f).name.c_str());
  }
  std::printf(") ==\n");
}

}  // namespace

int main(int argc, char** argv) {
  size_t threads = 0;
  size_t processes = 0;
  std::string fault_spec;
  double stats_period_seconds = 0;
  size_t batch_size = 64;
  double batch_delay_seconds = 0;
  bool stats_dump = false;
  bool analyze = false;
  std::string analyze_out;
  int metrics_port = -1;  // -1 = off; 0 = pick an ephemeral port
  size_t trace_sample = 0;
  std::string trace_out;
  bool shed = false;
  double shed_ring = 0.5;
  double shed_lag_seconds = 2.0;
  double shed_occ = 0.9;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      // Strict: every '--' argument must be a known flag with a
      // well-formed value; anything else is an error, not a file name.
      double parsed = 0;
      if (ParseNumericFlag(argv[i], "--threads=", &parsed) &&
          parsed == static_cast<size_t>(parsed)) {
        threads = static_cast<size_t>(parsed);
      } else if (ParseNumericFlag(argv[i], "--processes=", &parsed) &&
                 parsed == static_cast<size_t>(parsed)) {
        processes = static_cast<size_t>(parsed);
      } else if (std::strncmp(argv[i], "--fault=",
                              sizeof("--fault=") - 1) == 0) {
        fault_spec = argv[i] + sizeof("--fault=") - 1;
        if (fault_spec.empty()) return UnknownFlag(argv[i]);
      } else if (ParseNumericFlag(argv[i], "--stats-period=", &parsed)) {
        stats_period_seconds = parsed;
      } else if (ParseNumericFlag(argv[i], "--batch-size=", &parsed) &&
                 parsed == static_cast<size_t>(parsed) && parsed >= 1) {
        batch_size = static_cast<size_t>(parsed);
      } else if (ParseNumericFlag(argv[i], "--batch-delay=", &parsed)) {
        batch_delay_seconds = parsed;
      } else if (ParseNumericFlag(argv[i], "--trace-sample=", &parsed) &&
                 parsed == static_cast<size_t>(parsed) && parsed >= 1) {
        trace_sample = static_cast<size_t>(parsed);
      } else if (std::strncmp(argv[i], "--trace-out=",
                              sizeof("--trace-out=") - 1) == 0) {
        trace_out = argv[i] + sizeof("--trace-out=") - 1;
        if (trace_out.empty()) return UnknownFlag(argv[i]);
      } else if (std::strcmp(argv[i], "--stats-dump") == 0) {
        stats_dump = true;
      } else if (std::strcmp(argv[i], "--analyze") == 0) {
        analyze = true;
      } else if (std::strncmp(argv[i], "--analyze-out=",
                              sizeof("--analyze-out=") - 1) == 0) {
        analyze_out = argv[i] + sizeof("--analyze-out=") - 1;
        if (analyze_out.empty()) return UnknownFlag(argv[i]);
      } else if (ParseNumericFlag(argv[i], "--metrics-port=", &parsed) &&
                 parsed == static_cast<size_t>(parsed) && parsed <= 65535) {
        metrics_port = static_cast<int>(parsed);
      } else if (std::strcmp(argv[i], "--shed") == 0) {
        shed = true;
      } else if (ParseShedThresholds(argv[i], &shed_ring, &shed_lag_seconds,
                                     &shed_occ)) {
        shed = true;
      } else if (std::strcmp(argv[i], "--help") == 0) {
        return Usage();
      } else {
        return UnknownFlag(argv[i]);
      }
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 2 || positional.size() > 3) return Usage();
  const std::string gsql_path = positional[0];
  const std::string pcap_path = positional[1];
  const std::string interface_name =
      positional.size() > 2 ? positional[2] : "eth0";

  std::ifstream file(gsql_path);
  if (!file) {
    std::fprintf(stderr, "gsrun: cannot open %s\n", gsql_path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string source = buffer.str();

  EngineOptions options;
  if (stats_period_seconds > 0) {
    options.stats_period = gigascope::SecondsToSimTime(stats_period_seconds);
  }
  options.batch_max_size = batch_size;
  if (batch_delay_seconds > 0) {
    options.batch_max_delay = gigascope::SecondsToSimTime(batch_delay_seconds);
  }
  // Asking for a trace file without a sampling rate still traces: pick a
  // rate light enough to leave the hot path alone on real captures.
  if (!trace_out.empty() && trace_sample == 0) trace_sample = 128;
  options.trace_sample = trace_sample;
  if (shed) {
    options.shed.enabled = true;
    options.shed.ring_occupancy = shed_ring;
    options.shed.punct_lag = gigascope::SecondsToSimTime(shed_lag_seconds);
    options.shed.lfta_occupancy = shed_occ;
  }
  if (threads > 0 && processes > 0) {
    std::fprintf(stderr,
                 "gsrun: --threads and --processes are exclusive pump "
                 "modes\n");
    return 1;
  }
  if (!fault_spec.empty()) {
    auto fault = gigascope::core::ParseFaultSpec(fault_spec);
    if (!fault.ok()) {
      std::fprintf(stderr, "gsrun: %s\n", fault.status().ToString().c_str());
      return 1;
    }
    if (processes == 0) {
      std::fprintf(stderr, "gsrun: --fault needs --processes=N\n");
      return 1;
    }
    options.fault = std::move(fault).value();
  }
  Engine engine(options);
  engine.AddInterface(interface_name);

  // Route each statement: CREATE -> DDL, queries -> AddQuery.
  auto program = gigascope::gsql::Parse(source);
  if (!program.ok()) {
    std::fprintf(stderr, "gsrun: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }
  struct Output {
    std::string name;
    std::unique_ptr<TupleSubscription> subscription;
  };
  std::vector<Output> outputs;

  // AddQuery/ExecuteDdl want one statement at a time; split the source on
  // top-level semicolons (strings are the only construct that may contain
  // ';'). The whole-program parse above already validated the syntax.
  std::vector<std::string> statements;
  std::string current;
  bool in_string = false;
  int brace_depth = 0;  // DEFINE { ... } blocks contain ';' entries
  for (size_t i = 0; i < source.size(); ++i) {
    char c = source[i];
    if (c == '\'') in_string = !in_string;
    if (!in_string) {
      if (c == '{') ++brace_depth;
      if (c == '}') --brace_depth;
    }
    if (c == ';' && !in_string && brace_depth == 0) {
      statements.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (current.find_first_not_of(" \t\r\n") != std::string::npos) {
    statements.push_back(current);
  }

  for (const std::string& statement_text : statements) {
    size_t begin = statement_text.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos) continue;
    // DDL statements register schemas; everything else is a query.
    if (statement_text.compare(begin, 6, "CREATE") == 0 ||
        statement_text.compare(begin, 6, "create") == 0) {
      gigascope::Status ddl = engine.ExecuteDdl(statement_text);
      if (!ddl.ok()) {
        std::fprintf(stderr, "gsrun: %s\n", ddl.ToString().c_str());
        return 1;
      }
      continue;
    }
    auto info = engine.AddQuery(statement_text);
    if (!info.ok()) {
      std::fprintf(stderr, "gsrun: %s\nwhile compiling:%s\n",
                   info.status().ToString().c_str(),
                   statement_text.c_str());
      return 1;
    }
    auto subscription = engine.Subscribe(info->name, 1 << 20);
    if (!subscription.ok()) {
      std::fprintf(stderr, "gsrun: %s\n",
                   subscription.status().ToString().c_str());
      return 1;
    }
    outputs.push_back({info->name, std::move(subscription).value()});
  }
  if (outputs.empty()) {
    std::fprintf(stderr, "gsrun: no queries in %s\n", gsql_path.c_str());
    return 1;
  }

  gigascope::net::PcapReader reader;
  gigascope::Status status = reader.Open(pcap_path);
  if (!status.ok()) {
    std::fprintf(stderr, "gsrun: %s\n", status.ToString().c_str());
    return 1;
  }
  if (threads > 0) {
    gigascope::Status started = engine.StartThreads(threads);
    if (!started.ok()) {
      std::fprintf(stderr, "gsrun: %s\n", started.ToString().c_str());
      return 1;
    }
  }
  if (processes > 0) {
    gigascope::Status started = engine.StartProcesses(processes);
    if (!started.ok()) {
      std::fprintf(stderr, "gsrun: %s\n", started.ToString().c_str());
      return 1;
    }
  }
  // Live observability endpoint: a scraper can hit /metrics (Prometheus
  // text) and /analyze (EXPLAIN ANALYZE JSON) while the replay pumps.
  // Started after the pump mode so the handlers see settled placement.
  gigascope::telemetry::MetricsHttpServer metrics_server;
  if (metrics_port >= 0) {
    gigascope::telemetry::MetricsHttpServer::Handlers handlers;
    handlers.metrics = [&engine]() {
      return gigascope::telemetry::FormatPrometheus(
          engine.telemetry().Snapshot());
    };
    handlers.analyze = [&engine]() { return engine.AnalyzeJson(); };
    gigascope::Status started = metrics_server.Start(
        static_cast<uint16_t>(metrics_port), handlers);
    if (!started.ok()) {
      std::fprintf(stderr, "gsrun: %s\n", started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "gsrun: metrics on http://127.0.0.1:%u/metrics\n",
                 static_cast<unsigned>(metrics_server.port()));
  }
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  gigascope::net::Packet packet;
  bool eof = false;
  uint64_t replayed = 0;
  while (!g_stop_requested && reader.Next(&packet, &eof).ok() && !eof) {
    engine.InjectPacket(interface_name, packet).ok();
    ++replayed;
    if (replayed % 1024 == 0) engine.PumpUntilIdle();
  }
  if (g_stop_requested) {
    std::fprintf(stderr,
                 "gsrun: interrupted — stopping workers, flushing, and "
                 "writing final output\n");
  }
  engine.PumpUntilIdle();
  engine.FlushAll();
  std::fprintf(stderr, "gsrun: replayed %llu packets from %s\n",
               static_cast<unsigned long long>(replayed),
               pcap_path.c_str());

  for (Output& output : outputs) {
    PrintHeader(output.subscription->schema());
    uint64_t rows = 0;
    while (auto row = output.subscription->NextRow()) {
      for (size_t f = 0; f < row->size(); ++f) {
        if (f > 0) std::printf("\t");
        std::printf("%s", (*row)[f].ToString().c_str());
      }
      std::printf("\n");
      ++rows;
    }
    std::fprintf(stderr, "gsrun: %s: %llu rows\n", output.name.c_str(),
                 static_cast<unsigned long long>(rows));
  }
  if (stats_dump) {
    std::string ndjson = gigascope::telemetry::FormatMetricsNdjson(
        engine.telemetry().Snapshot());
    std::fprintf(stderr, "%s", ndjson.c_str());
  }
  if (analyze) {
    std::string report = engine.AnalyzeText();
    std::fprintf(stderr, "%s", report.c_str());
  }
  if (!analyze_out.empty()) {
    std::ofstream analyze_file(analyze_out);
    if (!analyze_file) {
      std::fprintf(stderr, "gsrun: cannot write %s\n", analyze_out.c_str());
      return 1;
    }
    analyze_file << engine.AnalyzeJson() << "\n";
    std::fprintf(stderr, "gsrun: wrote EXPLAIN ANALYZE JSON to %s\n",
                 analyze_out.c_str());
  }
  metrics_server.Stop();
  if (!trace_out.empty() && engine.tracer() != nullptr) {
    std::ofstream trace_file(trace_out);
    if (!trace_file) {
      std::fprintf(stderr, "gsrun: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    engine.tracer()->WriteJson(trace_file);
    std::fprintf(stderr,
                 "gsrun: wrote %llu traced packets to %s "
                 "(open in https://ui.perfetto.dev)\n",
                 static_cast<unsigned long long>(
                     engine.tracer()->sampled()),
                 trace_out.c_str());
  }
  return 0;
}
