#ifndef GIGASCOPE_TELEMETRY_TRACER_H_
#define GIGASCOPE_TELEMETRY_TRACER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "telemetry/counter.h"
#include "telemetry/histogram.h"

namespace gigascope::telemetry {

/// One recorded trace event, in Chrome trace-event terms: a complete span
/// ('X', with duration), an instant ('i'), or thread-name metadata ('M',
/// synthesized at write time from the track names).
struct TraceEvent {
  std::string name;
  char ph = 'X';
  int64_t ts_ns = 0;   // nanoseconds since the tracer's epoch
  int64_t dur_ns = 0;  // 'X' only
  uint32_t tid = 0;    // track: 0 = packet sources, 1+N = node N
  uint64_t trace_id = 0;
};

/// Sampled per-tuple tracing (the profiling face of "use Gigascope to
/// monitor Gigascope"): the inject thread tags 1-in-N packets with a trace
/// id; the trace context rides on every message derived from a
/// tagged one through LFTA pre-aggregation, the rings, and the HFTA
/// operators, and each operator records a span per traced message it
/// processes. The result serializes as Chrome trace-event JSON, loadable
/// in Perfetto (or chrome://tracing): one track per operator node, so a
/// DAG stall shows up as a gap on a timeline instead of a counter delta.
///
/// Sampling is deterministic under the seed — replaying the same injection
/// sequence tags the same packets — which keeps traces reproducible and
/// lets tests assert exact sample counts. Span recording takes a mutex;
/// that is fine for 1-in-N sampled traffic and keeps multi-worker writes
/// simple (the hot, untraced path never touches the tracer).
class Tracer {
 public:
  /// Tag roughly 1 in `sample_period` injections (>= 1; 1 traces all).
  /// Event storage is capped at `max_events`; past it, events drop and are
  /// counted (dropped_events) rather than growing without bound.
  explicit Tracer(uint64_t sample_period, uint64_t seed = 42,
                  size_t max_events = size_t{1} << 20);

  /// Inject-thread side: decides whether this injection is traced.
  /// Returns the assigned trace id (>= 1), or 0 to skip.
  uint64_t SampleInject();

  /// Nanoseconds since the tracer's construction (monotonic clock).
  int64_t NowNs() const;

  /// Names a track for the trace viewer (engine: node names). Setup only.
  void SetTrackName(uint32_t tid, std::string name);

  /// Any thread.
  void RecordInstant(const std::string& name, uint32_t tid,
                     uint64_t trace_id, int64_t ts_ns);
  void RecordSpan(const std::string& name, uint32_t tid, uint64_t trace_id,
                  int64_t start_ns, int64_t end_ns);

  /// Events recorded so far, sorted by (tid, ts) — the order WriteJson
  /// emits, with ts monotone within each track.
  std::vector<TraceEvent> events() const;

  /// Serializes the Chrome trace-event JSON object format:
  /// `{"traceEvents":[...]}` with one event per line, each carrying the
  /// required ph/ts/pid/tid/name keys (ts in microseconds, the unit the
  /// format specifies). Includes one thread_name metadata event per named
  /// track so Perfetto labels the rows.
  void WriteJson(std::ostream& out) const;

  uint64_t sampled() const { return sampled_.value(); }
  const Counter* sampled_counter() const { return &sampled_; }
  uint64_t dropped_events() const { return dropped_events_.value(); }
  const Counter* dropped_events_counter() const { return &dropped_events_; }
  uint64_t sample_period() const { return sample_period_; }

 private:
  const uint64_t sample_period_;
  const size_t max_events_;
  Rng rng_;                 // inject thread only
  uint64_t next_trace_id_ = 1;
  Counter sampled_;         // written by the inject thread
  Counter dropped_events_;  // written under mutex_
  const int64_t epoch_ns_;

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::map<uint32_t, std::string> track_names_;
};

}  // namespace gigascope::telemetry

#endif  // GIGASCOPE_TELEMETRY_TRACER_H_
