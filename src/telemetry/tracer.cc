#include "telemetry/tracer.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"

namespace gigascope::telemetry {

Tracer::Tracer(uint64_t sample_period, uint64_t seed, size_t max_events)
    : sample_period_(sample_period == 0 ? 1 : sample_period),
      max_events_(max_events),
      rng_(seed),
      epoch_ns_(MonotonicNowNs()) {}

uint64_t Tracer::SampleInject() {
  if (rng_.NextBelow(sample_period_) != 0) return 0;
  sampled_.Add(1);
  return next_trace_id_++;
}

int64_t Tracer::NowNs() const { return MonotonicNowNs() - epoch_ns_; }

void Tracer::SetTrackName(uint32_t tid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  track_names_[tid] = std::move(name);
}

void Tracer::RecordInstant(const std::string& name, uint32_t tid,
                           uint64_t trace_id, int64_t ts_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= max_events_) {
    dropped_events_.Add(1);
    return;
  }
  events_.push_back({name, 'i', ts_ns, 0, tid, trace_id});
}

void Tracer::RecordSpan(const std::string& name, uint32_t tid,
                        uint64_t trace_id, int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= max_events_) {
    dropped_events_.Add(1);
    return;
  }
  if (end_ns < start_ns) end_ns = start_ns;
  events_.push_back({name, 'X', start_ns, end_ns - start_ns, tid, trace_id});
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> sorted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sorted = events_;
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_ns < b.ts_ns;
                   });
  return sorted;
}

void Tracer::WriteJson(std::ostream& out) const {
  std::vector<TraceEvent> sorted = events();
  std::map<uint32_t, std::string> tracks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tracks = track_names_;
  }
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char buf[160];
  // Thread-name metadata first: Perfetto uses it to label the per-node rows.
  for (const auto& [tid, name] : tracks) {
    if (!first) out << ",\n";
    first = false;
    std::string line =
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%u", tid);
    line += buf;
    line += ",\"ts\":0,\"args\":{\"name\":";
    line += JsonQuote(name);
    line += "}}";
    out << line;
  }
  for (const TraceEvent& event : sorted) {
    if (!first) out << ",\n";
    first = false;
    std::string line = "{\"ph\":\"";
    line.push_back(event.ph);
    line += "\",\"name\":";
    line += JsonQuote(event.name);
    // The trace-event format counts ts/dur in microseconds; emit fractional
    // µs so nanosecond-scale spans stay distinguishable.
    std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%u,\"ts\":%.3f",
                  event.tid, static_cast<double>(event.ts_ns) / 1000.0);
    line += buf;
    if (event.ph == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                    static_cast<double>(event.dur_ns) / 1000.0);
      line += buf;
    }
    if (event.ph == 'i') line += ",\"s\":\"t\"";
    if (event.trace_id != 0) {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"trace_id\":%llu}",
                    static_cast<unsigned long long>(event.trace_id));
      line += buf;
    }
    line += "}";
    out << line;
  }
  out << "\n]}\n";
}

}  // namespace gigascope::telemetry
