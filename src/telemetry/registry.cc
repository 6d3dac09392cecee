#include "telemetry/registry.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/metric_names.h"

namespace gigascope::telemetry {

void Registry::Register(const std::string& entity, const std::string& metric,
                        const Counter* counter) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.entity = entity;
  entry.metric = metric;
  entry.read = [counter] { return counter->value(); };
  entry.counter = counter;
  entries_.push_back(std::move(entry));
}

void Registry::RegisterReader(const std::string& entity,
                              const std::string& metric, Reader reader) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.entity = entity;
  entry.metric = metric;
  entry.read = std::move(reader);
  entries_.push_back(std::move(entry));
}

void Registry::AddHistogramEntries(const std::string& entity,
                                   const std::string& base,
                                   HistogramReader read, int hist_group) {
  struct Stat {
    const char* suffix;
    uint64_t (*get)(const HistogramSnapshot&);
  };
  static const Stat kStats[] = {
      {metric::kP50Suffix,
       [](const HistogramSnapshot& s) { return s.Percentile(0.50); }},
      {metric::kP90Suffix,
       [](const HistogramSnapshot& s) { return s.Percentile(0.90); }},
      {metric::kP99Suffix,
       [](const HistogramSnapshot& s) { return s.Percentile(0.99); }},
      {metric::kMaxSuffix, [](const HistogramSnapshot& s) { return s.max; }},
      {metric::kCountSuffix,
       [](const HistogramSnapshot& s) { return s.TotalInBuckets(); }},
  };
  std::lock_guard<std::mutex> lock(mutex_);
  for (int stat = 0; stat < 5; ++stat) {
    Entry entry;
    entry.entity = entity;
    entry.metric = base + kStats[stat].suffix;
    auto get = kStats[stat].get;
    entry.read = [read, get] { return get(read()); };
    entry.hist_group = hist_group;
    entry.hist_stat = stat;
    entries_.push_back(std::move(entry));
  }
}

void Registry::RegisterHistogram(const std::string& entity,
                                 const std::string& base,
                                 HistogramReader read) {
  AddHistogramEntries(entity, base, std::move(read), -1);
}

void Registry::RegisterHistogram(const std::string& entity,
                                 const std::string& base,
                                 const Histogram* histogram) {
  int group;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    group = static_cast<int>(hist_groups_.size());
    hist_groups_.push_back({entity, histogram});
  }
  AddHistogramEntries(entity, base,
                      [histogram] { return histogram->Snapshot(); }, group);
}

size_t Registry::BindEntityToArena(const std::string& entity,
                                   MetricsArena* arena,
                                   const std::string& proc) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Bind the entity's histograms first: one kHistogramSlots range each, in
  // group order, so entity slot ranges stay contiguous and restart resets
  // can zero [begin, end) wholesale.
  std::vector<size_t> group_base(hist_groups_.size(),
                                 MetricsArena::kInvalidIndex);
  size_t bound = 0;
  for (size_t g = 0; g < hist_groups_.size(); ++g) {
    if (hist_groups_[g].entity != entity) continue;
    const size_t base = arena->Allocate(MetricsArena::kHistogramSlots);
    if (base == MetricsArena::kInvalidIndex) continue;
    hist_groups_[g].histogram->BindCells(&arena->slot(base)->value,
                                         sizeof(MetricSlot));
    group_base[g] = base;
  }
  for (Entry& entry : entries_) {
    if (entry.entity != entity) continue;
    entry.proc = proc;
    ++bound;
    if (entry.hist_group >= 0) {
      const size_t base = group_base[static_cast<size_t>(entry.hist_group)];
      if (base == MetricsArena::kInvalidIndex) continue;
      const int stat = entry.hist_stat;
      entry.read = [arena, base, stat] {
        const HistogramSnapshot s = arena->FoldHistogram(base);
        switch (stat) {
          case 0: return s.Percentile(0.50);
          case 1: return s.Percentile(0.90);
          case 2: return s.Percentile(0.99);
          case 3: return s.max;
          default: return s.TotalInBuckets();
        }
      };
    } else if (entry.counter != nullptr) {
      const size_t index = arena->Allocate(1);
      if (index == MetricsArena::kInvalidIndex) continue;
      entry.counter->BindCell(&arena->slot(index)->value);
      const FoldKind kind = FoldKindForMetric(entry.metric);
      entry.read = [arena, index, kind] {
        return arena->FoldValue(index, kind);
      };
    }
  }
  return bound;
}

size_t Registry::SetEntityProc(const std::string& entity,
                               const std::string& proc) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t tagged = 0;
  for (Entry& entry : entries_) {
    if (entry.entity != entity) continue;
    entry.proc = proc;
    ++tagged;
  }
  return tagged;
}

std::string Registry::EntityProc(const std::string& entity) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& entry : entries_) {
    if (entry.entity == entity) return entry.proc;
  }
  return kProcRts;
}

std::vector<MetricSample> Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    samples.push_back({entry.entity, entry.metric, entry.read(), entry.proc});
  }
  return samples;
}

size_t Registry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

namespace {

std::vector<const MetricSample*> SortedByKey(
    const std::vector<MetricSample>& samples) {
  std::vector<const MetricSample*> sorted;
  sorted.reserve(samples.size());
  for (const MetricSample& sample : samples) sorted.push_back(&sample);
  std::sort(sorted.begin(), sorted.end(),
            [](const MetricSample* a, const MetricSample* b) {
              if (a->entity != b->entity) return a->entity < b->entity;
              if (a->metric != b->metric) return a->metric < b->metric;
              return a->proc < b->proc;
            });
  return sorted;
}

void AppendJsonString(const std::string& value, std::string* out) {
  out->push_back('"');
  for (char c : value) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string FormatMetricsNdjson(const std::vector<MetricSample>& samples) {
  std::vector<const MetricSample*> sorted = SortedByKey(samples);
  std::string out;
  char buf[32];
  for (const MetricSample* sample : sorted) {
    out += "{\"entity\":";
    AppendJsonString(sample->entity, &out);
    out += ",\"metric\":";
    AppendJsonString(sample->metric, &out);
    out += ",\"proc\":";
    AppendJsonString(sample->proc, &out);
    std::snprintf(buf, sizeof(buf), ",\"value\":%llu}\n",
                  static_cast<unsigned long long>(sample->value));
    out += buf;
  }
  return out;
}

}  // namespace gigascope::telemetry
