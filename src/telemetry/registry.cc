#include "telemetry/registry.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "telemetry/metric_names.h"

namespace gigascope::telemetry {

void Registry::Register(const std::string& entity, const std::string& metric,
                        const Counter* counter) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.entity = entity;
  entry.metric = metric;
  entry.read = [counter] { return counter->value(); };
  entries_.push_back(std::move(entry));
  storage_.push_back({entity, counter, nullptr});
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
                                   HistogramReader read) {
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
    entries_.push_back(std::move(entry));
  }
}

void Registry::RegisterHistogram(const std::string& entity,
                                 const std::string& base,
                                 HistogramReader read) {
  AddHistogramEntries(entity, base, std::move(read));
}

void Registry::RegisterHistogram(const std::string& entity,
                                 const std::string& base,
                                 const Histogram* histogram) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    storage_.push_back({entity, nullptr, histogram});
  }
  AddHistogramEntries(entity, base,
                      [histogram] { return histogram->Snapshot(); });
}

size_t Registry::CellCount(const std::string& entity) const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t cells = 0;
  for (const Storage& storage : storage_) {
    if (storage.entity != entity) continue;
    cells += storage.counter != nullptr ? 1 : Histogram::kCells;
  }
  return cells;
}

void Registry::BindCells(const std::string& entity,
                         std::atomic<uint64_t>* cells) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Storage& storage : storage_) {
    if (storage.entity != entity) continue;
    if (storage.counter != nullptr) {
      storage.counter->BindCell(cells);
      cells += 1;
    } else {
      storage.histogram->BindCells(cells);
      cells += Histogram::kCells;
    }
  }
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

}  // namespace

std::string FormatMetricsNdjson(const std::vector<MetricSample>& samples) {
  std::vector<const MetricSample*> sorted = SortedByKey(samples);
  std::string out;
  char buf[32];
  for (const MetricSample* sample : sorted) {
    out += "{\"entity\":";
    out += JsonQuote(sample->entity);
    out += ",\"metric\":";
    out += JsonQuote(sample->metric);
    out += ",\"proc\":";
    out += JsonQuote(sample->proc);
    std::snprintf(buf, sizeof(buf), ",\"value\":%llu}\n",
                  static_cast<unsigned long long>(sample->value));
    out += buf;
  }
  return out;
}

}  // namespace gigascope::telemetry
