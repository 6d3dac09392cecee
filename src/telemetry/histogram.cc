#include "telemetry/histogram.h"

#include <limits>

namespace gigascope::telemetry {

uint64_t HistogramSnapshot::TotalInBuckets() const {
  uint64_t total = 0;
  for (uint64_t bucket : buckets) total += bucket;
  return total;
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  uint64_t total = TotalInBuckets();
  if (total == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  // Rank of the target event, 1-based; ceil so p=0.5 of 2 events is the
  // first, matching the "value at or below which p of the mass sits" read.
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(total));
  if (static_cast<double>(rank) < p * static_cast<double>(total)) ++rank;
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return Histogram::BucketUpperBound(i);
  }
  return Histogram::BucketUpperBound(kBuckets - 1);
}

double HistogramSnapshot::Mean() const {
  uint64_t total = TotalInBuckets();
  if (total == 0) return 0;
  return static_cast<double>(sum) / static_cast<double>(total);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  for (int i = 0; i < kBuckets; ++i) {
    snapshot.buckets[i] = buckets_[i].value();
  }
  snapshot.count = count_.value();
  snapshot.sum = sum_.value();
  snapshot.max = max_.value();
  return snapshot;
}

void Histogram::BindCells(std::atomic<uint64_t>* cells) const {
  for (int i = 0; i < kBuckets; ++i) buckets_[i].BindCell(&cells[i]);
  count_.BindCell(&cells[kBuckets]);
  sum_.BindCell(&cells[kBuckets + 1]);
  max_.BindCell(&cells[kBuckets + 2]);
}

uint64_t Histogram::BucketUpperBound(int index) {
  if (index <= 0) return 0;
  if (index >= kBuckets - 1) return std::numeric_limits<uint64_t>::max();
  return (uint64_t{1} << index) - 1;
}

}  // namespace gigascope::telemetry
