#ifndef GIGASCOPE_TELEMETRY_HISTOGRAM_H_
#define GIGASCOPE_TELEMETRY_HISTOGRAM_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "telemetry/counter.h"

namespace gigascope::telemetry {

/// A point-in-time reading of a Histogram, safe to take from any thread.
///
/// Per-bucket values are individually torn-free (relaxed atomic loads), not
/// a global atomic cut: while the writer runs, `count`/`sum` may lag the
/// buckets by a few events. Percentile() therefore derives its total from
/// the buckets themselves, so a snapshot is always self-consistent.
struct HistogramSnapshot {
  static constexpr int kBuckets = 64;
  uint64_t buckets[kBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  /// Total events according to the buckets (the percentile base).
  uint64_t TotalInBuckets() const;

  /// Value at quantile `p` in [0, 1]: the inclusive upper bound of the
  /// bucket where the cumulative count crosses ceil(p * total), so the
  /// answer is conservative (never under-reports). 0 when empty. Exact
  /// when every recorded value sits on a bucket upper bound (0, 1, 3, 7,
  /// ..., 2^k - 1).
  uint64_t Percentile(double p) const;

  /// Mean of recorded values (0 when empty).
  double Mean() const;
};

/// A lock-free latency/size histogram with logarithmic (power-of-two)
/// buckets: bucket 0 holds the value 0, bucket i (1 <= i <= 62) holds
/// [2^(i-1), 2^i - 1], and bucket 63 holds everything >= 2^62.
///
/// Same contract as Counter: exactly one thread records (the owning node's
/// polling thread, a ring's producer, the inject thread); any thread may
/// snapshot. Record is a handful of relaxed load+store pairs and one
/// bit_width — no RMW, no bus-locked instruction — so it is safe on the
/// per-tuple hot path (bench/micro_histogram measures the cost against a
/// plain Counter).
class Histogram {
 public:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Writer side. Single writer only.
  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].Add(1);
    count_.Add(1);
    sum_.Add(value);
    max_.Max(value);
  }

  /// Reader side: any thread.
  HistogramSnapshot Snapshot() const;

  uint64_t count() const { return count_.value(); }
  uint64_t max() const { return max_.value(); }

  /// Cells a bound histogram occupies: 64 buckets, count, sum, max.
  static constexpr size_t kCells = kBuckets + 3;

  /// Redirects the kCells internal counters into `cells[0..kCells)`.
  /// Same contract as Counter::BindCell: control plane only, current
  /// values carry over.
  void BindCells(std::atomic<uint64_t>* cells) const;

  /// Bucket index of `value` (0..63).
  static int BucketIndex(uint64_t value) {
    int width = std::bit_width(value);  // 0 for value 0
    return width < kBuckets ? width : kBuckets - 1;
  }

  /// Inclusive upper bound of bucket `index`; the value Percentile reports.
  static uint64_t BucketUpperBound(int index);

 private:
  Counter buckets_[kBuckets];
  Counter count_;
  Counter sum_;
  Counter max_;
};

/// Nanoseconds on the monotonic clock — span timing and latency histograms
/// measure real elapsed time, unlike the sim-time driving query semantics.
inline int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace gigascope::telemetry

#endif  // GIGASCOPE_TELEMETRY_HISTOGRAM_H_
