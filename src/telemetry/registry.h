#ifndef GIGASCOPE_TELEMETRY_REGISTRY_H_
#define GIGASCOPE_TELEMETRY_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/counter.h"
#include "telemetry/histogram.h"

namespace gigascope::telemetry {

/// The owner of a metric's writer. "rts" is the parent process's inject
/// thread (the runtime system the LFTAs are linked into); HFTA workers,
/// threads or forked processes, are "w0", "w1", ... When the parent adopts
/// a worker's nodes, SetEntityProc retags their metrics to "rts".
inline constexpr char kProcRts[] = "rts";

/// One metric reading: the owning entity (a query node, a channel, a packet
/// source, the engine itself), the metric name, the counter value at
/// snapshot time, and the owning process (`proc` — appended last so
/// {entity, metric, value} aggregate initialization keeps working).
struct MetricSample {
  std::string entity;
  std::string metric;
  uint64_t value = 0;
  std::string proc = kProcRts;
};

/// The engine's metric registry: a catalog of per-node and per-channel
/// counters/gauges, snapshotted by the `gs_stats` stream source.
///
/// The hot path — counter updates — never touches the registry: writers
/// update their own relaxed-atomic `Counter`s (see counter.h) and the
/// registry merely remembers how to read them. Registration happens on the
/// control plane (query setup; the engine rejects setup calls while worker
/// threads run), and Snapshot only performs atomic loads, so snapshotting
/// is safe while workers are pumping. The internal entry list is guarded by
/// a mutex purely so registration and snapshots from different control
/// threads cannot race on the vector itself.
///
/// For multi-process mode the registry can move an entity's storage into
/// caller-provided cells (BindCells): counters and histograms registered by
/// pointer then count in a shared mapping the forked worker writes and the
/// parent reads through the same readers, so one registry keeps serving
/// the whole view while workers come, crash, and come back (DESIGN.md
/// §16).
class Registry {
 public:
  /// Reads one metric value; must be callable from any thread (atomic
  /// loads only — never dereference state mutated without atomics).
  using Reader = std::function<uint64_t()>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers a counter owned elsewhere; the counter must outlive every
  /// subsequent Snapshot call. Pointer-registered counters are the ones
  /// BindCells can move into shared memory.
  void Register(const std::string& entity, const std::string& metric,
                const Counter* counter);

  /// Registers a reader-backed gauge. Capture shared ownership (e.g. a
  /// `rts::Subscription`) in the closure when the underlying object can
  /// otherwise die before the registry. Reader-backed entries are never
  /// bound; shm-ring counters read through such closures are already
  /// cross-process (their control block lives in the ring's segment).
  void RegisterReader(const std::string& entity, const std::string& metric,
                      Reader reader);

  /// Takes one histogram snapshot; must be callable from any thread.
  using HistogramReader = std::function<HistogramSnapshot()>;

  /// Registers the derived stats of a histogram as five gauges named
  /// `<base>_p50`, `<base>_p90`, `<base>_p99`, `<base>_max`, and
  /// `<base>_count` (see metric_names.h). Each reading snapshots through
  /// `read`, so like RegisterReader this is safe while the single writer
  /// keeps recording.
  void RegisterHistogram(const std::string& entity, const std::string& base,
                         HistogramReader read);

  /// Raw-pointer convenience; the histogram must outlive every Snapshot.
  /// Pointer-registered histograms are bindable.
  void RegisterHistogram(const std::string& entity, const std::string& base,
                         const Histogram* histogram);

  /// Cells the counters and histograms registered by pointer under
  /// `entity` occupy: one per counter, Histogram::kCells per histogram.
  size_t CellCount(const std::string& entity) const;

  /// Moves the storage of every counter and histogram registered by
  /// pointer under `entity` into `cells`: CellCount(entity) consecutive
  /// zeroed cells that outlive every write and read of those metrics.
  /// Readers are unchanged, since Counter::value() and
  /// Histogram::Snapshot() follow the binding. Control plane only: no
  /// writer may be running on the entity's metrics.
  void BindCells(const std::string& entity, std::atomic<uint64_t>* cells);

  /// Retags every entry of `entity` with `proc` without rebinding storage
  /// (worker adoption: the parent takes over the writer role but the
  /// cells stay where they are).
  size_t SetEntityProc(const std::string& entity, const std::string& proc);

  /// The proc tag of `entity` (its first entry's), or kProcRts when the
  /// entity has no entries.
  std::string EntityProc(const std::string& entity) const;

  /// Point-in-time reading of every registered metric, in registration
  /// order. Values are per-counter atomic reads, not a global atomic cut.
  std::vector<MetricSample> Snapshot() const;

  size_t num_metrics() const;

 private:
  struct Entry {
    std::string entity;
    std::string metric;
    Reader read;
    std::string proc = kProcRts;
  };

  /// A counter or histogram registered by pointer: storage BindCells can
  /// move. Exactly one of the two pointers is set.
  struct Storage {
    std::string entity;
    const Counter* counter = nullptr;
    const Histogram* histogram = nullptr;
  };

  void AddHistogramEntries(const std::string& entity, const std::string& base,
                           HistogramReader read);

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::vector<Storage> storage_;  // registration order
};

/// Renders samples as newline-delimited JSON, one metric per line with
/// stable key order {"entity","metric","proc","value"}, sorted by entity
/// then metric then proc — gsrun's --stats-dump format (DESIGN.md §11).
std::string FormatMetricsNdjson(const std::vector<MetricSample>& samples);

}  // namespace gigascope::telemetry

#endif  // GIGASCOPE_TELEMETRY_REGISTRY_H_
