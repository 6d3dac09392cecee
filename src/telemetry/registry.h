#ifndef GIGASCOPE_TELEMETRY_REGISTRY_H_
#define GIGASCOPE_TELEMETRY_REGISTRY_H_

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/counter.h"
#include "telemetry/histogram.h"
#include "telemetry/shm_arena.h"

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
/// For multi-process mode the registry can rebind an entity's storage into
/// a shared-memory MetricsArena (BindEntityToArena): counters registered by
/// pointer move their cells into arena slots the forked worker writes, and
/// the parent-side readers switch to the arena's restart-monotone folds —
/// so one registry keeps serving the aggregated view while workers come,
/// crash, and come back (DESIGN.md §16).
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
  /// BindEntityToArena can move into shared memory.
  void Register(const std::string& entity, const std::string& metric,
                const Counter* counter);

  /// Registers a reader-backed gauge. Capture shared ownership (e.g. a
  /// `rts::Subscription`) in the closure when the underlying object can
  /// otherwise die before the registry. Reader-backed entries are never
  /// arena-bound; shm-ring counters read through such closures are already
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
  /// Pointer-registered histograms are arena-bindable.
  void RegisterHistogram(const std::string& entity, const std::string& base,
                         const Histogram* histogram);

  /// Moves every bindable metric of `entity` into `arena` slots and tags
  /// the entity's samples with `proc`: counters get one slot each,
  /// histograms a kHistogramSlots range; parent-side readers switch to the
  /// arena's folded (restart-monotone) reads. Control plane only, pre-fork
  /// — no writer may be running on the entity's counters. Slots are
  /// allocated contiguously in registration order, so the caller can
  /// record [arena->allocated() before, after) as the entity range for
  /// restart resets. When the arena runs out of slots the remaining
  /// metrics silently stay heap-backed (arena->exhausted() counts it).
  /// Returns the number of entries retagged (0 when the entity is
  /// unknown).
  size_t BindEntityToArena(const std::string& entity, MetricsArena* arena,
                           const std::string& proc);

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
  /// A histogram registered by pointer: remembered so BindEntityToArena
  /// can move its cells and switch its five stat entries to folded reads.
  struct HistGroup {
    std::string entity;
    const Histogram* histogram;
  };

  struct Entry {
    std::string entity;
    std::string metric;
    Reader read;
    std::string proc = kProcRts;
    const Counter* counter = nullptr;  // set for pointer-registered counters
    int hist_group = -1;               // index into hist_groups_, -1 if none
    int hist_stat = 0;                 // 0=p50 1=p90 2=p99 3=max 4=count
  };

  void AddHistogramEntries(const std::string& entity, const std::string& base,
                           HistogramReader read, int hist_group);

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::vector<HistGroup> hist_groups_;
};

/// Renders samples as newline-delimited JSON, one metric per line with
/// stable key order {"entity","metric","proc","value"}, sorted by entity
/// then metric then proc — gsrun's --stats-dump format (DESIGN.md §11).
std::string FormatMetricsNdjson(const std::vector<MetricSample>& samples);

}  // namespace gigascope::telemetry

#endif  // GIGASCOPE_TELEMETRY_REGISTRY_H_
