#ifndef GIGASCOPE_TELEMETRY_STATS_SOURCE_H_
#define GIGASCOPE_TELEMETRY_STATS_SOURCE_H_

#include "common/clock.h"
#include "gsql/catalog.h"
#include "rts/registry.h"
#include "rts/tuple.h"
#include "telemetry/registry.h"

namespace gigascope::telemetry {

/// The built-in `gs_stats` stream source: snapshots the metric registry and
/// publishes one tuple per (entity, metric) onto the `gs_stats` stream,
/// followed by a punctuation advancing the snapshot-time attributes.
///
/// This is how the engine "monitors itself" in the paper's spirit: the
/// stats feed is an ordinary ordered stream, so any GSQL query can select,
/// aggregate, or join the engine's own health data through the normal
/// planner path (e.g. max ring occupancy per node per second).
///
/// Like the packet sources, the stats source is driven by the inject
/// thread (sim-time from packets and heartbeats), never by workers, so the
/// single-producer contract of every `gs_stats` subscriber channel holds.
/// It publishes through a BatchWriter, like every other producer.
class StatsSource {
 public:
  /// `metrics` and `streams` must outlive the source. The `gs_stats`
  /// stream must already be declared in `streams` with BuiltinStatsSchema.
  StatsSource(const Registry* metrics, rts::StreamRegistry* streams);

  /// Emits one snapshot stamped `now` (clamped to be non-decreasing across
  /// calls, so `time`/`ts` honor their INCREASING ordering property), then
  /// a punctuation bounding both time attributes.
  void EmitSnapshot(SimTime now);

  /// The end of a pump round: retries a snapshot's parked punctuation
  /// (BatchWriter::Flush).
  void Flush() { writer_.Flush(); }

  uint64_t snapshots() const { return snapshots_.value(); }
  const Counter* snapshots_counter() const { return &snapshots_; }

 private:
  const Registry* metrics_;
  gsql::StreamSchema schema_;
  rts::TupleCodec codec_;
  rts::BatchWriter writer_;
  Counter snapshots_;
  SimTime last_ts_ = 0;
};

}  // namespace gigascope::telemetry

#endif  // GIGASCOPE_TELEMETRY_STATS_SOURCE_H_
