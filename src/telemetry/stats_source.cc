#include "telemetry/stats_source.h"

#include <limits>

#include "rts/punctuation.h"

namespace gigascope::telemetry {

using expr::Value;

StatsSource::StatsSource(const Registry* metrics,
                         rts::StreamRegistry* streams)
    : metrics_(metrics),
      schema_(gsql::Catalog::BuiltinStatsSchema()),
      codec_(schema_),
      // No size limit: a snapshot's punctuation closes its one batch.
      writer_(streams, schema_.name(), std::numeric_limits<size_t>::max()) {}

void StatsSource::EmitSnapshot(SimTime now) {
  if (now < last_ts_) now = last_ts_;
  last_ts_ = now;
  const uint64_t seconds = static_cast<uint64_t>(SimTimeToSeconds(now));
  const uint64_t nanos = static_cast<uint64_t>(now);

  rts::Row row(6);
  row[0] = Value::Uint(seconds);
  row[1] = Value::Uint(nanos);
  // One snapshot is one batch (plus the closing punctuation at its tail);
  // a snapshot has a few dozen rows, comfortably within one ring slot.
  for (const MetricSample& sample : metrics_->Snapshot()) {
    row[2] = Value::String(sample.entity);
    row[3] = Value::String(sample.metric);
    row[4] = Value::Uint(sample.value);
    row[5] = Value::String(sample.proc);
    writer_.WriteTuple(codec_, row, rts::MessageMeta{});
  }

  // No tuple of a later snapshot will carry smaller time attributes, so
  // downstream ordered aggregations can close groups up to this bound.
  uint8_t packed[2][8];
  StoreLe64(packed[0], seconds);
  StoreLe64(packed[1], nanos);
  const rts::Bound bounds[] = {{0, packed[0]}, {1, packed[1]}};
  writer_.WritePunctuation(bounds, schema_, rts::MessageMeta{});
  ++snapshots_;
}

}  // namespace gigascope::telemetry
