#include "telemetry/stats_source.h"

#include "rts/punctuation.h"

namespace gigascope::telemetry {

using expr::Value;

StatsSource::StatsSource(const Registry* metrics,
                         rts::StreamRegistry* streams)
    : metrics_(metrics),
      streams_(streams),
      schema_(gsql::Catalog::BuiltinStatsSchema()),
      codec_(schema_) {}

void StatsSource::EmitSnapshot(SimTime now) {
  if (now < last_ts_) now = last_ts_;
  last_ts_ = now;
  const uint64_t seconds = static_cast<uint64_t>(SimTimeToSeconds(now));
  const uint64_t nanos = static_cast<uint64_t>(now);
  const std::string& stream = schema_.name();

  rts::Row row(6);
  row[0] = Value::Uint(seconds);
  row[1] = Value::Uint(nanos);
  // One snapshot is one batch (plus the closing punctuation at its tail);
  // a snapshot has a few dozen rows, comfortably within one ring slot.
  rts::StreamBatch batch;
  for (const MetricSample& sample : metrics_->Snapshot()) {
    row[2] = Value::String(sample.entity);
    row[3] = Value::String(sample.metric);
    row[4] = Value::Uint(sample.value);
    row[5] = Value::String(sample.proc);
    batch.AppendTuple(codec_, row);
  }

  // No tuple of a later snapshot will carry smaller time attributes, so
  // downstream ordered aggregations can close groups up to this bound.
  uint8_t packed[2][8];
  StoreLe64(packed[0], seconds);
  StoreLe64(packed[1], nanos);
  const rts::Bound bounds[] = {{0, packed[0]}, {1, packed[1]}};
  rts::AppendPunctuation(bounds, schema_, rts::MessageMeta{}, &batch);
  streams_->PublishBatch(stream, std::move(batch));
  ++snapshots_;
}

}  // namespace gigascope::telemetry
