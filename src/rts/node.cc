#include "rts/node.h"

#include "telemetry/metric_names.h"

namespace gigascope::rts {

namespace metric = telemetry::metric;

size_t QueryNode::PollCounted(size_t budget) {
  const int64_t start_ns = telemetry::MonotonicNowNs();
  size_t processed = Poll(budget);
  if (processed > 0) {
    ++busy_polls_;
    const int64_t dur_ns = telemetry::MonotonicNowNs() - start_ns;
    if (dur_ns > 0) {
      poll_ns_.Record(static_cast<uint64_t>(dur_ns));
      tuple_ns_.Record(static_cast<uint64_t>(dur_ns) / processed);
    }
  }
  return processed;
}

void QueryNode::RegisterTelemetry(telemetry::Registry* metrics) const {
  metrics->Register(name_, metric::kTuplesIn, &tuples_in_);
  metrics->Register(name_, metric::kTuplesOut, &tuples_out_);
  metrics->Register(name_, metric::kEvalErrors, &eval_errors_);
  metrics->Register(name_, metric::kBusyPolls, &busy_polls_);
  metrics->Register(name_, metric::kTraceTruncated, &trace_truncated_);
  metrics->RegisterHistogram(name_, metric::kPollNs, &poll_ns_);
  metrics->RegisterHistogram(name_, metric::kTupleNs, &tuple_ns_);
  if (terminal_) {
    metrics->RegisterHistogram(name_, metric::kE2eLatencyNs, &e2e_ns_);
  }
  for (size_t i = 0; i < inputs_.size(); ++i) {
    RegisterRingTelemetry(metrics, name_,
                          inputs_.size() == 1
                              ? metric::kRingPrefix
                              : metric::kRingPrefix + std::to_string(i),
                          inputs_[i]);
  }
}

void RegisterRingTelemetry(telemetry::Registry* metrics,
                           const std::string& entity,
                           const std::string& prefix,
                           const Subscription& channel) {
  // The closures share ownership of the channel: a registry snapshot stays
  // safe even if the subscription is dropped before the registry.
  metrics->RegisterReader(entity, prefix + metric::kRingPushedSuffix,
                          [channel] { return channel->pushed(); });
  metrics->RegisterReader(entity, prefix + metric::kRingPoppedSuffix,
                          [channel] { return channel->popped(); });
  metrics->RegisterReader(entity, prefix + metric::kRingDroppedSuffix,
                          [channel] { return channel->dropped(); });
  metrics->RegisterReader(entity, prefix + metric::kRingSizeSuffix, [channel] {
    return static_cast<uint64_t>(channel->size());
  });
  metrics->RegisterReader(
      entity, prefix + metric::kRingHighWaterSuffix,
      [channel] { return static_cast<uint64_t>(channel->high_water_mark()); });
  metrics->RegisterHistogram(
      entity, prefix + metric::kRingOccupancySuffix,
      [channel] { return channel->occupancy_histogram().Snapshot(); });
  metrics->RegisterHistogram(
      entity, prefix + metric::kRingBatchSizeSuffix,
      [channel] { return channel->batch_size_histogram().Snapshot(); });
}

}  // namespace gigascope::rts
