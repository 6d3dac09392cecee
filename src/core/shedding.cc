#include "core/shedding.h"

#include "telemetry/metric_names.h"

namespace gigascope::core {

namespace metric = telemetry::metric;

OverloadController::OverloadController(const ShedConfig& config,
                                       rts::ShedState* state)
    : config_(config), state_(state) {
  Actuate(0);
}

bool OverloadController::OverThreshold(const PressureSignals& signals,
                                       double scale) const {
  if (signals.max_ring_occupancy > config_.ring_occupancy * scale) {
    return true;
  }
  // Drops are per-check deltas, not a level: any fresh loss is pressure.
  // Under the recover scale a calm check simply requires zero new drops.
  uint64_t drop_threshold =
      scale >= 1.0 ? config_.drops_per_check : uint64_t{1};
  if (config_.drops_per_check > 0 && new_drops_ >= drop_threshold) {
    return true;
  }
  if (static_cast<double>(signals.max_punct_lag) >
      static_cast<double>(config_.punct_lag) * scale) {
    return true;
  }
  if (signals.max_lfta_occupancy > config_.lfta_occupancy * scale) {
    return true;
  }
  return false;
}

uint32_t OverloadController::Check(const PressureSignals& signals) {
  ++checks_;
  new_drops_ = signals.total_drops - last_drops_;
  last_drops_ = signals.total_drops;

  uint32_t level = state_->Level();
  if (OverThreshold(signals, 1.0)) {
    calm_streak_ = 0;
    if (level < config_.max_level) Actuate(level + 1);
  } else if (!OverThreshold(signals, kRecoverFraction)) {
    // Step down one rung only after hold_checks consecutive calm reads, so
    // a burst that briefly subsides does not oscillate the ladder.
    if (++calm_streak_ >= config_.hold_checks && level > 0) {
      Actuate(level - 1);
      calm_streak_ = 0;
    }
  } else {
    // Between the recover band and the escalate threshold: hold.
    calm_streak_ = 0;
  }
  return state_->Level();
}

void OverloadController::Actuate(uint32_t level) {
  state_->level.store(level, std::memory_order_relaxed);
  state_->sample_k.store(level >= 1 ? kSampleK : 1,
                         std::memory_order_relaxed);
  state_->epoch_coarsen.store(level >= 2 ? kEpochCoarsen : 1,
                              std::memory_order_relaxed);
  state_->table_cap_pct.store(level >= 3 ? kTableCapPct : 100,
                              std::memory_order_relaxed);
}

uint64_t OverloadController::shed_rate_pct() const {
  uint32_t k = state_->SampleK();
  if (k <= 1) return 0;
  return (static_cast<uint64_t>(k) - 1) * 100 / k;
}

void OverloadController::RegisterTelemetry(telemetry::Registry* metrics,
                                           const std::string& entity) const {
  metrics->RegisterReader(entity, metric::kShedLevel, [this] {
    return static_cast<uint64_t>(state_->Level());
  });
  metrics->RegisterReader(entity, metric::kShedRate,
                          [this] { return shed_rate_pct(); });
  metrics->Register(entity, metric::kShedChecks, &checks_);
}

}  // namespace gigascope::core
