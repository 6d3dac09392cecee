#ifndef GIGASCOPE_CORE_SHEDDING_H_
#define GIGASCOPE_CORE_SHEDDING_H_

#include <cstdint>

#include "common/clock.h"
#include "rts/shed_state.h"
#include "telemetry/counter.h"
#include "telemetry/registry.h"

namespace gigascope::core {

// -- The shedding ladder's constants ----------------------------------------
/// A check counts as calm only when every signal sits below its threshold
/// scaled by this fraction (and no new drops happened).
inline constexpr double kRecoverFraction = 0.5;
/// L1: keep 1 packet in kSampleK at the source; COUNT/SUM scale by k.
inline constexpr uint32_t kSampleK = 4;
/// L2: drain LFTA epochs only every kEpochCoarsen ordered-key advances.
inline constexpr uint32_t kEpochCoarsen = 4;
/// L3: LFTA occupancy cap, percent of slots; coldest groups beyond it are
/// force-evicted as partials.
inline constexpr uint32_t kTableCapPct = 50;

/// Thresholds and ladder parameters of the overload controller.
///
/// The controller compares the engine's own telemetry against these
/// thresholds once per `check_period` of injected time and walks the
/// shedding ladder one rung at a time: escalate immediately on pressure,
/// step down only after `hold_checks` consecutive calm readings (all
/// signals below threshold * kRecoverFraction) — the hysteresis that keeps
/// a transient burst from flapping the fidelity knobs.
struct ShedConfig {
  /// Master switch; when false the engine never runs pressure checks and
  /// the hot path pays only one relaxed load per packet.
  bool enabled = false;

  /// Injected-time period between pressure evaluations.
  SimTime check_period = kNanosPerSecond / 4;

  // -- Pressure thresholds (any one over => escalate one level) -------------
  /// Fraction of ring slots occupied on the fullest subscriber channel.
  double ring_occupancy = 0.5;
  /// New ring drops observed since the previous check (messages).
  uint64_t drops_per_check = 1;
  /// Injected time since a source last emitted a punctuation.
  SimTime punct_lag = 2 * kNanosPerSecond;
  /// Fraction of LFTA table slots holding open groups.
  double lfta_occupancy = 0.9;

  // -- Hysteresis -----------------------------------------------------------
  /// Consecutive calm checks required before stepping down one level.
  uint32_t hold_checks = 3;

  // -- Ladder actuation -----------------------------------------------------
  uint32_t max_level = 3;
};

/// One pressure reading, assembled by the engine from its telemetry.
struct PressureSignals {
  double max_ring_occupancy = 0;  // fraction of the fullest ring
  uint64_t total_drops = 0;       // cumulative messages dropped, all rings
  SimTime max_punct_lag = 0;      // worst source punctuation staleness
  double max_lfta_occupancy = 0;  // fraction of the fullest LFTA table
};

/// The closed loop: reads PressureSignals, walks the shedding ladder with
/// hysteresis, and actuates through the shared rts::ShedState that the
/// inject path and the LFTA operators read. Single-threaded: Check runs on
/// the inject thread only (the same thread that owns the actuated paths);
/// the exported gauges are readable from any thread.
class OverloadController {
 public:
  OverloadController(const ShedConfig& config, rts::ShedState* state);

  /// Evaluates one pressure reading; escalates, holds, or steps down, and
  /// actuates the new level. Returns the level now in force.
  uint32_t Check(const PressureSignals& signals);

  uint32_t level() const { return state_->Level(); }
  uint64_t checks() const { return checks_.value(); }

  /// Percent of offered packets the current level sheds at the source.
  uint64_t shed_rate_pct() const;

  /// Exports shed_level / shed_rate / shed_checks gauges under `entity`.
  void RegisterTelemetry(telemetry::Registry* metrics,
                         const std::string& entity) const;

  const ShedConfig& config() const { return config_; }

 private:
  /// Whether `signals` breach any threshold at scale 1.0 (escalate) or sit
  /// fully below scale kRecoverFraction (calm).
  bool OverThreshold(const PressureSignals& signals, double scale) const;
  void Actuate(uint32_t level);

  ShedConfig config_;
  rts::ShedState* state_;
  uint64_t last_drops_ = 0;   // drop counter at the previous check
  uint64_t new_drops_ = 0;    // drops seen by the latest check
  uint32_t calm_streak_ = 0;  // consecutive calm checks (hysteresis)
  telemetry::Counter checks_;
};

}  // namespace gigascope::core

#endif  // GIGASCOPE_CORE_SHEDDING_H_
