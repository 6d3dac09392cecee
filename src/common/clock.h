#ifndef GIGASCOPE_COMMON_CLOCK_H_
#define GIGASCOPE_COMMON_CLOCK_H_

#include <cstdint>

namespace gigascope {

/// Simulated time, in nanoseconds since an arbitrary epoch.
using SimTime = int64_t;

constexpr SimTime kNanosPerMicro = 1000;
constexpr SimTime kNanosPerMilli = 1000 * 1000;
constexpr SimTime kNanosPerSecond = 1000 * 1000 * 1000;

/// Converts simulated nanoseconds to whole seconds (the granularity of the
/// GSQL `time` attribute, a 1-second timer per the paper).
constexpr int64_t SimTimeToSeconds(SimTime t) { return t / kNanosPerSecond; }

constexpr SimTime SecondsToSimTime(double seconds) {
  return static_cast<SimTime>(seconds * static_cast<double>(kNanosPerSecond));
}

}  // namespace gigascope

#endif  // GIGASCOPE_COMMON_CLOCK_H_
