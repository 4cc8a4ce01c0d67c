// Wall-clock bridge for the real-execution substrate.
//
// The simulator's spans and metrics are stamped with sim-time TimePoints
// (integer microseconds since run start). The real backend measures with
// CLOCK_MONOTONIC and maps instants into the same TimePoint/Duration
// vocabulary by anchoring an origin at construction, so observability
// code downstream of either substrate sees one clock type and never
// needs to know which kind of time it is looking at.
#pragma once

#include <cstdint>
#include <ctime>

#include "common/time.hpp"

namespace canary::obs {

/// Raw monotonic microseconds (CLOCK_MONOTONIC). Never wall-calendar
/// time: differences are meaningful, absolute values are not.
inline std::int64_t monotonic_usec() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::int64_t>(ts.tv_nsec) / 1'000;
}

/// Monotonic clock anchored at construction; now() yields TimePoints on
/// the same axis the simulator uses (microseconds since origin).
class WallClock {
 public:
  WallClock() : origin_usec_(monotonic_usec()) {}

  TimePoint now() const {
    return TimePoint::from_usec(monotonic_usec() - origin_usec_);
  }

 private:
  std::int64_t origin_usec_;
};

}  // namespace canary::obs
