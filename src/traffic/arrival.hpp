// Open-loop arrival generation.
//
// Closed-loop benches submit a batch and drain it, so the platform never
// sees sustained pressure. An ArrivalProcess is the open-loop half: it
// produces invocation arrival instants independent of completion times,
// which is what makes overload, queueing delay and warm-pool sizing
// observable at all. Two processes cover the space the traffic benches
// sweep:
//
//   * Poisson        — memoryless arrivals at a constant rate;
//   * on/off (MMPP)  — a two-phase Markov-modulated process: exponential
//                      on/off dwell times, each phase Poisson at its own
//                      rate (bursts with calm valleys).
//
// Every process owns its Rng by value: two processes built from the same
// spec and seed emit byte-identical streams, which is the determinism
// contract the tests pin.
#pragma once

#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace canary::traffic {

/// Value-type description of an arrival process; the config half of the
/// subsystem so harness::ScenarioConfig stays copyable.
struct ArrivalSpec {
  enum class Kind { kPoisson, kOnOff };
  Kind kind = Kind::kPoisson;

  /// Poisson rate; on-phase rate for kOnOff.
  double rate_hz = 10.0;

  // kOnOff: off-phase rate and exponential phase dwell means.
  double off_rate_hz = 0.0;
  Duration on_mean = Duration::sec(2.0);
  Duration off_mean = Duration::sec(2.0);

  /// Long-run mean arrival rate implied by the spec: the analytic
  /// reference of the rate-matching property tests.
  double mean_rate_hz() const;
};

/// A stream of arrival instants. next(now) returns the first arrival
/// strictly after `now`, or nullopt when the stream is exhausted (a zero
/// rate); the generator applies its own horizon.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  virtual std::optional<TimePoint> next(TimePoint now) = 0;
};

/// Build the process described by `spec`, seeded with `rng` (taken by
/// value: the caller keeps its own stream untouched).
std::unique_ptr<ArrivalProcess> make_arrival_process(const ArrivalSpec& spec,
                                                     Rng rng);

}  // namespace canary::traffic
