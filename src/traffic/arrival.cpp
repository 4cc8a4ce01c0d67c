#include "traffic/arrival.hpp"

#include "common/result.hpp"

namespace canary::traffic {

namespace {

/// Exponential gap in sim time; clamped to at least one tick so a stream
/// can never emit two arrivals at the same microsecond (FIFO tiebreak in
/// the simulator would still order them, but distinct instants keep the
/// trace format lossless).
Duration exp_gap(Rng& rng, double rate_hz) {
  const double gap_s = rng.exponential(1.0 / rate_hz);
  const Duration gap = Duration::sec(gap_s);
  return gap > Duration::usec(1) ? gap : Duration::usec(1);
}

class PoissonProcess final : public ArrivalProcess {
 public:
  PoissonProcess(double rate_hz, Rng rng) : rate_(rate_hz), rng_(rng) {}

  std::optional<TimePoint> next(TimePoint now) override {
    if (rate_ <= 0.0) return std::nullopt;
    return now + exp_gap(rng_, rate_);
  }

 private:
  double rate_;
  Rng rng_;
};

/// Two-phase MMPP: dwell times are exponential, arrivals within a phase
/// are Poisson at the phase rate. Crossing a phase boundary redraws the
/// gap — valid because the exponential is memoryless.
class OnOffProcess final : public ArrivalProcess {
 public:
  OnOffProcess(const ArrivalSpec& spec, Rng rng)
      : on_rate_(spec.rate_hz),
        off_rate_(spec.off_rate_hz),
        on_mean_(spec.on_mean),
        off_mean_(spec.off_mean),
        rng_(rng) {
    phase_end_ = TimePoint::origin() + dwell();
  }

  std::optional<TimePoint> next(TimePoint now) override {
    TimePoint cursor = now;
    // Bounded by construction: every off-phase with a zero rate advances
    // the cursor a full dwell, and positive-rate draws terminate with
    // probability one; the iteration cap turns a degenerate spec (both
    // rates zero) into stream exhaustion instead of a spin.
    for (int guard = 0; guard < 1 << 20; ++guard) {
      while (cursor >= phase_end_) advance_phase();
      const double rate = on_ ? on_rate_ : off_rate_;
      if (rate <= 0.0) {
        cursor = phase_end_;
        continue;
      }
      const TimePoint candidate = cursor + exp_gap(rng_, rate);
      if (candidate <= phase_end_) return candidate;
      cursor = phase_end_;
    }
    return std::nullopt;
  }

 private:
  Duration dwell() {
    const Duration mean = on_ ? on_mean_ : off_mean_;
    const Duration d = Duration::sec(rng_.exponential(mean.to_seconds()));
    return d > Duration::usec(1) ? d : Duration::usec(1);
  }

  void advance_phase() {
    on_ = !on_;
    phase_end_ = phase_end_ + dwell();
  }

  double on_rate_;
  double off_rate_;
  Duration on_mean_;
  Duration off_mean_;
  Rng rng_;
  bool on_ = true;
  TimePoint phase_end_;
};

}  // namespace

double ArrivalSpec::mean_rate_hz() const {
  switch (kind) {
    case Kind::kPoisson:
      return rate_hz;
    case Kind::kOnOff: {
      const double on_s = on_mean.to_seconds();
      const double off_s = off_mean.to_seconds();
      if (on_s + off_s <= 0.0) return 0.0;
      return (rate_hz * on_s + off_rate_hz * off_s) / (on_s + off_s);
    }
  }
  return 0.0;
}

std::unique_ptr<ArrivalProcess> make_arrival_process(const ArrivalSpec& spec,
                                                     Rng rng) {
  switch (spec.kind) {
    case ArrivalSpec::Kind::kPoisson:
      return std::make_unique<PoissonProcess>(spec.rate_hz, rng);
    case ArrivalSpec::Kind::kOnOff:
      return std::make_unique<OnOffProcess>(spec, rng);
  }
  CANARY_CHECK(false, "unknown arrival kind");
  return nullptr;
}

}  // namespace canary::traffic
