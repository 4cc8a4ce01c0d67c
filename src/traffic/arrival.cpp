#include "traffic/arrival.hpp"

#include <algorithm>
#include <cmath>

#include "common/result.hpp"

namespace canary::traffic {

namespace {

constexpr double kPi = 3.14159265358979323846;

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

/// Sinusoid-modulated Poisson via Lewis-Shedler thinning: candidates are
/// drawn at the peak rate and accepted with probability rate(t)/peak.
class DiurnalProcess final : public ArrivalProcess {
 public:
  DiurnalProcess(const ArrivalSpec& spec, Rng rng)
      : base_(spec.rate_hz),
        amplitude_(std::clamp(spec.amplitude, 0.0, 0.999)),
        period_(spec.period),
        rng_(rng) {}

  std::optional<TimePoint> next(TimePoint now) override {
    if (base_ <= 0.0) return std::nullopt;
    const double peak = base_ * (1.0 + amplitude_);
    TimePoint cursor = now;
    for (int guard = 0; guard < 1 << 20; ++guard) {
      cursor = cursor + exp_gap(rng_, peak);
      const double phase =
          2.0 * kPi * (cursor - TimePoint::origin()).to_seconds() /
          period_.to_seconds();
      const double rate = base_ * (1.0 + amplitude_ * std::sin(phase));
      if (rng_.bernoulli(rate / peak)) return cursor;
    }
    return std::nullopt;
  }

 private:
  double base_;
  double amplitude_;
  Duration period_;
  Rng rng_;
};

class TraceProcess final : public ArrivalProcess {
 public:
  explicit TraceProcess(std::vector<Duration> offsets)
      : offsets_(std::move(offsets)) {
    std::sort(offsets_.begin(), offsets_.end());
  }

  std::optional<TimePoint> next(TimePoint now) override {
    while (index_ < offsets_.size() &&
           TimePoint::origin() + offsets_[index_] <= now) {
      ++index_;
    }
    if (index_ >= offsets_.size()) return std::nullopt;
    return TimePoint::origin() + offsets_[index_++];
  }

 private:
  std::vector<Duration> offsets_;
  std::size_t index_ = 0;
};

}  // namespace

double ArrivalSpec::mean_rate_hz() const {
  switch (kind) {
    case Kind::kPoisson:
    case Kind::kDiurnal:
      // The sinusoid integrates to zero over whole periods.
      return rate_hz;
    case Kind::kOnOff: {
      const double on_s = on_mean.to_seconds();
      const double off_s = off_mean.to_seconds();
      if (on_s + off_s <= 0.0) return 0.0;
      return (rate_hz * on_s + off_rate_hz * off_s) / (on_s + off_s);
    }
    case Kind::kTrace: {
      if (trace.size() < 2) return 0.0;
      const auto [lo, hi] = std::minmax_element(trace.begin(), trace.end());
      const double span_s = (*hi - *lo).to_seconds();
      return span_s > 0.0 ? static_cast<double>(trace.size()) / span_s : 0.0;
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
    case ArrivalSpec::Kind::kDiurnal:
      return std::make_unique<DiurnalProcess>(spec, rng);
    case ArrivalSpec::Kind::kTrace:
      return std::make_unique<TraceProcess>(spec.trace);
  }
  CANARY_CHECK(false, "unknown arrival kind");
  return nullptr;
}

}  // namespace canary::traffic
