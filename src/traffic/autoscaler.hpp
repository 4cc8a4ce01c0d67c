// Reactive warm-pool autoscaler.
//
// A periodic sweep task sizes the warm container pool for each traffic
// stream from two reactive signals: an EWMA of the stream's arrival rate
// (warm target = expected arrivals in one prewarm window) and the
// admission backlog depth (queue pressure means the pool is behind).
// Scaling is rate-limited by per-direction cooldowns and a per-sweep step
// cap, so one burst cannot slam the cluster with cold launches and one
// lull cannot drain the pool it will need again a second later.
//
// Safety invariant (pinned by tests): the autoscaler retires only
// containers it launched itself *and* that are warm-idle at retirement
// time. It tracks ownership through the platform observer hooks — a
// container it launched joins the owned set at on_container_ready,
// leaves it at on_attempt_started once an invocation adopts it, and
// destroyed containers leave at on_container_destroyed — so a busy
// container, a runtime replica, a request replica or a standby can never
// be scaled in.
//
// Termination: the sweep rescheduling stops once traffic is quiescent and
// every owned container is retired; a drain-grace hard stop past the
// traffic horizon bounds the simulation even if a run wedges.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "faas/events.hpp"
#include "faas/platform.hpp"
#include "sim/simulator.hpp"
#include "traffic/generator.hpp"

namespace canary::traffic {

/// Minimum gap between two scale-up sweeps of one pool class.
inline constexpr Duration kScaleUpCooldown = Duration::msec(400);

class WarmPoolAutoscaler final : public faas::PlatformObserver {
 public:
  /// Uses `generator.config().autoscaler` and one pool class per traffic
  /// stream. The caller must platform.add_observer(this).
  WarmPoolAutoscaler(sim::Simulator& sim, faas::Platform& platform,
                     TrafficGenerator& generator);

  /// Schedule the first sweep.
  void start();

  /// Every scaling decision, for the invariant tests.
  struct ScaleEvent {
    TimePoint at;
    std::size_t stream = 0;
    unsigned count = 0;
    bool up = false;
  };
  const std::vector<ScaleEvent>& events() const { return events_; }
  /// Containers this autoscaler retired (destroy_warm_container targets).
  const std::vector<ContainerId>& retired() const { return retired_; }

  // PlatformObserver
  void on_container_ready(const faas::Container& c) override;
  void on_attempt_started(const faas::Invocation& inv) override;
  void on_container_destroyed(const faas::Container& c) override;

 private:
  struct PoolClass {
    faas::RuntimeImage image = faas::RuntimeImage::kPython3;
    Bytes memory;
    double ewma_rate_hz = 0.0;
    std::uint64_t last_offered = 0;
    TimePoint last_scale_up = TimePoint::origin();
    TimePoint last_scale_in = TimePoint::origin();
    /// Launched by us, not yet warm.
    std::set<ContainerId> launching;
    /// Launched by us, warm-idle as far as the observer hooks have said.
    std::set<ContainerId> owned_warm;
  };

  void sweep();
  void sweep_class(std::size_t idx);
  void retire_all();

  sim::Simulator& sim_;
  faas::Platform& platform_;
  TrafficGenerator& generator_;
  AutoscalerConfig config_;
  std::vector<PoolClass> classes_;
  std::vector<ScaleEvent> events_;
  std::vector<ContainerId> retired_;
  bool stopped_ = false;

  obs::CounterHandle m_scale_ups_{platform_.metrics(), "autoscaler_scale_ups"};
  obs::CounterHandle m_scale_ins_{platform_.metrics(), "autoscaler_scale_ins"};
  obs::CounterHandle m_launches_{platform_.metrics(),
                                 "autoscaler_containers_launched"};
  obs::CounterHandle m_retirements_{platform_.metrics(),
                                    "autoscaler_containers_retired"};
};

}  // namespace canary::traffic
