// Interface between the controller's failure detector and the fault
// injector's network model.
//
// Heartbeats travel from workers to the controller's failure detector;
// a congested or partitioned control-plane link delays or drops them,
// which is how false suspicions (delayed heartbeat, live worker) and
// slow detections happen in real clusters. The detector consults this
// provider once per heartbeat; FailureInjector implements it with seeded
// deterministic fault windows.
#pragma once

#include <optional>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace canary::failure {

class HeartbeatFaultProvider {
 public:
  virtual ~HeartbeatFaultProvider() = default;
  /// Delivery delay for the heartbeat `node` sends at `send_time`:
  /// Duration::zero() for normal delivery, a positive delay for a slow
  /// link, or std::nullopt when the heartbeat is dropped outright.
  virtual std::optional<Duration> heartbeat_delay(NodeId node,
                                                  TimePoint send_time) = 0;
};

}  // namespace canary::failure
