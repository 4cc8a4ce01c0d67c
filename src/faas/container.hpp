// Container lifecycle model.
//
// One container per function (paper §V-A: "we launch one container per
// function"); Canary additionally keeps warm replicated runtimes
// (containers that finished launch+init and idle, ready to adopt a failed
// function). Containers transition Launching -> Initializing -> Warm ->
// Busy, and to Dead on kill, node failure, or teardown.
#pragma once

#include <string_view>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "faas/runtime.hpp"

namespace canary::faas {

enum class ContainerState {
  kLaunching,
  kInitializing,
  kWarm,  // initialized and idle — usable as a warm runtime replica
  kBusy,  // executing a function
  kDead,
};

/// Why the container exists; used by the usage ledger to attribute dollar
/// cost to primary execution vs. the redundancy mechanisms being compared
/// (Canary replicas, RR request replicas, AS standby instances).
enum class ContainerPurpose {
  kFunction,        // launched to run a specific function
  kRuntimeReplica,  // Canary replicated runtime (§IV-C5)
  kRequestReplica,  // RR baseline replica instance
  kStandby,         // AS baseline standby instance
};

std::string_view to_string_view(ContainerState s);
std::string_view to_string_view(ContainerPurpose p);

struct Container {
  ContainerId id;
  NodeId node;
  RuntimeImage image = RuntimeImage::kPython3;
  Bytes memory = Bytes::zero();
  ContainerState state = ContainerState::kLaunching;
  ContainerPurpose purpose = ContainerPurpose::kFunction;
  FunctionId assigned;  // invalid when warm/idle
  TimePoint created;
  /// When the container last entered the Warm state (pool idle tracking).
  TimePoint idle_since = TimePoint::max();

  bool alive() const { return state != ContainerState::kDead; }
  bool warm_idle() const { return state == ContainerState::kWarm; }
};

inline std::string_view to_string_view(ContainerState s) {
  switch (s) {
    case ContainerState::kLaunching: return "launching";
    case ContainerState::kInitializing: return "initializing";
    case ContainerState::kWarm: return "warm";
    case ContainerState::kBusy: return "busy";
    case ContainerState::kDead: return "dead";
  }
  return "unknown";
}

inline std::string_view to_string_view(ContainerPurpose p) {
  switch (p) {
    case ContainerPurpose::kFunction: return "function";
    case ContainerPurpose::kRuntimeReplica: return "runtime-replica";
    case ContainerPurpose::kRequestReplica: return "request-replica";
    case ContainerPurpose::kStandby: return "standby";
  }
  return "unknown";
}

}  // namespace canary::faas
