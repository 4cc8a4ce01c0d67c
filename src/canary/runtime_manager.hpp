// Runtime Manager Module (paper §IV-C3).
//
// Tracks every runtime replica deployed in the cluster and their
// locations, and maps failed functions to the best replicated runtime:
// the Core Module asks `acquire()` for a warm replica of the failed
// function's runtime, preferring the failed function's node (checkpoint
// locality), then its rack, so recovery time stays minimal on
// heterogeneous resources (§IV-C5b).
//
// The paper keeps this in its replication_info table. Here the platform
// owns each replica container's node, image, state and age, so the
// module keeps the one fact the platform does not have: per image, the
// ids of replica containers nobody has claimed yet, in launch order. A
// replica is pending while its container launches or initializes and
// active once it is Warm; claiming, retiring or destroying it drops its
// id at once.
#pragma once

#include <array>
#include <iterator>
#include <optional>
#include <vector>

#include "faas/platform.hpp"

namespace canary::core {

class RuntimeManagerModule {
 public:
  explicit RuntimeManagerModule(faas::Platform& platform)
      : platform_(platform) {}

  /// Record a replica container whose launch was just initiated.
  void register_replica(faas::RuntimeImage image, ContainerId container);

  /// The replica container was destroyed (node failure or retirement).
  /// Returns whether it was still an unclaimed replica.
  bool forget(faas::RuntimeImage image, ContainerId container);

  /// Best active replica for `image`: same node as `prefer`, then same
  /// rack, then the earliest launched. The replica is claimed — its
  /// container now belongs to the recovering function. Replicas hosted on
  /// `avoid` are skipped (without being claimed) — the recovery watchdog
  /// routes stalled functions away from gray workers this way. Replicas in
  /// `avoid_zone` (the failed worker's fault domain, suspect of a
  /// correlated outage) lose to any replica outside it, but remain a
  /// fallback when every replica sits in that zone.
  std::optional<ContainerId> acquire(
      faas::RuntimeImage image, std::optional<NodeId> prefer,
      std::optional<NodeId> avoid = std::nullopt,
      std::optional<std::uint32_t> avoid_zone = std::nullopt);

  /// Replicas that are warm and unclaimed.
  std::size_t active_count(faas::RuntimeImage image) const;
  /// Replicas still launching/initializing.
  std::size_t pending_count(faas::RuntimeImage image) const;
  /// Nodes currently hosting live (active or pending) replicas of `image`.
  std::vector<NodeId> replica_nodes(faas::RuntimeImage image) const;

  /// Pick one active replica to retire (most recently created first, so
  /// long-warm replicas are kept). Drops it and returns the container for
  /// the caller to destroy.
  std::optional<ContainerId> retire_one(faas::RuntimeImage image);

  /// Reserve a replica that is still launching/initializing for an
  /// SLA-urgent recovery: claimed immediately so nobody else takes it;
  /// the caller dispatches once the container turns warm. Only replicas
  /// at least `min_age` into their startup qualify — a freshly-launched
  /// replica offers no head start over a cold container and is worth
  /// more staying in the pool.
  std::optional<ContainerId> promise_launching(
      faas::RuntimeImage image, Duration min_age = Duration::zero());

 private:
  std::vector<ContainerId>& unclaimed(faas::RuntimeImage image) {
    return unclaimed_[static_cast<std::size_t>(image)];
  }
  const std::vector<ContainerId>& unclaimed(faas::RuntimeImage image) const {
    return unclaimed_[static_cast<std::size_t>(image)];
  }
  /// Remove the `at`-th unclaimed id of `image` and return it.
  ContainerId claim(faas::RuntimeImage image, std::size_t at);

  faas::Platform& platform_;
  /// Unclaimed replica containers per image, in launch (= id) order.
  std::array<std::vector<ContainerId>, std::size(faas::kAllRuntimeImages)>
      unclaimed_;
};

}  // namespace canary::core
