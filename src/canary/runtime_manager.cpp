#include "canary/runtime_manager.hpp"

#include <algorithm>

namespace canary::core {

namespace {

bool pending(const faas::Container& c) {
  return c.state == faas::ContainerState::kLaunching ||
         c.state == faas::ContainerState::kInitializing;
}

}  // namespace

void RuntimeManagerModule::register_replica(faas::RuntimeImage image,
                                            ContainerId container) {
  unclaimed(image).push_back(container);
}

bool RuntimeManagerModule::forget(faas::RuntimeImage image,
                                  ContainerId container) {
  auto& ids = unclaimed(image);
  const auto it = std::find(ids.begin(), ids.end(), container);
  if (it == ids.end()) return false;
  ids.erase(it);
  return true;
}

ContainerId RuntimeManagerModule::claim(faas::RuntimeImage image,
                                        std::size_t at) {
  auto& ids = unclaimed(image);
  const ContainerId id = ids[at];
  ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(at));
  return id;
}

std::optional<ContainerId> RuntimeManagerModule::acquire(
    faas::RuntimeImage image, std::optional<NodeId> prefer,
    std::optional<NodeId> avoid, std::optional<std::uint32_t> avoid_zone) {
  const cluster::Cluster& cluster = platform_.cluster();
  const auto& ids = unclaimed(image);
  std::optional<std::size_t> best;
  int best_score = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const faas::Container& c = platform_.container(ids[i]);
    if (!c.warm_idle()) continue;
    if (!cluster.node(c.node).alive()) continue;
    if (avoid && c.node == *avoid) continue;
    // Locality score: same node beats same rack beats anywhere. A replica
    // inside the avoided fault domain is pushed below every outside
    // candidate (the whole zone may be about to go) but stays eligible.
    int score = 1;
    if (prefer && cluster.contains(*prefer)) {
      if (c.node == *prefer) {
        score = 3;
      } else if (cluster.rack_distance(c.node, *prefer) == 0) {
        score = 2;
      }
    }
    if (avoid_zone && cluster.zone_of(c.node) == *avoid_zone) {
      score -= 100;
    }
    if (!best || score > best_score) {
      best = i;
      best_score = score;
    }
  }
  if (!best) return std::nullopt;
  return claim(image, *best);
}

std::size_t RuntimeManagerModule::active_count(
    faas::RuntimeImage image) const {
  std::size_t count = 0;
  for (const ContainerId id : unclaimed(image)) {
    if (platform_.container(id).warm_idle()) ++count;
  }
  return count;
}

std::size_t RuntimeManagerModule::pending_count(
    faas::RuntimeImage image) const {
  std::size_t count = 0;
  for (const ContainerId id : unclaimed(image)) {
    if (pending(platform_.container(id))) ++count;
  }
  return count;
}

std::vector<NodeId> RuntimeManagerModule::replica_nodes(
    faas::RuntimeImage image) const {
  std::vector<NodeId> nodes;
  for (const ContainerId id : unclaimed(image)) {
    const faas::Container& c = platform_.container(id);
    if (c.warm_idle() || pending(c)) nodes.push_back(c.node);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

std::optional<ContainerId> RuntimeManagerModule::promise_launching(
    faas::RuntimeImage image, Duration min_age) {
  const cluster::Cluster& cluster = platform_.cluster();
  const auto& ids = unclaimed(image);
  std::optional<std::size_t> best;
  TimePoint best_created;
  const TimePoint now = platform_.simulator().now();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const faas::Container& c = platform_.container(ids[i]);
    if (!pending(c)) continue;
    if (!cluster.node(c.node).alive()) continue;
    if (now - c.created < min_age) continue;
    // Oldest launching replica = closest to warm = shortest wait.
    if (!best || c.created < best_created) {
      best = i;
      best_created = c.created;
    }
  }
  if (!best) return std::nullopt;
  return claim(image, *best);
}

std::optional<ContainerId> RuntimeManagerModule::retire_one(
    faas::RuntimeImage image) {
  const auto& ids = unclaimed(image);
  std::optional<std::size_t> newest;
  TimePoint newest_created;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const faas::Container& c = platform_.container(ids[i]);
    if (!c.warm_idle()) continue;
    if (!newest || c.created > newest_created) {
      newest = i;
      newest_created = c.created;
    }
  }
  if (!newest) return std::nullopt;
  return claim(image, *newest);
}

}  // namespace canary::core
