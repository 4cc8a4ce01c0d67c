#include "cluster/cluster.hpp"

#include <algorithm>

#include "common/result.hpp"

namespace canary::cluster {

Cluster::Cluster(std::vector<NodeSpec> specs) {
  CANARY_CHECK(!specs.empty(), "cluster needs at least one node");
  nodes_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    nodes_.emplace_back(NodeId{i + 1}, specs[i]);
  }
  attach_and_rebuild_index();
}

Cluster::Cluster(Cluster&& other) noexcept
    : nodes_(std::move(other.nodes_)),
      spread_fault_domains_(other.spread_fault_domains_) {
  attach_and_rebuild_index();
}

Cluster& Cluster::operator=(Cluster&& other) noexcept {
  if (this != &other) {
    nodes_ = std::move(other.nodes_);
    spread_fault_domains_ = other.spread_fault_domains_;
    attach_and_rebuild_index();
  }
  return *this;
}

void Cluster::attach_and_rebuild_index() {
  std::uint32_t max_slots = 0;
  for (const auto& n : nodes_) {
    max_slots = std::max(max_slots, n.spec().container_slots);
  }
  occupancy_.assign(max_slots + 1, {});
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].set_usage_listener(this);
    if (nodes_[i].alive()) {
      bucket_insert(nodes_[i].used_slots(), static_cast<std::uint32_t>(i));
    }
  }
}

void Cluster::bucket_insert(std::uint32_t slots, std::uint32_t idx) {
  std::vector<std::uint32_t>& bucket = occupancy_[slots];
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), idx), idx);
}

void Cluster::bucket_erase(std::uint32_t slots, std::uint32_t idx) {
  std::vector<std::uint32_t>& bucket = occupancy_[slots];
  const auto it = std::lower_bound(bucket.begin(), bucket.end(), idx);
  if (it != bucket.end() && *it == idx) bucket.erase(it);
}

void Cluster::on_node_usage_changed(const Node& node,
                                    std::uint32_t old_used_slots,
                                    bool was_alive) {
  const auto idx = static_cast<std::uint32_t>(index_of(node.id()));
  if (was_alive) bucket_erase(old_used_slots, idx);
  if (node.alive()) bucket_insert(node.used_slots(), idx);
}

Cluster Cluster::testbed(std::size_t node_count) {
  static constexpr CpuClass kClasses[] = {
      CpuClass::kXeonGold6126, CpuClass::kXeonGold6240R,
      CpuClass::kXeonGold6242};
  std::vector<NodeSpec> specs;
  specs.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    NodeSpec spec;
    spec.cpu = kClasses[i % 3];
    spec.rack = static_cast<std::uint32_t>(i / 4);
    spec.zone = spec.rack;  // testbed: one fault domain per rack
    specs.push_back(spec);
  }
  return Cluster(std::move(specs));
}

std::size_t Cluster::alive_count() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const Node& n) { return n.alive(); }));
}

std::size_t Cluster::index_of(NodeId id) const {
  CANARY_CHECK(id.valid() && id.value() <= nodes_.size(), "unknown node id");
  return id.value() - 1;
}

Node& Cluster::node(NodeId id) { return nodes_[index_of(id)]; }
const Node& Cluster::node(NodeId id) const { return nodes_[index_of(id)]; }

bool Cluster::contains(NodeId id) const {
  return id.valid() && id.value() <= nodes_.size();
}

std::vector<NodeId> Cluster::node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& n : nodes_) ids.push_back(n.id());
  return ids;
}

std::vector<NodeId> Cluster::alive_node_ids() const {
  std::vector<NodeId> ids;
  for (const auto& n : nodes_) {
    if (n.alive()) ids.push_back(n.id());
  }
  return ids;
}

std::optional<NodeId> Cluster::least_loaded(Bytes memory) const {
  return least_loaded_excluding(memory, {});
}

std::optional<NodeId> Cluster::least_loaded_excluding(
    Bytes memory, const std::vector<NodeId>& excluded) const {
  // Emptiest bucket first, lowest id inside a bucket: the first node that
  // passes the memory/exclusion checks is exactly the node the old full
  // scan would have picked.
  for (const auto& bucket : occupancy_) {
    for (const std::uint32_t idx : bucket) {
      const Node& n = nodes_[idx];
      if (!n.can_host(memory)) continue;
      if (std::find(excluded.begin(), excluded.end(), n.id()) !=
          excluded.end()) {
        continue;
      }
      return n.id();
    }
  }
  return std::nullopt;
}

std::optional<NodeId> Cluster::weighted_random_alive(Rng& rng) const {
  double total = 0.0;
  for (const auto& n : nodes_) {
    if (n.alive()) total += n.fail_weight();
  }
  if (total <= 0.0) return std::nullopt;
  double pick = rng.uniform(0.0, total);
  for (const auto& n : nodes_) {
    if (!n.alive()) continue;
    pick -= n.fail_weight();
    if (pick <= 0.0) return n.id();
  }
  // Floating-point slack: fall back to the last alive node.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    if (it->alive()) return it->id();
  }
  return std::nullopt;
}

std::uint32_t Cluster::rack_distance(NodeId a, NodeId b) const {
  const auto ra = node(a).spec().rack;
  const auto rb = node(b).spec().rack;
  return ra == rb ? 0 : 1;
}

std::uint32_t Cluster::zone_of(NodeId id) const { return node(id).spec().zone; }

std::vector<NodeId> Cluster::nodes_in_zone(std::uint32_t zone) const {
  std::vector<NodeId> ids;
  for (const auto& n : nodes_) {
    if (n.spec().zone == zone) ids.push_back(n.id());
  }
  return ids;
}

std::optional<NodeId> Cluster::least_loaded_avoiding_zone(
    Bytes memory, std::uint32_t avoid_zone,
    const std::vector<NodeId>& excluded) const {
  // Same walk as least_loaded_excluding with a zone filter; a second pass
  // without the filter keeps placement total — capacity beats spreading.
  for (const auto& bucket : occupancy_) {
    for (const std::uint32_t idx : bucket) {
      const Node& n = nodes_[idx];
      if (n.spec().zone == avoid_zone) continue;
      if (!n.can_host(memory)) continue;
      if (std::find(excluded.begin(), excluded.end(), n.id()) !=
          excluded.end()) {
        continue;
      }
      return n.id();
    }
  }
  return least_loaded_excluding(memory, excluded);
}

void Cluster::fail_node(NodeId id) { node(id).mark_failed(); }

}  // namespace canary::cluster
