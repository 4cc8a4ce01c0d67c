// Cluster topology: a set of worker nodes grouped into racks.
//
// Mirrors the paper's testbed (§V-C1): 16 servers, heterogeneous Xeon
// classes, connected by 10G Ethernet. Placement helpers used by the FaaS
// scheduler and by Canary's replica placement (§IV-C5b: first replica
// co-located with a job function, further replicas anti-affine to avoid a
// single point of failure; decisions are locality aware).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "cluster/node.hpp"

namespace canary::cluster {

/// The scheduler probes for the least-loaded host on every container
/// placement, so a linear scan over hundreds of nodes sits on the
/// million-invocation hot path. The cluster keeps an occupancy index —
/// alive nodes bucketed by used slot count, id-ordered inside a bucket —
/// maintained through NodeUsageListener, so a probe walks the emptiest
/// bucket first and usually returns after one membership test. Selection
/// is identical to the old full scan: minimum used_slots among hosts that
/// can take the memory, lowest id on ties.
class Cluster : private NodeUsageListener {
 public:
  explicit Cluster(std::vector<NodeSpec> specs);
  Cluster(Cluster&& other) noexcept;
  Cluster& operator=(Cluster&& other) noexcept;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Builds an n-node cluster mirroring the Chameleon testbed: CPU
  /// classes interleaved 6126 / 6240R / 6242, four nodes per rack.
  static Cluster testbed(std::size_t node_count);

  std::size_t size() const { return nodes_.size(); }
  std::size_t alive_count() const;

  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  bool contains(NodeId id) const;

  std::vector<NodeId> node_ids() const;
  std::vector<NodeId> alive_node_ids() const;

  /// Least-loaded alive node that can host `memory`; ties broken by lowest
  /// id for determinism. nullopt when the cluster is saturated.
  std::optional<NodeId> least_loaded(Bytes memory) const;

  /// Least-loaded alive candidate excluding `excluded`; used for
  /// anti-affine replica placement.
  std::optional<NodeId> least_loaded_excluding(
      Bytes memory, const std::vector<NodeId>& excluded) const;

  /// Sample an alive node with probability proportional to its hardware
  /// failure weight; used by the failure injector to model older hardware
  /// failing more often. nullopt when no node is alive.
  std::optional<NodeId> weighted_random_alive(Rng& rng) const;

  /// Number of inter-rack hops between two nodes (0 = same rack).
  std::uint32_t rack_distance(NodeId a, NodeId b) const;

  /// Fault domain of a node (NodeSpec::zone).
  std::uint32_t zone_of(NodeId id) const;

  /// All node ids in `zone`, ascending.
  std::vector<NodeId> nodes_in_zone(std::uint32_t zone) const;

  /// Least-loaded alive candidate preferring nodes OUTSIDE `avoid_zone`;
  /// falls back to in-zone hosts only when no other zone has capacity.
  /// The fault-domain-spreading placement primitive: two copies land in
  /// one zone only when the cluster leaves no alternative.
  std::optional<NodeId> least_loaded_avoiding_zone(
      Bytes memory, std::uint32_t avoid_zone,
      const std::vector<NodeId>& excluded) const;

  /// Fault-domain spreading policy, set once from the scenario: hedge
  /// clones, Canary's recovery re-dispatch and further runtime replicas
  /// prefer a zone other than the copy they back up. Off by default
  /// (domain-blind placement).
  void set_spread_fault_domains(bool spread) { spread_fault_domains_ = spread; }
  bool spread_fault_domains() const { return spread_fault_domains_; }

  void fail_node(NodeId id);

 private:
  std::size_t index_of(NodeId id) const;
  void on_node_usage_changed(const Node& node, std::uint32_t old_used_slots,
                             bool was_alive) override;
  void attach_and_rebuild_index();
  void bucket_insert(std::uint32_t slots, std::uint32_t idx);
  void bucket_erase(std::uint32_t slots, std::uint32_t idx);

  std::vector<Node> nodes_;
  /// occupancy_[k] = indices of alive nodes with k used slots, ascending.
  /// Sorted vectors, not sets: bucket moves are memmoves within retained
  /// capacity, so the per-placement index maintenance never allocates in
  /// steady state.
  std::vector<std::vector<std::uint32_t>> occupancy_;
  bool spread_fault_domains_ = false;
};

}  // namespace canary::cluster
