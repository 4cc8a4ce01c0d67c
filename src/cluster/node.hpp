// Worker-node model.
//
// The paper's testbed is 16 bare-metal Chameleon servers with two Xeon
// Gold 6126/6240R/6242 processors and 192 GB RAM (§V-C1). We model each
// node with a CPU class (heterogeneous speed and failure proneness — §I:
// "older hardware is more prone to failure", "slower computing devices
// ... can significantly increase application recovery time"), a memory
// budget, and a bounded number of container slots.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"

namespace canary::cluster {

enum class CpuClass {
  kXeonGold6126,   // Skylake, 2017 — oldest/slowest in the testbed
  kXeonGold6240R,  // Cascade Lake, 2020
  kXeonGold6242,   // Cascade Lake, 2019
};

/// Relative duration multiplier for work executed on this CPU class
/// (1.0 = nominal). Older parts run slower.
double speed_factor(CpuClass c);

/// Relative weight for failure targeting; older hardware fails more often
/// (paper §I cites [29], [30]).
double failure_weight(CpuClass c);

struct NodeSpec {
  CpuClass cpu = CpuClass::kXeonGold6242;
  Bytes memory = Bytes::gib(192);
  std::uint32_t container_slots = 64;
  std::uint32_t rack = 0;
  /// Fault domain (availability zone). Racks in the same zone share power
  /// and uplinks, so zone-level failures take them out together. Defaults
  /// to rack-granularity domains in the testbed.
  std::uint32_t zone = 0;
};

class Node;

/// Observes node capacity/liveness transitions. The Cluster installs one
/// on every node to keep its least-loaded index current even though
/// callers mutate nodes directly through Cluster::node().
class NodeUsageListener {
 public:
  virtual void on_node_usage_changed(const Node& node,
                                     std::uint32_t old_used_slots,
                                     bool was_alive) = 0;

 protected:
  ~NodeUsageListener() = default;
};

/// Mutable node state: capacity accounting plus liveness. Containers
/// reserve a slot and a memory allocation for their lifetime.
class Node {
 public:
  Node(NodeId id, NodeSpec spec) : id_(id), spec_(spec) {}

  NodeId id() const { return id_; }
  const NodeSpec& spec() const { return spec_; }
  double speed() const { return speed_factor(spec_.cpu) * slowdown_; }
  double fail_weight() const { return failure_weight(spec_.cpu); }

  /// Gray-failure multiplier on top of the CPU class: > 1.0 makes every
  /// duration scheduled on this node that much longer (a straggler that
  /// trips timeouts without dying). Sampled at scheduling time only —
  /// already-scheduled state transitions keep their original end time.
  /// Set it through faas::Platform::set_node_slowdown, which also cuts
  /// the node's executing segments at their in-flight state.
  double slowdown() const { return slowdown_; }
  void set_slowdown(double factor) { slowdown_ = factor < 1.0 ? 1.0 : factor; }

  bool alive() const { return alive_; }
  void mark_failed() {
    const std::uint32_t old_slots = used_slots_;
    const bool was_alive = alive_;
    alive_ = false;
    notify(old_slots, was_alive);
  }

  void set_usage_listener(NodeUsageListener* listener) {
    listener_ = listener;
  }

  std::uint32_t used_slots() const { return used_slots_; }
  std::uint32_t free_slots() const {
    return alive_ ? spec_.container_slots - used_slots_ : 0;
  }
  Bytes used_memory() const { return used_memory_; }

  bool can_host(Bytes memory) const {
    return alive_ && used_slots_ < spec_.container_slots &&
           used_memory_.count() + memory.count() <= spec_.memory.count();
  }

  /// Reserve one container slot plus `memory`. Fails (does not abort) when
  /// the node is dead or full, so schedulers can probe.
  Status reserve(Bytes memory);
  void release(Bytes memory);

 private:
  void notify(std::uint32_t old_slots, bool was_alive) {
    if (listener_ != nullptr) {
      listener_->on_node_usage_changed(*this, old_slots, was_alive);
    }
  }

  NodeId id_;
  NodeSpec spec_;
  double slowdown_ = 1.0;
  bool alive_ = true;
  std::uint32_t used_slots_ = 0;
  Bytes used_memory_ = Bytes::zero();
  NodeUsageListener* listener_ = nullptr;
};

}  // namespace canary::cluster
