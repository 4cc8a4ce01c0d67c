#include "cluster/node.hpp"

namespace canary::cluster {

double speed_factor(CpuClass c) {
  switch (c) {
    case CpuClass::kXeonGold6126: return 1.18;   // oldest, slowest
    case CpuClass::kXeonGold6240R: return 0.95;  // newest
    case CpuClass::kXeonGold6242: return 1.00;   // nominal
  }
  return 1.0;
}

double failure_weight(CpuClass c) {
  switch (c) {
    case CpuClass::kXeonGold6126: return 1.45;
    case CpuClass::kXeonGold6240R: return 0.85;
    case CpuClass::kXeonGold6242: return 1.00;
  }
  return 1.0;
}

Status Node::reserve(Bytes memory) {
  if (!alive_) return Error::unavailable("node is down");
  if (used_slots_ >= spec_.container_slots) {
    return Error::resource_exhausted("no container slots free");
  }
  if (used_memory_.count() + memory.count() > spec_.memory.count()) {
    return Error::resource_exhausted("insufficient node memory");
  }
  ++used_slots_;
  used_memory_ += memory;
  notify(used_slots_ - 1, /*was_alive=*/true);
  return Status::ok_status();
}

void Node::release(Bytes memory) {
  if (!alive_) return;  // capacity was cleared when the node died
  CANARY_CHECK(used_slots_ > 0, "release without reserve");
  CANARY_CHECK(used_memory_.count() >= memory.count(),
               "memory release exceeds reservation");
  --used_slots_;
  used_memory_ = Bytes::of(used_memory_.count() - memory.count());
  notify(used_slots_ + 1, /*was_alive=*/true);
}

}  // namespace canary::cluster
