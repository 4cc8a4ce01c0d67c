#include "obs/slo_monitor.hpp"

#include <algorithm>

namespace canary::obs {

namespace {
constexpr TimePoint kUnarmed = TimePoint::max();

/// Geometric growth by hand: resize(n) alone allocates exactly n, so
/// arming sequential ids would trigger a reallocation per function.
template <typename V, typename T>
void grow_to(V& v, std::size_t slot, const T& fill) {
  if (slot < v.size()) return;
  const std::size_t grown = v.empty() ? 64 : v.size() * 2;
  v.resize(std::max(grown, slot + 1), fill);
}
}  // namespace

void SloMonitor::arm(FunctionId fn, TimePoint deadline) {
  const std::size_t slot = fn.value() - 1;
  grow_to(targets_, slot, kUnarmed);
  if (targets_[slot] == kUnarmed) ++armed_;
  targets_[slot] = deadline;
}

bool SloMonitor::record_violation(FunctionId fn, TimePoint at) {
  const std::size_t slot = fn.value() - 1;
  grow_to(violated_, slot, false);
  if (violated_[slot]) return false;
  violated_[slot] = true;
  breaches_.emplace_back(fn, at);
  return true;
}

}  // namespace canary::obs
