#include "obs/slo_monitor.hpp"

#include <algorithm>

namespace canary::obs {

namespace {
/// Geometric growth by hand: resize(n) alone allocates exactly n, so
/// arming sequential ids would trigger a reallocation per function.
void grow_to(std::vector<bool>& v, std::size_t slot) {
  if (slot < v.size()) return;
  const std::size_t grown = v.empty() ? 64 : v.size() * 2;
  v.resize(std::max(grown, slot + 1), false);
}
}  // namespace

void SloMonitor::arm(FunctionId fn) {
  const std::size_t slot = fn.value() - 1;
  grow_to(armed_, slot);
  if (armed_[slot]) return;
  armed_[slot] = true;
  ++targets_;
}

bool SloMonitor::record_violation(FunctionId fn, TimePoint at) {
  const std::size_t slot = fn.value() - 1;
  grow_to(violated_, slot);
  if (violated_[slot]) return false;
  violated_[slot] = true;
  breaches_.emplace_back(fn, at);
  return true;
}

}  // namespace canary::obs
