// Exact heap-allocation counter (operator new is interposed in
// alloc_count.cpp).
#pragma once

#include <cstdint>

namespace perfbench {

/// Global operator new calls since process start.
std::uint64_t allocations_now();

}  // namespace perfbench
