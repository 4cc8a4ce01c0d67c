// Exact heap-allocation counting: global operator new is interposed for
// the whole benchmark binary (the same technique as bench/scale_stress),
// so every allocation the simulator makes is counted, not sampled.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

namespace perfbench {
std::uint64_t allocations_now() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace perfbench

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  if (void* p = std::aligned_alloc(al, rounded != 0 ? rounded : al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
