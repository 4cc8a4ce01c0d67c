// Bounded fan-out of independent runs: the one parallel-execution
// mechanism behind repetitions, sharded partitions and the chaos
// campaign. Every task is self-contained and results come back in index
// order, so which thread ran which task can never reach an output.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace canary::harness {

/// Run `task(i)` for every i in [0, count) on at most `workers` threads
/// (0 = one per hardware thread) and return the results in index order.
/// The calling thread is one of the workers, so one worker runs every
/// task inline. The first exception a task throws is rethrown once all
/// workers have stopped.
template <typename Task>
auto fan_out(std::size_t count, unsigned workers, Task&& task)
    -> std::vector<std::invoke_result_t<Task&, std::size_t>> {
  std::vector<std::invoke_result_t<Task&, std::size_t>> results(count);
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(workers, count);

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto drain = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        results[i] = task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        next = count;  // hand out no further tasks
      }
    }
  };
  {
    std::vector<std::jthread> pool;  // joins on scope exit, throws included
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(drain);
    drain();
  }
  if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace canary::harness
