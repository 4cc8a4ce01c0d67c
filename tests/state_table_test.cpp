// Shared state tables: every instance of a workload template reads one
// immutable faas::StateTable, copies of a spec share it, and Canary
// submits the harness's own job specs instead of copies.
//
// This binary replaces the global operator new with a counting one (as
// bench/scale_stress.cpp does) that also keeps the size of every block,
// so a test can count the blocks that hold state table storage: a table
// of n states is one block of n * sizeof(StateSpec) bytes, a size no
// other block the workload builders take has.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <new>
#include <set>
#include <vector>

#include "faas/function.hpp"
#include "harness/scenario_internal.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace {
// The sizes of the most recent allocations, in a fixed ring so recording
// one never allocates.
constexpr std::size_t kSizeRing = 1 << 16;
std::array<std::size_t, kSizeRing> g_sizes{};
std::atomic<std::uint64_t> g_allocations{0};

void record(std::size_t size) {
  const std::uint64_t n =
      g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_sizes[n % kSizeRing] = size;
}

// Out of line, so GCC 12 cannot inline a delete into the cleanup path of
// a new it did not inline and call the pair mismatched
// (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  record(size);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

void* operator new(std::size_t size, std::align_val_t align) {
  record(size);
  const std::size_t al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  if (void* p = std::aligned_alloc(al, rounded != 0 ? rounded : al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace canary {
namespace {

using faas::FunctionSpec;
using faas::JobSpec;
using faas::StateSpec;
using faas::StateTable;
using workloads::WorkloadKind;

/// Counts the allocations made from construction on.
class AllocationWindow {
 public:
  AllocationWindow() : start_(g_allocations.load()) {}

  std::uint64_t count() const { return g_allocations.load() - start_; }

  /// Blocks of state table storage for tables of each length in
  /// `state_counts`.
  std::uint64_t state_tables(
      std::initializer_list<std::size_t> state_counts) const {
    const std::uint64_t n = count();
    EXPECT_LE(n, kSizeRing) << "the size ring overflowed";
    std::uint64_t tables = 0;
    for (std::uint64_t i = start_; i < start_ + n; ++i) {
      const std::size_t size = g_sizes[i % kSizeRing];
      if (size % sizeof(StateSpec) == 0 &&
          std::find(state_counts.begin(), state_counts.end(),
                    size / sizeof(StateSpec)) != state_counts.end()) {
        ++tables;
      }
    }
    return tables;
  }

 private:
  std::uint64_t start_;
};

/// Distinct state storages among a job's functions.
std::size_t distinct_tables(const JobSpec& job) {
  std::set<const StateSpec*> storage;
  for (const FunctionSpec& fn : job.functions) {
    storage.insert(fn.states.begin());
  }
  return storage.size();
}

TEST(StateTableTest, MakeJobBuildsOneTable) {
  AllocationWindow window;
  const JobSpec job = workloads::make_job(WorkloadKind::kWebService, 4096);
  EXPECT_EQ(window.state_tables({50}), 1u);
  ASSERT_EQ(job.functions.size(), 4096u);
  EXPECT_EQ(distinct_tables(job), 1u);
}

TEST(StateTableTest, MixedBatchBuildsOneTablePerKind) {
  AllocationWindow window;
  const JobSpec job = workloads::make_mixed_batch(1000);
  // dl-training 10, web-service 50, spark 16, compression 5, graph-bfs 50.
  EXPECT_EQ(window.state_tables({10, 50, 16, 5}), 5u);
  ASSERT_EQ(job.functions.size(), 1000u);
  EXPECT_EQ(distinct_tables(job), 5u);
}

TEST(StateTableTest, CopiesShareTheTable) {
  const FunctionSpec fn = workloads::web_service_function();
  {
    AllocationWindow window;
    const FunctionSpec copy = fn;  // "web-service" fits the string buffer
    EXPECT_EQ(window.count(), 0u);
    EXPECT_EQ(copy.states.begin(), fn.states.begin());
    EXPECT_EQ(copy.states.size(), 50u);
  }
  const JobSpec job = workloads::make_job(WorkloadKind::kWebService, 8);
  {
    AllocationWindow window;
    const JobSpec copy = job;
    EXPECT_EQ(window.state_tables({50}), 0u);
    EXPECT_EQ(window.count(), 1u);  // the function vector only
    ASSERT_EQ(copy.functions.size(), job.functions.size());
    for (std::size_t i = 0; i < job.functions.size(); ++i) {
      EXPECT_EQ(copy.functions[i].states.begin(),
                job.functions[i].states.begin());
    }
  }
}

TEST(StateTableTest, EmptyTablesAllocateNothing) {
  AllocationWindow window;
  const FunctionSpec fn;
  const StateTable from_empty_vector(std::vector<StateSpec>{});
  const StateTable zero_states(0, {Duration::sec(1.0), Bytes::zero()});
  EXPECT_EQ(window.count(), 0u);
  for (const StateTable* table :
       {&fn.states, &from_empty_vector, &zero_states}) {
    EXPECT_TRUE(table->empty());
    EXPECT_EQ(table->size(), 0u);
    EXPECT_EQ(table->begin(), table->end());
  }
  EXPECT_EQ(fn.total_state_work(), Duration::zero());
}

TEST(StateTableTest, EachKindDeclaresItsStates) {
  struct Expected {
    WorkloadKind kind;
    std::size_t states;
    Duration duration;
    Bytes payload;
  };
  const Expected expected[] = {
      {WorkloadKind::kDlTraining, 10, Duration::sec(2.2), Bytes::mib(98)},
      {WorkloadKind::kWebService, 50, Duration::msec(250), Bytes::kib(16)},
      {WorkloadKind::kSparkMining, 16, Duration::sec(1.4), Bytes::mib(2)},
      {WorkloadKind::kCompression, 5, Duration::sec(5.5), Bytes::kib(256)},
      {WorkloadKind::kGraphBfs, 50, Duration::msec(450), Bytes::mib(6)},
  };
  for (const Expected& e : expected) {
    SCOPED_TRACE(workloads::to_string_view(e.kind));
    const FunctionSpec fn = workloads::function_of(e.kind);
    ASSERT_EQ(fn.states.size(), e.states);
    EXPECT_EQ(fn.states.end() - fn.states.begin(),
              static_cast<std::ptrdiff_t>(e.states));
    for (const StateSpec& state : fn.states) {
      EXPECT_EQ(state.duration, e.duration);
      EXPECT_EQ(state.checkpoint_payload, e.payload);
    }
    EXPECT_EQ(fn.states.front().duration, e.duration);
    EXPECT_EQ(fn.states[e.states - 1].checkpoint_payload, e.payload);
    EXPECT_EQ(fn.total_state_work().count_usec(),
              e.duration.count_usec() * static_cast<std::int64_t>(e.states));
  }
}

TEST(StateTableTest, CanarySubmitsTheHarnessJobSpecs) {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.cluster_nodes = 4;
  config.record_events = false;
  // The second job exceeds the account's concurrency and waits in the
  // Request Validator's queue until the first completes.
  config.platform.limits.max_concurrent_invocations = 3;
  const std::vector<JobSpec> jobs = {
      workloads::make_job(WorkloadKind::kCompression, 3, "first"),
      workloads::make_job(WorkloadKind::kCompression, 3, "second"),
  };
  sim::Simulator simulator;
  harness::internal::ScenarioInstance instance(simulator, config, jobs,
                                               /*install_log_hooks=*/false);
  ASSERT_TRUE(instance.canary_fw.has_value());
  EXPECT_EQ(instance.canary_fw->queued_jobs(), 1u);
  ASSERT_EQ(instance.platform.all_job_ids().size(), 1u);
  EXPECT_EQ(&instance.platform.job_spec(JobId{1}), &jobs[0]);

  simulator.run();
  EXPECT_EQ(instance.canary_fw->queued_jobs(), 0u);
  ASSERT_EQ(instance.platform.all_job_ids().size(), 2u);
  EXPECT_EQ(&instance.platform.job_spec(JobId{2}), &jobs[1]);
  EXPECT_TRUE(instance.platform.all_jobs_completed());
}

}  // namespace
}  // namespace canary
