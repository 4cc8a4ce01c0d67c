// The benchmark's three workloads, generated from a seed.
//
// The seed drives every random draw of a pass (the failure injector's
// kill plan, hence which attempts fail and when). Job shapes and sizes are
// fixed per workload, so every seed asks for the same amount of work and
// host-time figures stay comparable across seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/chaos.hpp"

namespace perfbench {

enum class Size {
  kFull,  // the measured size
  kTiny,  // a few hundred invocations, for the self-test
};

struct Workload {
  std::string name;
  /// Scenario config plus its jobs, in the form the chaos oracles take.
  canary::harness::ChaosScenario scenario;
  /// Functions submitted (retries and replicas are not invocations).
  std::uint64_t invocations = 0;
  /// Export run_report + chrome trace to a counting null sink each pass.
  bool export_artifacts = false;
};

const std::vector<std::string>& workload_names();

/// Build `name`'s inputs for `seed`. `name` must be in workload_names().
Workload make_workload(const std::string& name, std::uint64_t seed, Size size);

}  // namespace perfbench
