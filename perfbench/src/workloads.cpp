#include "workloads.hpp"

#include "common/rng.hpp"
#include "recovery/strategies.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using canary::Duration;
using canary::harness::ScenarioConfig;
namespace wl = canary::workloads;

constexpr std::size_t kWebServiceJobSize = 4096;

ScenarioConfig base_config(canary::recovery::StrategyConfig strategy,
                           double error_rate, std::size_t nodes,
                           std::uint64_t seed) {
  ScenarioConfig config;
  config.strategy = strategy;
  config.error_rate = error_rate;
  config.cluster_nodes = nodes;
  std::uint64_t state = seed;
  config.seed = canary::splitmix64(state);
  return config;
}

void add_web_service_jobs(Workload& w, std::size_t jobs,
                          std::size_t functions_per_job) {
  w.scenario.jobs.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    w.scenario.jobs.push_back(
        wl::make_job(wl::WorkloadKind::kWebService, functions_per_job,
                     w.name + "_" + std::to_string(j)));
  }
  w.invocations = jobs * functions_per_job;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "retry_scale", "canary_commit", "canary_failover"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       Size size) {
  const bool tiny = size == Size::kTiny;
  Workload w;
  w.name = name;
  ScenarioConfig& config = w.scenario.config;

  if (name == "retry_scale") {
    // The control: platform default retry, recorders off. Engine and
    // platform do ~all the work; canary, kvstore and obs do none.
    config = base_config(canary::recovery::StrategyConfig::retry(), 0.02, 64,
                         seed);
    config.record_spans = false;
    config.record_events = false;
    add_web_service_jobs(w, tiny ? 2 : 4, tiny ? 128 : kWebServiceJobSize);
  } else if (name == "canary_commit") {
    // The paper's strategy on the same jobs: every state commit writes a
    // checkpoint through KvStore + MetadataStore. Recorders stay off: a
    // commit-heavy run of this shape records ~106 events per invocation,
    // so a longer pass would overflow the event log's 1M-event default cap
    // and the work recorded (and timed) would depend on the cap. One job
    // keeps a pass's working set small, which keeps its time steady on a
    // host whose other tenants load the memory system.
    config = base_config(canary::recovery::StrategyConfig::canary_full(),
                         0.02, 64, seed);
    config.record_spans = false;
    config.record_events = false;
    add_web_service_jobs(w, 1, tiny ? 128 : kWebServiceJobSize);
  } else if (name == "canary_failover") {
    // The read/restore side: all five workload classes (DL checkpoints
    // spill to storage tiers), half of all attempts killed, three node
    // failures. Spans and events are recorded and exported; the run stays
    // under the recorders' caps (checked every pass).
    config = base_config(canary::recovery::StrategyConfig::canary_full(), 0.5,
                         16, seed);
    config.node_failure_offsets = {Duration::sec(10.0), Duration::sec(40.0),
                                   Duration::sec(80.0)};
    config.record_spans = true;
    config.record_events = true;
    const std::size_t batches = tiny ? 1 : 4;
    const std::size_t batch_size = tiny ? 100 : 1000;
    for (std::size_t b = 0; b < batches; ++b) {
      w.scenario.jobs.push_back(wl::make_mixed_batch(
          batch_size, name + "_" + std::to_string(b)));
    }
    w.invocations = batches * batch_size;
    w.export_artifacts = true;
  }
  return w;
}

}  // namespace perfbench
