// Command-line experiment driver: run any scenario the library supports
// without writing code. This is the "downstream user" entry point for
// exploring the design space beyond the paper's figures.
//
//   ./experiment_cli --workload=web-service --strategy=canary-dr
//       --error-rate=0.3 --functions=100 --nodes=16 --reps=5
//       [--node-failures=2] [--sla=60] [--proactive] [--csv] [--breakdown]
//       [--report=run_report.json] [--trace=run.trace.json]
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <type_traits>

#include "common/table.hpp"
#include "harness/experiment.hpp"
#include "obs/chrome_trace.hpp"
#include "realexec/backend.hpp"
#include "workloads/workloads.hpp"

using namespace canary;

namespace {

struct Options {
  std::string workload = "web-service";
  std::string strategy = "canary-dr";
  std::string backend = "sim";
  double error_rate = 0.2;
  std::size_t functions = 100;
  std::size_t nodes = 16;
  int reps = 5;
  int node_failures = 0;
  double sla_seconds = 0.0;
  bool proactive = false;
  bool attribution = false;
  std::uint64_t seed = 42;
  bool csv = false;
  bool breakdown = false;
  bool help = false;
  std::string report_path;
  std::string trace_path;
};

void usage() {
  std::cout <<
      "usage: experiment_cli [options]\n"
      "  --workload=K     dl-training | web-service | spark-mining |\n"
      "                   compression | graph-bfs | mixed | mapreduce\n"
      "  --strategy=S     ideal | retry | canary-dr | canary-ar | canary-lr |\n"
      "                   canary-ckpt | canary-repl | rr | as\n"
      "  --backend=B      sim (default) | real. real runs the workload's\n"
      "                   miniature kernel in forked worker processes and\n"
      "                   SIGKILLs one per --node-failures (supports\n"
      "                   graph-bfs | compression | spark-mining with\n"
      "                   retry | canary-ckpt | as)\n"
      "  --error-rate=F   0.0 - 0.95 (default 0.2)\n"
      "  --functions=N    functions in the job, >= 1 (default 100)\n"
      "  --nodes=N        cluster size, >= 1 (default 16)\n"
      "  --reps=N         repetitions, >= 1 (default 5)\n"
      "  --node-failures=N  node-level failures during the run, >= 0\n"
      "  --sla=SECONDS    job deadline, >= 0 (enables SLA accounting)\n"
      "  --proactive      enable proactive failure mitigation\n"
      "  --attribution    derive tail-latency attribution and the 1 s\n"
      "                   windowed time series from the causal log (the\n"
      "                   report gains tail + timeseries sections, the\n"
      "                   trace a counter track)\n"
      "  --seed=N         base seed (default 42)\n"
      "  --csv            emit CSV instead of an aligned table\n"
      "  --breakdown      print the recovery critical-path breakdown\n"
      "                   (detection/scheduling/launch/init/restore/re_exec)\n"
      "  --report=FILE    write a run_report.json (deterministic in seed)\n"
      "  --trace=FILE     write a chrome://tracing span timeline of one run\n";
}

/// Parse `value`, the whole of it, as a number in [lo, hi]. Anything else
/// is one `error:` line and exit status 2.
template <typename T>
T parse_number(const char* flag, const std::string& value, T lo,
               T hi = std::numeric_limits<T>::max()) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  // Written as !(in range) so a parsed NaN is rejected too.
  if (ec != std::errc{} || ptr != end || !(out >= lo && out <= hi)) {
    std::cerr << "error: " << flag << "=" << value << ": expected "
              << (std::is_integral_v<T> ? "an integer" : "a number");
    if (hi == std::numeric_limits<T>::max()) {
      std::cerr << " >= " << lo << "\n";
    } else {
      std::cerr << " in [" << lo << ", " << hi << "]\n";
    }
    std::exit(2);
  }
  return out;
}

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    out = arg + len + 1;
    return true;
  }
  return false;
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_flag(argv[i], "--workload", value)) {
      opts.workload = value;
    } else if (parse_flag(argv[i], "--strategy", value)) {
      opts.strategy = value;
    } else if (parse_flag(argv[i], "--backend", value)) {
      if (value != "sim" && value != "real") {
        std::cerr << "error: --backend=" << value << ": expected sim or real\n";
        std::exit(2);
      }
      opts.backend = value;
    } else if (parse_flag(argv[i], "--error-rate", value)) {
      opts.error_rate = parse_number("--error-rate", value, 0.0, 0.95);
    } else if (parse_flag(argv[i], "--functions", value)) {
      opts.functions = parse_number<std::size_t>("--functions", value, 1);
    } else if (parse_flag(argv[i], "--nodes", value)) {
      opts.nodes = parse_number<std::size_t>("--nodes", value, 1);
    } else if (parse_flag(argv[i], "--reps", value)) {
      opts.reps = parse_number("--reps", value, 1);
    } else if (parse_flag(argv[i], "--node-failures", value)) {
      opts.node_failures = parse_number("--node-failures", value, 0);
    } else if (parse_flag(argv[i], "--sla", value)) {
      opts.sla_seconds = parse_number("--sla", value, 0.0);
    } else if (parse_flag(argv[i], "--seed", value)) {
      opts.seed = parse_number<std::uint64_t>("--seed", value, 0);
    } else if (parse_flag(argv[i], "--report", value)) {
      opts.report_path = value;
    } else if (parse_flag(argv[i], "--trace", value)) {
      opts.trace_path = value;
    } else if (std::strcmp(argv[i], "--proactive") == 0) {
      opts.proactive = true;
    } else if (std::strcmp(argv[i], "--attribution") == 0) {
      opts.attribution = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      opts.csv = true;
    } else if (std::strcmp(argv[i], "--breakdown") == 0) {
      opts.breakdown = true;
    } else {
      opts.help = true;
    }
  }
  return opts;
}

faas::JobSpec build_job(const Options& opts) {
  if (opts.workload == "mixed") {
    return workloads::make_mixed_batch(opts.functions);
  }
  if (opts.workload == "mapreduce") {
    const std::size_t reducers = std::max<std::size_t>(1, opts.functions / 5);
    return workloads::make_mapreduce_job(opts.functions - reducers, reducers);
  }
  for (const auto kind : workloads::kAllWorkloads) {
    if (opts.workload == workloads::to_string_view(kind)) {
      return workloads::make_job(kind, opts.functions);
    }
  }
  std::cerr << "unknown workload '" << opts.workload << "'\n";
  std::exit(2);
}

recovery::StrategyConfig build_strategy(const Options& opts) {
  using recovery::StrategyConfig;
  static const std::map<std::string, StrategyConfig> kStrategies = {
      {"ideal", StrategyConfig::ideal()},
      {"retry", StrategyConfig::retry()},
      {"canary-dr", StrategyConfig::canary_full(core::ReplicationMode::kDynamic)},
      {"canary-ar",
       StrategyConfig::canary_full(core::ReplicationMode::kAggressive)},
      {"canary-lr", StrategyConfig::canary_full(core::ReplicationMode::kLenient)},
      {"canary-ckpt", StrategyConfig::canary_checkpoint_only()},
      {"canary-repl", StrategyConfig::canary_replication_only()},
      {"rr", StrategyConfig::request_replication(1)},
      {"as", StrategyConfig::active_standby()},
  };
  auto it = kStrategies.find(opts.strategy);
  if (it == kStrategies.end()) {
    std::cerr << "unknown strategy '" << opts.strategy << "'\n";
    std::exit(2);
  }
  return it->second;
}

// Real-execution path: the workload's miniature kernel in forked worker
// processes, --node-failures SIGKILLs mid-execution, recovery under the
// requested policy. Prints the same metric table shape as the simulated
// path plus the per-component recovery decomposition.
int run_real_backend(const Options& opts) {
  realexec::RealScenarioConfig rc;
  if (opts.workload == "graph-bfs") {
    rc.kernel = realexec::KernelKind::kGraphBfs;
    rc.size_param = 2u << 20;
  } else if (opts.workload == "compression") {
    rc.kernel = realexec::KernelKind::kCompression;
    rc.size_param = 2u << 20;
  } else if (opts.workload == "spark-mining") {
    rc.kernel = realexec::KernelKind::kCensus;
    rc.size_param = 100'000;
  } else {
    std::cerr << "workload '" << opts.workload
              << "' has no real-execution kernel (try graph-bfs, "
                 "compression or spark-mining)\n";
    return 2;
  }
  if (opts.strategy == "retry") {
    rc.policy = realexec::RecoveryPolicy::kRetry;
  } else if (opts.strategy == "canary-ckpt") {
    rc.policy = realexec::RecoveryPolicy::kCheckpointRestore;
  } else if (opts.strategy == "as") {
    rc.policy = realexec::RecoveryPolicy::kWarmSpare;
  } else {
    std::cerr << "strategy '" << opts.strategy
              << "' is not available on the real backend (try retry, "
                 "canary-ckpt or as)\n";
    return 2;
  }
  if (!opts.report_path.empty() || !opts.trace_path.empty()) {
    std::cerr << "--report/--trace are simulator-only (the real backend "
                 "has no deterministic event log)\n";
    return 2;
  }
  rc.seed = opts.seed;
  rc.kills = static_cast<std::uint32_t>(opts.node_failures);

  realexec::ControllerConfig base;
  base.kv.max_entry_size = Bytes::mib(64);
  realexec::RealBackend backend(base);

  SampleSet makespan, window, recoveries;
  realexec::RealScenarioResult last;
  for (int rep = 0; rep < opts.reps; ++rep) {
    realexec::RealScenarioConfig rep_config = rc;
    rep_config.seed = opts.seed + static_cast<std::uint64_t>(rep);
    const auto result = backend.run(rep_config);
    for (const auto& v : result.violations) {
      std::cerr << "oracle violation: " << v << "\n";
    }
    if (!result.violations.empty()) return 1;
    makespan.add(result.makespan_s);
    window.add(result.recovery_window_s);
    recoveries.add(static_cast<double>(result.recoveries));
    last = result;
  }

  std::cout << "workload=" << opts.workload << " strategy=" << opts.strategy
            << " backend=real kills=" << rc.kills << " reps=" << opts.reps
            << "\n";
  TextTable table({"metric", "mean", "stddev", "min", "max"});
  auto row = [&](const std::string& name, const SampleSet& samples,
                 int precision = 3) {
    table.add_row({name, TextTable::num(samples.mean(), precision),
                   TextTable::num(samples.stddev(), precision),
                   TextTable::num(samples.min(), precision),
                   TextTable::num(samples.max(), precision)});
  };
  row("makespan [s]", makespan);
  row("recovery window [s]", window);
  row("recoveries", recoveries, 1);
  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  if (opts.breakdown) {
    TextTable bd({"component", "last run [s]"});
    for (const obs::PathComponent c : obs::kRecoveryComponents) {
      bd.add_row({std::string(obs::to_string_view(c)),
                  TextTable::num(last.recovery[c], 3)});
    }
    if (opts.csv) {
      bd.print_csv(std::cout);
    } else {
      bd.print(std::cout);
    }
  }
  std::cout << "stale-epoch rejects: " << last.kv_stale_epoch_rejects << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  if (opts.help) {
    usage();
    return 1;
  }

  if (opts.backend == "real") return run_real_backend(opts);

  auto job = build_job(opts);
  if (opts.sla_seconds > 0.0) job.sla = Duration::sec(opts.sla_seconds);
  const std::vector<faas::JobSpec> jobs = {std::move(job)};

  harness::ScenarioConfig config;
  config.strategy = build_strategy(opts);
  config.strategy.canary.proactive.enabled = opts.proactive;
  config.strategy.canary.sla_aware = opts.sla_seconds > 0.0;
  config.error_rate = opts.error_rate;
  config.cluster_nodes = opts.nodes;
  config.seed = opts.seed;
  for (int n = 0; n < opts.node_failures; ++n) {
    config.node_failure_offsets.push_back(Duration::sec(8.0 * (n + 1)));
  }
  config.attribution = opts.attribution;

  const auto agg = harness::run_repetitions(config, jobs, opts.reps);

  TextTable table({"metric", "mean", "stddev", "min", "max"});
  auto row = [&](const std::string& name, const SampleSet& samples,
                 int precision = 2) {
    table.add_row({name, TextTable::num(samples.mean(), precision),
                   TextTable::num(samples.stddev(), precision),
                   TextTable::num(samples.min(), precision),
                   TextTable::num(samples.max(), precision)});
  };
  row("makespan [s]", agg.makespan_s);
  row("total recovery [s]", agg.total_recovery_s);
  row("mean recovery/failure [s]", agg.mean_recovery_s);
  row("lost work [s]", agg.lost_work_s);
  row("failures", agg.failures, 1);
  row("cost [$]", agg.cost_usd, 4);
  row("replica cost [$]", agg.replica_cost_usd, 4);
  if (opts.sla_seconds > 0.0) row("SLA violations", agg.sla_violations, 1);

  std::cout << "workload=" << opts.workload << " strategy=" << opts.strategy
            << " error=" << opts.error_rate << " functions=" << opts.functions
            << " nodes=" << opts.nodes << " reps=" << opts.reps << "\n";
  if (agg.incomplete_runs > 0) {
    std::cout << "WARNING: " << agg.incomplete_runs
              << " repetition(s) ended with incomplete jobs\n";
  }
  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  if (opts.breakdown) {
    const obs::BreakdownReport& bd = agg.breakdown;
    TextTable bd_table({"component", "recovery [s]", "end-to-end [s]"});
    for (std::size_t c = 0; c < obs::kPathComponentCount; ++c) {
      const auto component = static_cast<obs::PathComponent>(c);
      bd_table.add_row({std::string(obs::to_string_view(component)),
                        TextTable::num(bd.recovery_components[component], 3),
                        TextTable::num(bd.end_to_end_components[component], 3)});
    }
    std::cout << "critical-path breakdown (" << bd.recovery_count
              << " recoveries, " << TextTable::num(bd.recovery_window_s, 3)
              << " s inside failure-to-recovery windows):\n";
    if (opts.csv) {
      bd_table.print_csv(std::cout);
    } else {
      bd_table.print(std::cout);
    }
    if (bd.slo_targets > 0) {
      std::cout << "SLO: " << bd.slo_violations << "/" << bd.slo_targets
                << " breached (ratio "
                << TextTable::num(bd.slo_violation_ratio(), 3) << ")";
      for (const auto& [component, count] : bd.slo_breaches_by_component) {
        std::cout << " " << component << "=" << count;
      }
      std::cout << "\n";
    }
  }

  if (!opts.report_path.empty()) {
    obs::RunReport report = harness::make_report("experiment_cli", config, agg);
    report.set_param("workload", opts.workload);
    report.set_param("functions", static_cast<double>(opts.functions));
    report.set_param("node_failures", static_cast<double>(opts.node_failures));
    report.set_param("sla_s", opts.sla_seconds);
    report.set_param("proactive", opts.proactive ? "1" : "0");
    if (!report.save(opts.report_path)) {
      std::cerr << "failed to write " << opts.report_path << "\n";
      return 1;
    }
    std::cout << "report: " << opts.report_path << "\n";
  }

  if (!opts.trace_path.empty()) {
    // One extra run of the base seed with the span timeline on: the trace
    // is a timeline of a single repetition, not an aggregate. The causal
    // DAG it is derived from rides along as instant + flow events linking
    // failures to recoveries.
    harness::ScenarioConfig traced = config;
    traced.record_spans = true;
    traced.record_events = true;
    const auto run = harness::ScenarioRunner::run(traced, jobs);
    // With attribution on, the windowed rollups ride along as a counter
    // track.
    const obs::TimeSeries* series =
        run.attribution ? &run.attribution->timeseries : nullptr;
    if (run.spans == nullptr ||
        !obs::write_chrome_trace_file(opts.trace_path, run.spans.get(),
                                      run.events.get(), series)) {
      std::cerr << "failed to write " << opts.trace_path << "\n";
      return 1;
    }
    std::cout << "trace: " << opts.trace_path << " (" << run.spans->size()
              << " spans, " << (run.events ? run.events->size() : 0)
              << " events; open in chrome://tracing or ui.perfetto.dev)\n";
  }
  return 0;
}
