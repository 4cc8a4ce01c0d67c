// Run-report bridge for the google-benchmark microbenchmarks: a console
// reporter that mirrors every benchmark run into an obs::RunReport, so
// the micro benches emit the same BENCH_<name>.json artifacts as the
// figure benches and CI can diff them across commits.
//
// Wall-clock measurements are inherently non-deterministic; the reports
// exist for trend diffing, not byte-identity (unlike the seeded
// simulation reports).
#pragma once

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "support.hpp"

namespace canary::bench {

class ObsBenchReporter : public benchmark::ConsoleReporter {
 public:
  explicit ObsBenchReporter(obs::RunReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      if (run.run_type == Run::RT_Aggregate) continue;
      const std::string name = run.benchmark_name();
      report_->set_scalar(name + "/real_time", run.GetAdjustedRealTime());
      report_->set_scalar(name + "/cpu_time", run.GetAdjustedCPUTime());
      report_->set_scalar(name + "/iterations",
                          static_cast<double>(run.iterations));
      for (const auto& [counter_name, counter] : run.counters) {
        report_->set_scalar(name + "/" + counter_name,
                            static_cast<double>(counter));
      }
    }
  }

 private:
  obs::RunReport* report_;
};

/// Drop-in replacement for BENCHMARK_MAIN()'s body that also writes
/// BENCH_<name>.json (honouring $CANARY_REPORT_DIR).
inline int run_micro_benchmarks(int argc, char** argv,
                                const std::string& name) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  obs::RunReport report;
  report.name = name;
  ObsBenchReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const std::string path = report_path(name);
  if (!report.save(path)) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "report: " << path << "\n";
  return 0;
}

}  // namespace canary::bench
