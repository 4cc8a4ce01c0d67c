// Shared helpers for the figure-reproduction benchmark binaries.
//
// Each bench regenerates one figure of the paper's evaluation (§V): it
// sweeps the figure's x-axis, runs the compared strategies with the
// paper's repetition discipline (averaged repetitions, fixed seeds), and
// prints (a) the figure's series as an aligned table and (b) the paper's
// headline claim next to the measured value. Every figure bench also
// emits a machine-readable BENCH_<name>.json run report (obs::RunReport,
// canary.run_report/v3) so CI can archive and diff results across
// commits. The bench-family binaries (scale_stress, chaos_campaign,
// traffic_curves, fig09_hedging, fig13_partitions, realexec_validate)
// write their reports through write_bench_report() instead, in the one
// canary.bench/v2 envelope.
//
// Environment:
//   CANARY_QUICK=1        shrink sweeps/repetitions for CI smoke runs
//   CANARY_REPORT_DIR=dir where BENCH_<name>.json is written (default .)
#pragma once

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "harness/chaos.hpp"
#include "harness/experiment.hpp"
#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "workloads/workloads.hpp"

namespace canary::bench {

/// CI smoke mode: a cut-down sweep that exercises every code path in
/// seconds instead of minutes.
inline bool quick_mode() {
  const char* v = std::getenv("CANARY_QUICK");
  return v != nullptr && *v != '\0' && *v != '0';
}

/// Where a bench writes its report: BENCH_<name>.json in
/// $CANARY_REPORT_DIR, or in the working directory.
inline std::string report_path(std::string_view name) {
  const char* dir = std::getenv("CANARY_REPORT_DIR");
  std::string path =
      (dir != nullptr && *dir != '\0') ? std::string(dir) + "/" : "";
  return path + "BENCH_" + std::string(name) + ".json";
}

/// One headline number of a bench-family report. `tools/check_report.py
/// --baseline` fails when it is more than 20% worse than the committed
/// baseline's value in the direction that counts.
struct Gated {
  std::string name;
  double value = 0.0;
  bool lower_is_better = true;
};

/// Writes BENCH_<name>.json in the envelope every bench-family report
/// shares (canary.bench/v2):
///
///   {"schema": "canary.bench/v2", "name", "params": {"quick", ...},
///    "checks": {"violations": [<string>...]},
///    "gated": {<name>: {"value", "better": "lower"|"higher"}},
///    ...payload}
///
/// `params(json)` adds fields to the open params object and
/// `payload(json)` adds the bench's own top-level fields. The self-check
/// violations go in verbatim; tools/check_report.py fails a report that
/// lists any. Returns false (and complains) on I/O error.
template <typename ParamsFn, typename PayloadFn>
bool write_bench_report(std::string_view name, bool quick,
                        const std::vector<std::string>& violations,
                        const std::vector<Gated>& gated, ParamsFn&& params,
                        PayloadFn&& payload) {
  const std::string path = report_path(name);
  std::ofstream out(path);
  if (out) {
    obs::JsonWriter json(out, /*indent=*/2);
    json.begin_object();
    json.field("schema", "canary.bench/v2");
    json.field("name", name);
    json.key("params").begin_object();
    json.field("quick", quick);
    params(json);
    json.end_object();
    json.key("checks").begin_object().key("violations").begin_array();
    for (const std::string& v : violations) json.value(v);
    json.end_array().end_object();
    json.key("gated").begin_object();
    for (const Gated& g : gated) {
      json.key(g.name).begin_object();
      json.field("value", g.value);
      json.field("better", g.lower_is_better ? "lower" : "higher");
      json.end_object();
    }
    json.end_object();
    payload(json);
    json.end_object();
    out << '\n';
    out.close();
  }
  if (!out) {
    std::cerr << "failed to write " << path << "\n";
    return false;
  }
  std::cout << "\nreport: " << path << "\n";
  return true;
}

/// Lists a bench's self-check violations on stderr; returns the exit
/// status 1.
inline int fail(std::string_view bench,
                const std::vector<std::string>& violations) {
  std::cerr << "\n" << bench << " FAILED:\n";
  for (const std::string& v : violations) std::cerr << "  - " << v << "\n";
  return 1;
}

/// Checks one bench run against the chaos campaign's oracles (completion,
/// exactly-once, conservation, hedge accounting, no split brain, heal
/// convergence, ...) and appends each violation, prefixed with `label`.
inline void check_oracles(const std::string& label,
                          const harness::ScenarioConfig& config,
                          const harness::RunResult& result,
                          std::vector<std::string>& violations) {
  for (const std::string& v : harness::chaos_oracles({config, {}}, result)) {
    violations.push_back(label + ": " + v);
  }
}

/// Error-rate sweep used across Figures 4-10 ("vary the error rate from
/// 1% to 50%", §V-B). Quick mode keeps the endpoints and the midpoint.
inline const std::vector<double>& error_rates() {
  static const std::vector<double> rates =
      quick_mode() ? std::vector<double>{0.01, 0.10, 0.50}
                   : std::vector<double>{0.01, 0.05, 0.10, 0.20,
                                         0.30, 0.40, 0.50};
  return rates;
}

inline void print_figure_header(const std::string& figure,
                                const std::string& title,
                                const std::string& setup) {
  std::cout << "\n=== " << figure << ": " << title << " ===\n"
            << "setup: " << setup << "\n\n";
}

inline void print_claim(const std::string& claim, double measured,
                        const std::string& unit = "%") {
  std::cout << "  paper: " << claim << "\n  measured: "
            << TextTable::num(measured, 1) << unit << "\n";
}

/// Default repetition count. The paper averages 10 runs; 5 keeps every
/// bench binary in the seconds range while staying within the paper's
/// <5% run-to-run variance. Quick mode drops to 2.
inline const int kReps = quick_mode() ? 2 : 5;

inline harness::ScenarioConfig scenario(recovery::StrategyConfig strategy,
                                        double error_rate,
                                        std::size_t nodes = 16,
                                        std::uint64_t seed = 20220101) {
  harness::ScenarioConfig config;
  config.strategy = strategy;
  config.error_rate = error_rate;
  config.cluster_nodes = nodes;
  config.seed = seed;
  return config;
}

/// Collects one bench binary's output into a run report: the printed
/// tables become `series`, the printed paper-claim lines become `claims`,
/// and `save()` writes BENCH_<name>.json next to the binary (or into
/// $CANARY_REPORT_DIR).
class Reporter {
 public:
  explicit Reporter(std::string name) {
    report_.name = std::move(name);
    report_.set_param("quick", quick_mode() ? "1" : "0");
    report_.set_param("repetitions", static_cast<double>(kReps));
  }

  obs::RunReport& report() { return report_; }

  /// Attach a printed table as a named series.
  void add_table(const std::string& series_name, const TextTable& table) {
    report_.series.push_back({series_name, table.headers(), table.rows()});
  }

  /// Print the paper-claim-vs-measured pair and record it in the report.
  void claim(const std::string& claim, double measured,
             const std::string& unit = "%") {
    print_claim(claim, measured, unit);
    report_.add_claim(claim, measured, unit);
  }

  /// Write BENCH_<name>.json; returns false (and complains) on I/O error.
  bool save() const {
    const std::string path = report_path(report_.name);
    if (!report_.save(path)) {
      std::cerr << "failed to write " << path << "\n";
      return false;
    }
    std::cout << "\nreport: " << path << "\n";
    return true;
  }

 private:
  obs::RunReport report_;
};

/// Print one aggregate's recovery critical-path breakdown and attach it to
/// the report (both as a series and merged into the report's `breakdown`
/// section). Benches call this on a representative sweep cell so the
/// figure output also says *where* the recovery window went.
inline void report_breakdown(Reporter& reporter, const std::string& label,
                             const harness::Aggregate& agg) {
  const obs::BreakdownReport& bd = agg.breakdown;
  TextTable table({"component", "recovery [s]", "end-to-end [s]"});
  for (std::size_t c = 0; c < obs::kPathComponentCount; ++c) {
    const auto component = static_cast<obs::PathComponent>(c);
    // Queueing only appears in open-loop (traffic-driven) runs and
    // hedging only in hedged runs; skipping the all-zero rows keeps the
    // other bench reports byte-identical.
    if ((component == obs::PathComponent::kQueueing ||
         component == obs::PathComponent::kHedging) &&
        bd.recovery_components[component] == 0.0 &&
        bd.end_to_end_components[component] == 0.0) {
      continue;
    }
    table.add_row({std::string(obs::to_string_view(component)),
                   TextTable::num(bd.recovery_components[component], 3),
                   TextTable::num(bd.end_to_end_components[component], 3)});
  }
  std::cout << "\nrecovery critical path (" << label << ", "
            << bd.recovery_count << " recoveries over "
            << TextTable::num(bd.recovery_window_s, 3) << " s):\n";
  table.print(std::cout);
  reporter.add_table("breakdown_" + label, table);
  reporter.report().breakdown.merge(bd);
}

}  // namespace canary::bench
