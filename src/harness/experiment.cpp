#include "harness/experiment.hpp"

#include <algorithm>

#include "harness/fan_out.hpp"

namespace canary::harness {

void Aggregate::add(const RunResult& run) {
  makespan_s.add(run.makespan_s);
  total_recovery_s.add(run.total_recovery_s);
  mean_recovery_s.add(run.mean_recovery_s);
  cost_usd.add(run.cost_usd);
  replica_cost_usd.add(run.cost.replica_usd);
  failures.add(run.failures);
  lost_work_s.add(run.lost_work_s);
  sla_violations.add(run.sla_violations);
  metrics.merge(run.metrics);
  breakdown.merge(run.breakdown);
  span_health.merge({run.spans_recorded, run.spans_dropped, {}});
  event_health.merge(
      {run.events_recorded, run.events_dropped, run.events_dropped_by_kind});
  obs::merge(attribution, run.attribution);
  if (!run.completed) ++incomplete_runs;
}

double Aggregate::counter_mean(const std::string& name) const {
  if (makespan_s.count() == 0) return 0.0;
  return metrics.counter(name) / static_cast<double>(makespan_s.count());
}

Aggregate run_repetitions(ScenarioConfig config,
                          const std::vector<faas::JobSpec>& jobs, int reps) {
  const std::vector<RunResult> runs = fan_out(
      static_cast<std::size_t>(std::max(reps, 0)), 0,
      [&config, &jobs](std::size_t rep) {
        ScenarioConfig rep_config = config;
        // Decorrelate repetitions while keeping the whole experiment
        // reproducible from the base seed.
        std::uint64_t sm = config.seed + rep;
        rep_config.seed = splitmix64(sm);
        return ScenarioRunner::run(rep_config, jobs);
      });
  Aggregate agg;
  for (const RunResult& run : runs) agg.add(run);
  return agg;
}

double reduction_pct(double baseline, double ours) {
  if (baseline <= 0.0) return 0.0;
  return (baseline - ours) / baseline * 100.0;
}

double overhead_pct(double baseline, double ours) {
  if (baseline <= 0.0) return 0.0;
  return (ours - baseline) / baseline * 100.0;
}

obs::RunReport make_report(std::string name, const ScenarioConfig& config,
                           const Aggregate& agg) {
  obs::RunReport report;
  report.name = std::move(name);
  report.set_param("strategy", config.strategy.label());
  report.set_param("error_rate", config.error_rate);
  report.set_param("cluster_nodes", static_cast<double>(config.cluster_nodes));
  report.set_param("seed", static_cast<double>(config.seed));
  report.set_param("repetitions", static_cast<double>(agg.makespan_s.count()));
  report.set_scalar("makespan_s_mean", agg.makespan_s.mean());
  report.set_scalar("makespan_s_stddev", agg.makespan_s.stddev());
  report.set_scalar("total_recovery_s_mean", agg.total_recovery_s.mean());
  report.set_scalar("mean_recovery_s_mean", agg.mean_recovery_s.mean());
  report.set_scalar("cost_usd_mean", agg.cost_usd.mean());
  report.set_scalar("replica_cost_usd_mean", agg.replica_cost_usd.mean());
  report.set_scalar("failures_mean", agg.failures.mean());
  report.set_scalar("lost_work_s_mean", agg.lost_work_s.mean());
  report.set_scalar("sla_violations_mean", agg.sla_violations.mean());
  report.set_scalar("incomplete_runs",
                    static_cast<double>(agg.incomplete_runs));
  report.metrics = agg.metrics;
  report.breakdown = agg.breakdown;
  report.span_health = agg.span_health;
  report.event_health = agg.event_health;
  report.attribution = agg.attribution;
  return report;
}

}  // namespace canary::harness
