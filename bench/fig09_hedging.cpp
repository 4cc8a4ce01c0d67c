// Hedged requests vs. request replication vs. retry under gray failures
// (the request-cloning model of arXiv:2002.04416 as a tail-latency
// mechanism; ROADMAP "request cloning & speculative hedging").
//
// An open-loop Poisson stream runs against a cluster where gray slowdown
// windows manufacture stragglers (no hard failures: the tail is pure
// contention). Three strategies serve the same arrivals:
//
//   retry  — the no-hedge baseline; stragglers ride out the slowdown;
//   hedge  — a clone races each request that outlives the observed
//            latency percentile, first completion wins, loser cancelled;
//   rr     — full request replication (1 + 1 copies up-front, §V-D5).
//
// Hedging should recover most of replication's p99/p999 win at a
// fraction of its cost: clones launch only for the slow tail, so the
// duplicated work is bounded by (1 - percentile) instead of 100%.
//
// Writes BENCH_fig09_hedging.json (canary.bench/v2; the hedge
// strategy's p99 and cost are gated against
// bench/BENCH_hedge.baseline.json). Every run is checked against the
// chaos oracles — completion, exactly-once, traffic conservation (so
// completed <= admitted) and the hedge races' exactly-once accounting
// (fired == wins + cancelled, no race left open) among them — and the
// aggregates against:
//
//   p50 <= p99 <= p999                              (percentiles monotone)
//   hedges_fired <= admitted                        (at most one per request)
//   hedge p99    <= no-hedge p99                    (the point of hedging)
//   hedge cost   <  replication cost
//
// Violations exit 1.
//
// Usage: fig09_hedging [--quick]
// Environment: CANARY_QUICK=1 (same as --quick), CANARY_REPORT_DIR.
#include <iostream>
#include <string>
#include <vector>

#include "support.hpp"

#include "common/table.hpp"
#include "harness/scenario.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "recovery/strategies.hpp"
#include "traffic/generator.hpp"

namespace {

using canary::Duration;
using canary::TextTable;
using canary::harness::RunResult;
using canary::harness::ScenarioConfig;
using canary::harness::ScenarioRunner;

std::string num(double v) { return TextTable::num(v, 4); }

constexpr std::uint64_t kSeed = 20250807;
const Duration kStateWork = Duration::msec(250);
const Duration kFinalize = Duration::msec(50);

canary::traffic::StreamConfig request_stream(double rate_hz) {
  canary::traffic::StreamConfig stream;
  stream.name = "req";
  stream.fn.runtime = canary::faas::RuntimeImage::kPython3;
  stream.fn.states = canary::faas::StateTable(2, {kStateWork, {}});
  stream.fn.finalize = kFinalize;
  stream.arrival.kind = canary::traffic::ArrivalSpec::Kind::kPoisson;
  stream.arrival.rate_hz = rate_hz;
  // Generous admission: the comparison is about service-side tails, not
  // queueing; the hedge budget still bounds concurrent clones per class.
  stream.admission.max_concurrent = 64;
  stream.admission.queue_capacity = 128;
  stream.admission.hedge_budget = 16;
  return stream;
}

ScenarioConfig strategy_config(canary::recovery::StrategyConfig strategy,
                               Duration horizon, std::uint64_t seed) {
  ScenarioConfig config;
  config.strategy = std::move(strategy);
  config.error_rate = 0.0;  // the tail comes from gray slowdowns alone
  config.cluster_nodes = 16;
  config.seed = seed;
  config.traffic.enabled = true;
  config.traffic.horizon = horizon;
  config.traffic.streams.push_back(request_stream(10.0));
  // Gray windows staggered across the horizon, two random victims per
  // epoch degraded ~8x: least-loaded placement steers new arrivals away
  // from a lingering-slow node, so it takes a few percent of node-time
  // under degradation before the no-hedge p99 is a genuine straggler —
  // exactly the population hedging exists to rescue.
  const double h = horizon.to_seconds();
  for (double at = 0.1 * h; at < 0.9 * h; at += 0.2 * h) {
    for (int victim = 0; victim < 2; ++victim) {
      ScenarioConfig::GrayFailure gray;
      gray.at = Duration::sec(at);
      gray.duration = Duration::sec(0.18 * h);
      gray.slowdown = 8.0;
      config.gray_failures.push_back(gray);
    }
  }
  return config;
}

canary::recovery::HedgeConfig hedge_config() {
  canary::recovery::HedgeConfig cfg;
  // p90 trigger: a rescued straggler finishes at roughly the observed p90
  // plus one warm service time, which must land below the no-hedge p99
  // for hedging to move that percentile (stragglers here run ~8x).
  cfg.percentile = 90.0;
  cfg.min_samples = 16;
  // Bootstrap above the warm service time but far below a straggler, so
  // early stragglers are hedged too.
  cfg.initial_delay = Duration::msec(1000);
  cfg.max_outstanding = 32;
  return cfg;
}

/// One strategy's aggregate over the repetition sweep.
struct StrategyResult {
  std::string name;
  canary::obs::Histogram latency;  // merged arrival->completion seconds
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  double cost_usd = 0.0;  // summed over reps
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedges_cancelled = 0;
  std::uint64_t hedges_denied = 0;
  std::uint64_t open_races = 0;

  double p50_ms() const { return latency.p50() * 1e3; }
  double p99_ms() const { return latency.p99() * 1e3; }
  double p999_ms() const { return latency.percentile(99.9) * 1e3; }
};

/// Runs one strategy's repetitions, checking each run against the chaos
/// oracles.
StrategyResult run_strategy(const std::string& name,
                            const canary::recovery::StrategyConfig& strategy,
                            Duration horizon, int reps,
                            std::vector<std::string>& violations) {
  StrategyResult out;
  out.name = name;
  for (int rep = 0; rep < reps; ++rep) {
    const ScenarioConfig config = strategy_config(
        strategy, horizon, kSeed + static_cast<std::uint64_t>(rep));
    const RunResult result = ScenarioRunner::run(config, {});
    canary::bench::check_oracles(name + " rep " + std::to_string(rep), config,
                                 result, violations);
    const canary::obs::MetricRegistry& m = result.metrics;
    const auto count = [&m](const char* name) {
      return static_cast<std::uint64_t>(m.counter(name));
    };
    out.latency.merge(m.histogram("traffic_latency"));
    out.admitted += count("traffic_admitted");
    out.completed += count("traffic_completed");
    out.shed += count("traffic_shed");
    out.cost_usd += result.cost_usd;
    out.hedges_fired += count("hedges_fired");
    out.hedge_wins += count("hedge_wins");
    out.hedges_cancelled += count("hedges_cancelled");
    out.hedges_denied += count("hedges_denied");
    out.open_races += static_cast<std::uint64_t>(m.gauge("hedge_open_races"));
  }
  return out;
}

void write_strategy(canary::obs::JsonWriter& json, const StrategyResult& s) {
  json.begin_object();
  json.field("name", s.name);
  json.field("p50_ms", s.p50_ms());
  json.field("p99_ms", s.p99_ms());
  json.field("p999_ms", s.p999_ms());
  json.field("cost_usd", s.cost_usd);
  json.field("admitted", s.admitted);
  json.field("completed", s.completed);
  json.field("shed", s.shed);
  json.field("hedges_fired", s.hedges_fired);
  json.field("hedge_wins", s.hedge_wins);
  json.field("hedges_cancelled", s.hedges_cancelled);
  json.field("hedges_denied", s.hedges_denied);
  json.field("open_races", s.open_races);
  json.end_object();
}

/// The percentile and hedge-count checks every strategy's aggregate must
/// satisfy on top of its runs' oracles.
void check_strategy(const StrategyResult& s,
                    std::vector<std::string>& violations) {
  const std::string who = s.name + ": ";
  if (!(s.p50_ms() <= s.p99_ms() && s.p99_ms() <= s.p999_ms())) {
    violations.push_back(who + "percentiles not monotone (p50 " +
                         num(s.p50_ms()) + ", p99 " + num(s.p99_ms()) +
                         ", p999 " + num(s.p999_ms()) + ")");
  }
  if (s.hedges_fired > s.admitted) {
    violations.push_back(who + "fired " + std::to_string(s.hedges_fired) +
                         " hedges for only " + std::to_string(s.admitted) +
                         " admitted");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = canary::bench::quick_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: fig09_hedging [--quick]\n";
      return 2;
    }
  }

  const Duration horizon = quick ? Duration::sec(8.0) : Duration::sec(30.0);
  const int reps = quick ? 2 : 3;

  std::cout << "hedged requests: 16 nodes, 10 rps Poisson, gray slowdowns "
               "5x, horizon "
            << horizon.to_seconds() << " s x " << reps << " reps"
            << (quick ? " (quick)" : "") << "\n\n";

  std::vector<std::string> violations;
  const StrategyResult retry =
      run_strategy("retry", canary::recovery::StrategyConfig::retry(),
                   horizon, reps, violations);
  const StrategyResult hedge = run_strategy(
      "hedge", canary::recovery::StrategyConfig::hedged(hedge_config()),
      horizon, reps, violations);
  const StrategyResult rr = run_strategy(
      "rr", canary::recovery::StrategyConfig::request_replication(1), horizon,
      reps, violations);

  TextTable table({"strategy", "p50 [ms]", "p99 [ms]", "p999 [ms]",
                   "cost [$]", "admitted", "hedges", "wins"});
  for (const StrategyResult* s : {&retry, &hedge, &rr}) {
    table.add_row({s->name, num(s->p50_ms()), num(s->p99_ms()),
                   num(s->p999_ms()), num(s->cost_usd),
                   std::to_string(s->admitted),
                   std::to_string(s->hedges_fired),
                   std::to_string(s->hedge_wins)});
  }
  table.print(std::cout);

  const double p99_cut =
      retry.p99_ms() > 0.0
          ? 100.0 * (retry.p99_ms() - hedge.p99_ms()) / retry.p99_ms()
          : 0.0;
  const double cost_vs_rr =
      rr.cost_usd > 0.0 ? 100.0 * (rr.cost_usd - hedge.cost_usd) / rr.cost_usd
                        : 0.0;
  std::cout << "\nhedge vs retry p99: " << num(p99_cut)
            << "% lower; hedge vs rr cost: " << num(cost_vs_rr)
            << "% cheaper\n";

  // ---- self-checks (on top of every run's chaos oracles) ----------------
  for (const StrategyResult* s : {&retry, &hedge, &rr}) {
    check_strategy(*s, violations);
  }
  if (retry.hedges_fired != 0) {
    violations.push_back("the no-hedge baseline fired hedges");
  }
  if (hedge.hedges_fired == 0) {
    violations.push_back("no hedge ever fired: the gray tail is missing");
  }
  if (hedge.p99_ms() > retry.p99_ms()) {
    violations.push_back("hedge p99 " + num(hedge.p99_ms()) +
                         " ms above no-hedge p99 " + num(retry.p99_ms()) +
                         " ms");
  }
  if (hedge.cost_usd >= rr.cost_usd) {
    violations.push_back("hedge cost " + num(hedge.cost_usd) +
                         " not below replication cost " + num(rr.cost_usd));
  }

  using canary::obs::JsonWriter;
  const bool written = canary::bench::write_bench_report(
      "fig09_hedging", quick, violations,
      {{"hedge.p99_ms", hedge.p99_ms(), true},
       {"hedge.cost_usd", hedge.cost_usd, true}},
      [&](JsonWriter& json) {
        json.field("horizon_s", horizon.to_seconds());
        json.field("repetitions", reps);
        json.field("nodes", 16);
        json.field("rate_hz", 10.0);
        json.field("hedge_percentile", hedge_config().percentile);
        json.field("seed", kSeed);
      },
      [&](JsonWriter& json) {
        json.key("baseline");
        write_strategy(json, retry);
        json.key("strategies").begin_array();
        write_strategy(json, hedge);
        write_strategy(json, rr);
        json.end_array();
        json.key("claims").begin_object();
        json.field("hedge_vs_retry_p99_reduction_pct", p99_cut);
        json.field("hedge_vs_rr_cost_reduction_pct", cost_vs_rr);
        json.end_object();
      });
  if (!written) return 1;
  if (!violations.empty()) {
    return canary::bench::fail("fig09 hedging", violations);
  }
  std::cout << "\nfig09 hedging passed: exactly-once held and hedging beat "
               "the no-hedge tail\n";
  return 0;
}
