// Open-loop traffic curves: the bench the closed-loop figures cannot
// produce. Sweeps offered load against a fixed admission capacity and
// reports goodput and tail latency per point — goodput tracks offered
// load until saturation then plateaus while p99 diverges and admission
// sheds the excess (the classic open-loop overload shape). Two extra
// sections exercise the reactive warm-pool autoscaler against an on/off
// burst (with vs. without) and overload concurrent with a node failure
// under the full Canary strategy.
//
// Writes BENCH_traffic_curves.json (canary.bench/v2). Every run (each
// sweep point, both burst runs, the overload run) is checked against the
// chaos oracles — among them both conservation identities
//
//   offered == admitted + shed + queued_end
//   admitted == completed + in_flight
//
// and a drained backlog (nothing in flight or queued at the end) — and
// against p50 <= p99 when anything completed, plus a strictly increasing
// offered-load axis, goodput never above offered load, no shedding below
// 0.75x capacity, and the autoscaler retiring no more containers than it
// launched. Violations exit 1.
//
// Usage: traffic_curves [--quick]
// Environment: CANARY_QUICK=1 (same as --quick), CANARY_REPORT_DIR.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "support.hpp"

#include "common/table.hpp"
#include "harness/scenario.hpp"
#include "obs/json.hpp"
#include "recovery/strategies.hpp"
#include "traffic/generator.hpp"

namespace {

using canary::Duration;
using canary::TextTable;
using canary::harness::RunResult;
using canary::harness::ScenarioConfig;
using canary::harness::ScenarioRunner;
using canary::obs::JsonWriter;

std::string num(double v) { return TextTable::num(v, 4); }

// The sweep's nominal service capacity is the tighter of two pipeline
// bottlenecks: `max_concurrent` admission slots each turning over one
// invocation per warm service time (reuse is forced for traffic runs, so
// steady-state service skips launch+init), and the platform's serial
// scheduler, which dispatches one invocation per `scheduler_overhead`
// tick regardless of slot availability.
constexpr std::size_t kMaxConcurrent = 32;
constexpr std::size_t kQueueCapacity = 64;
const Duration kStateWork = Duration::msec(100);
const Duration kFinalize = Duration::msec(50);

double capacity_rps() {
  const double service_s = (kStateWork * 2.0 + kFinalize).to_seconds();
  const double slot_rps = static_cast<double>(kMaxConcurrent) / service_s;
  const double scheduler_rps =
      1.0 / canary::faas::PlatformConfig{}.scheduler_overhead.to_seconds();
  return std::min(slot_rps, scheduler_rps);
}

canary::traffic::StreamConfig web_stream(double rate_hz) {
  canary::traffic::StreamConfig stream;
  stream.name = "web";
  stream.fn.runtime = canary::faas::RuntimeImage::kPython3;
  stream.fn.states = canary::faas::StateTable(2, {kStateWork, {}});
  stream.fn.finalize = kFinalize;
  stream.arrival.kind = canary::traffic::ArrivalSpec::Kind::kPoisson;
  stream.arrival.rate_hz = rate_hz;
  stream.admission.max_concurrent = kMaxConcurrent;
  stream.admission.queue_capacity = kQueueCapacity;
  return stream;
}

ScenarioConfig base_config(Duration horizon) {
  ScenarioConfig config;
  config.strategy = canary::recovery::StrategyConfig::retry();
  config.error_rate = 0.0;
  config.cluster_nodes = 8;
  config.seed = 20240801;
  config.traffic.enabled = true;
  config.traffic.horizon = horizon;
  return config;
}

/// One traffic run's totals, read off its metric registry.
struct TrafficView {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_flight = 0;   // admitted, unresolved at run end
  std::uint64_t queued_end = 0;  // still buffered at run end
  std::uint64_t queue_peak = 0;
  double latency_p50_ms = 0.0;  // arrival -> completion
  double latency_p99_ms = 0.0;
  double queue_wait_p99_ms = 0.0;  // arrival -> platform submission
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_ins = 0;
  std::uint64_t containers_launched = 0;
  std::uint64_t containers_retired = 0;
  std::uint64_t node_kills = 0;
};

TrafficView traffic_view(const RunResult& r) {
  const canary::obs::MetricRegistry& m = r.metrics;
  const auto count = [&m](const char* name) {
    return static_cast<std::uint64_t>(m.counter(name));
  };
  const auto level = [&m](const char* name) {
    return static_cast<std::uint64_t>(m.gauge(name));
  };
  TrafficView t;
  t.offered = count("traffic_offered");
  t.admitted = count("traffic_admitted");
  t.shed = count("traffic_shed");
  t.completed = count("traffic_completed");
  t.in_flight = level("traffic_in_flight_end");
  t.queued_end = level("traffic_queued_end");
  t.queue_peak = level("traffic_queue_peak");
  const canary::obs::Histogram& latency = m.histogram("traffic_latency");
  t.latency_p50_ms = latency.p50() * 1e3;
  t.latency_p99_ms = latency.p99() * 1e3;
  t.queue_wait_p99_ms = m.histogram("traffic_queue_wait").p99() * 1e3;
  t.scale_ups = count("autoscaler_scale_ups");
  t.scale_ins = count("autoscaler_scale_ins");
  t.containers_launched = count("autoscaler_containers_launched");
  t.containers_retired = count("autoscaler_containers_retired");
  t.node_kills = r.injected.node_kills;
  return t;
}

struct Point {
  double load = 0.0;
  TrafficView t;
  double horizon_s = 0.0;

  double offered_rps() const {
    return static_cast<double>(t.offered) / horizon_s;
  }
  double goodput_rps() const {
    return static_cast<double>(t.completed) / horizon_s;
  }
};

/// Writes one summary's fields into the open object.
void write_summary(JsonWriter& json, const TrafficView& t) {
  json.field("offered", t.offered);
  json.field("admitted", t.admitted);
  json.field("shed", t.shed);
  json.field("completed", t.completed);
  json.field("in_flight", t.in_flight);
  json.field("queued_end", t.queued_end);
  json.field("queue_peak", t.queue_peak);
  json.field("p50_ms", t.latency_p50_ms);
  json.field("p99_ms", t.latency_p99_ms);
  json.field("queue_wait_p99_ms", t.queue_wait_p99_ms);
}

/// Runs `config`, checks the run against the chaos oracles and its
/// percentiles for monotonicity, and returns its totals.
TrafficView checked_run(const std::string& where, const ScenarioConfig& config,
                        std::vector<std::string>& violations) {
  const RunResult result = ScenarioRunner::run(config, {});
  canary::bench::check_oracles(where, config, result, violations);
  const TrafficView t = traffic_view(result);
  if (t.completed > 0 && t.latency_p99_ms < t.latency_p50_ms) {
    violations.push_back(where + ": p99 " + num(t.latency_p99_ms) +
                         " < p50 " + num(t.latency_p50_ms));
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = canary::bench::quick_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: traffic_curves [--quick]\n";
      return 2;
    }
  }

  const Duration horizon = quick ? Duration::sec(10.0) : Duration::sec(40.0);
  const double capacity = capacity_rps();
  const std::vector<double> loads =
      quick ? std::vector<double>{0.5, 0.9, 1.25}
            : std::vector<double>{0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5};

  std::cout << "traffic curves: capacity " << num(capacity)
            << " rps, horizon " << horizon.to_seconds() << " s"
            << (quick ? " (quick)" : "") << "\n\n";

  std::vector<std::string> violations;

  // ---- offered-load sweep ----------------------------------------------
  std::vector<Point> points;
  for (const double load : loads) {
    ScenarioConfig config = base_config(horizon);
    config.traffic.streams.push_back(web_stream(load * capacity));
    Point p;
    p.load = load;
    p.t = checked_run("load " + num(load), config, violations);
    p.horizon_s = horizon.to_seconds();
    if (load <= 0.75 && p.t.shed != 0) {
      violations.push_back("shed " + std::to_string(p.t.shed) +
                           " arrival(s) at subcritical load " + num(load));
    }
    if (p.goodput_rps() > p.offered_rps() + 1e-9) {
      violations.push_back("goodput " + num(p.goodput_rps()) +
                           " rps exceeds offered " + num(p.offered_rps()) +
                           " rps at load " + num(load));
    }
    if (!points.empty() && p.offered_rps() <= points.back().offered_rps()) {
      violations.push_back("offered load " + num(p.offered_rps()) +
                           " rps at load " + num(load) +
                           " not above the previous point's");
    }
    points.push_back(p);
  }

  TextTable curve({"load", "offered [rps]", "goodput [rps]", "shed",
                   "p50 [ms]", "p99 [ms]", "queue peak"});
  for (const Point& p : points) {
    curve.add_row({num(p.load), num(p.offered_rps()), num(p.goodput_rps()),
                   std::to_string(p.t.shed), num(p.t.latency_p50_ms),
                   num(p.t.latency_p99_ms), std::to_string(p.t.queue_peak)});
  }
  curve.print(std::cout);

  // ---- burst response: autoscaler off vs. on ----------------------------
  const auto burst_config = [&](bool autoscale) {
    ScenarioConfig config = base_config(horizon);
    canary::traffic::StreamConfig stream = web_stream(0.0);
    stream.name = "burst";
    stream.arrival.kind = canary::traffic::ArrivalSpec::Kind::kOnOff;
    stream.arrival.rate_hz = 0.9 * capacity;
    stream.arrival.off_rate_hz = 0.05 * capacity;
    stream.arrival.on_mean = Duration::sec(2.0);
    stream.arrival.off_mean = Duration::sec(3.0);
    config.traffic.streams.push_back(std::move(stream));
    config.traffic.autoscaler.enabled = autoscale;
    config.traffic.autoscaler.max_warm = 16;
    return config;
  };
  const TrafficView burst_off =
      checked_run("burst without autoscaler", burst_config(false), violations);
  const TrafficView burst_on =
      checked_run("burst with autoscaler", burst_config(true), violations);
  if (burst_on.containers_retired > burst_on.containers_launched) {
    violations.push_back("autoscaler retired more containers than it "
                         "launched");
  }

  TextTable burst({"autoscaler", "offered", "completed", "shed", "p99 [ms]",
                   "scale ups", "scale ins", "launched", "retired"});
  for (const TrafficView* v : {&burst_off, &burst_on}) {
    const TrafficView& t = *v;
    burst.add_row({v == &burst_off ? "off" : "on", std::to_string(t.offered),
                   std::to_string(t.completed), std::to_string(t.shed),
                   num(t.latency_p99_ms), std::to_string(t.scale_ups),
                   std::to_string(t.scale_ins),
                   std::to_string(t.containers_launched),
                   std::to_string(t.containers_retired)});
  }
  std::cout << "\nburst response (on/off arrivals, 90%/5% of capacity):\n";
  burst.print(std::cout);

  // ---- overload concurrent with a node failure --------------------------
  ScenarioConfig overload = base_config(horizon);
  overload.strategy = canary::recovery::StrategyConfig::canary_full();
  overload.traffic.streams.push_back(web_stream(1.2 * capacity));
  overload.node_failure_offsets.push_back(horizon * 0.4);
  const TrafficView ft = checked_run("overload + failure", overload, violations);
  std::cout << "\noverload (1.2x) + node failure at "
            << (horizon * 0.4).to_seconds() << " s: offered " << ft.offered
            << ", completed " << ft.completed << ", shed " << ft.shed
            << ", p99 " << num(ft.latency_p99_ms) << " ms, node kills "
            << ft.node_kills << "\n";

  const bool written = canary::bench::write_bench_report(
      "traffic_curves", quick, violations, {},
      [&](JsonWriter& json) {
        json.field("horizon_s", horizon.to_seconds());
        json.field("capacity_rps", capacity);
        json.field("max_concurrent",
                   static_cast<std::uint64_t>(kMaxConcurrent));
        json.field("queue_capacity",
                   static_cast<std::uint64_t>(kQueueCapacity));
        json.field("seed", 20240801);
      },
      [&](JsonWriter& json) {
        json.key("curves").begin_array();
        for (const Point& p : points) {
          json.begin_object();
          json.field("load_factor", p.load);
          json.field("offered_rps", p.offered_rps());
          json.field("goodput_rps", p.goodput_rps());
          write_summary(json, p.t);
          json.end_object();
        }
        json.end_array();
        json.key("burst").begin_object();
        json.key("without_autoscaler").begin_object();
        write_summary(json, burst_off);
        json.end_object();
        json.key("with_autoscaler").begin_object();
        write_summary(json, burst_on);
        json.field("scale_ups", burst_on.scale_ups);
        json.field("scale_ins", burst_on.scale_ins);
        json.field("containers_launched", burst_on.containers_launched);
        json.field("containers_retired", burst_on.containers_retired);
        json.end_object();
        json.end_object();
        json.key("overload_failure").begin_object();
        write_summary(json, ft);
        json.field("node_kills", ft.node_kills);
        json.end_object();
      });
  if (!written) return 1;
  if (!violations.empty()) {
    return canary::bench::fail("traffic curves", violations);
  }
  std::cout << "\ntraffic curves passed: conservation held at every point\n";
  return 0;
}
