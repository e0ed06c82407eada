// Open-loop traffic curves: the bench the closed-loop figures cannot
// produce. Sweeps offered load against a fixed admission capacity and
// reports goodput and tail latency per point — goodput tracks offered
// load until saturation then plateaus while p99 diverges and admission
// sheds the excess (the classic open-loop overload shape). Two extra
// sections exercise the reactive warm-pool autoscaler against an on/off
// burst (with vs. without) and overload concurrent with a node failure
// under the full Canary strategy.
//
// Emits a machine-readable canary.traffic/v1 report and self-checks the
// conservation identities on every run:
//
//   offered == admitted + shed + queued_end
//   admitted == completed + failed + in_flight
//
// plus "no shedding below 0.75x capacity". Violations exit 1.
//
// Usage: traffic_curves [--quick]
// Environment: CANARY_QUICK=1 (same as --quick), CANARY_REPORT_DIR.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "harness/scenario.hpp"
#include "recovery/strategies.hpp"
#include "traffic/generator.hpp"

namespace {

using canary::Duration;
using canary::TextTable;
using canary::harness::RunResult;
using canary::harness::ScenarioConfig;
using canary::harness::ScenarioRunner;
using canary::obs::MetricRegistry;

bool quick_mode() {
  const char* v = std::getenv("CANARY_QUICK");
  return v != nullptr && *v != '\0' && *v != '0';
}

std::string num(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(4) << v;
  return os.str();
}

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
  stream.fn.states.push_back({kStateWork, {}});
  stream.fn.states.push_back({kStateWork, {}});
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

// Readers of the run's registry: arrival-to-completion latency and
// submission wait percentiles in ms, and counters as integers.
double latency_ms(const MetricRegistry& m, double p) {
  return m.histogram("traffic_latency").percentile(p) * 1e3;
}

std::uint64_t count(const MetricRegistry& m, const char* counter) {
  return static_cast<std::uint64_t>(m.counter(counter));
}

struct Point {
  double load = 0.0;
  RunResult run;
  double horizon_s = 0.0;

  double offered_rps() const {
    return static_cast<double>(run.traffic.offered) / horizon_s;
  }
  double goodput_rps() const {
    return static_cast<double>(run.traffic.completed) / horizon_s;
  }
};

void write_summary_json(std::ostream& os, const std::string& indent,
                        const RunResult& run) {
  const RunResult::TrafficSummary& t = run.traffic;
  const MetricRegistry& m = run.metrics;
  os << indent << "\"offered\": " << t.offered << ",\n";
  os << indent << "\"admitted\": " << t.admitted << ",\n";
  os << indent << "\"shed\": " << t.shed << ",\n";
  os << indent << "\"completed\": " << t.completed << ",\n";
  os << indent << "\"failed\": " << t.failed << ",\n";
  os << indent << "\"in_flight\": " << t.in_flight << ",\n";
  os << indent << "\"queued_end\": " << t.queued_end << ",\n";
  os << indent << "\"queue_peak\": "
     << static_cast<std::uint64_t>(m.gauge("traffic_queue_peak")) << ",\n";
  os << indent << "\"p50_ms\": " << num(latency_ms(m, 50.0)) << ",\n";
  os << indent << "\"p99_ms\": " << num(latency_ms(m, 99.0)) << ",\n";
  os << indent << "\"queue_wait_p99_ms\": "
     << num(m.histogram("traffic_queue_wait").p99() * 1e3) << ",\n";
  os << indent << "\"conservation_ok\": "
     << (t.conserved() ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = quick_mode();
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
    p.run = ScenarioRunner::run(config, {});
    p.horizon_s = horizon.to_seconds();
    const RunResult::TrafficSummary& t = p.run.traffic;
    if (!t.conserved()) {
      violations.push_back("conservation violated at load " + num(load));
    }
    if (load <= 0.75 && t.shed != 0) {
      violations.push_back("shed " + std::to_string(t.shed) +
                           " arrival(s) at subcritical load " + num(load));
    }
    points.push_back(std::move(p));
  }

  TextTable curve({"load", "offered [rps]", "goodput [rps]", "shed",
                   "p50 [ms]", "p99 [ms]", "queue peak"});
  for (const Point& p : points) {
    const MetricRegistry& m = p.run.metrics;
    curve.add_row({num(p.load), num(p.offered_rps()), num(p.goodput_rps()),
                   std::to_string(p.run.traffic.shed),
                   num(latency_ms(m, 50.0)), num(latency_ms(m, 99.0)),
                   std::to_string(static_cast<std::uint64_t>(
                       m.gauge("traffic_queue_peak")))});
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
  const RunResult burst_off = ScenarioRunner::run(burst_config(false), {});
  const RunResult burst_on = ScenarioRunner::run(burst_config(true), {});
  if (!burst_off.traffic.conserved() || !burst_on.traffic.conserved()) {
    violations.push_back("conservation violated in burst section");
  }

  TextTable burst({"autoscaler", "offered", "completed", "shed", "p99 [ms]",
                   "scale ups", "scale ins", "launched", "retired"});
  for (const RunResult* r : {&burst_off, &burst_on}) {
    const auto& t = r->traffic;
    const MetricRegistry& m = r->metrics;
    burst.add_row(
        {r == &burst_off ? "off" : "on", std::to_string(t.offered),
         std::to_string(t.completed), std::to_string(t.shed),
         num(latency_ms(m, 99.0)),
         std::to_string(count(m, "autoscaler_scale_ups")),
         std::to_string(count(m, "autoscaler_scale_ins")),
         std::to_string(count(m, "autoscaler_containers_launched")),
         std::to_string(count(m, "autoscaler_containers_retired"))});
  }
  std::cout << "\nburst response (on/off arrivals, 90%/5% of capacity):\n";
  burst.print(std::cout);

  // ---- overload concurrent with a node failure --------------------------
  ScenarioConfig overload = base_config(horizon);
  overload.strategy = canary::recovery::StrategyConfig::canary_full();
  overload.traffic.streams.push_back(web_stream(1.2 * capacity));
  overload.node_failure_offsets.push_back(horizon * 0.4);
  const RunResult failure_run = ScenarioRunner::run(overload, {});
  if (!failure_run.traffic.conserved()) {
    violations.push_back("conservation violated in overload+failure section");
  }
  const auto& ft = failure_run.traffic;
  std::cout << "\noverload (1.2x) + node failure at "
            << (horizon * 0.4).to_seconds() << " s: offered " << ft.offered
            << ", completed " << ft.completed << ", shed " << ft.shed
            << ", p99 " << num(latency_ms(failure_run.metrics, 99.0))
            << " ms, node kills "
            << count(failure_run.metrics, "injected_node_kills") << "\n";

  // ---- canary.traffic/v1 report ----------------------------------------
  const char* dir = std::getenv("CANARY_REPORT_DIR");
  std::string path =
      (dir != nullptr && *dir != '\0') ? std::string(dir) + "/" : "";
  path += "BENCH_traffic_curves.json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  os << "{\n";
  os << "  \"schema\": \"canary.traffic/v1\",\n";
  os << "  \"name\": \"traffic_curves\",\n";
  os << "  \"params\": {\n";
  os << "    \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "    \"horizon_s\": " << num(horizon.to_seconds()) << ",\n";
  os << "    \"capacity_rps\": " << num(capacity) << ",\n";
  os << "    \"max_concurrent\": " << kMaxConcurrent << ",\n";
  os << "    \"queue_capacity\": " << kQueueCapacity << ",\n";
  os << "    \"seed\": 20240801\n";
  os << "  },\n";
  os << "  \"curves\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"load_factor\": " << num(p.load) << ",\n";
    os << "      \"offered_rps\": " << num(p.offered_rps()) << ",\n";
    os << "      \"goodput_rps\": " << num(p.goodput_rps()) << ",\n";
    write_summary_json(os, "      ", p.run);
    os << "\n    }";
  }
  os << "\n  ],\n";
  os << "  \"burst\": {\n";
  os << "    \"without_autoscaler\": {\n";
  write_summary_json(os, "      ", burst_off);
  os << "\n    },\n";
  os << "    \"with_autoscaler\": {\n";
  write_summary_json(os, "      ", burst_on);
  const MetricRegistry& on = burst_on.metrics;
  os << ",\n      \"scale_ups\": " << count(on, "autoscaler_scale_ups")
     << ",\n";
  os << "      \"scale_ins\": " << count(on, "autoscaler_scale_ins") << ",\n";
  os << "      \"containers_launched\": "
     << count(on, "autoscaler_containers_launched") << ",\n";
  os << "      \"containers_retired\": "
     << count(on, "autoscaler_containers_retired") << "\n    }\n";
  os << "  },\n";
  os << "  \"overload_failure\": {\n";
  write_summary_json(os, "    ", failure_run);
  os << ",\n    \"node_kills\": "
     << count(failure_run.metrics, "injected_node_kills") << "\n";
  os << "  },\n";
  os << "  \"conservation\": {\n";
  os << "    \"ok\": " << (violations.empty() ? "true" : "false") << ",\n";
  os << "    \"violations\": " << violations.size() << "\n";
  os << "  }\n";
  os << "}\n";
  os.close();
  std::cout << "\nreport: " << path << "\n";

  if (!violations.empty()) {
    std::cerr << "\ntraffic curves FAILED:\n";
    for (const std::string& v : violations) std::cerr << "  - " << v << "\n";
    return 1;
  }
  std::cout << "\ntraffic curves passed: conservation held at every point\n";
  return 0;
}
