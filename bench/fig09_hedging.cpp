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
// Emits a machine-readable canary.hedge/v1 report and self-checks the
// exactly-once race accounting on every run:
//
//   hedges_fired == hedge_wins + hedges_cancelled   (no race left open)
//   hedges_fired <= admitted                        (at most one per request)
//   hedge p99    <= no-hedge p99                    (the point of hedging)
//
// Violations exit 1.
//
// Usage: fig09_hedging [--quick]
// Environment: CANARY_QUICK=1 (same as --quick), CANARY_REPORT_DIR.
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "harness/scenario.hpp"
#include "obs/histogram.hpp"
#include "recovery/strategies.hpp"
#include "traffic/generator.hpp"

namespace {

using canary::Duration;
using canary::TextTable;
using canary::harness::RunResult;
using canary::harness::ScenarioConfig;
using canary::harness::ScenarioRunner;

bool quick_mode() {
  const char* v = std::getenv("CANARY_QUICK");
  return v != nullptr && *v != '\0' && *v != '0';
}

std::string num(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(4) << v;
  return os.str();
}

constexpr std::uint64_t kSeed = 20250807;
const Duration kStateWork = Duration::msec(250);
const Duration kFinalize = Duration::msec(50);

canary::traffic::StreamConfig request_stream(double rate_hz) {
  canary::traffic::StreamConfig stream;
  stream.name = "req";
  stream.fn.runtime = canary::faas::RuntimeImage::kPython3;
  stream.fn.states.push_back({kStateWork, {}});
  stream.fn.states.push_back({kStateWork, {}});
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
  bool completed_ok = true;

  double p50_ms() const { return latency.p50() * 1e3; }
  double p99_ms() const { return latency.p99() * 1e3; }
  double p999_ms() const { return latency.percentile(99.9) * 1e3; }
};

StrategyResult run_strategy(const std::string& name,
                            const canary::recovery::StrategyConfig& strategy,
                            Duration horizon, int reps) {
  StrategyResult out;
  out.name = name;
  for (int rep = 0; rep < reps; ++rep) {
    const RunResult result = ScenarioRunner::run(
        strategy_config(strategy, horizon,
                        kSeed + static_cast<std::uint64_t>(rep)),
        {});
    out.latency.merge(result.metrics.histogram("traffic_latency"));
    out.admitted += result.traffic.admitted;
    out.completed += result.traffic.completed;
    out.shed += result.traffic.shed;
    out.cost_usd += result.cost_usd;
    const auto count = [&result](const char* counter) {
      return static_cast<std::uint64_t>(result.metrics.counter(counter));
    };
    out.hedges_fired += count("hedges_fired");
    out.hedge_wins += count("hedge_wins");
    out.hedges_cancelled += count("hedges_cancelled");
    out.hedges_denied += count("hedges_denied");
    out.open_races += result.hedge_open_races;
    out.completed_ok = out.completed_ok && result.completed;
  }
  return out;
}

void write_strategy_json(std::ostream& os, const std::string& indent,
                         const StrategyResult& s) {
  os << indent << "\"name\": \"" << s.name << "\",\n";
  os << indent << "\"p50_ms\": " << num(s.p50_ms()) << ",\n";
  os << indent << "\"p99_ms\": " << num(s.p99_ms()) << ",\n";
  os << indent << "\"p999_ms\": " << num(s.p999_ms()) << ",\n";
  os << indent << "\"cost_usd\": " << num(s.cost_usd) << ",\n";
  os << indent << "\"admitted\": " << s.admitted << ",\n";
  os << indent << "\"completed\": " << s.completed << ",\n";
  os << indent << "\"shed\": " << s.shed << ",\n";
  os << indent << "\"hedges_fired\": " << s.hedges_fired << ",\n";
  os << indent << "\"hedge_wins\": " << s.hedge_wins << ",\n";
  os << indent << "\"hedges_cancelled\": " << s.hedges_cancelled << ",\n";
  os << indent << "\"hedges_denied\": " << s.hedges_denied << ",\n";
  os << indent << "\"open_races\": " << s.open_races;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = quick_mode();
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

  const StrategyResult retry = run_strategy(
      "retry", canary::recovery::StrategyConfig::retry(), horizon, reps);
  const StrategyResult hedge = run_strategy(
      "hedge", canary::recovery::StrategyConfig::hedged(hedge_config()),
      horizon, reps);
  const StrategyResult rr = run_strategy(
      "rr", canary::recovery::StrategyConfig::request_replication(1), horizon,
      reps);

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

  // ---- self-checks ------------------------------------------------------
  std::vector<std::string> violations;
  if (!retry.completed_ok || !hedge.completed_ok || !rr.completed_ok) {
    violations.push_back("a run ended with incomplete jobs");
  }
  if (hedge.hedges_fired != hedge.hedge_wins + hedge.hedges_cancelled) {
    violations.push_back(
        "exactly-once: fired " + std::to_string(hedge.hedges_fired) +
        " != wins " + std::to_string(hedge.hedge_wins) + " + cancelled " +
        std::to_string(hedge.hedges_cancelled));
  }
  if (hedge.open_races != 0) {
    violations.push_back(std::to_string(hedge.open_races) +
                         " race(s) left open after completed runs");
  }
  if (hedge.hedges_fired > hedge.admitted) {
    violations.push_back("fired " + std::to_string(hedge.hedges_fired) +
                         " hedges for only " +
                         std::to_string(hedge.admitted) + " admitted");
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

  // ---- canary.hedge/v1 report ------------------------------------------
  const char* dir = std::getenv("CANARY_REPORT_DIR");
  std::string path =
      (dir != nullptr && *dir != '\0') ? std::string(dir) + "/" : "";
  path += "BENCH_fig09_hedging.json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  os << "{\n";
  os << "  \"schema\": \"canary.hedge/v1\",\n";
  os << "  \"name\": \"fig09_hedging\",\n";
  os << "  \"params\": {\n";
  os << "    \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "    \"horizon_s\": " << num(horizon.to_seconds()) << ",\n";
  os << "    \"repetitions\": " << reps << ",\n";
  os << "    \"nodes\": 16,\n";
  os << "    \"rate_hz\": " << num(10.0) << ",\n";
  os << "    \"hedge_percentile\": " << num(hedge_config().percentile)
     << ",\n";
  os << "    \"seed\": " << kSeed << "\n";
  os << "  },\n";
  os << "  \"baseline\": {\n";
  write_strategy_json(os, "    ", retry);
  os << "\n  },\n";
  os << "  \"strategies\": [";
  bool first = true;
  for (const StrategyResult* s : {&hedge, &rr}) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\n";
    write_strategy_json(os, "      ", *s);
    os << "\n    }";
  }
  os << "\n  ],\n";
  os << "  \"claims\": {\n";
  os << "    \"hedge_vs_retry_p99_reduction_pct\": " << num(p99_cut) << ",\n";
  os << "    \"hedge_vs_rr_cost_reduction_pct\": " << num(cost_vs_rr) << "\n";
  os << "  },\n";
  os << "  \"checks\": {\n";
  os << "    \"ok\": " << (violations.empty() ? "true" : "false") << ",\n";
  os << "    \"violations\": " << violations.size() << "\n";
  os << "  }\n";
  os << "}\n";
  os.close();
  std::cout << "\nreport: " << path << "\n";

  if (!violations.empty()) {
    std::cerr << "\nfig09 hedging FAILED:\n";
    for (const std::string& v : violations) std::cerr << "  - " << v << "\n";
    return 1;
  }
  std::cout << "\nfig09 hedging passed: exactly-once held and hedging beat "
               "the no-hedge tail\n";
  return 0;
}
