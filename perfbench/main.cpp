// perfbench: runs one workload for a fixed host-time budget and
// prints every metric by name with its unit. The last line of stdout is
// the result object {"correct", "attempted", "failed", "metrics"}.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans-out PATH]
//
// A run sets up several times (input generation from the seed, an engine
// calibration loop, one warm-up pass; the first warm-up is a decomposed
// pass that checks every run's invariants), checks the sweep against
// run_repetitions itself (untimed), then measures on one thread:
//   --trace 0  timed passes through the public entry points run for S
//              seconds; the end-to-end metrics are their medians;
//   --trace 1  untraced and traced passes alternate for S seconds; the
//              per-layer metrics come from the traced passes, and the
//              untraced ones give the tracing overhead. Spans are written
//              to --spans-out at the end.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 3;
constexpr std::size_t kMinTimedPasses = 3;
constexpr std::size_t kMinTracedPasses = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args.seconds > 0.0 &&
         !args.workload.empty();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Bare schedule/dispatch loop on a private Simulator: the host's speed
/// at the engine's core operation, in ns per event.
double calibrate_engine() {
  constexpr std::uint64_t kBatch = 4096;
  constexpr std::uint64_t kEvents = 1u << 20;
  canary::sim::Simulator sim;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint64_t fired = 0;
  auto batch = [&] {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      sim.schedule_after(
          canary::Duration::usec(static_cast<std::int64_t>(state % 1000)),
          [&fired] { ++fired; });
    }
    sim.run();
  };
  batch();  // warm the slab and heap
  fired = 0;
  const std::int64_t start = now_ns();
  while (fired < kEvents) batch();
  return static_cast<double>(now_ns() - start) / static_cast<double>(fired);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void add(const PassResult& pass) {
    attempted += pass.runs;
    failed += pass.runs_failed;
    for (const std::string& r : pass.failure_reasons) {
      if (reasons.size() < 16) reasons.push_back(r);
    }
  }
};

std::vector<Metric> end_to_end(Workload& workload, const Args& args,
                               Tally& tally, double setup_s) {
  std::vector<double> wall, cpu, rate, cells;
  const std::int64_t start = now_ns();
  while (wall.size() < kMinTimedPasses ||
         static_cast<double>(now_ns() - start) * 1e-9 < args.seconds) {
    const PassResult pass = workload.run_pass();
    tally.add(pass);
    wall.push_back(pass.wall_s);
    cpu.push_back(pass.cpu_s);
    rate.push_back(ratio(pass.invocations, pass.wall_s));
    for (const double c : pass.cell_wall_s) cells.push_back(c * 1e3);
  }
  std::cout << "timed passes: " << wall.size() << ", cells: " << cells.size()
            << "\npass wall [s]:";
  for (const double w : wall) std::cout << " " << w;
  std::cout << "\n";
  return {
      {"wall_s", median(wall), "s"},
      {"cpu_s", median(cpu), "s"},
      {"invocations_per_s", median(rate), "1/s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"setup_s", setup_s, "s"},
      {"cell_wall_ms.p50", percentile(cells, 50.0), "ms"},
      {"cell_wall_ms.p90", percentile(cells, 90.0), "ms"},
  };
}

void print_self_times(const std::map<std::string, SpanTotals>& totals) {
  double all_self = 0.0;
  for (const auto& [name, t] : totals) all_self += t.self_s;
  std::printf("%-22s %7s %12s %12s %8s\n", "span", "count", "total [s]",
              "self [s]", "self %");
  for (const auto& [name, t] : totals) {
    std::printf("%-22s %7llu %12.4f %12.4f %7.2f%%\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s, t.self_s,
                100.0 * ratio(t.self_s, all_self));
  }
}

std::vector<Metric> per_layer(Workload& workload, const Args& args,
                              Tally& tally, double calib_ns) {
  Tracer tracer;
  std::vector<double> untraced_wall, untraced_cpu, traced_wall;
  std::vector<std::map<std::string, SpanTotals>> totals;
  std::vector<double> straggler;
  LayerCounts counts;
  const std::int64_t start = now_ns();
  while (traced_wall.size() < kMinTracedPasses ||
         static_cast<double>(now_ns() - start) * 1e-9 < args.seconds) {
    const PassResult plain = workload.run_pass();
    tally.add(plain);
    untraced_wall.push_back(plain.wall_s);
    untraced_cpu.push_back(plain.cpu_s);

    const std::uint32_t pass_id = static_cast<std::uint32_t>(totals.size()) + 1;
    tracer.set_pass(pass_id);
    const PassResult traced = workload.run_decomposed(&tracer);
    tally.add(traced);
    // Input regeneration is part of the traced pass only.
    traced_wall.push_back(traced.wall_s - traced.make_job_s);
    totals.push_back(span_totals(tracer.spans_of(pass_id)));
    double slowest = 0.0;
    double excess = 0.0;
    for (const auto& [max_s, mean_s] : traced.rep_slowest_mean_s) {
      slowest += max_s;
      excess += max_s - mean_s;
    }
    straggler.push_back(ratio(excess, slowest));
    if (pass_id == 1) counts = traced.counts;
  }

  // Median over traced passes of one span name's self time.
  auto self_s = [&](const char* name) {
    std::vector<double> v;
    for (const auto& t : totals) {
      auto it = t.find(name);
      v.push_back(it == t.end() ? 0.0 : it->second.self_s);
    }
    return median(v);
  };
  std::vector<double> uncovered;
  for (const auto& t : totals) {
    double all = 0.0;
    double bench = 0.0;
    for (const auto& [name, s] : t) {
      all += s.self_s;
      if (name.rfind("bench.", 0) == 0) bench += s.self_s;
    }
    uncovered.push_back(ratio(bench, all));
  }

  const double simulate_s = self_s("faas.simulate");
  const double overhead = ratio(median(traced_wall), median(untraced_wall)) - 1.0;
  std::cout << "traced passes: " << totals.size()
            << ", untraced passes: " << untraced_wall.size() << "\n\n"
            << "per-layer self time (last traced pass; self = span minus the "
               "union of its children; bench.* is the uncovered "
               "remainder):\n";
  print_self_times(totals.back());
  std::printf("uncovered remainder: %.2f%% of traced self time\n",
              100.0 * median(uncovered));
  std::printf("trace overhead: %+.2f%% (traced %.4f s vs untraced %.4f s)\n\n",
              100.0 * overhead, median(traced_wall), median(untraced_wall));

  if (!args.spans_out.empty()) {
    std::ofstream os(args.spans_out);
    if (!os) {
      std::cerr << "cannot write " << args.spans_out << "\n";
    } else {
      tracer.write_chrome_trace(os);
    }
  }

  const LayerCounts& c = counts;
  return {
      {"sim.events", c.events, "count"},
      {"sim.events_per_invocation", ratio(c.events, c.completed), "count"},
      {"sim.calib_ns_per_event", calib_ns, "ns"},
      {"sim.est_self_share", ratio(c.events * calib_ns * 1e-9, simulate_s),
       "ratio"},
      {"faas.simulate_s", simulate_s, "s"},
      {"faas.ns_per_invocation", ratio(simulate_s * 1e9, c.completed), "ns"},
      {"faas.allocs_per_invocation",
       ratio(c.simulate_allocations, c.completed), "count"},
      {"faas.functions_completed", c.completed, "count"},
      {"faas.cold_starts", c.cold_starts, "count"},
      {"faas.warm_starts", c.warm_starts, "count"},
      {"faas.failures", c.failures, "count"},
      {"workloads.make_job_s", self_s("workloads.make_job"), "s"},
      {"harness.instance_s", self_s("harness.instance"), "s"},
      {"harness.collect_s", self_s("harness.collect"), "s"},
      {"harness.destroy_s", self_s("harness.destroy"), "s"},
      {"harness.merge_s", self_s("harness.merge"), "s"},
      {"harness.report_s", self_s("harness.report"), "s"},
      {"harness.rep_straggler_share", median(straggler), "ratio"},
      // Every pass runs on one thread.
      {"harness.parallel_efficiency",
       ratio(median(untraced_cpu), median(untraced_wall)), "ratio"},
      // 48 bits, so the value survives a round trip through a double.
      {"harness.outcome_digest",
       static_cast<double>(c.outcome_digest & ((1ull << 48) - 1)), "hash"},
      {"canary.checkpoints_written", c.checkpoints_written, "count"},
      {"canary.checkpoint_spills", c.checkpoint_spills, "count"},
      {"canary.replicas_launched", c.replicas_launched, "count"},
      {"canary.replica_use_ratio",
       ratio(c.replicas_consumed, c.replicas_launched), "ratio"},
      {"kvstore.puts", c.kv_puts, "count"},
      {"kvstore.hit_ratio", ratio(c.kv_hits, c.kv_gets), "ratio"},
      {"kvstore.rejected_oversize", c.kv_rejected_oversize, "count"},
      {"recovery.recoveries", c.recoveries, "count"},
      {"recovery.recovery_s", c.recovery_s, "sim_s"},
      {"recovery.lost_work_s", c.lost_work_s, "sim_s"},
      {"traffic.offered", c.traffic_offered, "count"},
      {"traffic.shed_share", ratio(c.traffic_shed, c.traffic_offered),
       "ratio"},
      {"traffic.queue_peak", c.traffic_queue_peak, "count"},
      {"traffic.latency_p99_ms", c.traffic_latency_p99_ms, "sim_ms"},
      {"obs.events_recorded", c.events_recorded, "count"},
      {"obs.events_dropped", c.events_dropped, "count"},
      {"obs.failure_events_dropped", c.failure_events_dropped, "count"},
      {"obs.trace_overhead", overhead, "ratio"},
      {"trace.uncovered_share", median(uncovered), "ratio"},
  };
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload fig_sweep|batch_scale|"
                 "traffic_recorded --seed N --seconds S --trace 0|1 "
                 "[--spans-out PATH]\n";
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (workload == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  std::cout << "workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n";

  Tally tally;
  std::vector<double> setup, calib;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    workload->generate(args.seed);
    calib.push_back(calibrate_engine());
    // Warm-up. The first goes through the decomposed path, which checks
    // every run and fixes the reference all later passes must match.
    tally.add(i == 0 ? workload->run_decomposed(nullptr)
                     : workload->run_pass());
    setup.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  std::cout << "set-ups: " << kSetups << ", engine calibration "
            << median(calib) << " ns/event\n";
  const PassResult entry = workload->check_entry_point();
  tally.add(entry);
  std::cout << "entry-point check: " << entry.runs << " runs\n";

  const std::vector<Metric> metrics =
      args.trace ? per_layer(*workload, args, tally, median(calib))
                 : end_to_end(*workload, args, tally, median(setup));

  for (const std::string& reason : tally.reasons) {
    std::cout << "FAILED: " << reason << "\n";
  }
  std::cout << "runs: " << tally.attempted << ", runs_failed: " << tally.failed
            << "\n";
  for (const Metric& m : metrics) {
    std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
