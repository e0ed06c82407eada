// Figure 13 (extension): network partitions, correlated fault-domain
// outages, and split-brain-safe fencing.
//
// A 12-node / 3-zone cluster runs a fixed batch workload under the full
// Canary strategy with heartbeat detection while the partition surface
// fires: a correlated zone outage (every node of one fault domain dies as
// one causal event), a zone bipartition (one domain is cut off, its
// workers logically fenced as minority-side zombies), and the two
// combined (the outage lands inside the cut, on already-fenced nodes).
//
// Each configuration compares two placement policies over the same
// workload and fault schedule:
//
//   domain_blind — the default placement: replicas, checkpoint KV-shard
//                  owners, and recovery re-dispatch ignore zones;
//   domain_aware — fault-domain spreading on: replicas and checkpoint
//                  owners avoid the primary's zone, recovery re-dispatch
//                  avoids the failed zone.
//
// Reported per strategy: recovery time, makespan, and the
// double-execution-attempt count — commits attempted by fenced zombies
// while the majority side re-executes the same invocation. Every such
// attempt must be rejected at the store's epoch gate (split-brain
// safety); domain-aware placement must strictly reduce correlated-loss
// recovery time in at least one configuration.
//
// Emits a machine-readable canary.partition/v1 report. The report is
// byte-identical across repeated runs. Violations exit 1.
//
// Usage: fig13_partitions [--quick]
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
#include "recovery/strategies.hpp"

namespace {

using canary::Bytes;
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

constexpr std::uint64_t kSeed = 20260808;
constexpr std::size_t kNodes = 12;  // zones {0, 1, 2}, four nodes each
constexpr std::uint32_t kFaultZone = 2;

/// The three partition-surface configurations. The fault schedule is
/// identical for both placement policies within a configuration.
struct Variant {
  const char* name;
  bool outage;     // correlated kill of kFaultZone
  bool cut;        // zone bipartition of kFaultZone
};

constexpr Variant kVariants[] = {
    {"zone_outage", true, false},
    {"zone_cut", false, true},
    {"cut_then_outage", true, true},
};

/// Long-running functions so the fault window lands mid-execution on
/// every variant: ~3.8 s of state work per function, 30 functions over
/// 12 nodes.
std::vector<canary::faas::JobSpec> make_jobs() {
  std::vector<canary::faas::JobSpec> jobs;
  for (int j = 0; j < 3; ++j) {
    canary::faas::JobSpec job;
    job.name = "fig13-job-" + std::to_string(j);
    job.account = canary::AccountId{1};
    for (int f = 0; f < 10; ++f) {
      canary::faas::FunctionSpec fn;
      fn.name = "fig13-fn-" + std::to_string(j) + "-" + std::to_string(f);
      fn.runtime = canary::faas::RuntimeImage::kPython3;
      for (int s = 0; s < 4; ++s) {
        canary::faas::StateSpec state;
        state.duration = Duration::msec(900);
        state.checkpoint_payload = Bytes::of(1024 * 1024);
        fn.states.push_back(state);
      }
      fn.finalize = Duration::msec(200);
      job.functions.push_back(std::move(fn));
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

ScenarioConfig variant_config(const Variant& variant, bool spread,
                              std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.cluster_nodes = kNodes;
  config.error_rate = 0.0;  // faults come from the partition surface alone
  config.strategy = canary::recovery::StrategyConfig::canary_full();
  config.detection.enabled = true;
  config.detection.heartbeat_interval = Duration::msec(250);
  config.detection.timeout_multiplier = 2.0;
  config.detection.confirm_multiplier = 1.0;
  config.detection.sweep_interval = Duration::msec(100);
  config.detection.horizon = Duration::sec(600.0);
  // Partitioned KV with one backup: checkpoint survival depends on where
  // the owners live, which is exactly what domain-aware spreading moves.
  config.kv.mode = canary::kv::CacheMode::kPartitioned;
  config.kv.backups = 1;
  config.fault_domain_spread = spread;

  if (variant.cut) {
    // Cut the fault zone off mid-execution, long enough that the
    // majority confirms-and-redeploys (confirm threshold ~1.2 s) while
    // the fenced minority keeps executing into its commit attempts.
    ScenarioConfig::PartitionFault window;
    window.at = Duration::sec(1.0);
    window.duration = Duration::sec(5.0);
    window.zone = kFaultZone;
    config.partitions.push_back(window);
  }
  if (variant.outage) {
    // With the cut active the outage kills already-fenced nodes (the
    // injector counts them as skipped, not as second deaths); alone it
    // is the pure correlated-loss case.
    ScenarioConfig::ZoneOutage outage;
    outage.at = Duration::sec(variant.cut ? 3.0 : 1.5);
    outage.zone = kFaultZone;
    config.zone_outages.push_back(outage);
  }
  return config;
}

/// One placement policy's aggregate over the repetition sweep.
struct StrategyResult {
  std::string name;
  double recovery_s = 0.0;
  double makespan_s = 0.0;
  std::uint64_t double_execution_attempts = 0;  // zombie commit attempts
  std::uint64_t zombie_commits_rejected = 0;
  std::uint64_t zombie_commits_committed = 0;
  std::uint64_t stale_epoch_rejects = 0;
  std::uint64_t quorum_blocked_puts = 0;
  std::uint64_t partitions_started = 0;
  std::uint64_t partitions_healed = 0;
  std::uint64_t zone_outages = 0;
  std::uint64_t partitions_active_end = 0;
  bool completed = true;
};

StrategyResult run_strategy(const Variant& variant, bool spread, int reps) {
  StrategyResult out;
  out.name = spread ? "domain_aware" : "domain_blind";
  const std::vector<canary::faas::JobSpec> jobs = make_jobs();
  for (int rep = 0; rep < reps; ++rep) {
    const RunResult result = ScenarioRunner::run(
        variant_config(variant, spread,
                       kSeed + static_cast<std::uint64_t>(rep)),
        jobs);
    out.recovery_s += result.total_recovery_s;
    out.makespan_s += result.makespan_s;
    const auto count = [&result](const char* counter) {
      return static_cast<std::uint64_t>(result.metrics.counter(counter));
    };
    out.double_execution_attempts += count("zombie_commit_attempts");
    out.zombie_commits_rejected += count("zombie_commits_rejected");
    out.zombie_commits_committed += count("zombie_commits_committed");
    out.stale_epoch_rejects += result.kv_stale_epoch_rejects;
    out.quorum_blocked_puts += result.kv_quorum_blocked_puts;
    out.partitions_started += count("injected_partitions");
    out.partitions_healed += count("injected_partition_heals");
    out.zone_outages += count("injected_zone_outages");
    out.partitions_active_end += result.partitions_active_end;
    out.completed = out.completed && result.completed;
  }
  return out;
}

void write_strategy_json(std::ostream& os, const std::string& indent,
                         const StrategyResult& s) {
  os << indent << "\"name\": \"" << s.name << "\",\n";
  os << indent << "\"recovery_s\": " << num(s.recovery_s) << ",\n";
  os << indent << "\"makespan_s\": " << num(s.makespan_s) << ",\n";
  os << indent << "\"double_execution_attempts\": "
     << s.double_execution_attempts << ",\n";
  os << indent << "\"zombie_commits_rejected\": " << s.zombie_commits_rejected
     << ",\n";
  os << indent << "\"zombie_commits_committed\": "
     << s.zombie_commits_committed << ",\n";
  os << indent << "\"stale_epoch_rejects\": " << s.stale_epoch_rejects
     << ",\n";
  os << indent << "\"quorum_blocked_puts\": " << s.quorum_blocked_puts
     << ",\n";
  os << indent << "\"partitions_started\": " << s.partitions_started << ",\n";
  os << indent << "\"partitions_healed\": " << s.partitions_healed << ",\n";
  os << indent << "\"zone_outages\": " << s.zone_outages << ",\n";
  os << indent << "\"completed\": " << (s.completed ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = quick_mode();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: fig13_partitions [--quick]\n";
      return 2;
    }
  }

  const int reps = quick ? 2 : 3;
  std::cout << "partition surface: " << kNodes << " nodes / 3 zones, 30 "
               "functions, zone outage + bipartition + combined, "
            << reps << " reps" << (quick ? " (quick)" : "") << "\n\n";

  struct VariantResult {
    const Variant* variant;
    StrategyResult blind;
    StrategyResult aware;
    double reduction_pct = 0.0;
  };
  std::vector<VariantResult> results;
  for (const Variant& variant : kVariants) {
    VariantResult vr;
    vr.variant = &variant;
    vr.blind = run_strategy(variant, false, reps);
    vr.aware = run_strategy(variant, true, reps);
    vr.reduction_pct =
        vr.blind.recovery_s > 0.0
            ? 100.0 * (vr.blind.recovery_s - vr.aware.recovery_s) /
                  vr.blind.recovery_s
            : 0.0;
    results.push_back(std::move(vr));
  }

  TextTable table({"configuration", "blind rec [s]", "aware rec [s]",
                   "reduction %", "double-exec", "rejected"});
  for (const VariantResult& vr : results) {
    table.add_row({vr.variant->name, num(vr.blind.recovery_s),
                   num(vr.aware.recovery_s), num(vr.reduction_pct),
                   std::to_string(vr.blind.double_execution_attempts +
                                  vr.aware.double_execution_attempts),
                   std::to_string(vr.blind.zombie_commits_rejected +
                                  vr.aware.zombie_commits_rejected)});
  }
  table.print(std::cout);

  // ---- self-checks ------------------------------------------------------
  std::vector<std::string> violations;
  int strictly_faster = 0;
  double max_reduction = 0.0;
  std::uint64_t attempts_total = 0, committed_total = 0;
  for (const VariantResult& vr : results) {
    for (const StrategyResult* s : {&vr.blind, &vr.aware}) {
      if (!s->completed) {
        violations.push_back(std::string(vr.variant->name) + "/" + s->name +
                             ": run ended with incomplete jobs");
      }
      if (s->zombie_commits_committed > 0) {
        violations.push_back(
            std::string(vr.variant->name) + "/" + s->name + ": " +
            std::to_string(s->zombie_commits_committed) +
            " fenced-writer commit(s) reached the store");
      }
      if (s->partitions_healed != s->partitions_started ||
          s->partitions_active_end != 0) {
        violations.push_back(std::string(vr.variant->name) + "/" + s->name +
                             ": partition windows did not all heal");
      }
      attempts_total += s->double_execution_attempts;
      committed_total += s->zombie_commits_committed;
    }
    if (vr.aware.recovery_s < vr.blind.recovery_s) ++strictly_faster;
    max_reduction = std::max(max_reduction, vr.reduction_pct);
  }
  if (strictly_faster == 0) {
    violations.push_back(
        "domain-aware placement did not strictly reduce recovery time in "
        "any configuration");
  }
  if (attempts_total == 0) {
    violations.push_back(
        "no double-execution attempt was ever made: the zombie probe is "
        "not firing");
  }

  std::cout << "\ndomain-aware strictly faster in " << strictly_faster << "/"
            << results.size() << " configurations; max recovery reduction "
            << num(max_reduction) << "%; " << attempts_total
            << " double-execution attempt(s), " << committed_total
            << " committed\n";

  // ---- canary.partition/v1 report ---------------------------------------
  const char* dir = std::getenv("CANARY_REPORT_DIR");
  std::string path =
      (dir != nullptr && *dir != '\0') ? std::string(dir) + "/" : "";
  path += "BENCH_fig13_partitions.json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  os << "{\n";
  os << "  \"schema\": \"canary.partition/v1\",\n";
  os << "  \"name\": \"fig13_partitions\",\n";
  os << "  \"params\": {\n";
  os << "    \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "    \"nodes\": " << kNodes << ",\n";
  os << "    \"zones\": 3,\n";
  os << "    \"fault_zone\": " << kFaultZone << ",\n";
  os << "    \"repetitions\": " << reps << ",\n";
  os << "    \"seed\": " << kSeed << "\n";
  os << "  },\n";
  os << "  \"configurations\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"name\": \"" << results[i].variant->name << "\",\n";
    os << "      \"strategies\": [\n";
    os << "        {\n";
    write_strategy_json(os, "          ", results[i].blind);
    os << "\n        },\n";
    os << "        {\n";
    write_strategy_json(os, "          ", results[i].aware);
    os << "\n        }\n";
    os << "      ],\n";
    os << "      \"recovery_reduction_pct\": " << num(results[i].reduction_pct)
       << "\n";
    os << "    }";
  }
  os << "\n  ],\n";
  os << "  \"claims\": {\n";
  os << "    \"aware_strictly_faster_configs\": " << strictly_faster << ",\n";
  os << "    \"max_recovery_reduction_pct\": " << num(max_reduction) << ",\n";
  os << "    \"double_execution_attempts\": " << attempts_total << ",\n";
  os << "    \"zombie_commits_committed\": " << committed_total << "\n";
  os << "  },\n";
  os << "  \"checks\": {\n";
  os << "    \"ok\": " << (violations.empty() ? "true" : "false") << ",\n";
  os << "    \"violations\": " << violations.size() << "\n";
  os << "  }\n";
  os << "}\n";
  os.close();
  std::cout << "\nreport: " << path << "\n";

  if (!violations.empty()) {
    std::cerr << "\nfig13 partitions FAILED:\n";
    for (const std::string& v : violations) std::cerr << "  - " << v << "\n";
    return 1;
  }
  std::cout << "\nfig13 partitions passed: split-brain-safe fencing held and "
               "domain-aware placement cut correlated-loss recovery\n";
  return 0;
}
