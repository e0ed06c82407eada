// Chaos campaign: hundreds of seeded multi-fault scenarios (container
// kills, node failures, gray slowdowns, heartbeat delay/drop, KV
// checkpoint loss/corruption) run under Canary with heartbeat detection
// and the recovery watchdog, each checked against the invariant oracles
// in harness/chaos.hpp. Any violation fails the binary (exit 1) — this is
// the robustness gate CI runs in quick mode on every push.
//
// A second scenario family layers open-loop burst traffic (on/off
// arrivals through admission control and the warm-pool autoscaler) over
// the fault mix, with one node failure guaranteed inside the burst
// window, and additionally checks the traffic conservation oracle:
// every offered arrival is admitted, shed, or still queued — exactly once.
//
// A third family re-arms the base scenarios with the hedge strategy:
// speculative clones race their primaries through a gray window while a
// guaranteed node failure lands mid-race, and the hedge exactly-once
// oracle checks that every fired hedge resolves exactly once.
//
// A fourth family injects the partition surface: long zone bipartitions
// that fence a minority fault domain, short asymmetric windows (one-way
// heartbeat loss that must un-suspect on heal), and correlated zone
// outages racing the cuts, with fault-domain-aware placement on for half
// the seeds. Two additional oracles apply: no-split-brain (every commit
// attempted by a fenced minority-side zombie is rejected at the store's
// epoch gate) and heal-convergence (all windows healed, no reachability
// rule outlives the run, metadata liveness views agree at the end).
//
// Usage: chaos_campaign [--quick] [--scenarios N] [--seed BASE]
//                       [--traffic-scenarios N] [--hedge-scenarios N]
//                       [--partition-scenarios N]
// Environment: CANARY_QUICK=1 (same as --quick), CANARY_REPORT_DIR.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "harness/chaos.hpp"

namespace {

bool quick_mode_env() {
  const char* v = std::getenv("CANARY_QUICK");
  return v != nullptr && *v != '\0' && *v != '0';
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string num(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using canary::harness::ChaosOutcome;

  bool quick = quick_mode_env();
  std::size_t scenarios = 0;          // 0 = derive from quick flag below
  std::size_t traffic_scenarios = 0;  // 0 = derive from quick flag below
  std::size_t hedge_scenarios = 0;    // 0 = derive from quick flag below
  std::size_t partition_scenarios = 0;  // 0 = derive from quick flag below
  std::uint64_t base_seed = 90001;
  std::uint64_t traffic_base_seed = 70001;
  std::uint64_t hedge_base_seed = 50001;
  std::uint64_t partition_base_seed = 10001;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--scenarios" && i + 1 < argc) {
      scenarios = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--seed" && i + 1 < argc) {
      base_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--traffic-scenarios" && i + 1 < argc) {
      traffic_scenarios = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--hedge-scenarios" && i + 1 < argc) {
      hedge_scenarios = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--partition-scenarios" && i + 1 < argc) {
      partition_scenarios = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      std::cerr << "usage: chaos_campaign [--quick] [--scenarios N] "
                   "[--seed BASE] [--traffic-scenarios N] "
                   "[--hedge-scenarios N] [--partition-scenarios N]\n";
      return 2;
    }
  }
  if (scenarios == 0) scenarios = quick ? 24 : 240;
  if (traffic_scenarios == 0) traffic_scenarios = quick ? 12 : 120;
  if (hedge_scenarios == 0) hedge_scenarios = quick ? 12 : 120;
  if (partition_scenarios == 0) partition_scenarios = quick ? 8 : 64;

  std::cout << "chaos campaign: " << scenarios << " scenarios, base seed "
            << base_seed << " + " << traffic_scenarios
            << " traffic scenarios, base seed " << traffic_base_seed << " + "
            << hedge_scenarios << " hedge scenarios, base seed "
            << hedge_base_seed << " + " << partition_scenarios
            << " partition scenarios, base seed " << partition_base_seed
            << (quick ? " (quick)" : "") << "\n";

  // Seeded scenarios are independent; run them in parallel batches. The
  // other families ride in the same pool, indexed past the base family.
  const std::size_t total_scenarios = scenarios + traffic_scenarios +
                                      hedge_scenarios + partition_scenarios;
  std::vector<ChaosOutcome> outcomes(total_scenarios);
  const std::size_t workers = std::max(1u, std::thread::hardware_concurrency());
  std::size_t next = 0;
  while (next < total_scenarios) {
    const std::size_t batch = std::min(workers, total_scenarios - next);
    std::vector<std::future<ChaosOutcome>> futures;
    futures.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const std::size_t index = next + i;
      enum class Family {
        kBase,
        kTraffic,
        kHedge,
        kPartition,
      };
      Family family = Family::kBase;
      std::uint64_t seed = base_seed + index;
      if (index >= scenarios + traffic_scenarios + hedge_scenarios) {
        family = Family::kPartition;
        seed = partition_base_seed +
               (index - scenarios - traffic_scenarios - hedge_scenarios);
      } else if (index >= scenarios + traffic_scenarios) {
        family = Family::kHedge;
        seed = hedge_base_seed + (index - scenarios - traffic_scenarios);
      } else if (index >= scenarios) {
        family = Family::kTraffic;
        seed = traffic_base_seed + (index - scenarios);
      }
      futures.push_back(std::async(std::launch::async, [seed, family] {
        switch (family) {
          case Family::kTraffic:
            return canary::harness::run_traffic_chaos_scenario(seed);
          case Family::kHedge:
            return canary::harness::run_hedge_chaos_scenario(seed);
          case Family::kPartition:
            return canary::harness::run_partition_chaos_scenario(seed);
          case Family::kBase: break;
        }
        return canary::harness::run_chaos_scenario(seed);
      }));
    }
    for (std::size_t i = 0; i < batch; ++i) {
      outcomes[next + i] = futures[i].get();
    }
    next += batch;
  }

  // ---- aggregate --------------------------------------------------------
  // Registry counters summed over every scenario, keyed by counter name.
  std::map<std::string, double> totals;
  std::uint64_t violations = 0;
  std::uint64_t stale_epoch_rejects = 0, quorum_blocked = 0;
  double total_failures = 0.0;
  double max_detection = 0.0;
  std::vector<const ChaosOutcome*> failed;
  for (const ChaosOutcome& out : outcomes) {
    violations += out.violations.size();
    for (const auto& [name, value] : out.counters) totals[name] += value;
    stale_epoch_rejects += out.stale_epoch_rejects;
    quorum_blocked += out.quorum_blocked_puts;
    total_failures += out.failures;
    max_detection = std::max(max_detection, out.max_detection_latency_s);
    if (!out.violations.empty()) failed.push_back(&out);
  }
  const auto count = [&totals](const char* counter) {
    const auto it = totals.find(counter);
    return std::to_string(
        it == totals.end() ? 0 : static_cast<std::uint64_t>(it->second));
  };

  canary::TextTable table({"metric", "total"});
  table.add_row({"scenarios", std::to_string(scenarios)});
  table.add_row({"traffic scenarios", std::to_string(traffic_scenarios)});
  table.add_row({"hedge scenarios", std::to_string(hedge_scenarios)});
  table.add_row({"partition scenarios", std::to_string(partition_scenarios)});
  table.add_row({"function failures", canary::TextTable::num(total_failures, 0)});
  table.add_row({"node kills", count("injected_node_kills")});
  table.add_row({"gray windows", count("injected_gray_windows")});
  table.add_row({"heartbeats dropped", count("heartbeats_dropped")});
  table.add_row({"heartbeats delayed", count("heartbeats_delayed")});
  table.add_row({"checkpoints destroyed", count("injected_store_drops")});
  table.add_row(
      {"checkpoints corrupted", count("injected_store_corruptions")});
  table.add_row({"worker suspicions", count("worker_suspicions")});
  table.add_row({"false suspicions", count("false_suspicions")});
  table.add_row({"recovery stalls", count("recovery_stalls")});
  table.add_row({"max detection latency [s]",
                 canary::TextTable::num(max_detection, 3)});
  table.add_row({"arrivals offered", count("traffic_offered")});
  table.add_row({"arrivals shed", count("traffic_shed")});
  table.add_row({"hedges fired", count("hedges_fired")});
  table.add_row({"hedge wins", count("hedge_wins")});
  table.add_row({"partitions started", count("injected_partitions")});
  table.add_row({"partitions healed", count("injected_partition_heals")});
  table.add_row({"zone outages", count("injected_zone_outages")});
  table.add_row({"stale-epoch rejects", std::to_string(stale_epoch_rejects)});
  table.add_row({"zombie commit attempts", count("zombie_commit_attempts")});
  table.add_row({"oracle violations", std::to_string(violations)});
  table.print(std::cout);

  if (!failed.empty()) {
    std::cout << "\nFAILED scenarios:\n";
    for (const ChaosOutcome* out : failed) {
      std::cout << "  seed " << out->seed << ":\n";
      for (const std::string& v : out->violations) {
        std::cout << "    - " << v << "\n";
      }
    }
  }

  // ---- canary.chaos/v1 report ------------------------------------------
  const char* dir = std::getenv("CANARY_REPORT_DIR");
  std::string path =
      (dir != nullptr && *dir != '\0') ? std::string(dir) + "/" : "";
  path += "BENCH_chaos_campaign.json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  os << "{\n";
  os << "  \"schema\": \"canary.chaos/v1\",\n";
  os << "  \"name\": \"chaos_campaign\",\n";
  os << "  \"params\": {\n";
  os << "    \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "    \"scenarios\": " << scenarios << ",\n";
  os << "    \"base_seed\": " << base_seed << ",\n";
  os << "    \"traffic_scenarios\": " << traffic_scenarios << ",\n";
  os << "    \"traffic_base_seed\": " << traffic_base_seed << ",\n";
  os << "    \"hedge_scenarios\": " << hedge_scenarios << ",\n";
  os << "    \"hedge_base_seed\": " << hedge_base_seed << ",\n";
  os << "    \"partition_scenarios\": " << partition_scenarios << ",\n";
  os << "    \"partition_base_seed\": " << partition_base_seed << "\n";
  os << "  },\n";
  // Each section lists (JSON key, value) rows; most values are summed
  // registry counters.
  using Rows = std::vector<std::pair<const char*, std::string>>;
  const std::vector<std::pair<const char*, Rows>> sections = {
      {"fault_totals",
       {{"function_failures", num(total_failures)},
        {"node_kills", count("injected_node_kills")},
        {"gray_windows", count("injected_gray_windows")},
        {"heartbeats_dropped", count("heartbeats_dropped")},
        {"heartbeats_delayed", count("heartbeats_delayed")},
        {"store_entries_dropped", count("injected_store_drops")},
        {"store_entries_corrupted", count("injected_store_corruptions")}}},
      {"detection",
       {{"suspicions", count("worker_suspicions")},
        {"false_suspicions", count("false_suspicions")},
        {"recovery_stalls", count("recovery_stalls")},
        {"max_latency_s", num(max_detection)}}},
      {"traffic_totals",
       {{"offered", count("traffic_offered")},
        {"admitted", count("traffic_admitted")},
        {"shed", count("traffic_shed")},
        {"completed", count("traffic_completed")}}},
      {"hedge_totals",
       {{"fired", count("hedges_fired")},
        {"wins", count("hedge_wins")},
        {"cancelled", count("hedges_cancelled")}}},
      {"partition_totals",
       {{"partitions_started", count("injected_partitions")},
        {"partitions_healed", count("injected_partition_heals")},
        {"zone_outages", count("injected_zone_outages")},
        {"heartbeats_partition_dropped",
         count("heartbeats_partition_dropped")},
        {"stale_epoch_rejects", std::to_string(stale_epoch_rejects)},
        {"quorum_blocked_puts", std::to_string(quorum_blocked)},
        {"zombie_commit_attempts", count("zombie_commit_attempts")},
        {"zombie_commits_rejected", count("zombie_commits_rejected")}}},
  };
  for (const auto& [section, rows] : sections) {
    os << "  \"" << section << "\": {\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      os << "    \"" << rows[i].first << "\": " << rows[i].second
         << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    os << "  },\n";
  }
  os << "  \"oracles\": {\n";
  os << "    \"checked\": [\"completion\", \"exactly_once\", "
        "\"no_corrupt_restore\", \"detection_bound\", \"ledger_balance\", "
        "\"no_stranded_failures\", \"conservation\", "
        "\"hedge_exactly_once\", \"no_split_brain\", "
        "\"heal_convergence\"],\n";
  os << "    \"violations\": " << violations << "\n";
  os << "  },\n";
  os << "  \"failed_scenarios\": [";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"seed\": " << failed[i]->seed << ", \"violations\": [";
    const auto& vs = failed[i]->violations;
    for (std::size_t v = 0; v < vs.size(); ++v) {
      os << (v == 0 ? "" : ", ") << "\"" << json_escape(vs[v]) << "\"";
    }
    os << "]}";
  }
  os << (failed.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  os.close();
  std::cout << "\nreport: " << path << "\n";

  if (violations > 0) {
    std::cerr << "\nchaos campaign FAILED: " << violations
              << " oracle violation(s)\n";
    return 1;
  }
  std::cout << "\nchaos campaign passed: " << total_scenarios
            << " scenarios, zero oracle violations\n";
  return 0;
}
