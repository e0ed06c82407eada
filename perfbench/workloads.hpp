// The benchmark's workloads. Each pass is a closed loop: the benchmark hands
// the simulator one sweep cell or one scenario and waits for it.
//
// A workload runs a pass two ways:
//   * run_pass() goes through the public entry points
//     (ScenarioRunner::run, and for a sweep cell Aggregate::add and
//     make_report over its repetitions, as run_repetitions does but on
//     one thread), and is what the end-to-end metrics time;
//   * run_decomposed() makes the same calls those entry points make
//     themselves — ScenarioInstance construction, Simulator::run,
//     collect, Aggregate::add, make_report — so that each can be timed
//     from outside and every run's RunResult can be checked.
// Both must agree: every unit of every pass is compared with the first
// pass of the process (the sweep by serialised report, the single
// scenarios by outcome digest), and a disagreement fails the unit's runs.
// check_entry_point() holds the sweep to harness::run_repetitions itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Exact simulated counts summed over the runs of one decomposed pass.
/// Read through the narrowest stable surfaces: completion, the simulated
/// event count, the metric registry by name, KvStore::stats() and the
/// EventLog's counters.
struct LayerCounts {
  double events = 0.0;
  double completed = 0.0;
  double cold_starts = 0.0;
  double warm_starts = 0.0;
  double failures = 0.0;
  double recoveries = 0.0;
  double recovery_s = 0.0;
  double lost_work_s = 0.0;
  double checkpoints_written = 0.0;
  double checkpoint_spills = 0.0;
  double replicas_launched = 0.0;
  double replicas_consumed = 0.0;
  double kv_puts = 0.0;
  double kv_gets = 0.0;
  double kv_hits = 0.0;
  double kv_rejected_oversize = 0.0;
  double traffic_offered = 0.0;
  double traffic_shed = 0.0;
  double traffic_queue_peak = 0.0;      // max over runs
  double traffic_latency_p99_ms = 0.0;  // max over runs
  double events_recorded = 0.0;
  double events_dropped = 0.0;
  double failure_events_dropped = 0.0;  // `failure` and `recovered` kinds
  double simulate_allocations = 0.0;    // operator new inside Simulator::run
  /// Hash of every run's simulated makespan, recovery, cost, failures and
  /// completions, in run order.
  std::uint64_t outcome_digest = kFnvBasis;

  void add(const LayerCounts& run);
};

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Simulated function invocations completed (registry
  /// `functions_completed`, summed over the pass's runs).
  double invocations = 0.0;
  /// Host seconds of each unit handed over: a sweep cell, or the scenario.
  std::vector<double> cell_wall_s;
  std::uint64_t runs = 0;
  std::uint64_t runs_failed = 0;
  std::vector<std::string> failure_reasons;
  /// Decomposed passes only.
  LayerCounts counts;
  /// Decomposed passes only: host seconds spent regenerating inputs on the
  /// driving thread (not part of a timed pass, so excluded when comparing
  /// traced with untraced wall time).
  double make_job_s = 0.0;
  /// Decomposed sweep passes only: per cell, the slowest and the mean
  /// repetition's host seconds.
  std::vector<std::pair<double, double>> rep_slowest_mean_s;

  void fail(std::uint64_t runs_lost, std::string reason);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Set-up: build every input from the seed.
  virtual void generate(std::uint64_t seed) = 0;
  /// Where a pass stands in for an entry point that runs work on threads
  /// of its own, runs that entry point once over every unit and checks it
  /// against the first pass. Untimed; nothing to do by default.
  virtual PassResult check_entry_point() { return {}; }

  PassResult run_pass();
  PassResult run_decomposed(Tracer* tracer);

 protected:
  virtual void pass(PassResult& out) = 0;
  virtual void decomposed(PassResult& out, Tracer* tracer,
                          std::uint32_t root) = 0;
  /// False when `fingerprint` differs from the first pass's for unit `i`.
  bool matches_reference(std::size_t i, std::uint64_t fingerprint);

 private:
  std::vector<std::uint64_t> reference_;
};

/// "fig_sweep", "batch_scale" or "traffic_recorded"; null otherwise.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
