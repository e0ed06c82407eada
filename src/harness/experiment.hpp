// Repetition driver: the paper runs every experiment 10 times and reports
// averages (variance < 5%, §V-B). Repetitions differ only in their seed
// and execute in parallel across hardware threads; each run is fully
// self-contained and deterministic.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "harness/scenario.hpp"
#include "obs/report.hpp"

namespace canary::harness {

struct Aggregate {
  SampleSet makespan_s;
  SampleSet total_recovery_s;
  SampleSet mean_recovery_s;
  SampleSet cost_usd;
  SampleSet replica_cost_usd;
  SampleSet failures;
  SampleSet lost_work_s;
  SampleSet sla_violations;
  std::size_t incomplete_runs = 0;
  /// Merged registry across repetitions: counters sum, histograms merge
  /// bucket-wise (so percentiles cover every repetition's samples).
  obs::MetricRegistry metrics;
  /// Merged critical-path breakdown across repetitions: component seconds
  /// sum, recovery/violation counts accumulate.
  obs::BreakdownReport breakdown;
  /// Recorder overflow accounting summed across repetitions.
  obs::RecorderHealth span_health;
  obs::RecorderHealth event_health;
  /// Merged tail attribution across repetitions (sample counts add, the
  /// deeper-tail representative wins); empty unless tail attribution ran.
  obs::TailReport tail;
  /// Merged windowed rollups (windows align by start, counters add,
  /// per-window histograms merge); empty unless time-series ran.
  obs::TimeSeries timeseries;

  void add(const RunResult& run);
  /// Per-run mean of one merged registry counter (e.g.
  /// "replica_recoveries").
  double counter_mean(const std::string& name) const;
};

/// Run `reps` repetitions of `config` over `jobs`, seeds derived from
/// config.seed, in parallel. Deterministic in (config, jobs, reps).
Aggregate run_repetitions(ScenarioConfig config,
                          const std::vector<faas::JobSpec>& jobs, int reps);

/// Percentage improvement of `ours` over `baseline` (positive = lower).
double reduction_pct(double baseline, double ours);
/// Percentage overhead of `ours` over `baseline` (positive = higher).
double overhead_pct(double baseline, double ours);

/// Build a machine-readable run report for one aggregated configuration:
/// scenario parameters, headline scalars (means across repetitions), and
/// the merged metric registry. Callers add claims/series and save().
obs::RunReport make_report(std::string name, const ScenarioConfig& config,
                           const Aggregate& agg);

}  // namespace canary::harness
