// Machine-readable run report (the `run_report.json` schema, v2).
//
// Every bench binary and the experiment CLI emit one of these so results
// stop living in ad-hoc stdout tables: CI archives BENCH_<name>.json per
// commit and can diff the perf trajectory mechanically. The schema is
// deliberately small and stable:
//
//   {
//     "schema": "canary.run_report/v2",
//     "name": "<binary or experiment id>",
//     "params": { "<key>": "<string value>", ... },
//     "scalars": { "<key>": <number>, ... },
//     "metrics": {
//       "counters": { "<name>": <number>, ... },
//       "gauges": { "<name>": <number>, ... },
//       "histograms": {
//         "<name>": { "count", "mean", "min", "max", "p50", "p95", "p99" }
//       }
//     },
//     "breakdown": {                    // v2: critical-path decomposition
//       "recoveries": { "count", "window_s", "components": {..} },
//       "end_to_end": { "components": {..} },
//       "per_function": { "<family>": { "functions", "recoveries",
//                                       "window_s", "components": {..} } },
//       "slo": { "targets", "violations", "violation_ratio",
//                "breaches_by_component": {..} }
//     },
//     "obs": {                          // v2: recorder health
//       "spans":  { "recorded", "dropped", "truncated" },
//       "events": { "recorded", "dropped", "truncated" }
//     },
//     "tail": { ... },                  // v3 only: tail attribution
//     "timeseries": { ... },            // v3 only: windowed rollups
//     "series": [ { "name", "columns": [..], "rows": [[..], ..] }, .. ],
//     "claims": [ { "claim", "measured", "unit" }, .. ]
//   }
//
// With tail attribution enabled the schema string becomes
// "canary.run_report/v3" and the `tail` / `timeseries` sections appear;
// otherwise the report is exactly the v2 document above.
//
// Serialisation is deterministic: map keys are ordered, numbers are
// formatted locale-free, and nothing wall-clock-dependent is embedded —
// two identical seeded runs produce byte-identical reports.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/metric_registry.hpp"
#include "obs/tail_analyzer.hpp"
#include "obs/time_series.hpp"

namespace canary::obs {

inline constexpr std::string_view kRunReportSchema = "canary.run_report/v2";
/// Emitted instead of v2 when the report carries `tail` / `timeseries`
/// sections (attribution enabled). Attribution-off reports keep the v2
/// string and stay byte-identical to pre-attribution builds.
inline constexpr std::string_view kRunReportSchemaV3 = "canary.run_report/v3";

struct RunReport {
  std::string name;
  /// Experiment configuration, stringly-typed on purpose: params document
  /// the run, they are not re-parsed.
  std::map<std::string, std::string> params;
  /// Headline measurements (means, reductions, overheads).
  std::map<std::string, double> scalars;
  /// Full metric registry snapshot (merged across repetitions).
  MetricRegistry metrics;
  /// Critical-path decomposition (merged across repetitions); zero-valued
  /// when the run recorded no causal events.
  BreakdownReport breakdown;
  /// Recorder capacity-cap health for the span and event streams.
  RecorderHealth span_health;
  RecorderHealth event_health;

  /// Tail-latency attribution (v3; absent from the JSON unless enabled).
  TailReport tail;
  /// Windowed rollups (v3; absent from the JSON unless enabled).
  TimeSeries timeseries;

  /// A named table, e.g. one reproduced figure's series.
  struct Series {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };
  std::vector<Series> series;

  /// Paper-claim vs measured-value pairs from the bench printouts.
  struct Claim {
    std::string claim;
    double measured = 0.0;
    std::string unit;
  };
  std::vector<Claim> claims;

  void set_param(const std::string& key, const std::string& value) {
    params[key] = value;
  }
  void set_param(const std::string& key, double value);
  void set_scalar(const std::string& key, double value) {
    scalars[key] = value;
  }
  void add_claim(const std::string& claim, double measured,
                 const std::string& unit) {
    claims.push_back({claim, measured, unit});
  }

  void write_json(std::ostream& os) const;
  std::string to_json() const;
  /// Write to `path`; returns false when the file cannot be opened.
  bool save(const std::string& path) const;
};

}  // namespace canary::obs
