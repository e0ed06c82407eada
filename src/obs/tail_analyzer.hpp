// Tail-latency attribution: from "p99.9 moved" to "these invocations are
// the p99.9, and 61% of their latency is detection".
//
// Histograms answer the *what* (the latency distribution) and the causal
// event DAG answers the *why* (per-invocation lifecycle), but until now
// nothing connected them: a percentile is an anonymous bucket midpoint.
// The TailAnalyzer closes the loop through exemplars — trace ids retained
// per tail bucket (histogram.hpp) — by, for each exemplar-enabled
// histogram and each target percentile, picking the retained invocation
// nearest that rank and decomposing its submit-to-completion window with
// the CriticalPathAnalyzer's exact partition. Because the partition is
// exact, the per-component attribution sums to the representative's
// measured latency to within one simulated millisecond, and every
// reported trace id resolves to a complete causal chain in the log.
//
// Everything is opt-in (TailConfig::enabled) and deterministic: with
// attribution off no exemplars are retained, no tail section is emitted,
// and reports stay byte-identical to pre-attribution builds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/event_log.hpp"
#include "obs/metric_registry.hpp"

namespace canary::obs {

/// Run-level switch for the attribution layer. Carried by the scenario
/// config; the platform enables exemplar retention on its tail histograms
/// from this and the harness runs the analyzer at teardown.
struct TailConfig {
  bool enabled = false;
  /// Target percentiles, in [0, 100], analyzed per histogram.
  std::vector<double> percentiles{50.0, 99.0, 99.9};
  /// Exemplar reservoir shape (histogram.hpp semantics).
  std::size_t exemplars_per_bucket = 4;
  double min_quantile = 0.5;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  ExemplarConfig exemplar_config() const {
    ExemplarConfig config;
    config.enabled = enabled;
    config.per_bucket = exemplars_per_bucket;
    config.min_quantile = min_quantile;
    config.seed = seed;
    return config;
  }
};

/// Attribution of one target percentile of one histogram.
struct TailAttribution {
  double percentile = 0.0;        // target, in [0, 100]
  double bucket_estimate_s = 0.0; // histogram nearest-rank estimate
  std::uint64_t samples = 0;      // histogram count backing the estimate

  /// Representative invocation: the retained exemplar nearest the target
  /// rank (at or above it when one exists). latency_s is its *exact*
  /// measured latency — the value the attribution below partitions.
  bool has_exemplar = false;
  double latency_s = 0.0;
  std::uint64_t trace = 0;
  std::uint64_t function = 0;

  /// Exact component partition of the representative's end-to-end window
  /// (CriticalPathAnalyzer decomposition); attributed_s is its total and
  /// matches latency_s to within 1 sim-ms.
  ComponentSums components;
  double attributed_s = 0.0;

  /// Causal-chain resolution for the representative's trace.
  std::uint64_t chain_events = 0;
  bool chain_complete = false;
};

/// All percentile attributions for one exemplar-enabled histogram.
struct TailGroup {
  std::string metric;
  std::uint64_t exemplars = 0;  // retained exemplars across buckets
  std::vector<TailAttribution> percentiles;
};

/// The `tail` section of a v3 run report. Merging across repetitions is
/// deterministic and associative: sample counts add and the deeper-tail
/// representative wins (ties toward the smaller trace id).
struct TailReport {
  bool enabled = false;
  std::vector<TailGroup> groups;  // sorted by metric name

  void merge(const TailReport& other);
};

class TailAnalyzer {
 public:
  /// All three inputs must outlive the analyzer. `paths` is the same
  /// analyzer the harness already builds for the breakdown section, so
  /// attribution reuses its partition instead of re-deriving one.
  TailAnalyzer(const MetricRegistry& metrics, const EventLog& log,
               const CriticalPathAnalyzer& paths);

  /// Analyze every exemplar-enabled histogram at each configured
  /// percentile. Returns a disabled report when config.enabled is false.
  TailReport analyze(const TailConfig& config) const;

 private:
  /// Pick the representative for one percentile and partition its
  /// latency; its chain fields are left for resolve_chains().
  TailAttribution attribute(const Histogram& hist, double percentile) const;
  /// Fill chain_events/chain_complete of every representative in
  /// `report` in a single pass over the event log.
  void resolve_chains(TailReport& report) const;

  const MetricRegistry* metrics_;
  const EventLog* log_;
  const CriticalPathAnalyzer* paths_;
};

}  // namespace canary::obs
