// Central metric registry: counters, gauges, and latency histograms.
//
// One registry lives per simulation run and every module records into it
// (the platform's lifecycle counters, Canary's checkpoint/replication
// counters, the injector's injected_* faults, the failure detector's
// heartbeat and suspicion counts, hedge races, traffic arrivals and
// latencies). It is the only store of a run's counts: components keep no
// private tally of an event they record here, and RunResult carries the
// registry itself rather than copies of its counters. The experiment
// harness moves the registry into RunResult, merges repetitions exactly,
// and the report exporter serialises it into run_report.json. A new count
// belongs here, never in a new RunResult field.
//
// Names are ordered maps so every iteration (export, merge, diff) is
// deterministic. The registry is single-writer per run — repetitions each
// own one and merge after the fact — so no locking is needed on the
// record path.
#pragma once

#include <map>
#include <string>

#include "common/time.hpp"
#include "obs/histogram.hpp"

namespace canary::obs {

class MetricRegistry {
 public:
  // ---- counters (monotonic sums) --------------------------------------
  void count(const std::string& name, double delta = 1.0) {
    counters_[name] += delta;
  }
  double counter(const std::string& name) const;
  const std::map<std::string, double>& counters() const { return counters_; }

  // ---- hot-path handles -----------------------------------------------
  // A per-event count()/sample() pays a map lookup on every call, which
  // dominates the platform's bookkeeping at million-invocation scale.
  // Hot recorders resolve their metric once and increment through the
  // returned reference instead. Map nodes are stable, so handles stay
  // valid for the registry's lifetime — except across clear(), after
  // which they must be re-acquired.
  double& counter_ref(const std::string& name) { return counters_[name]; }
  Histogram& histogram_ref(const std::string& name) {
    return histograms_[name];
  }

  // ---- gauges (last-write-wins levels) --------------------------------
  void set_gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  double gauge(const std::string& name) const;
  const std::map<std::string, double>& gauges() const { return gauges_; }

  // ---- histograms (latency-style distributions) -----------------------
  void sample(const std::string& name, double value) {
    histograms_[name].record(value);
  }
  void sample_duration(const std::string& name, Duration d) {
    sample(name, d.to_seconds());
  }
  /// Exemplar-carrying sample: like sample(), but if the named histogram
  /// has exemplars enabled the tail bucket may retain (value, trace, ref).
  void sample_traced(const std::string& name, double value,
                     std::uint64_t trace, std::uint64_t ref) {
    histograms_[name].record_traced(value, trace, ref);
  }
  /// Turn on exemplar retention for one named histogram (creating it if
  /// absent). Opt-in per histogram so attribution-off runs keep the exact
  /// pre-exemplar memory and report bytes.
  void enable_exemplars(const std::string& name, const ExemplarConfig& config) {
    histograms_[name].enable_exemplars(config);
  }
  /// Histogram for `name`; an empty histogram if never sampled.
  const Histogram& histogram(const std::string& name) const;
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Fold `other` into this registry: counters add, histograms merge
  /// exactly, gauges take `other`'s value (last writer wins). Used by the
  /// harness to aggregate per-repetition registries deterministically.
  void merge(const MetricRegistry& other);

  void clear();

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Lazily-resolved counter handle for per-event recorders. The first
/// add() resolves the registry slot (one map lookup); every later add()
/// is a pointer bump. Resolution is lazy on purpose: a counter that
/// never fires must stay absent from the registry, because reports list
/// exactly the counters that were ever recorded.
class CounterHandle {
 public:
  CounterHandle(MetricRegistry& registry, const char* name)
      : registry_(&registry), name_(name) {}

  void add(double delta = 1.0) {
    if (slot_ == nullptr) slot_ = &registry_->counter_ref(name_);
    *slot_ += delta;
  }

 private:
  MetricRegistry* registry_;
  const char* name_;
  double* slot_ = nullptr;
};

/// Histogram counterpart of CounterHandle, with the same lazy-resolution
/// contract.
class HistogramHandle {
 public:
  HistogramHandle(MetricRegistry& registry, const char* name)
      : registry_(&registry), name_(name) {}

  void record(double value) {
    if (slot_ == nullptr) slot_ = &registry_->histogram_ref(name_);
    slot_->record(value);
  }
  void record_duration(Duration d) { record(d.to_seconds()); }
  void record_traced(double value, std::uint64_t trace, std::uint64_t ref) {
    if (slot_ == nullptr) slot_ = &registry_->histogram_ref(name_);
    slot_->record_traced(value, trace, ref);
  }

 private:
  MetricRegistry* registry_;
  const char* name_;
  Histogram* slot_ = nullptr;
};

}  // namespace canary::obs
