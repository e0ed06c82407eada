#include "workloads.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/scenario_internal.hpp"
#include "obs/event_log.hpp"
#include "recovery/strategies.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using canary::Duration;
using canary::faas::JobSpec;
using canary::harness::RunResult;
using canary::harness::ScenarioConfig;
using canary::recovery::StrategyConfig;
namespace wl = canary::workloads;

std::uint64_t fnv_mix(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv_mix(std::uint64_t h, double v) {
  return fnv_mix(h, &v, sizeof v);
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------
// Reading a run. Every RunResult field the benchmark reads beyond
// completion, the event count, the registry and the event log is read in
// check_run and outcome_digest, so a change to the result model touches
// these two functions only.
// ---------------------------------------------------------------------

/// The invariants every run must satisfy; empty when they hold.
std::string check_run(const RunResult& r) {
  if (!r.completed) return "run did not complete";
  if (r.usage_unbalanced != 0) return "usage ledger unbalanced";
  if (r.traffic.enabled) {
    const RunResult::TrafficSummary& t = r.traffic;
    if (t.offered != t.admitted + t.shed + t.queued_end) {
      return "traffic: offered != admitted + shed + queued";
    }
    if (t.admitted != t.completed + t.failed + t.in_flight) {
      return "traffic: admitted != completed + failed + in flight";
    }
    if (t.queued_end != 0 || t.in_flight != 0) {
      return "traffic: requests left queued or in flight";
    }
  }
  return {};
}

std::uint64_t outcome_digest(const RunResult& r) {
  std::uint64_t h = kFnvBasis;
  h = fnv_mix(h, r.completed ? 1.0 : 0.0);
  h = fnv_mix(h, r.makespan_s);
  h = fnv_mix(h, r.total_recovery_s);
  h = fnv_mix(h, r.cost_usd);
  h = fnv_mix(h, r.metrics.counter("failures"));
  h = fnv_mix(h, r.metrics.counter("functions_completed"));
  return h;
}

LayerCounts counts_of(const RunResult& r, const canary::kv::KvStats& kv) {
  const canary::obs::MetricRegistry& m = r.metrics;
  LayerCounts c;
  c.events = static_cast<double>(r.simulated_events);
  c.completed = m.counter("functions_completed");
  c.cold_starts = m.counter("cold_starts");
  c.warm_starts = m.counter("warm_starts");
  c.failures = m.counter("failures");
  c.recoveries = m.counter("recoveries");
  c.recovery_s = r.total_recovery_s;
  c.lost_work_s = r.lost_work_s;
  c.checkpoints_written = m.counter("checkpoints_written");
  c.checkpoint_spills = m.counter("checkpoint_spills");
  c.replicas_launched = m.counter("replicas_launched");
  c.replicas_consumed = m.counter("replicas_consumed");
  c.kv_puts = static_cast<double>(kv.puts);
  c.kv_gets = static_cast<double>(kv.gets);
  c.kv_hits = static_cast<double>(kv.hits);
  c.kv_rejected_oversize = static_cast<double>(kv.rejected_oversize);
  c.traffic_offered = m.counter("traffic_offered");
  c.traffic_shed = m.counter("traffic_shed");
  c.traffic_queue_peak = m.gauge("traffic_queue_peak");
  c.traffic_latency_p99_ms = m.histogram("traffic_latency").p99() * 1e3;
  if (r.events != nullptr) {
    using canary::obs::EventKind;
    c.events_recorded = static_cast<double>(r.events->size());
    c.events_dropped = static_cast<double>(r.events->dropped());
    c.failure_events_dropped =
        static_cast<double>(r.events->dropped_of(EventKind::kFailure) +
                            r.events->dropped_of(EventKind::kRecovered));
  }
  c.outcome_digest = outcome_digest(r);
  return c;
}

/// One scenario run through ScenarioInstance, each layer call in its own
/// span: what ScenarioRunner::run does, taken apart.
struct InstanceRun {
  RunResult result;
  LayerCounts counts;
  std::string violation;
  double wall_s = 0.0;
};

InstanceRun run_instance(Tracer* tracer, std::uint32_t parent,
                         const ScenarioConfig& config,
                         const std::vector<JobSpec>& jobs) {
  InstanceRun out;
  const std::int64_t start = now_ns();
  const std::uint32_t run = tracer != nullptr ? tracer->next_run() : 0;
  ScopedSpan span(tracer, "bench.run", parent, run);
  auto simulator = std::make_unique<canary::sim::Simulator>();
  std::optional<canary::harness::internal::ScenarioInstance> instance;
  {
    ScopedSpan s(tracer, "harness.instance", span.id(), run);
    instance.emplace(*simulator, config, jobs, /*install_log_hooks=*/true);
  }
  std::uint64_t allocations = 0;
  {
    ScopedSpan s(tracer, "faas.simulate", span.id(), run);
    const std::uint64_t before = thread_allocations();
    simulator->run();
    allocations = thread_allocations() - before;
  }
  {
    ScopedSpan s(tracer, "harness.collect", span.id(), run);
    out.result = instance->collect();
  }
  out.counts = counts_of(out.result, instance->store.stats());
  out.counts.simulate_allocations = static_cast<double>(allocations);
  out.violation = check_run(out.result);
  {
    ScopedSpan s(tracer, "harness.destroy", span.id(), run);
    instance.reset();
    simulator.reset();
  }
  out.wall_s = seconds_since(start);
  return out;
}

// ---------------------------------------------------------------------
// fig_sweep: the paper's evaluation grid. Each cell is what one
// run_repetitions call followed by make_report does, with the repetitions
// run one after another on the calling thread: ScenarioRunner::run per
// repetition, Aggregate::add, make_report. A pass keeps one thread busy,
// so its host time does not depend on how many vCPUs the neighbours leave
// free. check_entry_point() runs run_repetitions itself over every cell
// and requires the same reports.
// ---------------------------------------------------------------------

class FigSweep final : public Workload {
 public:
  static constexpr std::size_t kInvocations = 100;
  static constexpr int kReps = 4;
  static constexpr std::size_t kNodes = 16;

  void generate(std::uint64_t seed) override {
    const StrategyConfig strategies[] = {
        StrategyConfig::retry(), StrategyConfig::canary_full(),
        StrategyConfig::canary_checkpoint_only(),
        StrategyConfig::request_replication(),
        StrategyConfig::active_standby()};
    const double error_rates[] = {0.01, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50};
    cells_.clear();
    jobs_.clear();
    std::uint64_t state = seed;
    for (const wl::WorkloadKind kind : wl::kAllWorkloads) {
      jobs_.push_back({wl::make_job(kind, kInvocations)});
      for (const StrategyConfig& strategy : strategies) {
        for (const double rate : error_rates) {
          Cell cell;
          cell.job = jobs_.size() - 1;
          cell.name = std::string(wl::to_string_view(kind)) + "/" +
                      strategy.label() + "/" + std::to_string(rate);
          cell.config.strategy = strategy;
          cell.config.error_rate = rate;
          cell.config.cluster_nodes = kNodes;
          cell.config.seed = canary::splitmix64(state);
          cells_.push_back(std::move(cell));
        }
      }
    }
  }

  PassResult check_entry_point() override {
    PassResult out;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      const canary::harness::Aggregate agg =
          canary::harness::run_repetitions(cell.config, jobs_[cell.job], kReps);
      out.runs += kReps;
      if (!matches_reference(i, report_fingerprint(cell, agg))) {
        out.fail(kReps, cell.name + ": run_repetitions' report differs");
      }
    }
    return out;
  }

 protected:
  void pass(PassResult& out) override {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      const std::int64_t start = now_ns();
      canary::harness::Aggregate agg;
      for (int rep = 0; rep < kReps; ++rep) {
        agg.add(canary::harness::ScenarioRunner::run(
            rep_config(cell.config, rep), jobs_[cell.job]));
      }
      const std::uint64_t fingerprint = report_fingerprint(cell, agg);
      out.cell_wall_s.push_back(seconds_since(start));
      out.runs += kReps;
      out.invocations += agg.metrics.counter("functions_completed");
      if (!matches_reference(i, fingerprint)) {
        out.fail(kReps, cell.name + ": report differs from the first pass");
      } else if (agg.incomplete_runs > 0) {
        out.fail(agg.incomplete_runs, cell.name + ": run did not complete");
      }
    }
  }

  void decomposed(PassResult& out, Tracer* tracer,
                  std::uint32_t root) override {
    const std::int64_t gen_start = now_ns();
    jobs_.clear();
    for (const wl::WorkloadKind kind : wl::kAllWorkloads) {
      ScopedSpan s(tracer, "workloads.make_job", root);
      jobs_.push_back({wl::make_job(kind, kInvocations)});
    }
    out.make_job_s = seconds_since(gen_start);

    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      const std::int64_t start = now_ns();
      ScopedSpan cell_span(tracer, "bench.cell", root);
      std::vector<InstanceRun> runs;
      for (int rep = 0; rep < kReps; ++rep) {
        runs.push_back(run_instance(tracer, cell_span.id(),
                                    rep_config(cell.config, rep),
                                    jobs_[cell.job]));
      }

      double slowest = 0.0;
      double mean = 0.0;
      std::uint64_t violations = 0;
      std::string violation;
      for (const InstanceRun& r : runs) {
        slowest = std::max(slowest, r.wall_s);
        mean += r.wall_s / kReps;
        out.counts.add(r.counts);
        out.invocations += r.counts.completed;
        if (!r.violation.empty()) {
          ++violations;
          violation = r.violation;
        }
      }
      out.rep_slowest_mean_s.emplace_back(slowest, mean);

      canary::harness::Aggregate agg;
      {
        ScopedSpan s(tracer, "harness.merge", cell_span.id());
        for (InstanceRun& r : runs) {
          const RunResult result = std::move(r.result);
          agg.add(result);
        }
      }
  std::uint64_t fingerprint = 0;
      {
        ScopedSpan s(tracer, "harness.report", cell_span.id());
        fingerprint = report_fingerprint(cell, agg);
      }
      out.runs += kReps;
      if (!matches_reference(i, fingerprint)) {
        out.fail(kReps, cell.name + ": rebuilt report differs from the first pass");
      } else if (violations > 0) {
        out.fail(violations, cell.name + ": " + violation);
      }
      out.cell_wall_s.push_back(seconds_since(start));
    }
  }

 private:
  struct Cell {
    std::string name;
    ScenarioConfig config;
    std::size_t job = 0;
  };

  /// Repetition `rep` of a cell, seeded as run_repetitions seeds it.
  static ScenarioConfig rep_config(const ScenarioConfig& base, int rep) {
    ScenarioConfig config = base;
    std::uint64_t sm = base.seed + static_cast<std::uint64_t>(rep);
    config.seed = canary::splitmix64(sm);
    if (rep > 0) config.flight_recorder_path.clear();
    return config;
  }

  static std::uint64_t report_fingerprint(const Cell& cell,
                                          const canary::harness::Aggregate& agg) {
    const std::string json =
        canary::harness::make_report(cell.name, cell.config, agg).to_json();
    return fnv_mix(kFnvBasis, json.data(), json.size());
  }

  std::vector<Cell> cells_;
  std::vector<std::vector<JobSpec>> jobs_;  // one per workload kind
};

// ---------------------------------------------------------------------
// Single-scenario workloads: one ScenarioRunner::run per pass.
// ---------------------------------------------------------------------

struct ScenarioInputs {
  ScenarioConfig config;
  std::vector<JobSpec> jobs;
};

class ScenarioWorkload final : public Workload {
 public:
  using InputsFn = ScenarioInputs (*)(std::uint64_t seed);
  explicit ScenarioWorkload(InputsFn make_inputs) : make_inputs_(make_inputs) {}

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    inputs_ = ScenarioInputs();  // never hold two copies
    inputs_ = make_inputs_(seed);
  }

 protected:
  void pass(PassResult& out) override {
    const std::int64_t start = now_ns();
    {
      const RunResult result =
          canary::harness::ScenarioRunner::run(inputs_.config, inputs_.jobs);
      out.invocations += result.metrics.counter("functions_completed");
      record(out, outcome_digest(result), check_run(result));
    }
    out.cell_wall_s.push_back(seconds_since(start));
  }

  void decomposed(PassResult& out, Tracer* tracer,
                  std::uint32_t root) override {
    {
      const std::int64_t gen_start = now_ns();
      ScopedSpan s(tracer, "workloads.make_job", root);
      generate(seed_);
      out.make_job_s = seconds_since(gen_start);
    }
    const std::int64_t start = now_ns();
    {
      ScopedSpan cell(tracer, "bench.cell", root);
      InstanceRun run = run_instance(tracer, cell.id(), inputs_.config,
                                     inputs_.jobs);
      out.counts.add(run.counts);
      out.invocations += run.counts.completed;
      record(out, outcome_digest(run.result), run.violation);
      out.rep_slowest_mean_s.emplace_back(run.wall_s, run.wall_s);
      ScopedSpan s(tracer, "harness.destroy", cell.id());
      run.result = RunResult();
    }
    out.cell_wall_s.push_back(seconds_since(start));
  }

 private:
  void record(PassResult& out, std::uint64_t digest,
              const std::string& violation) {
    ++out.runs;
    if (!matches_reference(0, digest)) {
      out.fail(1, "outcome differs from the first pass");
    } else if (!violation.empty()) {
      out.fail(1, violation);
    }
  }

  InputsFn make_inputs_;
  std::uint64_t seed_ = 0;
  ScenarioInputs inputs_;
};

/// scale_stress's platform_scale shape: a web-service batch under retry
/// at a 2% hazard error rate on 64 nodes, every recorder off.
ScenarioInputs batch_scale_inputs(std::uint64_t seed) {
  constexpr std::size_t kJobs = 32;
  constexpr std::size_t kFunctionsPerJob = 4096;
  ScenarioInputs in;
  in.config.strategy = StrategyConfig::retry();
  in.config.error_rate = 0.02;
  in.config.cluster_nodes = 64;
  std::uint64_t state = seed;
  in.config.seed = canary::splitmix64(state);
  in.config.record_spans = false;
  in.config.record_events = false;
  in.jobs.reserve(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    in.jobs.push_back(wl::make_job(wl::WorkloadKind::kWebService,
                                   kFunctionsPerJob,
                                   "scale_" + std::to_string(j)));
  }
  return in;
}

/// Open-loop Poisson streams below admission capacity under full Canary,
/// with every recorder on and two node failures inside the horizon.
ScenarioInputs traffic_recorded_inputs(std::uint64_t seed) {
  const Duration horizon = Duration::sec(5000.0);
  struct StreamShape {
    wl::WorkloadKind kind;
    double rate_hz;
    unsigned max_concurrent;
  };
  const StreamShape shapes[] = {
      {wl::WorkloadKind::kWebService, 1.5, 32},
      {wl::WorkloadKind::kGraphBfs, 0.8, 32},
      {wl::WorkloadKind::kCompression, 0.5, 32},
  };
  ScenarioInputs in;
  ScenarioConfig& c = in.config;
  c.strategy = StrategyConfig::canary_full();
  c.error_rate = 0.05;
  c.cluster_nodes = 16;
  std::uint64_t state = seed;
  c.seed = canary::splitmix64(state);
  c.record_events = true;
  c.tail.enabled = true;
  c.timeseries.enabled = true;
  c.traffic.enabled = true;
  c.traffic.horizon = horizon;
  for (const StreamShape& shape : shapes) {
    canary::traffic::StreamConfig stream;
    stream.name = std::string(wl::to_string_view(shape.kind));
    stream.fn = wl::function_of(shape.kind);
    stream.arrival.kind = canary::traffic::ArrivalSpec::Kind::kPoisson;
    stream.arrival.rate_hz = shape.rate_hz;
    stream.admission.max_concurrent = shape.max_concurrent;
    stream.admission.queue_capacity = 64;
    c.traffic.streams.push_back(std::move(stream));
  }
  c.node_failure_offsets = {horizon * 0.3, horizon * 0.65};
  return in;
}

}  // namespace

void LayerCounts::add(const LayerCounts& r) {
  events += r.events;
  completed += r.completed;
  cold_starts += r.cold_starts;
  warm_starts += r.warm_starts;
  failures += r.failures;
  recoveries += r.recoveries;
  recovery_s += r.recovery_s;
  lost_work_s += r.lost_work_s;
  checkpoints_written += r.checkpoints_written;
  checkpoint_spills += r.checkpoint_spills;
  replicas_launched += r.replicas_launched;
  replicas_consumed += r.replicas_consumed;
  kv_puts += r.kv_puts;
  kv_gets += r.kv_gets;
  kv_hits += r.kv_hits;
  kv_rejected_oversize += r.kv_rejected_oversize;
  traffic_offered += r.traffic_offered;
  traffic_shed += r.traffic_shed;
  traffic_queue_peak = std::max(traffic_queue_peak, r.traffic_queue_peak);
  traffic_latency_p99_ms =
      std::max(traffic_latency_p99_ms, r.traffic_latency_p99_ms);
  events_recorded += r.events_recorded;
  events_dropped += r.events_dropped;
  failure_events_dropped += r.failure_events_dropped;
  simulate_allocations += r.simulate_allocations;
  outcome_digest =
      fnv_mix(outcome_digest, &r.outcome_digest, sizeof r.outcome_digest);
}

void PassResult::fail(std::uint64_t runs_lost, std::string reason) {
  runs_failed += runs_lost;
  if (failure_reasons.size() < 8) failure_reasons.push_back(std::move(reason));
}

PassResult Workload::run_pass() {
  PassResult out;
  const double cpu_start = process_cpu_s();
  const std::int64_t start = now_ns();
  pass(out);
  out.wall_s = seconds_since(start);
  out.cpu_s = process_cpu_s() - cpu_start;
  return out;
}

PassResult Workload::run_decomposed(Tracer* tracer) {
  PassResult out;
  const double cpu_start = process_cpu_s();
  const std::int64_t start = now_ns();
  {
    ScopedSpan root(tracer, "bench.pass", 0);
    decomposed(out, tracer, root.id());
  }
  out.wall_s = seconds_since(start);
  out.cpu_s = process_cpu_s() - cpu_start;
  return out;
}

bool Workload::matches_reference(std::size_t i, std::uint64_t fingerprint) {
  if (i == reference_.size()) {
    reference_.push_back(fingerprint);
    return true;
  }
  return reference_.at(i) == fingerprint;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig_sweep") return std::make_unique<FigSweep>();
  if (name == "batch_scale") {
    return std::make_unique<ScenarioWorkload>(&batch_scale_inputs);
  }
  if (name == "traffic_recorded") {
    return std::make_unique<ScenarioWorkload>(&traffic_recorded_inputs);
  }
  return nullptr;
}

}  // namespace perfbench
