// One simulated experiment run: a cluster, a platform, a fault-tolerance
// strategy, an error rate, and a set of jobs. Produces the metrics the
// paper's figures report (recovery time, makespan, dollar cost).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "canary/failure_detector.hpp"
#include "cluster/storage.hpp"
#include "cost/cost_model.hpp"
#include "failure/injector.hpp"
#include "faas/function.hpp"
#include "faas/platform.hpp"
#include "kvstore/kvstore.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_log.hpp"
#include "obs/metric_registry.hpp"
#include "obs/span.hpp"
#include "obs/tail_analyzer.hpp"
#include "obs/time_series.hpp"
#include "recovery/strategies.hpp"
#include "traffic/generator.hpp"

namespace canary::harness {

struct ScenarioConfig {
  recovery::StrategyConfig strategy;
  /// Fraction of functions whose container is killed (paper's error rate,
  /// 0.01 - 0.50). Ignored for the Ideal strategy.
  double error_rate = 0.0;
  /// Hazard-rate by default: the kill probability of an attempt scales
  /// with how long its container is up, so a first attempt fails with
  /// probability `error_rate` while restarted containers stay exposed —
  /// producing the paper's "multiple consecutive function failures" and
  /// the compounding retry cost at high error rates (§V-D5/D6).
  failure::InjectionMode injection_mode = failure::InjectionMode::kHazardRate;
  std::size_t cluster_nodes = 16;
  /// Node-level failures at these offsets from run start (§V-D6).
  std::vector<Duration> node_failure_offsets;
  /// Correlated node failures: container-kill degradation on the victim
  /// before it dies (the signature proactive mitigation predicts on).
  struct CorrelatedNodeFailure {
    Duration at;
    int precursor_kills = 4;
    Duration precursor_window = Duration::sec(8.0);
  };
  std::vector<CorrelatedNodeFailure> correlated_node_failures;
  /// Heartbeat failure detection (fault surface v2). Disabled by default:
  /// the platform keeps the legacy constant-delay oracle and produces
  /// byte-identical runs. When enabled the platform switches to
  /// DetectionMode::kHeartbeat and node-failure recovery starts only once
  /// the detector confirms the worker dead.
  core::FailureDetectorConfig detection;
  /// Gray failures: node slowdown windows (stragglers, not deaths).
  struct GrayFailure {
    Duration at;
    Duration duration = Duration::sec(4.0);
    double slowdown = 4.0;
    std::optional<NodeId> node;  // unset = weighted random alive victim
  };
  std::vector<GrayFailure> gray_failures;
  /// Control-plane fault windows applied to worker heartbeats.
  struct HeartbeatFaultCfg {
    Duration at;
    Duration duration = Duration::sec(2.0);
    Duration delay = Duration::zero();
    double drop_rate = 0.0;
    std::optional<NodeId> node;  // unset = every node
  };
  std::vector<HeartbeatFaultCfg> heartbeat_faults;
  /// KV checkpoint-shard faults: lose/corrupt stored checkpoint entries.
  struct StoreFault {
    Duration at;
    unsigned lose = 0;
    unsigned corrupt = 0;
  };
  std::vector<StoreFault> store_faults;
  /// Timed network partition windows (fault surface v3). A window either
  /// bipartitions a fault domain (`zone` set: the zone is symmetrically
  /// cut off from the rest of the cluster) or blocks the explicit node
  /// sets `from` -> `to` (one-way unless `symmetric`). Every window heals
  /// after `duration`; heals are first-class events in the causal log.
  struct PartitionFault {
    Duration at;
    Duration duration = Duration::sec(2.0);
    std::optional<std::uint32_t> zone;
    std::vector<NodeId> from;
    std::vector<NodeId> to;
    bool symmetric = false;
  };
  std::vector<PartitionFault> partitions;
  /// Correlated fault-domain outages: every still-alive member of `zone`
  /// dies at the offset, all kills sharing ONE causal event in the DAG.
  struct ZoneOutage {
    Duration at;
    std::uint32_t zone = 0;
  };
  std::vector<ZoneOutage> zone_outages;
  /// Fault-domain-aware placement across the stack: replica placement,
  /// checkpoint KV-shard owners, hedge clones, and recovery re-dispatch
  /// all spread across zones. Off by default — the domain-blind baseline
  /// (and byte-identical artifacts with the partition surface unused).
  bool fault_domain_spread = false;
  std::uint64_t seed = 42;
  faas::PlatformConfig platform;
  kv::KvConfig kv;
  cost::PricingModel pricing = cost::PricingModel::ibm();
  /// Storage hierarchy override; defaults to the paper's testbed tiers
  /// (§V-C1). Lets experiments model e.g. an NFS-only deployment or a
  /// custom external endpoint ("such as an S3 bucket", §IV-C4a).
  std::optional<cluster::StorageHierarchy> storage;
  /// Record a per-run span timeline (lifecycle phases, checkpoints,
  /// replication, recoveries) into RunResult::spans for chrome://tracing
  /// export. Off by default: spans cost memory proportional to events.
  bool record_spans = false;
  /// Record the per-invocation causal event DAG into RunResult::events and
  /// derive RunResult::breakdown from it. On by default: events are cheap
  /// and the critical-path breakdown feeds the v2 run report.
  bool record_events = true;
  /// When non-empty, arm the event log's flight recorder: on each node
  /// failure or SLA breach the last events are dumped to
  /// "<path>.<n>.json" (at most 4 dumps per run).
  std::string flight_recorder_path;
  /// Open-loop traffic: arrival streams driven through admission control
  /// (and optionally the warm-pool autoscaler) on top of — or instead of
  /// — the batch `jobs`. Disabled by default; enabling it forces
  /// PlatformConfig::reuse_containers so warm-pool sizing can matter.
  traffic::TrafficConfig traffic;
  /// Tail-latency attribution: exemplar-linked latency histograms whose
  /// tail buckets retain trace ids, resolved post-run into exact
  /// per-component attributions (queueing/cold-start/detection/...) via
  /// the causal event DAG. Off by default; when disabled the run — and
  /// every artifact derived from it — is byte-identical to a build
  /// without this feature.
  obs::TailConfig tail;
  /// Windowed time-series rollups (counter rates, per-window latency
  /// quantiles, node health) over fixed sim-time intervals. Off by
  /// default with the same byte-identity guarantee as `tail`.
  obs::TimeSeriesConfig timeseries;
};

/// One run's outcome. Every count of the run (faults injected, detector
/// verdicts, hedge races, traffic arrivals, lifecycle events) lives only
/// in `metrics`, recorded once where the event happens. The fields here
/// are the headline scalars, the run-end verdict inputs the registry
/// cannot express, and the recorders.
struct RunResult {
  bool completed = false;
  double makespan_s = 0.0;        // first submission to last job completion
  double total_recovery_s = 0.0;  // sum of per-failure recovery intervals
  double mean_recovery_s = 0.0;   // per recovered failure
  double lost_work_s = 0.0;       // nominal work discarded by failures
  double failures = 0.0;
  double cost_usd = 0.0;
  cost::CostBreakdown cost;
  /// Jobs carrying an SLA that finished past their deadline.
  double sla_violations = 0.0;
  double sla_jobs = 0.0;
  std::uint64_t simulated_events = 0;
  /// The run's metric registry: every counter, gauge and histogram.
  obs::MetricRegistry metrics;
  /// Span timeline; non-null only when ScenarioConfig::record_spans.
  std::shared_ptr<obs::SpanRecorder> spans;
  /// Causal event DAG; non-null only when ScenarioConfig::record_events.
  std::shared_ptr<obs::EventLog> events;
  /// Critical-path decomposition of end-to-end latency and every
  /// failure-to-recovery window, plus the SLO watchdog's verdicts.
  /// Derived from `events`; empty when event recording is off.
  obs::BreakdownReport breakdown;
  /// Usage-ledger balance (chaos-oracle input): every closed interval
  /// must be non-negative and the per-purpose split must sum to the
  /// total. Counts violations (0 in a healthy run).
  std::uint64_t usage_unbalanced = 0;
  /// Node failures the platform stashed but nobody ever confirmed (should
  /// be 0 at the end of any completed heartbeat-mode run).
  std::uint64_t undetected_failures = 0;
  /// Heal-convergence oracle inputs: no reachability rule may outlive the
  /// run, and the controller's metadata liveness view must agree with the
  /// cluster ground truth once the last partition heals (trivially true
  /// for non-Canary strategies).
  std::uint64_t partitions_active_end = 0;
  bool metadata_views_consistent = true;
  /// Epoch-fence accounting from the KV store: commits rejected because
  /// the writer was fenced (zombie side) or could not reach the quorum.
  std::uint64_t kv_stale_epoch_rejects = 0;
  std::uint64_t kv_quorum_blocked_puts = 0;

  /// Open-loop traffic accounting at run end (all zero unless
  /// ScenarioConfig::traffic.enabled). Latency and queue-wait
  /// distributions are the registry's traffic_latency/traffic_queue_wait
  /// histograms.
  struct TrafficSummary {
    bool enabled = false;
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t in_flight = 0;   // admitted, unresolved at run end
    std::uint64_t queued_end = 0;  // still buffered at run end

    /// The two conservation identities the chaos oracles check:
    ///   offered == admitted + shed + queued_end
    ///   admitted == completed + failed + in_flight
    bool conserved() const {
      return offered == admitted + shed + queued_end &&
             admitted == completed + failed + in_flight;
    }
  };
  TrafficSummary traffic;

  /// Hedge races unresolved at run end, read straight from the hedge
  /// handler (0 unless StrategyKind::kHedge). The exactly-once identity
  /// hedges_fired == hedge_wins + hedges_cancelled + open, with open == 0
  /// on any completed run, is the chaos campaign's hedge oracle.
  std::uint64_t hedge_open_races = 0;

  /// Tail-latency attribution (empty unless ScenarioConfig::tail.enabled
  /// and event recording is on): per-histogram percentile targets with a
  /// representative exemplar and its exact component attribution.
  obs::TailReport tail;
  /// Windowed rollups (empty unless ScenarioConfig::timeseries.enabled).
  obs::TimeSeries timeseries;
};

class ScenarioRunner {
 public:
  /// Execute `jobs` under `config` to completion. Deterministic in
  /// (config, jobs).
  static RunResult run(const ScenarioConfig& config,
                       const std::vector<faas::JobSpec>& jobs);
};

}  // namespace canary::harness
