// Shared internals of the scenario runner: the full set of live objects
// behind one simulated scenario, constructed against an externally owned
// simulator. ScenarioRunner::run builds one instance over one
// sim::Simulator, calls simulator.run() and harvests the RunResult with
// collect(). Callers that time or trace the layers of a run separately
// (construction, simulation, collection, teardown) drive the same three
// steps themselves, so they measure exactly the code the runner executes.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "canary/core.hpp"
#include "canary/failure_detector.hpp"
#include "cluster/cluster.hpp"
#include "cluster/network.hpp"
#include "cluster/storage.hpp"
#include "common/logging.hpp"
#include "faas/platform.hpp"
#include "faas/retry.hpp"
#include "failure/injector.hpp"
#include "harness/scenario.hpp"
#include "kvstore/kvstore.hpp"
#include "obs/slo_monitor.hpp"
#include "recovery/active_standby.hpp"
#include "recovery/request_replication.hpp"
#include "sim/simulator.hpp"
#include "traffic/autoscaler.hpp"
#include "traffic/generator.hpp"

namespace canary::harness::internal {

/// One fully wired scenario over a borrowed simulator. The constructor
/// performs the complete setup — platform, strategy, traffic, fault
/// schedule, detector start — in the runner's statement order; the
/// caller then drives the simulator and harvests the result with
/// collect().
///
/// `install_log_hooks` controls the thread-scoped log clock/mirror: when
/// set, log records carry simulated time and kWarn+ records mirror into
/// the causal log. The hooks are thread-local: they apply only on the
/// thread that constructed the instance.
struct ScenarioInstance {
  ScenarioInstance(sim::Simulator& sim, const ScenarioConfig& cfg,
                   const std::vector<faas::JobSpec>& jobs,
                   bool install_log_hooks);
  ScenarioInstance(const ScenarioInstance&) = delete;
  ScenarioInstance& operator=(const ScenarioInstance&) = delete;

  /// Harvest the RunResult after the simulator has quiesced. Finalizes
  /// the usage ledger and closes open spans; call exactly once.
  RunResult collect();

  ScenarioConfig config;  // owned copy, lives as long as the instance
  sim::Simulator& simulator;
  cluster::Cluster cluster;
  cluster::NetworkModel network;
  cluster::StorageHierarchy storage;
  kv::KvStore store;
  obs::MetricRegistry metrics;
  faas::Platform platform;

  std::shared_ptr<obs::SpanRecorder> spans;
  std::shared_ptr<obs::EventLog> events;
  obs::SloMonitor slo;
  obs::TimeSeries series;

  std::optional<ScopedLogClock> log_clock;
  std::optional<ScopedLogMirror> log_mirror;

  std::optional<failure::FailureInjector> injector;
  std::optional<core::FailureDetector> detector;

  // Exactly one strategy object is materialised per instance; optionals
  // keep construction in-place without heap indirection.
  std::optional<faas::RetryHandler> retry;
  std::optional<core::CoreModule> canary_fw;
  std::optional<recovery::RequestReplicationHandler> rr;
  std::optional<recovery::ActiveStandbyHandler> as;
  std::optional<recovery::HedgeHandler> hedge;

  std::optional<traffic::TrafficGenerator> traffic_gen;
  std::optional<traffic::WarmPoolAutoscaler> autoscaler;
};

}  // namespace canary::harness::internal
