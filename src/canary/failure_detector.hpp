// Heartbeat/lease failure detection (paper §IV-C1: the Core Module
// "monitors the heartbeats of the workers" through the worker_info table).
//
// Every worker publishes a heartbeat into worker_info on a configurable
// interval; the controller sweeps the table and computes a phi-style
// suspicion level per worker — the number of heartbeat intervals elapsed
// since the last delivered beat. A worker whose suspicion crosses
// `timeout_multiplier` becomes *suspected*; if a late heartbeat arrives
// the suspicion was false and the worker is un-suspected (no recovery was
// started, so nothing double-executes). A worker that stays silent for a
// further `confirm_multiplier` intervals is *confirmed dead*: the
// detector fences it through Platform::confirm_node_dead (killing it
// outright if it was actually alive — the exactly-once guarantee) and the
// stashed node-failure reports drain to the recovery handler. Detection
// latency is therefore an emergent per-scenario quantity — heartbeat
// interval x multipliers + sweep granularity + injected network delay —
// feeding the critical-path `detection` component, instead of the legacy
// constant-oracle PlatformConfig::failure_detect_delay.
#pragma once

#include <vector>

#include "canary/metadata.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "faas/platform.hpp"
#include "failure/heartbeat_faults.hpp"
#include "sim/simulator.hpp"

namespace canary::core {

struct FailureDetectorConfig {
  bool enabled = false;
  /// Worker heartbeat publication interval.
  Duration heartbeat_interval = Duration::msec(500);
  /// Suspicion level (missed intervals) at which a worker is suspected.
  double timeout_multiplier = 3.0;
  /// Additional missed intervals after suspicion before the worker is
  /// confirmed dead and recovery begins.
  double confirm_multiplier = 2.0;
  /// Controller sweep cadence; bounds the detection-latency granularity.
  Duration sweep_interval = Duration::msec(100);
  /// Hard stop for the detector's recurring events: past this simulated
  /// time the heartbeat/sweep chains stop rescheduling, so a run whose
  /// recovery wedged drains the event queue and reports completed=false
  /// instead of spinning Simulator::run() forever.
  Duration horizon = Duration::sec(3600.0);
};

/// Optional bookkeeping hooks for suspicion-lifecycle transitions. The
/// detector itself drives Platform::confirm_node_dead, so installing a
/// listener is never required for recovery to proceed.
class FailureDetectorListener {
 public:
  virtual ~FailureDetectorListener() = default;
  virtual void on_worker_suspected(NodeId node, double suspicion) {
    (void)node;
    (void)suspicion;
  }
  virtual void on_worker_unsuspected(NodeId node) { (void)node; }
  virtual void on_worker_confirmed_dead(NodeId node) { (void)node; }
};

/// Every heartbeat and suspicion-lifecycle count (heartbeats_sent,
/// heartbeats_dropped, heartbeats_delayed, heartbeats_partition_dropped,
/// worker_suspicions, false_suspicions, workers_confirmed_dead) is
/// recorded in the platform's metric registry where the event happens.
class FailureDetector {
 public:
  FailureDetector(sim::Simulator& simulator, faas::Platform& platform,
                  FailureDetectorConfig config);

  const FailureDetectorConfig& config() const { return config_; }

  void set_listener(FailureDetectorListener* listener) {
    listener_ = listener;
  }
  /// Inject heartbeat network faults (delay/drop); null = perfect links.
  void set_fault_provider(failure::HeartbeatFaultProvider* faults) {
    faults_ = faults;
  }
  /// Mirror heartbeat/suspicion state into worker_info rows (the paper's
  /// table); null skips the mirror (non-Canary strategies).
  void set_metadata(MetadataStore* metadata) { metadata_ = metadata; }

  /// Start the per-worker heartbeat publishers and the controller sweep.
  /// Call after jobs are submitted; the recurring events stop once the
  /// platform reports all jobs completed, so Simulator::run() terminates.
  void start();

  /// Phi-style suspicion: heartbeat intervals elapsed since the last
  /// delivered heartbeat (0 while beats arrive on time).
  double suspicion_level(NodeId node) const;
  bool is_suspected(NodeId node) const;
  bool is_confirmed_dead(NodeId node) const;

  /// Worst-case detection latency from a node death to its confirmation,
  /// excluding injected heartbeat faults: one full interval since the
  /// last beat, the suspect + confirm thresholds, and one sweep.
  Duration detection_bound() const {
    return config_.heartbeat_interval *
               (1.0 + config_.timeout_multiplier + config_.confirm_multiplier) +
           config_.sweep_interval;
  }

 private:
  struct WorkerState {
    TimePoint last_heartbeat;
    bool suspected = false;
    bool confirmed = false;
    bool publishing = false;  // a heartbeat chain is scheduled
  };

  WorkerState& state(NodeId node);
  const WorkerState& state(NodeId node) const;
  bool done() const;
  void schedule_heartbeat(NodeId node);
  void deliver_heartbeat(NodeId node, TimePoint sent);
  void schedule_sweep();
  void sweep();
  void publish_row(NodeId node, double suspicion);
  void annotate(NodeId node, const char* what);

  sim::Simulator& sim_;
  faas::Platform& platform_;
  FailureDetectorConfig config_;
  FailureDetectorListener* listener_ = nullptr;
  failure::HeartbeatFaultProvider* faults_ = nullptr;
  MetadataStore* metadata_ = nullptr;
  std::vector<WorkerState> workers_;  // indexed by node id - 1
  bool started_ = false;
};

}  // namespace canary::core
