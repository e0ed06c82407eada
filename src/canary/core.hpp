// Core Module (paper §IV-C1) — the orchestrator of the Canary framework.
//
// Receives job requests through a listener interface, validates them via
// the Request Validator, creates the database entries, and coordinates
// the Checkpointing, Replication and Runtime Manager modules. On function
// failure it identifies the failed function's runtime, gathers the latest
// checkpoint, selects the best replicated runtime, and redeploys the
// function there with its state restored; with no replica available it
// falls back to a cold container (still restoring the checkpoint), which
// degenerates to the retry strategy's launch cost — exactly the paper's
// lenient-replication worst case.
//
// CoreModule plugs into the Platform as its RecoveryHandler (replacing
// retry), its ExecutionHooks (checkpoint overhead + records), and a
// PlatformObserver (bookkeeping).
#pragma once

#include <deque>

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "canary/checkpointing.hpp"
#include "canary/failure_detector.hpp"
#include "canary/metadata.hpp"
#include "canary/proactive.hpp"
#include "canary/replication.hpp"
#include "canary/request_validator.hpp"
#include "canary/runtime_manager.hpp"
#include "cluster/storage.hpp"
#include "faas/events.hpp"
#include "faas/platform.hpp"
#include "kvstore/kvstore.hpp"

namespace canary::core {

struct CanaryConfig {
  CheckpointingConfig checkpointing;
  ReplicationConfig replication;
  /// Proactive failure prediction/mitigation (future-work extension).
  ProactiveConfig proactive;
  /// SLA-aware recovery (future-work extension): deadline-threatened
  /// functions may reserve a replica that is still launching instead of
  /// falling back to a cold container.
  bool sla_aware = false;
  /// Fault-domain-aware recovery: when the failed worker is dead, its
  /// whole zone is treated as suspect of a correlated outage — replica
  /// acquisition and cold-fallback placement route out of that zone when
  /// any other zone has capacity. Off by default (domain-blind recovery).
  bool spread_fault_domains = false;
  /// Reassignment/routing overhead when migrating a failed function onto
  /// a replicated runtime (in addition to checkpoint restore time).
  Duration migration_overhead = Duration::msec(50);
  /// Recovery-action watchdog: a recovery dispatch (replica claim or cold
  /// fallback) that has not begun executing within this window is treated
  /// as stalled — the attempt is killed with FailureKind::kRecoveryStall
  /// and re-routed away from the stalled worker (gray nodes launch
  /// containers arbitrarily slowly but never fail them). zero() disables
  /// the watchdog (the legacy behaviour).
  Duration recovery_action_timeout = Duration::zero();
  /// Each consecutive stall of the same function widens the watchdog
  /// window by this factor (capped), so a genuinely slow cluster is not
  /// re-routed into a kill storm.
  double recovery_backoff_factor = 2.0;
  Duration recovery_backoff_cap = Duration::sec(8.0);
};

class CoreModule final : public faas::RecoveryHandler,
                         public faas::ExecutionHooks,
                         public faas::PlatformObserver,
                         public FailureDetectorListener {
 public:
  CoreModule(faas::Platform& platform, kv::KvStore& store,
             const cluster::StorageHierarchy& storage, CanaryConfig config);

  /// Register this module as the platform's recovery handler, execution
  /// hooks, and observer. Call once before submitting jobs.
  void install();

  /// Listener interface: validate and submit (or queue) a job. Returns
  /// the platform JobId, or JobId::invalid() when the job was queued
  /// because launching it now would exceed the concurrency limit — it is
  /// submitted automatically as capacity frees (§IV-C2).
  Result<JobId> submit_job(faas::JobSpec spec);

  std::size_t queued_jobs() const { return queue_.size(); }
  std::size_t in_flight_functions() const { return in_flight_; }

  MetadataStore& metadata() { return metadata_; }
  CheckpointingModule& checkpointing() { return checkpointing_; }
  ReplicationModule& replication() { return replication_; }
  RuntimeManagerModule& runtime_manager() { return runtime_manager_; }
  const ProactiveMitigator& proactive() const { return mitigator_; }

  // ---- RecoveryHandler --------------------------------------------------
  void on_failure(const faas::Invocation& inv,
                  const faas::FailureInfo& info) override;

  // ---- ExecutionHooks ----------------------------------------------------
  Duration state_epilogue(const faas::Invocation& inv,
                          std::size_t state_idx) override;
  void on_state_committed(const faas::Invocation& inv,
                          std::size_t state_idx) override;

  // ---- PlatformObserver ---------------------------------------------------
  void on_job_submitted(JobId job) override;
  void on_attempt_started(const faas::Invocation& inv) override;
  void on_function_completed(const faas::Invocation& inv) override;
  void on_function_failed(const faas::Invocation& inv,
                          const faas::FailureInfo& info) override;
  void on_container_ready(const faas::Container& c) override;
  void on_container_destroyed(const faas::Container& c) override;
  void on_job_completed(JobId job) override;

  // ---- FailureDetectorListener ---------------------------------------------
  /// Heartbeat-suspected workers are avoided by recovery placement and
  /// replica acquisition exactly like the proactive mitigator's suspects.
  void on_worker_suspected(NodeId node, double suspicion) override;
  void on_worker_unsuspected(NodeId node) override;
  void on_worker_confirmed_dead(NodeId node) override;

 private:
  void refresh_worker_table();
  void drain_queue();
  /// Suspect by either signal source: the reactive proactive-mitigation
  /// predictor or the heartbeat failure detector.
  bool node_suspect(NodeId node) const;
  /// Dispatch a recovery for `inv`, routing around `avoid` (a worker the
  /// watchdog observed stalling this function's previous recovery).
  void dispatch_recovery(const faas::Invocation& inv,
                         std::optional<NodeId> avoid);
  /// Cold-path recovery: restore the checkpoint onto a fresh container,
  /// steering clear of `avoid_zone` when fault-domain spreading is on.
  void recover_cold(const faas::Invocation& inv,
                    std::optional<NodeId> avoid = std::nullopt,
                    std::optional<std::uint32_t> avoid_zone = std::nullopt);
  /// The failed worker's zone when it should be routed around: set only
  /// when fault-domain spreading is on and the worker is actually dead
  /// (a correlated outage may be eating the rest of its zone right now).
  std::optional<std::uint32_t> recovery_avoid_zone(
      const faas::Invocation& inv) const;
  void arm_recovery_watch(FunctionId id, NodeId target);
  void recovery_watch_fired(FunctionId id);
  void disarm_recovery_watch(FunctionId id);
  /// Whether the function's job deadline is threatened if recovery pays a
  /// full cold start.
  bool sla_urgent(const faas::Invocation& inv) const;
  /// Mark which recovery path handled `inv` in the span timeline.
  void recovery_instant(const faas::Invocation& inv, const char* name);

  faas::Platform& platform_;
  /// Retained for split-brain fencing: a worker the detector confirms dead
  /// is fenced at the store, so a minority-side zombie's late commit is
  /// rejected as stale-epoch.
  kv::KvStore& store_;
  CanaryConfig config_;
  MetadataStore metadata_;
  RequestValidator validator_;
  CheckpointingModule checkpointing_;
  RuntimeManagerModule runtime_manager_;
  ReplicationModule replication_;
  ProactiveMitigator mitigator_;

  std::deque<faas::JobSpec> queue_;
  std::size_t in_flight_ = 0;
  bool installed_ = false;
  /// Job deadlines for SLA-aware recovery.
  std::unordered_map<JobId, TimePoint> deadlines_;
  /// Launching replicas promised to SLA-urgent functions.
  std::unordered_map<ContainerId, FunctionId> promised_;

  /// Workers currently suspected by the heartbeat failure detector.
  std::unordered_set<NodeId> detector_suspects_;
  /// Recovery-action watchdog state per recovering function.
  struct RecoveryWatch {
    int stalls = 0;
    sim::EventHandle timer;
    NodeId target;
  };
  std::unordered_map<FunctionId, RecoveryWatch> watches_;
  /// Worker to route the next recovery of a function away from (set when
  /// the watchdog killed a stalled attempt on it).
  std::unordered_map<FunctionId, NodeId> avoid_;
};

}  // namespace canary::core
