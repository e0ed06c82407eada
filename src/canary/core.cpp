#include "canary/core.hpp"

#include "common/logging.hpp"

namespace canary::core {

CoreModule::CoreModule(faas::Platform& platform, kv::KvStore& store,
                       const cluster::StorageHierarchy& storage,
                       CanaryConfig config)
    : platform_(platform),
      store_(store),
      config_(config),
      validator_(platform.config().limits),
      checkpointing_(platform.simulator(), platform.cluster(), storage,
                     platform.network(), store, metadata_, platform.metrics(),
                     config.checkpointing),
      runtime_manager_(platform, platform.cluster(), metadata_),
      replication_(platform, runtime_manager_, metadata_, platform.metrics(),
                   config.replication),
      mitigator_(platform.simulator(), config.proactive) {
  replication_.set_advisor(&mitigator_);
  refresh_worker_table();
}

void CoreModule::install() {
  CANARY_CHECK(!installed_, "CoreModule installed twice");
  installed_ = true;
  platform_.set_recovery_handler(this);
  platform_.set_hooks(this);
  platform_.add_observer(this);
  checkpointing_.set_spans(platform_.spans());
  checkpointing_.set_event_log(platform_.events());
  replication_.set_spans(platform_.spans());
  // Split-brain probe: when the platform logically fences a worker that is
  // alive but cut off from the quorum, the worker's in-flight functions
  // finish executing over there and try to commit. Route those attempts
  // through the checkpointing module so they hit the store's epoch gate.
  platform_.set_zombie_commit_hook([this](NodeId node, FunctionId fn) {
    checkpointing_.zombie_commit(node, fn);
  });
}

void CoreModule::refresh_worker_table() {
  for (const NodeId id : platform_.cluster().node_ids()) {
    const auto& node = platform_.cluster().node(id);
    WorkerInfoRow row;
    if (const WorkerInfoRow* existing = metadata_.worker(id)) {
      // Preserve the failure detector's heartbeat lease fields — the
      // refresh only re-reads the hardware facts and liveness.
      row = *existing;
    }
    row.node = id;
    row.cpu = node.spec().cpu;
    row.memory = node.spec().memory;
    row.container_slots = node.spec().container_slots;
    row.rack = node.spec().rack;
    row.zone = node.spec().zone;
    row.alive = node.alive();
    metadata_.upsert_worker(row);
  }
}

bool CoreModule::node_suspect(NodeId node) const {
  return mitigator_.is_suspect(node) || detector_suspects_.count(node) > 0;
}

Result<JobId> CoreModule::submit_job(faas::JobSpec spec) {
  CANARY_CHECK(installed_, "call install() before submitting jobs");
  const ValidationResult verdict = validator_.validate(spec, in_flight_);
  switch (verdict.verdict) {
    case Verdict::kReject:
      platform_.metrics().count("requests_rejected");
      return Error::invalid_argument(verdict.reason);
    case Verdict::kQueue:
      platform_.metrics().count("requests_queued");
      queue_.push_back(std::move(spec));
      return JobId::invalid();
    case Verdict::kAccept:
      break;
  }
  in_flight_ += spec.functions.size();
  return platform_.submit_job(std::move(spec));
}

void CoreModule::drain_queue() {
  while (!queue_.empty()) {
    const ValidationResult verdict =
        validator_.validate(queue_.front(), in_flight_);
    if (verdict.verdict != Verdict::kAccept) return;
    faas::JobSpec spec = std::move(queue_.front());
    queue_.pop_front();
    in_flight_ += spec.functions.size();
    auto submitted = platform_.submit_job(std::move(spec));
    if (!submitted.ok()) {
      CANARY_LOG_WARN("queued job rejected at submission: "
                      << submitted.error().message);
    }
  }
}

// ---- RecoveryHandler ------------------------------------------------------

void CoreModule::recovery_instant(const faas::Invocation& inv,
                                  const char* name) {
  platform_.log_recovery_action(inv.id, name);
  obs::SpanRecorder* spans = platform_.spans();
  if (spans == nullptr) return;
  obs::SpanLabels labels{inv.job, inv.id, inv.container, inv.node,
                         inv.attempt};
  spans->instant(obs::SpanKind::kRecovery, name, platform_.simulator().now(),
                 labels);
}

bool CoreModule::sla_urgent(const faas::Invocation& inv) const {
  if (!config_.sla_aware) return false;
  auto it = deadlines_.find(inv.job);
  if (it == deadlines_.end()) return false;
  // Remaining nominal work plus a cold restart's overhead against the
  // remaining slack: if a cold recovery would blow the deadline, the
  // function is urgent.
  const auto& rt = faas::profile(inv.spec->runtime);
  const Duration remaining =
      inv.spec->total_state_work() - inv.work_done + inv.spec->finalize;
  const TimePoint done_if_cold = platform_.simulator().now() +
                                 rt.cold_launch + rt.init + remaining;
  return done_if_cold > it->second;
}

std::optional<std::uint32_t> CoreModule::recovery_avoid_zone(
    const faas::Invocation& inv) const {
  if (!config_.spread_fault_domains) return std::nullopt;
  if (platform_.cluster().node(inv.node).alive()) return std::nullopt;
  return platform_.cluster().zone_of(inv.node);
}

void CoreModule::recover_cold(const faas::Invocation& inv,
                              std::optional<NodeId> avoid,
                              std::optional<std::uint32_t> avoid_zone) {
  // No replica ready (mass failure burst or replication disabled): fall
  // back to a cold container but still restore from the checkpoint.
  // Avoid the failed worker if it is predicted to be failing or stalled.
  std::optional<NodeId> prefer;
  if (platform_.cluster().node(inv.node).alive() && !node_suspect(inv.node) &&
      (!avoid || *avoid != inv.node)) {
    prefer = inv.node;
  }
  NodeId target;
  if (prefer) {
    target = *prefer;
  } else if (avoid_zone) {
    // The failed worker's whole fault domain is suspect: place outside it
    // when any other zone has capacity (falls back to in-zone placement
    // otherwise — least_loaded_avoiding_zone degrades gracefully).
    std::vector<NodeId> excluded;
    if (avoid) excluded.push_back(*avoid);
    target = platform_.cluster()
                 .least_loaded_avoiding_zone(inv.spec->effective_memory(),
                                             *avoid_zone, excluded)
                 .value_or(inv.node);
  } else if (avoid) {
    target = platform_.cluster()
                 .least_loaded_excluding(inv.spec->effective_memory(), {*avoid})
                 .value_or(inv.node);
  } else {
    target = platform_.cluster()
                 .least_loaded(inv.spec->effective_memory())
                 .value_or(inv.node);
  }
  const RestorePlan plan = checkpointing_.restore_plan(inv.id, target);
  faas::StartSpec start;
  start.from_state = plan.from_state;
  start.node_pref = target;
  start.extra_setup = plan.restore_time;
  platform_.metrics().count("cold_fallback_recoveries");
  recovery_instant(inv, "cold_fallback_recovery");
  arm_recovery_watch(inv.id, target);
  platform_.start_attempt(inv.id, start);
}

void CoreModule::on_failure(const faas::Invocation& inv,
                            const faas::FailureInfo& info) {
  (void)info;
  replication_.on_failure_observed(inv);
  refresh_worker_table();

  // A watchdog-initiated kill recorded the stalled worker; route this
  // dispatch away from it.
  std::optional<NodeId> avoid;
  if (auto it = avoid_.find(inv.id); it != avoid_.end()) {
    avoid = it->second;
    avoid_.erase(it);
  }
  dispatch_recovery(inv, avoid);
}

void CoreModule::dispatch_recovery(const faas::Invocation& inv,
                                   std::optional<NodeId> avoid) {
  const faas::RuntimeImage image = inv.spec->runtime;
  const std::optional<NodeId> prefer =
      platform_.cluster().node(inv.node).alive() && !node_suspect(inv.node) &&
              (!avoid || *avoid != inv.node)
          ? std::optional(inv.node)
          : std::nullopt;

  const std::optional<std::uint32_t> avoid_zone = recovery_avoid_zone(inv);
  auto replica = runtime_manager_.acquire(image, prefer, avoid, avoid_zone);
  if (replica) {
    // Fast path: migrate onto the warm replicated runtime and restore the
    // latest checkpoint there.
    const RestorePlan plan =
        checkpointing_.restore_plan(inv.id, replica->worker);
    faas::StartSpec start;
    start.from_state = plan.from_state;
    start.container = replica->container;
    start.extra_setup = config_.migration_overhead + plan.restore_time;
    platform_.metrics().count("replica_recoveries");
    recovery_instant(inv, "replica_recovery");
    replication_.on_replica_consumed(image);
    arm_recovery_watch(inv.id, replica->worker);
    platform_.start_attempt(inv.id, start);
    return;
  }

  // SLA-aware path: a deadline-threatened function may claim a replica
  // that is still launching — waiting out the remaining init is cheaper
  // than a full cold start plus init, provided the replica has a real
  // head start (at least a third of the startup already behind it).
  if (sla_urgent(inv)) {
    const auto& rt = faas::profile(image);
    const Duration min_age = (rt.cold_launch + rt.init) * (1.0 / 3.0);
    if (auto pending = runtime_manager_.promise_launching(image, min_age)) {
      promised_[pending->container] = inv.id;
      platform_.metrics().count("sla_promised_recoveries");
      recovery_instant(inv, "sla_promised_recovery");
      replication_.on_replica_consumed(image);
      arm_recovery_watch(inv.id, pending->worker);
      return;  // dispatch happens in on_container_ready
    }
  }

  replication_.reconcile(image);  // provision replicas for the next failure
  recover_cold(inv, avoid, avoid_zone);
}

// ---- recovery watchdog ------------------------------------------------------

void CoreModule::arm_recovery_watch(FunctionId id, NodeId target) {
  if (config_.recovery_action_timeout <= Duration::zero()) return;
  RecoveryWatch& watch = watches_[id];
  watch.timer.cancel();
  watch.target = target;
  // Capped exponential backoff: every stall of this function widens the
  // window, so a loaded-but-healthy cluster converges instead of looping.
  Duration window = config_.recovery_action_timeout;
  for (int i = 0; i < watch.stalls; ++i) {
    window = window * config_.recovery_backoff_factor;
    if (window >= config_.recovery_backoff_cap) {
      window = config_.recovery_backoff_cap;
      break;
    }
  }
  watch.timer = platform_.simulator().schedule_after(
      window, [this, id] { recovery_watch_fired(id); });
}

void CoreModule::disarm_recovery_watch(FunctionId id) {
  auto it = watches_.find(id);
  if (it == watches_.end()) return;
  it->second.timer.cancel();
  watches_.erase(it);
}

void CoreModule::recovery_watch_fired(FunctionId id) {
  auto it = watches_.find(id);
  if (it == watches_.end()) return;
  const auto& inv = platform_.invocation(id);
  if (inv.phase == faas::Phase::kExecuting ||
      inv.phase == faas::Phase::kFinalizing ||
      inv.phase == faas::Phase::kCompleted) {
    watches_.erase(it);  // the recovery made it; nothing to do
    return;
  }
  RecoveryWatch& watch = it->second;
  ++watch.stalls;
  platform_.metrics().count("recovery_stalls");
  const NodeId stalled = watch.target;
  if (inv.phase == faas::Phase::kLaunching ||
      inv.phase == faas::Phase::kInitializing ||
      inv.phase == faas::Phase::kStarting) {
    // The claimed container is stuck launching/restoring — a gray worker
    // signature. Kill the attempt and re-route the next dispatch away
    // from the stalled node. kRecoveryStall skips the invoker detection
    // delay (the controller initiated the kill, it already knows).
    recovery_instant(inv, "recovery_stall_reroute");
    avoid_[id] = stalled;
    platform_.kill_function(id, faas::FailureKind::kRecoveryStall);
    return;  // on_failure re-dispatches and re-arms the watch
  }
  // Queued or promised attempts must not be killed — they would re-enter
  // the capacity queue and double-start. Keep waiting, window widened.
  // Give up re-arming after enough stalls that the cluster is clearly
  // wedged — an unbounded timer chain would keep the simulator spinning.
  if (watch.stalls >= 64) {
    watches_.erase(it);
    return;
  }
  arm_recovery_watch(id, stalled);
}

// ---- ExecutionHooks ---------------------------------------------------------

Duration CoreModule::state_epilogue(const faas::Invocation& inv,
                                    std::size_t state_idx) {
  return checkpointing_.state_epilogue(inv, state_idx);
}

void CoreModule::on_state_committed(const faas::Invocation& inv,
                                    std::size_t state_idx) {
  checkpointing_.on_state_committed(inv, state_idx);
}

// ---- PlatformObserver -------------------------------------------------------

void CoreModule::on_job_submitted(JobId job) {
  const auto& spec = platform_.job_spec(job);
  JobInfoRow row;
  row.job = job;
  row.name = spec.name;
  row.account = spec.account;
  row.function_count = spec.functions.size();
  row.submitted = platform_.simulator().now();
  if (!spec.functions.empty()) {
    row.checkpoint_retention =
        checkpointing_.retention_for(spec.functions.front());
  }
  metadata_.insert_job(row);

  const auto& functions = platform_.job_functions(job);
  for (std::size_t i = 0; i < functions.size(); ++i) {
    FunctionInfoRow fn_row;
    fn_row.function = functions[i];
    fn_row.job = job;
    fn_row.runtime = spec.functions[i].runtime;
    metadata_.insert_function(fn_row);
  }
  if (spec.sla > Duration::zero()) {
    deadlines_[job] = platform_.simulator().now() + spec.sla;
  }
  replication_.on_job_submitted(job);
}

void CoreModule::on_attempt_started(const faas::Invocation& inv) {
  disarm_recovery_watch(inv.id);  // the recovery reached execution
  if (auto* row = metadata_.mutable_function(inv.id)) {
    row->worker = inv.node;
    row->container = inv.container;
    row->attempts = inv.attempt;
  }
  replication_.on_attempt_started(inv);
}

void CoreModule::on_function_completed(const faas::Invocation& inv) {
  disarm_recovery_watch(inv.id);
  avoid_.erase(inv.id);
  if (auto* row = metadata_.mutable_function(inv.id)) {
    row->completed = true;
  }
  // The final critical data is persisted by the application itself; the
  // recovery checkpoints are no longer needed.
  checkpointing_.drop_function(inv.id);
  replication_.on_function_completed(inv);
  CANARY_CHECK(in_flight_ > 0, "in-flight function count underflow");
  --in_flight_;
  drain_queue();
}

void CoreModule::on_function_failed(const faas::Invocation& inv,
                                    const faas::FailureInfo& info) {
  if (info.kind == faas::FailureKind::kNodeFailure) {
    refresh_worker_table();
    return;  // the node is already gone; nothing left to predict
  }
  // Feed the failure predictor; a newly-suspect worker triggers an
  // immediate pre-scale of the failed function's runtime pool.
  if (mitigator_.observe_failure(info.node)) {
    platform_.metrics().count("nodes_marked_suspect");
    if (auto* events = platform_.events()) {
      obs::SpanLabels labels;
      labels.node = info.node;
      events->append_raw(events->new_trace(), obs::kNoEvent,
                         obs::EventKind::kAnnotation, "node_marked_suspect",
                         platform_.simulator().now(), labels);
    }
    replication_.reconcile(inv.spec->runtime);
  }
}

void CoreModule::on_container_ready(const faas::Container& c) {
  if (c.purpose != faas::ContainerPurpose::kRuntimeReplica) return;
  // A replica promised to an SLA-urgent function dispatches the moment it
  // turns warm; everything else becomes an active pool replica.
  auto promised = promised_.find(c.id);
  if (promised != promised_.end()) {
    const FunctionId fn = promised->second;
    promised_.erase(promised);
    const auto& inv = platform_.invocation(fn);
    if (!inv.completed()) {
      const RestorePlan plan = checkpointing_.restore_plan(fn, c.node);
      faas::StartSpec start;
      start.from_state = plan.from_state;
      start.container = c.id;
      start.extra_setup = config_.migration_overhead + plan.restore_time;
      platform_.metrics().count("sla_promised_dispatches");
      platform_.start_attempt(fn, start);
    }
    return;
  }
  runtime_manager_.mark_active(c.id);
}

void CoreModule::on_container_destroyed(const faas::Container& c) {
  if (c.purpose != faas::ContainerPurpose::kRuntimeReplica) return;
  // A promised replica that died before turning warm must not strand its
  // waiting function: recover it cold.
  auto promised = promised_.find(c.id);
  if (promised != promised_.end()) {
    const FunctionId fn = promised->second;
    promised_.erase(promised);
    runtime_manager_.mark_dead(c.id);
    const auto& inv = platform_.invocation(fn);
    if (!inv.completed() && inv.phase == faas::Phase::kFailed) {
      recover_cold(inv);
    }
    replication_.on_replica_destroyed(c.image);
    return;
  }
  auto* row = metadata_.replica_by_container(c.id);
  const bool was_live =
      row != nullptr && (row->status == ReplicaStatus::kLaunching ||
                         row->status == ReplicaStatus::kActive);
  runtime_manager_.mark_dead(c.id);
  if (was_live) replication_.on_replica_destroyed(c.image);
}

void CoreModule::on_job_completed(JobId job) { (void)job; }

// ---- FailureDetectorListener ------------------------------------------------

void CoreModule::on_worker_suspected(NodeId node, double suspicion) {
  (void)suspicion;
  detector_suspects_.insert(node);
}

void CoreModule::on_worker_unsuspected(NodeId node) {
  detector_suspects_.erase(node);
}

void CoreModule::on_worker_confirmed_dead(NodeId node) {
  detector_suspects_.erase(node);  // dead, not merely suspect
  // Epoch fence before the platform acts on the confirmation: if the
  // worker is actually a minority-side zombie (alive but partitioned),
  // any commit it attempts from here on is stale-epoch and rejected. For
  // a genuinely dead worker the fence is a harmless no-op.
  store_.fence_node(node);
  refresh_worker_table();
}

}  // namespace canary::core
