#include "harness/chaos.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/rng.hpp"

namespace canary::harness {

namespace {

faas::RuntimeImage pick_runtime(Rng& rng) {
  static constexpr faas::RuntimeImage kPool[] = {
      faas::RuntimeImage::kPython3,
      faas::RuntimeImage::kNodeJs14,
      faas::RuntimeImage::kDlTrain,
      faas::RuntimeImage::kDbQuery,
  };
  return kPool[rng.uniform_int(0, 3)];
}

}  // namespace

ChaosScenario make_chaos_scenario(std::uint64_t seed) {
  ChaosScenario out;
  ScenarioConfig& cfg = out.config;
  cfg.seed = seed;

  Rng root(seed);
  // Independent child streams per concern: adding a fault class never
  // perturbs how the workload itself is drawn.
  Rng shape = root.child(1);
  Rng jobs_rng = root.child(2);
  Rng faults = root.child(3);

  cfg.cluster_nodes = shape.uniform_int(6, 12);
  cfg.error_rate = shape.uniform(0.05, 0.30);
  cfg.injection_mode = failure::InjectionMode::kHazardRate;

  cfg.strategy = recovery::StrategyConfig::canary_full();
  cfg.strategy.canary.sla_aware = shape.bernoulli(0.5);
  cfg.strategy.canary.recovery_action_timeout =
      Duration::sec(shape.uniform(1.0, 3.0));

  cfg.detection.enabled = true;
  cfg.detection.heartbeat_interval =
      Duration::msec(shape.uniform_int(200, 800));
  cfg.detection.timeout_multiplier = shape.uniform(2.0, 4.0);
  cfg.detection.confirm_multiplier = shape.uniform(1.0, 3.0);
  cfg.detection.sweep_interval = Duration::msec(shape.uniform_int(50, 150));
  cfg.detection.horizon = Duration::sec(1200.0);

  if (shape.bernoulli(0.3)) {
    cfg.kv.mode = kv::CacheMode::kPartitioned;
    cfg.kv.backups = 1;
    cfg.kv.native_persistence = shape.bernoulli(0.5);
  }

  // ---- workload ---------------------------------------------------------
  const std::size_t job_count = jobs_rng.uniform_int(2, 4);
  for (std::size_t j = 0; j < job_count; ++j) {
    faas::JobSpec job;
    job.name = "chaos-job-" + std::to_string(j);
    job.account = AccountId{1};
    const std::size_t fn_count = jobs_rng.uniform_int(4, 10);
    Duration longest = Duration::zero();
    for (std::size_t f = 0; f < fn_count; ++f) {
      faas::FunctionSpec fn;
      fn.name = "chaos-fn-" + std::to_string(j) + "-" + std::to_string(f);
      fn.runtime = pick_runtime(jobs_rng);
      const std::size_t state_count = jobs_rng.uniform_int(2, 4);
      Duration work = Duration::zero();
      for (std::size_t s = 0; s < state_count; ++s) {
        faas::StateSpec state;
        state.duration = Duration::msec(jobs_rng.uniform_int(300, 1500));
        state.checkpoint_payload =
            Bytes::of(jobs_rng.uniform_int(512, 2048) * 1024);
        work += state.duration;
        fn.states.push_back(state);
      }
      fn.finalize = Duration::msec(jobs_rng.uniform_int(100, 300));
      work += fn.finalize;
      if (work > longest) longest = work;
      // Occasional chains exercise the trigger graph under faults.
      if (f > 0 && jobs_rng.bernoulli(0.3)) {
        fn.depends_on.push_back(f - 1);
      }
      job.functions.push_back(std::move(fn));
    }
    if (jobs_rng.bernoulli(0.5)) {
      job.sla = longest * 3.0 + Duration::sec(20.0);
    }
    out.jobs.push_back(std::move(job));
  }

  // ---- fault schedule ---------------------------------------------------
  const std::size_t node_failures = faults.uniform_int(0, 2);
  for (std::size_t i = 0; i < node_failures; ++i) {
    cfg.node_failure_offsets.push_back(
        Duration::sec(faults.uniform(2.0, 20.0)));
  }

  const std::size_t gray_count = faults.uniform_int(0, 2);
  for (std::size_t i = 0; i < gray_count; ++i) {
    ScenarioConfig::GrayFailure gray;
    gray.at = Duration::sec(faults.uniform(1.0, 15.0));
    gray.duration = Duration::sec(faults.uniform(2.0, 6.0));
    gray.slowdown = faults.uniform(3.0, 8.0);
    cfg.gray_failures.push_back(gray);
  }

  const std::size_t hb_count = faults.uniform_int(0, 2);
  for (std::size_t i = 0; i < hb_count; ++i) {
    ScenarioConfig::HeartbeatFaultCfg fault;
    fault.at = Duration::sec(faults.uniform(1.0, 15.0));
    fault.duration = Duration::sec(faults.uniform(1.0, 4.0));
    // Delays up to ~80% of the confirm threshold: long enough to trigger
    // suspicions (false ones included), short enough that live workers
    // are eventually un-suspected rather than fenced en masse.
    const double max_mult = 0.8 * (cfg.detection.timeout_multiplier +
                                   cfg.detection.confirm_multiplier);
    fault.delay = cfg.detection.heartbeat_interval *
                  faults.uniform(0.0, max_mult);
    fault.drop_rate = faults.uniform(0.0, 0.6);
    // Scope each window to one worker. A cluster-wide drop window longer
    // than the confirm threshold would fence every node at once — the
    // detector behaving exactly as specified, but leaving zero capacity
    // to recover onto, which no strategy can survive.
    fault.node = NodeId{faults.uniform_int(1, cfg.cluster_nodes)};
    cfg.heartbeat_faults.push_back(fault);
    if (fault.delay > out.max_heartbeat_delay) {
      out.max_heartbeat_delay = fault.delay;
    }
  }

  const std::size_t store_count = faults.uniform_int(0, 2);
  for (std::size_t i = 0; i < store_count; ++i) {
    ScenarioConfig::StoreFault fault;
    fault.at = Duration::sec(faults.uniform(3.0, 18.0));
    fault.lose = static_cast<unsigned>(faults.uniform_int(0, 2));
    fault.corrupt = static_cast<unsigned>(faults.uniform_int(0, 2));
    if (fault.lose == 0 && fault.corrupt == 0) fault.corrupt = 1;
    cfg.store_faults.push_back(fault);
  }

  return out;
}

ChaosScenario make_traffic_chaos_scenario(std::uint64_t seed) {
  ChaosScenario out = make_chaos_scenario(seed);
  // child(4): the base scenario consumes child(1..3), so layering traffic
  // on top never perturbs the shape/job/fault draws — the same seed with
  // traffic disabled reproduces the plain chaos scenario exactly.
  Rng traffic = Rng(seed).child(4);

  traffic::TrafficConfig& cfg = out.config.traffic;
  cfg.enabled = true;
  cfg.horizon = Duration::sec(traffic.uniform(12.0, 18.0));

  traffic::StreamConfig stream;
  stream.name = "chaos-burst";
  stream.fn.runtime = pick_runtime(traffic);
  const std::size_t state_count = traffic.uniform_int(1, 2);
  for (std::size_t s = 0; s < state_count; ++s) {
    faas::StateSpec state;
    state.duration = Duration::msec(traffic.uniform_int(100, 400));
    state.checkpoint_payload = Bytes::of(traffic.uniform_int(64, 512) * 1024);
    stream.fn.states.push_back(state);
  }
  stream.fn.finalize = Duration::msec(traffic.uniform_int(30, 100));
  stream.arrival.kind = traffic::ArrivalSpec::Kind::kOnOff;
  stream.arrival.rate_hz = traffic.uniform(8.0, 18.0);
  stream.arrival.off_rate_hz = traffic.uniform(0.0, 2.0);
  stream.arrival.on_mean = Duration::sec(traffic.uniform(1.0, 3.0));
  stream.arrival.off_mean = Duration::sec(traffic.uniform(1.0, 3.0));
  if (traffic.bernoulli(0.5)) {
    stream.sla = Duration::sec(traffic.uniform(4.0, 10.0));
  }
  stream.admission.max_concurrent = traffic.uniform_int(4, 8);
  stream.admission.queue_capacity = traffic.uniform_int(8, 24);
  cfg.streams.push_back(std::move(stream));

  cfg.autoscaler.enabled = true;
  cfg.autoscaler.max_warm = traffic.uniform_int(4, 8);
  cfg.autoscaler.max_step = 2;

  // One node failure guaranteed to land inside the burst window, so every
  // seed exercises shed/queue accounting concurrent with recovery.
  out.config.node_failure_offsets.push_back(
      Duration::sec(traffic.uniform(4.0, 10.0)));
  return out;
}

ChaosScenario make_hedge_chaos_scenario(std::uint64_t seed) {
  ChaosScenario out = make_chaos_scenario(seed);
  // child(5): the base scenario consumes child(1..3) and the traffic
  // overlay child(4), so the hedge overlay draws from its own stream —
  // disabling it reproduces the plain chaos scenario exactly.
  Rng hedge = Rng(seed).child(5);

  recovery::HedgeConfig cfg;
  cfg.percentile = hedge.uniform(80.0, 97.0);
  cfg.min_samples = hedge.uniform_int(4, 12);
  cfg.initial_delay = Duration::msec(hedge.uniform_int(300, 1500));
  cfg.max_outstanding = hedge.uniform_int(4, 16);
  // Half the seeds retry with a backoff, opening the window in which a
  // hedge can fire while its primary is down.
  if (hedge.bernoulli(0.5)) {
    cfg.retry_backoff = Duration::msec(hedge.uniform_int(50, 400));
  }
  out.config.strategy = recovery::StrategyConfig::hedged(cfg);

  // A gray window manufactures the stragglers that make hedges fire, and
  // an extra node failure is guaranteed to land inside the racing phase —
  // the clone (or its primary) dies mid-race on every seed.
  ScenarioConfig::GrayFailure gray;
  gray.at = Duration::sec(hedge.uniform(0.5, 3.0));
  gray.duration = Duration::sec(hedge.uniform(3.0, 8.0));
  gray.slowdown = hedge.uniform(3.0, 8.0);
  out.config.gray_failures.push_back(gray);
  out.config.node_failure_offsets.push_back(
      Duration::sec(hedge.uniform(2.0, 8.0)));
  return out;
}

ChaosScenario make_partition_chaos_scenario(std::uint64_t seed) {
  ChaosScenario out = make_chaos_scenario(seed);
  // child(6): the base consumes child(1..3), traffic child(4), hedge
  // child(5); the partition overlay draws from its own stream, so the
  // same seed without the overlay reproduces the plain chaos scenario.
  Rng part = Rng(seed).child(6);
  ScenarioConfig& cfg = out.config;

  // Re-size the cluster so cutting the last (smallest) fault domain
  // always leaves a strict majority in the worst case. Ten nodes put two
  // in the last zone (testbed racks hold four); even with every other
  // possible death landing outside it — two base kills, two node-scoped
  // heartbeat-fault fences, the asymmetric window's victim — five alive
  // nodes remain, of which three reach each other: still more than the
  // two cut off. Eleven or twelve nodes would widen the cut zone enough
  // for that same worst case to deadlock both sides below quorum.
  cfg.cluster_nodes = 10;
  const std::uint32_t cut_zone =
      static_cast<std::uint32_t>((cfg.cluster_nodes - 1) / 4);

  // Tighten detection so every zone cut outlasts the confirm threshold:
  // bound <= 400ms * (1 + 3 + 2) + 2*150ms = 2.7s, below the shortest
  // window. The majority side fences-and-redeploys while the minority
  // keeps executing — the zombie-commit probe fires on every such seed.
  cfg.detection.heartbeat_interval =
      Duration::msec(part.uniform_int(200, 400));
  cfg.detection.timeout_multiplier = part.uniform(2.0, 3.0);
  cfg.detection.confirm_multiplier = part.uniform(1.0, 2.0);

  // Half the seeds exercise fault-domain-aware placement, half the
  // domain-blind baseline — the oracles must hold for both.
  cfg.fault_domain_spread = part.bernoulli(0.5);

  const std::size_t cut_count = part.uniform_int(1, 2);
  for (std::size_t i = 0; i < cut_count; ++i) {
    ScenarioConfig::PartitionFault window;
    window.at = Duration::sec(part.uniform(1.0, 6.0));
    window.duration = Duration::sec(part.uniform(4.0, 10.0));
    window.zone = cut_zone;
    cfg.partitions.push_back(window);
  }

  // An optional short asymmetric window: one victim loses its outbound
  // path only (one-way heartbeat loss). Shorter than the confirm
  // threshold on most draws, so the suspicion it raises must cancel
  // cleanly when the window heals instead of fencing a live node.
  if (part.bernoulli(0.7)) {
    ScenarioConfig::PartitionFault window;
    window.at = Duration::sec(part.uniform(1.0, 8.0));
    window.duration = Duration::sec(part.uniform(0.4, 1.6));
    const NodeId victim{part.uniform_int(1, cfg.cluster_nodes)};
    window.from.push_back(victim);
    for (std::size_t n = 1; n <= cfg.cluster_nodes; ++n) {
      if (NodeId{n} != victim) window.to.push_back(NodeId{n});
    }
    window.symmetric = false;
    cfg.partitions.push_back(window);
  }

  // An optional correlated outage of the cut zone, racing the windows.
  // Landing inside a cut it kills already-fenced members (the injector's
  // overlap accounting must count them as skipped, not double deaths);
  // landing outside it turns the later cut into a window over dead nodes.
  // Targeting only the cut zone keeps the loss bounded at one domain, so
  // completion stays achievable on every seed.
  if (part.bernoulli(0.5)) {
    ScenarioConfig::ZoneOutage outage;
    outage.at = Duration::sec(part.uniform(2.0, 12.0));
    outage.zone = cut_zone;
    cfg.zone_outages.push_back(outage);
  }

  return out;
}

std::vector<std::string> chaos_oracles(const ChaosScenario& scenario,
                                       const RunResult& result) {
  std::vector<std::string> violations;
  auto violate = [&violations](const std::string& what) {
    violations.push_back(what);
  };
  auto count = [&result](const char* name) {
    return static_cast<std::uint64_t>(result.metrics.counter(name));
  };

  // 1. Completion: recovery terminated and every job finished.
  if (!result.completed) {
    violate("completion: run ended with incomplete jobs");
  }

  // 6. No stranded failures awaiting detection.
  if (result.undetected_failures != 0) {
    std::ostringstream os;
    os << "stranded: " << result.undetected_failures
       << " node failure(s) never confirmed by the detector";
    violate(os.str());
  }

  // 3. A corrupt checkpoint must never be selected for restore.
  if (count("restored_corrupt_checkpoints") > 0) {
    violate("corrupt-restore: a damaged checkpoint was selected");
  }

  // 5. Usage ledger balances.
  if (result.usage_unbalanced != 0) {
    std::ostringstream os;
    os << "ledger: " << result.usage_unbalanced
       << " unbalanced usage record(s)";
    violate(os.str());
  }

  // 7. Traffic conservation: exactly-once accounting for every arrival.
  if (result.traffic.enabled) {
    const auto& t = result.traffic;
    if (!t.conserved()) {
      std::ostringstream os;
      os << "conservation: offered=" << t.offered << " admitted=" << t.admitted
         << " shed=" << t.shed << " completed=" << t.completed
         << " failed=" << t.failed << " in_flight=" << t.in_flight
         << " queued_end=" << t.queued_end;
      violate(os.str());
    }
    if (result.completed && (t.in_flight != 0 || t.queued_end != 0)) {
      std::ostringstream os;
      os << "conservation: completed run left " << t.in_flight
         << " arrival(s) in flight and " << t.queued_end << " queued";
      violate(os.str());
    }
  }

  // 8. Hedge exactly-once: every fired hedge resolves exactly once. The
  // open-race count is the handler's own, so the identity is checked
  // against an independent reading, not derived from it.
  const bool hedged_run =
      scenario.config.strategy.kind == recovery::StrategyKind::kHedge;
  const std::uint64_t hedges_fired = count("hedges_fired");
  const std::uint64_t hedge_wins = count("hedge_wins");
  const std::uint64_t hedges_cancelled = count("hedges_cancelled");
  if (hedged_run) {
    const std::uint64_t open = result.hedge_open_races;
    if (hedges_fired != hedge_wins + hedges_cancelled + open) {
      std::ostringstream os;
      os << "hedge-exactly-once: fired=" << hedges_fired
         << " != wins=" << hedge_wins << " + cancelled=" << hedges_cancelled
         << " + open=" << open;
      violate(os.str());
    }
    if (result.completed && open != 0) {
      std::ostringstream os;
      os << "hedge-exactly-once: completed run left " << open
         << " race(s) open";
      violate(os.str());
    }
  }

  // 9. No split brain: a logically fenced minority-side zombie finishes
  // executing, but every commit it attempts must be rejected at the
  // store's epoch gate. Together with oracle 2 (one kComplete per
  // function) this bounds committed side effects at one per invocation.
  const double zombie_attempts =
      result.metrics.counter("zombie_commit_attempts");
  const double zombie_committed =
      result.metrics.counter("zombie_commits_committed");
  const double zombie_rejected =
      result.metrics.counter("zombie_commits_rejected");
  if (zombie_committed > 0.0) {
    std::ostringstream os;
    os << "no-split-brain: " << zombie_committed
       << " fenced-writer commit(s) reached the store";
    violate(os.str());
  }
  if (zombie_attempts != zombie_committed + zombie_rejected) {
    std::ostringstream os;
    os << "no-split-brain: " << zombie_attempts << " zombie attempt(s) != "
       << zombie_rejected << " rejected + " << zombie_committed
       << " committed";
    violate(os.str());
  }

  // 10. Heal convergence: after the last heal the cluster's views agree.
  const std::uint64_t partitions = count("injected_partitions");
  const std::uint64_t heals = count("injected_partition_heals");
  if (partitions > 0 || count("injected_zone_outages") > 0) {
    if (heals != partitions) {
      std::ostringstream os;
      os << "heal-convergence: " << partitions << " partition(s) started but "
         << heals << " healed";
      violate(os.str());
    }
    if (result.partitions_active_end != 0) {
      std::ostringstream os;
      os << "heal-convergence: " << result.partitions_active_end
         << " reachability rule(s) still active at end of run";
      violate(os.str());
    }
    if (!result.metadata_views_consistent) {
      violate(
          "heal-convergence: controller worker_info liveness disagrees "
          "with cluster ground truth after the last heal");
    }
  }

  // 2 + 4 (and 8's event identities) need the causal event log; a
  // truncated log cannot prove any of them.
  if (result.events == nullptr || result.events->truncated()) {
    return violations;
  }
  const auto& events = result.events->events();

  if (hedged_run) {
    const std::size_t hedged =
        result.events->count_of(obs::EventKind::kHedged);
    const std::size_t cancelled =
        result.events->count_of(obs::EventKind::kHedgeCancelled);
    if (hedged != hedges_fired) {
      std::ostringstream os;
      os << "hedge-exactly-once: " << hedged << " kHedged event(s) vs "
         << hedges_fired << " fired";
      violate(os.str());
    }
    // Every resolved race emits exactly one kHedgeCancelled — on the
    // primary when the clone won, on the clone otherwise.
    if (cancelled != hedge_wins + hedges_cancelled) {
      std::ostringstream os;
      os << "hedge-exactly-once: " << cancelled
         << " kHedgeCancelled event(s) vs " << hedge_wins + hedges_cancelled
         << " resolved race(s)";
      violate(os.str());
    }
  }

  // 2. Exactly-once: every submitted function completes exactly once.
  std::unordered_map<FunctionId, int> submits;
  std::unordered_map<FunctionId, int> completes;
  for (const obs::Event& event : events) {
    if (event.kind == obs::EventKind::kSubmit && event.labels.function.valid()) {
      ++submits[event.labels.function];
    }
    if (event.kind == obs::EventKind::kComplete &&
        event.labels.function.valid()) {
      ++completes[event.labels.function];
    }
  }
  for (const auto& [fn, count] : completes) {
    if (count != 1) {
      std::ostringstream os;
      os << "exactly-once: function " << to_string(fn) << " completed "
         << count << " times";
      violate(os.str());
    }
  }
  if (result.completed) {
    for (const auto& [fn, count] : submits) {
      (void)count;
      if (completes.find(fn) == completes.end()) {
        std::ostringstream os;
        os << "exactly-once: function " << to_string(fn)
           << " submitted but never completed";
        violate(os.str());
      }
    }
  }

  // 4. Detection latency bounded. Node failures in heartbeat mode must be
  // confirmed within interval*(timeout+confirm) of the death plus sweep
  // granularity and any injected delivery delay (a delayed beat can
  // un-suspect once before re-confirmation); every other failure kind
  // uses the constant invoker/oracle delay. kRecoveryStall is
  // controller-initiated and detected instantly.
  const auto& det = scenario.config.detection;
  const Duration epsilon = Duration::msec(100);
  const Duration heartbeat_bound =
      det.heartbeat_interval *
          (1.0 + det.timeout_multiplier + det.confirm_multiplier) +
      det.sweep_interval * 2.0 + scenario.max_heartbeat_delay + epsilon;
  const Duration oracle_bound =
      scenario.config.platform.failure_detect_delay + epsilon;
  // Per-trace time of the most recent unresolved failure.
  std::unordered_map<std::uint64_t, std::pair<TimePoint, bool>> open_failures;
  for (const obs::Event& event : events) {
    if (event.kind == obs::EventKind::kFailure) {
      open_failures[event.trace.value()] = {
          event.at, event.name == "node_failure"};
    } else if (event.kind == obs::EventKind::kDetect) {
      auto it = open_failures.find(event.trace.value());
      if (it == open_failures.end()) continue;
      const Duration latency = event.at - it->second.first;
      const bool node_level = it->second.second;
      open_failures.erase(it);
      const Duration bound =
          node_level && det.enabled ? heartbeat_bound : oracle_bound;
      if (latency > bound) {
        std::ostringstream os;
        os << "detection-bound: " << latency.to_seconds() << "s > "
           << bound.to_seconds() << "s ("
           << (node_level ? "node failure" : "local failure") << ")";
        violate(os.str());
      }
    }
  }

  return violations;
}

namespace {

double max_detection_latency_s(const obs::EventLog* events) {
  if (events == nullptr) return 0.0;
  double max_latency = 0.0;
  std::unordered_map<std::uint64_t, TimePoint> open;
  for (const obs::Event& event : events->events()) {
    if (event.kind == obs::EventKind::kFailure) {
      open[event.trace.value()] = event.at;
    } else if (event.kind == obs::EventKind::kDetect) {
      auto it = open.find(event.trace.value());
      if (it == open.end()) continue;
      const double latency = (event.at - it->second).to_seconds();
      open.erase(it);
      if (latency > max_latency) max_latency = latency;
    }
  }
  return max_latency;
}

ChaosOutcome evaluate_scenario(const ChaosScenario& scenario,
                               std::uint64_t seed) {
  const RunResult result = ScenarioRunner::run(scenario.config, scenario.jobs);

  ChaosOutcome out;
  out.seed = seed;
  out.completed = result.completed;
  out.makespan_s = result.makespan_s;
  out.failures = result.failures;
  out.counters = result.metrics.counters();
  out.stale_epoch_rejects = result.kv_stale_epoch_rejects;
  out.quorum_blocked_puts = result.kv_quorum_blocked_puts;

  const auto& det = scenario.config.detection;
  out.detection_bound_s =
      (det.heartbeat_interval *
           (1.0 + det.timeout_multiplier + det.confirm_multiplier) +
       det.sweep_interval * 2.0 + scenario.max_heartbeat_delay)
          .to_seconds();
  out.max_detection_latency_s = max_detection_latency_s(result.events.get());

  out.violations = chaos_oracles(scenario, result);
  return out;
}

}  // namespace

ChaosOutcome run_chaos_scenario(std::uint64_t seed) {
  return evaluate_scenario(make_chaos_scenario(seed), seed);
}

ChaosOutcome run_traffic_chaos_scenario(std::uint64_t seed) {
  return evaluate_scenario(make_traffic_chaos_scenario(seed), seed);
}

ChaosOutcome run_hedge_chaos_scenario(std::uint64_t seed) {
  return evaluate_scenario(make_hedge_chaos_scenario(seed), seed);
}

ChaosOutcome run_partition_chaos_scenario(std::uint64_t seed) {
  return evaluate_scenario(make_partition_chaos_scenario(seed), seed);
}

}  // namespace canary::harness
