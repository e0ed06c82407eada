#include "harness/scenario.hpp"

#include <cmath>
#include <optional>

#include "harness/scenario_internal.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_log.hpp"
#include "sim/simulator.hpp"

namespace canary::harness {
namespace internal {
namespace {

faas::PlatformConfig effective_platform_config(const ScenarioConfig& config) {
  faas::PlatformConfig platform_config = config.platform;
  if (config.detection.enabled) {
    // Heartbeat detection replaces the constant-delay oracle for
    // node-level failures; detection latency becomes emergent.
    platform_config.detection_mode = faas::DetectionMode::kHeartbeat;
  }
  if (config.traffic.enabled) {
    // Open-loop traffic needs pool adoption: without container reuse the
    // autoscaler's prewarmed containers could never serve an invocation.
    platform_config.reuse_containers = true;
  }
  if (config.fault_domain_spread) {
    platform_config.spread_fault_domains = true;  // hedge-clone placement
  }
  return platform_config;
}

kv::KvConfig effective_kv_config(const ScenarioConfig& config) {
  kv::KvConfig kv_config = config.kv;
  if (config.fault_domain_spread) kv_config.spread_fault_domains = true;
  return kv_config;
}

// Non-owning alias of a caller-owned batch spec. The scenario job list
// outlives the platform run, so submission can share each spec in place —
// no deep copy, and (via the aliasing constructor's empty owner) no
// control-block allocation either.
std::shared_ptr<const faas::JobSpec> borrow(const faas::JobSpec& job) {
  return std::shared_ptr<const faas::JobSpec>(std::shared_ptr<const void>(),
                                              &job);
}

}  // namespace

ScenarioInstance::ScenarioInstance(sim::Simulator& sim,
                                   const ScenarioConfig& cfg,
                                   const std::vector<faas::JobSpec>& jobs,
                                   bool install_log_hooks)
    : config(cfg),
      simulator(sim),
      cluster(cluster::Cluster::testbed(config.cluster_nodes)),
      network(&cluster, {}),
      storage(config.storage.value_or(cluster::StorageHierarchy::testbed())),
      store(effective_kv_config(config), cluster.node_ids()),
      metrics(),
      platform(simulator, cluster, network, effective_platform_config(config),
               metrics) {
  using recovery::StrategyKind;

  if (config.record_spans) {
    spans = std::make_shared<obs::SpanRecorder>();
    platform.set_span_recorder(spans.get());
  }

  if (config.record_events) {
    events = std::make_shared<obs::EventLog>();
    if (!config.flight_recorder_path.empty()) {
      events->set_flight_recorder(config.flight_recorder_path);
    }
    platform.set_event_log(events.get());
  }
  platform.set_slo_monitor(&slo);

  // Writer-attributed KV commits route through the reachability model: a
  // writer cut off from the quorum cannot commit. With no partition rules
  // installed reaches_majority short-circuits to true, so this gate is
  // free (and byte-identical) for every pre-partition scenario. The zone
  // map only matters when fault_domain_spread turns on zone-aware owners.
  store.set_writer_quorum(
      [&net = network](NodeId writer) { return net.reaches_majority(writer); });
  store.set_zone_map([&c = cluster](NodeId node) { return c.zone_of(node); });

  // Opt-in tail attribution + windowed rollups. Neither touches any code
  // path when disabled, so attribution-off runs stay byte-identical.
  if (config.timeseries.enabled) {
    series.configure(config.timeseries);
    platform.set_time_series(&series);
  }
  if (config.tail.enabled) {
    platform.enable_tail_attribution(config.tail.exemplar_config());
  }

  // While this run is live, this thread's log records carry the simulated
  // time and kWarn+ records mirror into the causal log as annotations.
  // Each repetition runs on its own thread, so parallel runs don't mix.
  if (install_log_hooks) {
    log_clock.emplace(
        [this] { return simulator.now().count_usec(); });
    log_mirror.emplace([this](LogLevel, const std::string& msg) {
      if (events == nullptr) return;
      events->append_raw(events->new_trace(), obs::kNoEvent,
                         obs::EventKind::kAnnotation, msg, simulator.now());
    });
  }

  const bool ideal = config.strategy.kind == StrategyKind::kIdeal;
  failure::InjectorConfig injector_config;
  injector_config.error_rate = ideal ? 0.0 : config.error_rate;
  injector_config.mode = config.injection_mode;
  injector.emplace(Rng(config.seed), injector_config);
  platform.set_failure_policy(&*injector);

  if (config.detection.enabled) {
    detector.emplace(simulator, platform, config.detection);
    detector->set_fault_provider(&*injector);
  }

  switch (config.strategy.kind) {
    case StrategyKind::kIdeal:
    case StrategyKind::kRetry: {
      retry.emplace(platform);
      platform.set_recovery_handler(&*retry);
      for (const auto& job : jobs) {
        auto submitted = platform.submit_job(borrow(job));
        CANARY_CHECK(submitted.ok(), "job submission failed");
      }
      break;
    }
    case StrategyKind::kCanary: {
      core::CanaryConfig canary_config = config.strategy.canary;
      if (config.fault_domain_spread) {
        canary_config.spread_fault_domains = true;
        canary_config.replication.spread_fault_domains = true;
      }
      canary_fw.emplace(platform, store, storage, canary_config);
      canary_fw->install();
      if (detector) {
        detector->set_listener(&*canary_fw);
        detector->set_metadata(&canary_fw->metadata());
      }
      for (const auto& job : jobs) {
        auto submitted = canary_fw->submit_job(job);
        CANARY_CHECK(submitted.ok(), "job rejected by the request validator");
      }
      break;
    }
    case StrategyKind::kRequestReplication: {
      rr.emplace(platform, config.strategy.rr_replicas);
      platform.set_recovery_handler(&*rr);
      platform.add_observer(&*rr);
      for (const auto& job : jobs) {
        auto submitted = platform.submit_job(rr->expand_job(job));
        CANARY_CHECK(submitted.ok(), "job submission failed");
        rr->track_job(submitted.value());
      }
      break;
    }
    case StrategyKind::kActiveStandby: {
      as.emplace(platform);
      platform.set_recovery_handler(&*as);
      platform.add_observer(&*as);
      for (const auto& job : jobs) {
        auto submitted = platform.submit_job(borrow(job));
        CANARY_CHECK(submitted.ok(), "job submission failed");
      }
      break;
    }
    case StrategyKind::kHedge: {
      hedge.emplace(platform, config.strategy.hedge);
      platform.set_recovery_handler(&*hedge);
      platform.add_observer(&*hedge);
      for (const auto& job : jobs) {
        auto submitted = platform.submit_job(borrow(job));
        CANARY_CHECK(submitted.ok(), "job submission failed");
      }
      break;
    }
  }

  // Open-loop traffic rides on top of (or instead of) the batch jobs.
  // Submissions route through the Canary control plane when it is
  // installed so the Request Validator sees the offered load too.
  if (config.traffic.enabled && !config.traffic.streams.empty()) {
    traffic::TrafficGenerator::SubmitFn submit_route;
    if (canary_fw.has_value()) {
      submit_route = [fw = &*canary_fw](faas::JobSpec spec) {
        return fw->submit_job(std::move(spec));
      };
    } else if (rr.has_value()) {
      // Request replication expands traffic arrivals too — the expansion
      // keeps the logical function first (name intact), so the traffic
      // generator's name-based arrival binding still matches.
      submit_route = [p = &platform, r = &*rr](faas::JobSpec spec) {
        auto submitted = p->submit_job(r->expand_job(spec));
        if (submitted.ok()) r->track_job(submitted.value());
        return submitted;
      };
    } else {
      submit_route = [p = &platform](faas::JobSpec spec) {
        return p->submit_job(std::move(spec));
      };
    }
    // An independent child stream keeps the arrival draws from perturbing
    // the failure injector, which consumes Rng(seed) directly.
    traffic_gen.emplace(simulator, platform, config.traffic,
                        std::move(submit_route), Rng(config.seed).child(4));
    platform.add_observer(&*traffic_gen);
    if (config.traffic.autoscaler.enabled) {
      autoscaler.emplace(simulator, platform, *traffic_gen);
      platform.add_observer(&*autoscaler);
      autoscaler->start();
    }
    if (hedge.has_value()) {
      // Route the hedge budget through admission control: each stream's
      // per-class budget gates its requests' clones, so speculation can
      // never push a saturated class past its concurrency limit.
      hedge->set_budget_hooks(
          [tg = &*traffic_gen](JobId job) { return tg->try_hedge(job); },
          [tg = &*traffic_gen](JobId job) { tg->hedge_resolved(job); });
    }
    traffic_gen->start();
  }

  // The ideal scenario is failure-free by definition (§V-B) — node-level
  // failures apply only to the fault-exposed strategies.
  if (!ideal) {
    for (const Duration offset : config.node_failure_offsets) {
      injector->schedule_node_failure(simulator, platform, &store,
                                      TimePoint::origin() + offset);
    }
    for (const auto& correlated : config.correlated_node_failures) {
      injector->schedule_correlated_node_failure(
          simulator, platform, &store, TimePoint::origin() + correlated.at,
          correlated.precursor_kills, correlated.precursor_window);
    }
    for (const auto& gray : config.gray_failures) {
      injector->schedule_gray_window(simulator, platform,
                                     TimePoint::origin() + gray.at,
                                     gray.duration, gray.slowdown, gray.node);
    }
    for (const auto& fault : config.heartbeat_faults) {
      injector->add_heartbeat_fault({TimePoint::origin() + fault.at,
                                     fault.duration, fault.delay,
                                     fault.drop_rate, fault.node});
    }
    for (const auto& fault : config.store_faults) {
      injector->schedule_store_fault(simulator, platform, store,
                                     TimePoint::origin() + fault.at,
                                     fault.lose, fault.corrupt);
    }
    for (const auto& part : config.partitions) {
      if (part.zone.has_value()) {
        injector->schedule_zone_partition(simulator, platform,
                                          TimePoint::origin() + part.at,
                                          part.duration, *part.zone);
      } else {
        injector->schedule_partition(simulator, platform,
                                     TimePoint::origin() + part.at,
                                     part.duration, part.from, part.to,
                                     part.symmetric);
      }
    }
    for (const auto& outage : config.zone_outages) {
      injector->schedule_zone_outage(simulator, platform, &store,
                                     TimePoint::origin() + outage.at,
                                     outage.zone);
    }
  }

  if (detector) detector->start();
}

RunResult ScenarioInstance::collect() {
  platform.finalize_usage();
  if (spans != nullptr) spans->close_all_open(simulator.now());

  RunResult result;
  result.completed = platform.all_jobs_completed();
  if (!result.completed) {
    CANARY_LOG_ERROR("scenario ended with incomplete jobs (strategy="
                     << config.strategy.label() << ")");
  }
  result.simulated_events = simulator.executed_events();

  TimePoint last_completion = TimePoint::origin();
  double recoveries = 0.0;
  for (const FunctionId id : platform.all_function_ids()) {
    const auto& inv = platform.invocation(id);
    if (inv.completion_time != TimePoint::max() &&
        inv.completion_time > last_completion) {
      last_completion = inv.completion_time;
    }
    result.total_recovery_s += inv.recovery_time.to_seconds();
    result.lost_work_s += inv.lost_work.to_seconds();
    result.failures += inv.failures;
  }
  recoveries = metrics.counter("recoveries");
  for (const JobId job : platform.all_job_ids()) {
    const auto& spec = platform.job_spec(job);
    if (spec.sla <= Duration::zero()) continue;
    result.sla_jobs += 1.0;
    if (!platform.job_completed(job) ||
        platform.job_completion_time(job) >
            platform.job_submit_time(job) + spec.sla) {
      result.sla_violations += 1.0;
    }
  }
  result.makespan_s = (last_completion - TimePoint::origin()).to_seconds();
  result.mean_recovery_s =
      recoveries > 0.0 ? result.total_recovery_s / recoveries : 0.0;

  const cost::CostModel cost_model(config.pricing);
  result.cost = cost_model.breakdown(platform.usage());
  result.cost_usd = result.cost.total_usd;

  // Usage-ledger balance: every interval non-negative and the per-purpose
  // split summing to the total (the chaos campaign's billing oracle).
  const auto& ledger = platform.usage();
  for (const auto& record : ledger.records()) {
    if (record.end < record.start) ++result.usage_unbalanced;
  }
  {
    const double total = ledger.total_gb_seconds();
    double split = 0.0;
    for (int p = 0; p < 4; ++p) {
      split +=
          ledger.gb_seconds_for(static_cast<faas::ContainerPurpose>(p));
    }
    const double tolerance = 1e-6 * (total > 1.0 ? total : 1.0);
    if (std::fabs(split - total) > tolerance) ++result.usage_unbalanced;
  }

  result.undetected_failures = platform.undetected_failures();
  result.partitions_active_end = network.active_rules();
  {
    const kv::KvStats kv_stats = store.stats();
    result.kv_stale_epoch_rejects = kv_stats.stale_epoch_rejects;
    result.kv_quorum_blocked_puts = kv_stats.quorum_blocked_puts;
  }
  if (canary_fw.has_value()) {
    // Heal-convergence view check. A row may legitimately lag a death the
    // detector never got to confirm (the run can end first), so the
    // asserted direction is the split-brain-relevant one: no row declares
    // dead a worker that is actually alive, and every detector-confirmed
    // worker's row reads dead.
    for (const NodeId id : cluster.node_ids()) {
      const auto* row = canary_fw->metadata().worker(id);
      if (row == nullptr) {
        result.metadata_views_consistent = false;
        break;
      }
      if (!row->alive && cluster.node(id).alive()) {
        result.metadata_views_consistent = false;
        break;
      }
      if (detector && detector->is_confirmed_dead(id) && row->alive) {
        result.metadata_views_consistent = false;
        break;
      }
    }
  }

  if (events != nullptr) {
    obs::CriticalPathAnalyzer analyzer(*events);
    result.breakdown = analyzer.report(slo.targets());
    if (config.tail.enabled) {
      obs::TailAnalyzer tail_analyzer(metrics, *events, analyzer);
      result.tail = tail_analyzer.analyze(config.tail);
    }
  }
  if (traffic_gen.has_value()) {
    RunResult::TrafficSummary& t = result.traffic;
    t.enabled = true;
    const traffic::StreamStats totals = traffic_gen->totals();
    t.offered = totals.offered;
    t.admitted = totals.admitted;
    t.shed = totals.shed;
    t.completed = totals.completed;
    t.failed = totals.failed;
    t.in_flight = traffic_gen->admission().total_in_flight();
    t.queued_end = traffic_gen->admission().total_queued();
    // Gauges only exist for traffic runs, so traffic-off reports stay
    // byte-identical.
    metrics.set_gauge("traffic_queue_peak",
                      static_cast<double>(totals.queue_peak));
    metrics.set_gauge("traffic_in_flight_end",
                      static_cast<double>(t.in_flight));
    metrics.set_gauge("traffic_queued_end", static_cast<double>(t.queued_end));
  }
  if (hedge.has_value()) result.hedge_open_races = hedge->open_races();
  if (series.enabled()) result.timeseries = std::move(series);
  result.metrics = std::move(metrics);
  result.spans = std::move(spans);
  result.events = std::move(events);
  return result;
}

}  // namespace internal

RunResult ScenarioRunner::run(const ScenarioConfig& config,
                              const std::vector<faas::JobSpec>& jobs) {
  sim::Simulator simulator;
  internal::ScenarioInstance instance(simulator, config, jobs,
                                      /*install_log_hooks=*/true);
  simulator.run();
  return instance.collect();
}

}  // namespace canary::harness
