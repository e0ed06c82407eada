// Causal-trace tests: the per-invocation event DAG (obs::EventLog wired
// through faas::Platform), the recovery critical-path decomposition, the
// SLO watchdog, and the chrome-trace flow export. The chains under test
// are the ones the paper's recovery analysis depends on: cold start,
// warm-pool reuse, retry re-attempts, request replication (shared trace)
// and node-failure recovery.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/network.hpp"
#include "common/logging.hpp"
#include "faas/platform.hpp"
#include "faas/retry.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_log.hpp"
#include "obs/metric_registry.hpp"
#include "obs/slo_monitor.hpp"
#include "recovery/strategies.hpp"
#include "sim/simulator.hpp"

namespace canary::faas {
namespace {

std::vector<cluster::NodeSpec> uniform_nodes(std::size_t n) {
  std::vector<cluster::NodeSpec> specs(n);
  for (auto& s : specs) s.cpu = cluster::CpuClass::kXeonGold6242;
  return specs;
}

FunctionSpec simple_function(std::size_t states = 2,
                             Duration state_dur = Duration::sec(1.0)) {
  FunctionSpec fn;
  fn.name = "fn";
  fn.runtime = RuntimeImage::kPython3;
  for (std::size_t i = 0; i < states; ++i) fn.states.push_back({state_dur, {}});
  fn.finalize = Duration::msec(500);
  return fn;
}

/// Kills attempt `attempt_to_kill` of every function at a fixed offset.
class FixedKillPolicy : public FailurePolicy {
 public:
  FixedKillPolicy(int attempt_to_kill, Duration offset)
      : attempt_(attempt_to_kill), offset_(offset) {}
  std::optional<Duration> plan_kill(const Invocation&, int attempt,
                                    Duration) override {
    if (attempt == attempt_) return offset_;
    return std::nullopt;
  }

 private:
  int attempt_;
  Duration offset_;
};

/// Platform fixture with the causal event log and SLO watchdog installed.
class TraceTest : public ::testing::Test {
 protected:
  explicit TraceTest(std::size_t nodes = 2)
      : cluster_(uniform_nodes(nodes)), network_(&cluster_, {}) {}

  Platform& make_platform(PlatformConfig config = {}) {
    config.scheduler_overhead = Duration::zero();
    platform_.emplace(sim_, cluster_, network_, config, metrics_);
    platform_->set_event_log(&events_);
    platform_->set_slo_monitor(&slo_);
    retry_.emplace(*platform_);
    platform_->set_recovery_handler(&*retry_);
    return *platform_;
  }

  JobId submit_one(Platform& p, FunctionSpec fn) {
    JobSpec job;
    job.name = "job";
    job.functions.push_back(std::move(fn));
    auto result = p.submit_job(std::move(job));
    EXPECT_TRUE(result.ok());
    return result.value();
  }

  /// Events attributed to `fn`, in log (== time) order.
  std::vector<const obs::Event*> events_of(FunctionId fn) const {
    std::vector<const obs::Event*> out;
    for (const auto& e : events_.events()) {
      if (e.labels.function == fn) out.push_back(&e);
    }
    return out;
  }

  const obs::Event* first_of(obs::EventKind kind) const {
    for (const auto& e : events_.events()) {
      if (e.kind == kind) return &e;
    }
    return nullptr;
  }

  /// Asserts `evs` is one unbroken parent chain on a single trace.
  void expect_chain(const std::vector<const obs::Event*>& evs) {
    ASSERT_FALSE(evs.empty());
    EXPECT_TRUE(evs.front()->trace.valid());
    for (std::size_t i = 1; i < evs.size(); ++i) {
      EXPECT_EQ(evs[i]->parent, evs[i - 1]->id)
          << "broken chain at '" << evs[i]->name << "'";
      EXPECT_EQ(evs[i]->trace, evs.front()->trace);
    }
  }

  static std::vector<obs::EventKind> kinds(
      const std::vector<const obs::Event*>& evs) {
    std::vector<obs::EventKind> out;
    for (const auto* e : evs) out.push_back(e->kind);
    return out;
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  obs::MetricRegistry metrics_;
  obs::EventLog events_;
  obs::SloMonitor slo_;
  std::optional<Platform> platform_;
  std::optional<RetryHandler> retry_;
};

TEST_F(TraceTest, ColdStartProducesOneLinearChain) {
  auto& p = make_platform();
  const JobId job = submit_one(p, simple_function());
  sim_.run();
  ASSERT_TRUE(p.job_completed(job));

  const FunctionId fid = p.job_functions(job).front();
  const auto evs = events_of(fid);
  expect_chain(evs);
  using K = obs::EventKind;
  EXPECT_EQ(kinds(evs),
            (std::vector<K>{K::kSubmit, K::kLaunch, K::kInit, K::kExec,
                            K::kStateCommit, K::kStateCommit, K::kFinalize,
                            K::kComplete}));
  // The submit event is the chain root, named after the spec.
  EXPECT_EQ(evs.front()->parent, obs::kNoEvent);
  EXPECT_EQ(evs.front()->name, "fn");
  // The invocation's public view carries its trace position.
  EXPECT_EQ(p.invocation(fid).trace.trace, evs.front()->trace);
  EXPECT_EQ(p.invocation(fid).trace.last, evs.back()->id);
}

TEST_F(TraceTest, WarmPoolReuseKeepsTheChainAndSkipsLaunch) {
  PlatformConfig config;
  config.reuse_containers = true;
  auto& p = make_platform(config);

  JobSpec job;
  job.name = "job";
  job.functions.push_back(simple_function(1));
  FunctionSpec second = simple_function(1);
  second.depends_on = {0};  // runs after fn 0, adopts its pooled container
  job.functions.push_back(std::move(second));
  const auto id = p.submit_job(std::move(job));
  ASSERT_TRUE(id.ok());
  sim_.run();
  ASSERT_TRUE(p.job_completed(id.value()));

  const FunctionId warm_fid = p.job_functions(id.value())[1];
  const auto evs = events_of(warm_fid);
  expect_chain(evs);
  using K = obs::EventKind;
  // Warm adoption: no launch/init events, a kRestore("warm_dispatch")
  // dispatch instead — and the causal chain survives the reuse.
  EXPECT_EQ(kinds(evs),
            (std::vector<K>{K::kSubmit, K::kRestore, K::kExec, K::kStateCommit,
                            K::kFinalize, K::kComplete}));
  EXPECT_EQ(evs[1]->name, "warm_dispatch");
}

TEST_F(TraceTest, RetryReattemptStaysOnTheFailureChain) {
  FixedKillPolicy kill_first(1, Duration::msec(500));
  auto& p = make_platform();
  p.set_failure_policy(&kill_first);
  const JobId job = submit_one(p, simple_function());
  sim_.run();
  ASSERT_TRUE(p.job_completed(job));

  const FunctionId fid = p.job_functions(job).front();
  const auto evs = events_of(fid);
  expect_chain(evs);

  using K = obs::EventKind;
  const obs::Event* failure = nullptr;
  const obs::Event* detect = nullptr;
  const obs::Event* action = nullptr;
  const obs::Event* recovered = nullptr;
  std::size_t launches = 0;
  for (const auto* e : evs) {
    if (e->kind == K::kFailure && failure == nullptr) failure = e;
    if (e->kind == K::kDetect && detect == nullptr) detect = e;
    if (e->kind == K::kRecoveryAction && action == nullptr) action = e;
    if (e->kind == K::kRecovered) recovered = e;
    if (e->kind == K::kLaunch) ++launches;
  }
  ASSERT_NE(failure, nullptr);
  ASSERT_NE(detect, nullptr);
  ASSERT_NE(action, nullptr);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(action->name, "retry_restart");
  EXPECT_EQ(launches, 2u);  // killed cold start + retry cold start
  // Detection lags the failure by the configured detect delay.
  EXPECT_EQ((detect->at - failure->at).count_usec(),
            PlatformConfig{}.failure_detect_delay.count_usec());
  // The regained-work event points its cause edge back at the failure.
  EXPECT_EQ(recovered->cause, failure->id);
  EXPECT_EQ(evs.back()->kind, K::kComplete);
}

TEST_F(TraceTest, NodeFailureIsTheCauseOfItsVictims) {
  auto& p = make_platform();
  const JobId job = submit_one(p, simple_function());
  const FunctionId fid = p.job_functions(job).front();
  sim_.schedule_after(Duration::sec(1.0), [&] {
    p.fail_node(p.invocation(fid).node);
  });
  sim_.run();
  ASSERT_TRUE(p.job_completed(job));  // retried on the surviving node

  const obs::Event* node_failure = first_of(obs::EventKind::kNodeFailure);
  ASSERT_NE(node_failure, nullptr);
  EXPECT_EQ(node_failure->parent, obs::kNoEvent);  // ambient root event
  EXPECT_EQ(events_.count_of(obs::EventKind::kNodeFailure), 1u);

  const auto evs = events_of(fid);
  const obs::Event* failure = nullptr;
  const obs::Event* recovered = nullptr;
  for (const auto* e : evs) {
    if (e->kind == obs::EventKind::kFailure && failure == nullptr) failure = e;
    if (e->kind == obs::EventKind::kRecovered) recovered = e;
  }
  ASSERT_NE(failure, nullptr);
  ASSERT_NE(recovered, nullptr);
  // Victim kill <- node failure, regained work <- the kill: the full
  // failure-to-recovery path is linked through cause edges.
  EXPECT_EQ(failure->cause, node_failure->id);
  EXPECT_NE(failure->trace, node_failure->trace);
  EXPECT_EQ(recovered->cause, failure->id);

  // The chrome exporter renders each cause edge as an s/f flow pair
  // (shared name + "causal" category + effect id).
  std::ostringstream trace_json;
  obs::write_chrome_trace(trace_json, nullptr, &events_);
  const std::string out = trace_json.str();
  std::size_t causal = 0;
  for (std::size_t pos = out.find("causal"); pos != std::string::npos;
       pos = out.find("causal", pos + 1)) {
    ++causal;
  }
  EXPECT_EQ(causal, 4u);  // two flow edges, two records each
  EXPECT_NE(out.find("\"bp\""), std::string::npos);
  EXPECT_NE(out.find("node_failure"), std::string::npos);
}

TEST_F(TraceTest, SloWatchdogRecordsBreachOnline) {
  auto& p = make_platform();
  JobSpec job;
  job.name = "job";
  FunctionSpec breached = simple_function();  // completes at 3.3 s
  breached.name = "tight";
  breached.sla = Duration::sec(1.0);
  FunctionSpec met = simple_function();
  met.name = "loose";
  met.sla = Duration::sec(10.0);
  job.functions.push_back(std::move(breached));
  job.functions.push_back(std::move(met));
  const auto id = p.submit_job(std::move(job));
  ASSERT_TRUE(id.ok());
  sim_.run();
  ASSERT_TRUE(p.job_completed(id.value()));

  EXPECT_EQ(slo_.targets(), 2u);
  EXPECT_EQ(slo_.violations(), 1u);
  EXPECT_DOUBLE_EQ(slo_.violation_ratio(), 0.5);
  ASSERT_EQ(slo_.breaches().size(), 1u);
  EXPECT_EQ(slo_.breaches().front().first, p.job_functions(id.value())[0]);
  // The breach fires at the deadline, as a DAG event on the chain.
  EXPECT_EQ(slo_.breaches().front().second.count_usec(), 1'000'000);
  EXPECT_EQ(events_.count_of(obs::EventKind::kSlaViolation), 1u);

  // The analyzer attributes the breach to the dominant component.
  obs::CriticalPathAnalyzer analyzer(events_);
  const obs::BreakdownReport report = analyzer.report(slo_.targets());
  EXPECT_EQ(report.slo_targets, 2u);
  EXPECT_EQ(report.slo_violations, 1u);
  std::uint64_t attributed = 0;
  for (const auto& [component, count] : report.slo_breaches_by_component) {
    attributed += count;
  }
  EXPECT_EQ(attributed, 1u);
}

TEST_F(TraceTest, LogClockPrefixesAndMirrorsWarnings) {
  set_log_threshold(LogLevel::kWarn);
  ScopedLogClock clock([] { return std::int64_t{1'500'000}; });
  EXPECT_EQ(detail::log_time_prefix(), "[t=1.500000s] ");

  std::vector<std::pair<LogLevel, std::string>> mirrored;
  ScopedLogMirror mirror([&](LogLevel level, const std::string& msg) {
    mirrored.emplace_back(level, msg);
  });
  CANARY_LOG_WARN("trace-mirror-check " << 42);
  CANARY_LOG_INFO("below-threshold");  // kInfo < kWarn: not emitted
  ASSERT_EQ(mirrored.size(), 1u);
  EXPECT_EQ(mirrored.front().first, LogLevel::kWarn);
  EXPECT_NE(mirrored.front().second.find("trace-mirror-check 42"),
            std::string::npos);
}

TEST(EventLogTest, OverflowIsCountedAndLeavesContextsIntact) {
  obs::EventLog log(2);
  obs::TraceContext ctx{log.new_trace()};
  const obs::EventId first =
      log.extend(ctx, obs::EventKind::kSubmit, "a", TimePoint::origin());
  const obs::EventId second =
      log.extend(ctx, obs::EventKind::kLaunch, "b", TimePoint::origin());
  EXPECT_NE(first, obs::kNoEvent);
  EXPECT_NE(second, obs::kNoEvent);
  EXPECT_EQ(ctx.last, second);
  EXPECT_FALSE(log.truncated());

  // Past the cap every append shape drops, counts, and returns kNoEvent;
  // extend leaves the context where it was.
  EXPECT_EQ(log.extend(ctx, obs::EventKind::kExec, "c", TimePoint::origin()),
            obs::kNoEvent);
  EXPECT_EQ(ctx.last, second);
  EXPECT_EQ(log.append(ctx, obs::EventKind::kCheckpoint, "d", TimePoint::origin()),
            obs::kNoEvent);
  EXPECT_EQ(log.append_raw(log.new_trace(), obs::kNoEvent,
                           obs::EventKind::kAnnotation, "e", TimePoint::origin()),
            obs::kNoEvent);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
  EXPECT_TRUE(log.truncated());
}

TEST(EventLogTest, HealthMatchesPerKindDropCounts) {
  obs::EventLog log(2);
  log.append_raw(log.new_trace(), obs::kNoEvent, obs::EventKind::kSubmit, "a",
                 TimePoint::origin());
  const obs::RecorderHealth clean = log.health();
  EXPECT_EQ(clean.recorded, 1u);
  EXPECT_EQ(clean.dropped, 0u);
  EXPECT_TRUE(clean.dropped_by_kind.empty());

  // Fill the log, then overflow it with a mix of kinds.
  for (const obs::EventKind kind :
       {obs::EventKind::kLaunch, obs::EventKind::kFailure,
        obs::EventKind::kFailure, obs::EventKind::kExec,
        obs::EventKind::kAnnotation, obs::EventKind::kFailure}) {
    log.append_raw(log.new_trace(), obs::kNoEvent, kind, "x",
                   TimePoint::origin());
  }
  const obs::RecorderHealth health = log.health();
  EXPECT_EQ(health.recorded, log.size());
  EXPECT_EQ(health.dropped, log.dropped());
  EXPECT_EQ(health.dropped, 5u);
  EXPECT_EQ(health.dropped_by_kind.size(), 3u);
  for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    const auto it =
        health.dropped_by_kind.find(std::string(obs::to_string_view(kind)));
    if (log.dropped_of(kind) == 0) {
      EXPECT_EQ(it, health.dropped_by_kind.end()) << obs::to_string_view(kind);
    } else {
      ASSERT_NE(it, health.dropped_by_kind.end()) << obs::to_string_view(kind);
      EXPECT_EQ(it->second, log.dropped_of(kind));
    }
  }
  EXPECT_EQ(log.dropped_of(obs::EventKind::kFailure), 3u);
}

TEST(EventLogTest, FlightRecorderDumpsOnNodeFailure) {
  const std::string prefix = "obs_trace_test_flight";
  obs::EventLog log;
  log.set_flight_recorder(prefix, /*max_dumps=*/1, /*tail=*/4);
  obs::TraceContext ctx{log.new_trace()};
  log.extend(ctx, obs::EventKind::kSubmit, "fn", TimePoint::origin());
  log.append_raw(log.new_trace(), obs::kNoEvent, obs::EventKind::kNodeFailure,
                 "node_failure", TimePoint::origin());
  EXPECT_EQ(log.flight_dumps_written(), 1u);
  // Capped: a second trigger does not write another dump.
  log.append_raw(log.new_trace(), obs::kNoEvent, obs::EventKind::kNodeFailure,
                 "node_failure", TimePoint::origin());
  EXPECT_EQ(log.flight_dumps_written(), 1u);

  const std::string path = prefix + ".0.json";
  std::ifstream dump(path);
  ASSERT_TRUE(dump.good());
  std::stringstream content;
  content << dump.rdbuf();
  EXPECT_NE(content.str().find("node_failure"), std::string::npos);
  dump.close();
  std::remove(path.c_str());
}

TEST(QueueingAttributionTest, PreAdmissionWaitIsQueueingNotScheduling) {
  // An open-loop arrival that waited 5 s in admission control before the
  // platform saw it: the wait must land in the `queueing` component and a
  // breach during that era must blame queueing, not scheduling.
  obs::EventLog log;
  obs::TraceContext ctx{log.new_trace()};
  obs::SpanLabels labels;
  labels.function = FunctionId{1};
  const TimePoint t0 = TimePoint::origin();
  const auto at = [t0](double s) { return t0 + Duration::sec(s); };
  log.extend(ctx, obs::EventKind::kQueued, "web-1", at(0.0), labels);
  log.extend(ctx, obs::EventKind::kSubmit, "web-1", at(5.0), labels);
  log.extend(ctx, obs::EventKind::kLaunch, "web-1", at(5.5), labels);
  log.extend(ctx, obs::EventKind::kInit, "web-1", at(6.0), labels);
  log.extend(ctx, obs::EventKind::kExec, "web-1", at(6.5), labels);
  log.extend(ctx, obs::EventKind::kSlaViolation, "web-1", at(7.0), labels);
  log.extend(ctx, obs::EventKind::kFinalize, "web-1", at(8.0), labels);
  log.extend(ctx, obs::EventKind::kComplete, "web-1", at(8.5), labels);

  obs::CriticalPathAnalyzer analyzer(log);
  const obs::BreakdownReport report = analyzer.report(/*slo_targets=*/1);
  const obs::ComponentSums& e2e = report.end_to_end_components;
  EXPECT_NEAR(e2e[obs::PathComponent::kQueueing], 5.0, 1e-9);
  EXPECT_NEAR(e2e[obs::PathComponent::kScheduling], 0.5, 1e-9);
  EXPECT_NEAR(e2e[obs::PathComponent::kExec], 1.5, 1e-9);
  EXPECT_NEAR(e2e.total(), 8.5, 1e-9);
  // The family groups under the stream's base name, stripped of "-1".
  ASSERT_EQ(report.per_function.count("web"), 1u);
  // Breach attribution: queueing dominated submission-to-breach.
  EXPECT_EQ(report.slo_violations, 1u);
  ASSERT_EQ(report.slo_breaches_by_component.count("queueing"), 1u);
  EXPECT_EQ(report.slo_breaches_by_component.at("queueing"), 1u);
}

TEST(QueueingAttributionTest, ShedChainTerminatesWithoutAttribution) {
  // A shed arrival's chain is kQueued -> kShed; nothing after the shed
  // instant may be attributed to any component.
  obs::EventLog log;
  obs::TraceContext ctx{log.new_trace()};
  obs::SpanLabels labels;
  labels.function = FunctionId{2};
  log.extend(ctx, obs::EventKind::kQueued, "web-2", TimePoint::origin(),
             labels);
  log.extend(ctx, obs::EventKind::kShed, "web-2",
             TimePoint::origin() + Duration::sec(2.0), labels);
  obs::CriticalPathAnalyzer analyzer(log);
  const obs::BreakdownReport report = analyzer.report();
  EXPECT_NEAR(report.end_to_end_components[obs::PathComponent::kQueueing], 2.0,
              1e-9);
  EXPECT_NEAR(report.end_to_end_components.total(), 2.0, 1e-9);
}

TEST(TraceScenarioTest, RequestReplicationSharesOneTracePerGroup) {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::request_replication(1);
  config.error_rate = 0.0;
  config.cluster_nodes = 4;
  config.seed = 7;

  JobSpec job;
  job.name = "rr";
  for (int i = 0; i < 3; ++i) job.functions.push_back(simple_function(1));
  const auto result = harness::ScenarioRunner::run(config, {job});
  ASSERT_TRUE(result.completed);
  ASSERT_NE(result.events, nullptr);

  // 3 logical requests -> 6 submitted members (primary + shadow), but the
  // shadows are rebound onto their primary's trace: 3 distinct traces,
  // each with exactly two submit events.
  std::map<obs::TraceId, int> submits_per_trace;
  for (const auto& e : result.events->events()) {
    if (e.kind == obs::EventKind::kSubmit) ++submits_per_trace[e.trace];
  }
  std::size_t total = 0;
  for (const auto& [trace, count] : submits_per_trace) {
    EXPECT_EQ(count, 2) << "replica group not merged into one trace";
    total += static_cast<std::size_t>(count);
  }
  EXPECT_EQ(submits_per_trace.size(), 3u);
  EXPECT_EQ(total, 6u);
}

TEST(TraceScenarioTest, BreakdownComponentsPartitionEveryRecoveryWindow) {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::retry();
  config.error_rate = 0.3;
  config.cluster_nodes = 4;
  config.seed = 20220101;

  JobSpec job;
  job.name = "sweep";
  for (int i = 0; i < 20; ++i) job.functions.push_back(simple_function());
  const auto result = harness::ScenarioRunner::run(config, {job});
  ASSERT_TRUE(result.completed);
  ASSERT_NE(result.events, nullptr);
  ASSERT_GT(result.failures, 0.0);

  // Acceptance bound: detection + scheduling + launch + init + restore +
  // re-exec must equal each failure-to-recovery window within 1 sim-ms.
  obs::CriticalPathAnalyzer analyzer(*result.events);
  ASSERT_FALSE(analyzer.recovery_windows().empty());
  for (const auto& window : analyzer.recovery_windows()) {
    EXPECT_NEAR(window.components.total(), window.window().to_seconds(), 1e-3)
        << "window of function " << window.function.value();
    EXPECT_DOUBLE_EQ(window.components[obs::PathComponent::kExec], 0.0);
    EXPECT_DOUBLE_EQ(window.components[obs::PathComponent::kFinalize], 0.0);
  }
  // And the aggregated report preserves the partition.
  EXPECT_EQ(result.breakdown.recovery_count,
            analyzer.recovery_windows().size());
  EXPECT_NEAR(result.breakdown.recovery_components.total(),
              result.breakdown.recovery_window_s,
              1e-3 * static_cast<double>(result.breakdown.recovery_count));

  // Recorder health plumbing: everything recorded, nothing dropped.
  harness::Aggregate agg;
  agg.add(result);
  EXPECT_EQ(agg.event_health.recorded, result.events->size());
  EXPECT_EQ(agg.event_health.dropped, 0u);
  EXPECT_TRUE(agg.event_health.dropped_by_kind.empty());
  EXPECT_FALSE(result.events->truncated());
}

}  // namespace
}  // namespace canary::faas
