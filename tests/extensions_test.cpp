// Tests for the future-work extensions (paper §VII): proactive failure
// prediction/mitigation and SLA-aware recovery.
#include <gtest/gtest.h>

#include <optional>

#include "canary/core.hpp"
#include "canary/proactive.hpp"
#include "cluster/network.hpp"
#include "harness/experiment.hpp"
#include "workloads/workloads.hpp"

namespace canary::core {
namespace {

// ---- ProactiveMitigator unit tests ----------------------------------------

class MitigatorTest : public ::testing::Test {
 protected:
  ProactiveConfig enabled_config() {
    ProactiveConfig config;
    config.enabled = true;
    config.suspect_threshold = 3;
    config.window = Duration::sec(10.0);
    config.prescale_factor = 1.5;
    return config;
  }
  sim::Simulator sim_;
};

TEST_F(MitigatorTest, DisabledNeverSuspects) {
  ProactiveMitigator mitigator(sim_, ProactiveConfig{});
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(mitigator.observe_failure(NodeId{1}));
  }
  EXPECT_FALSE(mitigator.is_suspect(NodeId{1}));
  EXPECT_DOUBLE_EQ(mitigator.replica_boost(), 1.0);
}

TEST_F(MitigatorTest, ThresholdMarksSuspect) {
  ProactiveMitigator mitigator(sim_, enabled_config());
  EXPECT_FALSE(mitigator.observe_failure(NodeId{1}));
  EXPECT_FALSE(mitigator.observe_failure(NodeId{1}));
  EXPECT_TRUE(mitigator.observe_failure(NodeId{1}));  // newly suspect
  EXPECT_FALSE(mitigator.observe_failure(NodeId{1}));  // already suspect
  EXPECT_TRUE(mitigator.is_suspect(NodeId{1}));
  EXPECT_FALSE(mitigator.is_suspect(NodeId{2}));
  EXPECT_TRUE(mitigator.any_suspect());
  EXPECT_EQ(mitigator.suspects(), std::vector<NodeId>{NodeId{1}});
  EXPECT_DOUBLE_EQ(mitigator.replica_boost(), 1.5);
}

TEST_F(MitigatorTest, FailuresOnDifferentNodesDoNotAccumulate) {
  ProactiveMitigator mitigator(sim_, enabled_config());
  mitigator.observe_failure(NodeId{1});
  mitigator.observe_failure(NodeId{2});
  mitigator.observe_failure(NodeId{3});
  EXPECT_FALSE(mitigator.any_suspect());
}

TEST_F(MitigatorTest, WindowExpiresOldObservations) {
  ProactiveMitigator mitigator(sim_, enabled_config());
  mitigator.observe_failure(NodeId{1});
  mitigator.observe_failure(NodeId{1});
  // Advance past the window; the old observations no longer count.
  sim_.schedule_after(Duration::sec(15.0), [] {});
  sim_.run();
  EXPECT_FALSE(mitigator.observe_failure(NodeId{1}));
  EXPECT_FALSE(mitigator.is_suspect(NodeId{1}));
}

// ---- end-to-end: proactive mitigation under correlated node failure -------

harness::ScenarioConfig correlated_scenario(bool proactive) {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.strategy.canary.proactive.enabled = proactive;
  config.strategy.canary.proactive.suspect_threshold = 2;
  config.error_rate = 0.05;
  config.cluster_nodes = 8;
  config.seed = 9;
  harness::ScenarioConfig::CorrelatedNodeFailure failure;
  failure.at = Duration::sec(14.0);
  failure.precursor_kills = 4;
  failure.precursor_window = Duration::sec(8.0);
  config.correlated_node_failures = {failure};
  return config;
}

TEST(ProactiveEndToEndTest, SuspectIsMarkedBeforeNodeDies) {
  const std::vector<faas::JobSpec> jobs = {
      workloads::make_job(workloads::WorkloadKind::kWebService, 40)};
  const auto result =
      harness::ScenarioRunner::run(correlated_scenario(true), jobs);
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.metrics.counter("nodes_marked_suspect"), 1.0);
  EXPECT_GE(result.metrics.counter("node_failures"), 1.0);
}

TEST(ProactiveEndToEndTest, MitigationDoesNotHurtCompletion) {
  const std::vector<faas::JobSpec> jobs = {
      workloads::make_job(workloads::WorkloadKind::kWebService, 40)};
  const auto off = harness::run_repetitions(correlated_scenario(false), jobs, 3);
  const auto on = harness::run_repetitions(correlated_scenario(true), jobs, 3);
  EXPECT_EQ(off.incomplete_runs, 0u);
  EXPECT_EQ(on.incomplete_runs, 0u);
  // Pre-scaled replicas and suspect-avoiding placement must not regress
  // recovery; typically they improve it.
  EXPECT_LE(on.total_recovery_s.mean(), off.total_recovery_s.mean() * 1.15);
}

// ---- SLA-aware recovery -----------------------------------------------------

std::vector<cluster::NodeSpec> uniform_nodes(std::size_t n) {
  std::vector<cluster::NodeSpec> specs(n);
  for (auto& s : specs) s.cpu = cluster::CpuClass::kXeonGold6242;
  return specs;
}

TEST(SlaRecoveryTest, UrgentFunctionClaimsLaunchingReplica) {
  sim::Simulator sim;
  auto cluster = cluster::Cluster(uniform_nodes(4));
  cluster::NetworkModel network(&cluster, {});
  auto storage = cluster::StorageHierarchy::testbed();
  kv::KvStore store(kv::KvConfig{}, cluster.node_ids());
  obs::MetricRegistry metrics;
  faas::PlatformConfig pconfig;
  pconfig.scheduler_overhead = Duration::zero();
  faas::Platform platform(sim, cluster, network, pconfig, metrics);

  CanaryConfig config;
  config.sla_aware = true;
  CoreModule core(platform, store, storage, config);
  core.install();

  // DL runtime: replicas need ~7.4s to warm up. Kill the function early,
  // while the pool replica is still initializing.
  faas::JobSpec job;
  // Clean run finishes at ~28.4s; a cold-restart recovery lands at ~31s,
  // a promised-replica recovery at ~29s. The 30s deadline makes the
  // function urgent and the promise path the only way to hold the SLA.
  job.sla = Duration::sec(30.0);
  faas::FunctionSpec fn;
  fn.name = "urgent";
  fn.runtime = faas::RuntimeImage::kDlTrain;
  for (int i = 0; i < 8; ++i) {
    fn.states.push_back({Duration::sec(2.5), Bytes::kib(64)});
  }
  fn.finalize = Duration::sec(1.0);
  job.functions.push_back(fn);
  const auto id = core.submit_job(job);
  ASSERT_TRUE(id.ok());
  const FunctionId victim = platform.job_functions(id.value()).front();

  // Kill at 3s: past the promise-eligibility age of the pool replica
  // (a third of the DL image's 7.4s startup) but well before it is warm.
  sim.schedule_after(Duration::sec(3.0), [&] {
    platform.kill_function(victim, faas::FailureKind::kContainerKill);
  });
  sim.run();

  EXPECT_TRUE(platform.job_completed(id.value()));
  EXPECT_EQ(metrics.counter("sla_promised_recoveries"), 1.0);
  EXPECT_EQ(metrics.counter("sla_promised_dispatches"), 1.0);
  EXPECT_EQ(metrics.counter("cold_fallback_recoveries"), 0.0);
}

TEST(SlaRecoveryTest, NonSlaJobFallsBackCold) {
  sim::Simulator sim;
  auto cluster = cluster::Cluster(uniform_nodes(4));
  cluster::NetworkModel network(&cluster, {});
  auto storage = cluster::StorageHierarchy::testbed();
  kv::KvStore store(kv::KvConfig{}, cluster.node_ids());
  obs::MetricRegistry metrics;
  faas::PlatformConfig pconfig;
  pconfig.scheduler_overhead = Duration::zero();
  faas::Platform platform(sim, cluster, network, pconfig, metrics);

  CanaryConfig config;
  config.sla_aware = true;  // feature on, but the job carries no SLA
  CoreModule core(platform, store, storage, config);
  core.install();

  faas::JobSpec job;
  faas::FunctionSpec fn;
  fn.name = "besteffort";
  fn.runtime = faas::RuntimeImage::kDlTrain;
  for (int i = 0; i < 8; ++i) {
    fn.states.push_back({Duration::sec(2.5), Bytes::kib(64)});
  }
  job.functions.push_back(fn);
  const auto id = core.submit_job(job);
  ASSERT_TRUE(id.ok());
  const FunctionId victim = platform.job_functions(id.value()).front();
  sim.schedule_after(Duration::sec(2.0), [&] {
    platform.kill_function(victim, faas::FailureKind::kContainerKill);
  });
  sim.run();
  EXPECT_TRUE(platform.job_completed(id.value()));
  EXPECT_EQ(metrics.counter("sla_promised_recoveries"), 0.0);
  EXPECT_EQ(metrics.counter("cold_fallback_recoveries"), 1.0);
}

TEST(SlaRecoveryTest, ViolationsCountedInRunResult) {
  auto jobs = std::vector<faas::JobSpec>{
      workloads::make_job(workloads::WorkloadKind::kWebService, 10)};
  jobs.front().sla = Duration::sec(1.0);  // impossible deadline
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.error_rate = 0.0;
  config.cluster_nodes = 4;
  const auto result = harness::ScenarioRunner::run(config, jobs);
  EXPECT_EQ(result.sla_jobs, 1.0);
  EXPECT_EQ(result.sla_violations, 1.0);

  jobs.front().sla = Duration::sec(10000.0);  // generous deadline
  const auto relaxed = harness::ScenarioRunner::run(config, jobs);
  EXPECT_EQ(relaxed.sla_violations, 0.0);
}

TEST(SlaRecoveryTest, SlaAwareReducesViolationsUnderPressure) {
  // Tight deadlines + DL runtime (expensive cold start) + failures: the
  // promised-replica path should not lose to cold fallback.
  std::vector<faas::JobSpec> jobs;
  for (int j = 0; j < 6; ++j) {
    auto job = workloads::make_job(workloads::WorkloadKind::kDlTraining, 4,
                                   "sla-job-" + std::to_string(j));
    job.sla = Duration::sec(55.0);
    jobs.push_back(std::move(job));
  }
  auto run = [&](bool sla_aware) {
    harness::ScenarioConfig config;
    config.strategy = recovery::StrategyConfig::canary_full(
        core::ReplicationMode::kLenient);  // scarce replicas
    config.strategy.canary.sla_aware = sla_aware;
    config.error_rate = 0.35;
    config.cluster_nodes = 8;
    config.seed = 21;
    return harness::run_repetitions(config, jobs, 5);
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(on.incomplete_runs, 0u);
  EXPECT_LE(on.sla_violations.mean(), off.sla_violations.mean());
}

}  // namespace
}  // namespace canary::core
