// Full-stack integration: every major feature exercised together in one
// run — Canary with dynamic replication + checkpointing + proactive
// mitigation + SLA-awareness, trigger-driven workflows, container reuse,
// correlated node failures, and the execution trace — verifying the
// cross-feature behaviour no single-module test can.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "workloads/workloads.hpp"

namespace canary {
namespace {

harness::ScenarioConfig everything_on(double error_rate,
                                      std::uint64_t seed = 2022) {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.strategy.canary.proactive.enabled = true;
  config.strategy.canary.proactive.suspect_threshold = 2;
  config.strategy.canary.sla_aware = true;
  config.strategy.canary.checkpointing.compress = true;
  config.platform.reuse_containers = true;
  config.error_rate = error_rate;
  config.cluster_nodes = 12;
  config.seed = seed;
  harness::ScenarioConfig::CorrelatedNodeFailure degrading;
  degrading.at = Duration::sec(18.0);
  config.correlated_node_failures = {degrading};
  return config;
}

std::vector<faas::JobSpec> mixed_portfolio() {
  // A workflow job with an SLA, a plain batch, and a heavyweight DL job —
  // three shapes competing for the same cluster.
  auto mapreduce = workloads::make_mapreduce_job(12, 3);
  mapreduce.sla = Duration::sec(90.0);
  return {std::move(mapreduce),
          workloads::make_job(workloads::WorkloadKind::kWebService, 40),
          workloads::make_job(workloads::WorkloadKind::kDlTraining, 20)};
}

TEST(FullStackTest, AllFeaturesTogetherComplete) {
  const auto result =
      harness::ScenarioRunner::run(everything_on(0.25), mixed_portfolio());
  ASSERT_TRUE(result.completed);
  // All 75 functions done exactly once.
  EXPECT_EQ(result.metrics.counter("functions_completed"), 75.0);
  // Failures occurred and every one recovered.
  EXPECT_GT(result.failures, 0.0);
  EXPECT_EQ(result.metrics.counter("failures"), result.metrics.counter("recoveries"));
  // The feature set actually engaged.
  EXPECT_GE(result.metrics.counter("node_failures"), 1.0);
  EXPECT_GT(result.metrics.counter("checkpoints_written"), 0.0);
  EXPECT_GT(result.metrics.counter("replicas_launched"), 0.0);
  // SLA accounting saw the deadline-carrying job.
  EXPECT_EQ(result.sla_jobs, 1.0);
}

TEST(FullStackTest, DeterministicUnderFullFeatureLoad) {
  const auto a =
      harness::ScenarioRunner::run(everything_on(0.25), mixed_portfolio());
  const auto b =
      harness::ScenarioRunner::run(everything_on(0.25), mixed_portfolio());
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_recovery_s, b.total_recovery_s);
  EXPECT_EQ(a.cost_usd, b.cost_usd);
  EXPECT_EQ(a.simulated_events, b.simulated_events);
}

TEST(FullStackTest, FullCanaryStillBeatsRetryOnTheSamePortfolio) {
  auto retry_config = everything_on(0.25);
  retry_config.strategy = recovery::StrategyConfig::retry();
  retry_config.platform.reuse_containers = false;
  const auto retry =
      harness::ScenarioRunner::run(retry_config, mixed_portfolio());
  const auto canary =
      harness::ScenarioRunner::run(everything_on(0.25), mixed_portfolio());
  ASSERT_TRUE(retry.completed);
  ASSERT_TRUE(canary.completed);
  EXPECT_LT(canary.total_recovery_s, retry.total_recovery_s);
  EXPECT_LT(canary.makespan_s, retry.makespan_s);
}

TEST(FullStackTest, SurvivesSweepOfErrorRates) {
  for (const double rate : {0.0, 0.1, 0.3, 0.5}) {
    const auto result =
        harness::ScenarioRunner::run(everything_on(rate), mixed_portfolio());
    ASSERT_TRUE(result.completed) << "error rate " << rate;
    EXPECT_EQ(result.metrics.counter("functions_completed"), 75.0)
        << "error rate " << rate;
  }
}

}  // namespace
}  // namespace canary
