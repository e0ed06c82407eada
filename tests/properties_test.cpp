// Property-based invariant sweeps (TEST_P) across workloads, error rates
// and strategies: accounting identities and dominance relations that must
// hold for every parameter combination.
#include <gtest/gtest.h>

#include <tuple>

#include "harness/scenario.hpp"
#include "workloads/workloads.hpp"

namespace canary::harness {
namespace {

using workloads::WorkloadKind;

ScenarioConfig config_for(recovery::StrategyConfig strategy, double rate,
                          std::uint64_t seed = 404) {
  ScenarioConfig config;
  config.strategy = strategy;
  config.error_rate = rate;
  config.cluster_nodes = 8;
  config.seed = seed;
  return config;
}

class InvariantSweep
    : public ::testing::TestWithParam<std::tuple<WorkloadKind, double>> {};

TEST_P(InvariantSweep, AccountingIdentitiesHold) {
  const auto [kind, rate] = GetParam();
  const std::vector<faas::JobSpec> jobs = {workloads::make_job(kind, 25)};

  for (const auto& strategy : {recovery::StrategyConfig::retry(),
                               recovery::StrategyConfig::canary_full()}) {
    const auto result = ScenarioRunner::run(config_for(strategy, rate), jobs);
    ASSERT_TRUE(result.completed);

    // Every function completed exactly once.
    EXPECT_EQ(result.metrics.counter("functions_completed"), 25.0);

    // Every failure's recovery interval eventually resolved (a completed
    // function cannot owe recovery).
    const double failed = result.metrics.counter("failures");
    const double recovered = result.metrics.counter("recoveries");
    EXPECT_EQ(failed, recovered);
    EXPECT_EQ(result.failures, failed);

    // Cost breakdown sums to the total.
    EXPECT_NEAR(result.cost.total_usd,
                result.cost.function_usd + result.cost.replica_usd +
                    result.cost.rr_usd + result.cost.standby_usd,
                1e-12);

    // No failures => no lost work and vice versa.
    if (failed == 0.0) {
      EXPECT_EQ(result.lost_work_s, 0.0);
      EXPECT_EQ(result.total_recovery_s, 0.0);
    }
  }
}

TEST_P(InvariantSweep, FailuresOnlyMakeThingsWorseThanIdeal) {
  const auto [kind, rate] = GetParam();
  const std::vector<faas::JobSpec> jobs = {workloads::make_job(kind, 25)};

  const auto ideal = ScenarioRunner::run(
      config_for(recovery::StrategyConfig::ideal(), rate), jobs);
  for (const auto& strategy : {recovery::StrategyConfig::retry(),
                               recovery::StrategyConfig::canary_full()}) {
    const auto faulty = ScenarioRunner::run(config_for(strategy, rate), jobs);
    // Failures can only delay completion. A 1% tolerance absorbs the one
    // legitimate counter-effect: a restarted function can land on a
    // faster (heterogeneous) node than its ideal-run placement.
    EXPECT_GE(faulty.makespan_s, ideal.makespan_s * 0.99);
    // Function-container cost can only grow with redone work (same
    // placement-shift tolerance).
    EXPECT_GE(faulty.cost.function_usd, ideal.cost.function_usd * 0.99);
  }
}

TEST_P(InvariantSweep, CanaryRecoveryDominatesRetry) {
  const auto [kind, rate] = GetParam();
  if (rate < 0.15) return;  // below that, too few failures to compare
  const std::vector<faas::JobSpec> jobs = {workloads::make_job(kind, 25)};
  const auto retry = ScenarioRunner::run(
      config_for(recovery::StrategyConfig::retry(), rate), jobs);
  const auto canary = ScenarioRunner::run(
      config_for(recovery::StrategyConfig::canary_full(), rate), jobs);
  EXPECT_LT(canary.total_recovery_s, retry.total_recovery_s);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsByErrorRate, InvariantSweep,
    ::testing::Combine(::testing::Values(WorkloadKind::kDlTraining,
                                         WorkloadKind::kWebService,
                                         WorkloadKind::kSparkMining,
                                         WorkloadKind::kCompression,
                                         WorkloadKind::kGraphBfs),
                       ::testing::Values(0.05, 0.20, 0.40)));

// Seeds sweep: determinism and seed sensitivity.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, RunsAreReproduciblePerSeed) {
  const std::vector<faas::JobSpec> jobs = {
      workloads::make_job(WorkloadKind::kWebService, 20)};
  const auto config = config_for(recovery::StrategyConfig::canary_full(), 0.3,
                                 GetParam());
  const auto a = ScenarioRunner::run(config, jobs);
  const auto b = ScenarioRunner::run(config, jobs);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_recovery_s, b.total_recovery_s);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.cost_usd, b.cost_usd);
  EXPECT_EQ(a.simulated_events, b.simulated_events);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 42, 31337, 999999937));

// Error-rate monotonicity of the retry strategy's expected damage
// (averaged over repetitions to tame single-run noise).
TEST(MonotonicityTest, RetryLostWorkGrowsWithErrorRate) {
  const std::vector<faas::JobSpec> jobs = {
      workloads::make_job(WorkloadKind::kCompression, 40)};
  double last = -1.0;
  for (const double rate : {0.05, 0.15, 0.30, 0.50}) {
    double total = 0.0;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      total += ScenarioRunner::run(
                   config_for(recovery::StrategyConfig::retry(), rate,
                              1000 + rep),
                   jobs)
                   .lost_work_s;
    }
    EXPECT_GT(total, last);
    last = total;
  }
}

}  // namespace
}  // namespace canary::harness
