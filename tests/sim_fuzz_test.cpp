// Randomized invariant harness for the simulation engine and the
// platform above it.
//
// Two layers of fuzzing, both fully deterministic per seed:
//
//  * Engine fuzz: random interleavings of schedule / cancel /
//    schedule-from-callback operations checked against an oracle — the
//    virtual clock never goes backwards, same-timestamp events fire in
//    scheduling order (FIFO tiebreak), cancelled events never fire, and
//    every scheduled event is accounted for (fired xor cancelled). The
//    same operation tape replayed on different heap arities and
//    compaction thresholds must dispatch the identical event sequence.
//
//  * Scenario fuzz: 64 seeds of randomized workloads, strategies, error
//    rates and failure schedules through the full stack, asserting the
//    cross-cutting invariants the figures rely on: every job completes
//    (work conservation), every function completed exactly once, and the
//    critical-path breakdown components partition each recovery window
//    to within one simulated millisecond.
//
//  * Differential fuzz: 64 seeds of platform-only strategies run twice,
//    once with the event log on (one engine event per function state)
//    and once with it off (each attempt's states coalesced into one
//    event). Every simulated outcome must match exactly; only the
//    engine's event count may differ, and it must drop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/scenario_internal.hpp"
#include "obs/critical_path.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace canary {
namespace {

// ---------------------------------------------------------------------
// Engine fuzz
// ---------------------------------------------------------------------

struct FiredEvent {
  int id;
  std::int64_t when_usec;
};

struct TapeResult {
  std::vector<FiredEvent> fired;
  std::uint64_t executed = 0;
};

/// Replays a pseudo-random operation tape derived from `seed` on an
/// engine with the given options, recording the dispatch order and
/// checking the oracle invariants inline.
TapeResult run_tape(std::uint64_t seed, sim::SimulatorOptions options,
                    int op_count) {
  std::mt19937_64 rng(seed);
  sim::Simulator sim(options);
  TapeResult result;

  struct Tracked {
    sim::EventHandle handle;
    std::int64_t when_usec = 0;
    bool cancelled = false;
    bool fired = false;
  };
  // Deque-like stable storage: callbacks capture indices, not pointers.
  static thread_local std::vector<Tracked>* tracked_ptr = nullptr;
  std::vector<Tracked> tracked;
  tracked.reserve(static_cast<std::size_t>(op_count) * 2);
  tracked_ptr = &tracked;

  std::int64_t last_fired_usec = -1;
  int next_id = 0;

  auto schedule_one = [&](std::int64_t delay_usec) {
    const int id = next_id++;
    tracked.push_back({});
    const std::int64_t when = sim.now().count_usec() + delay_usec;
    tracked[static_cast<std::size_t>(id)].when_usec = when;
    tracked[static_cast<std::size_t>(id)].handle = sim.schedule_after(
        Duration::usec(delay_usec), [&sim, &result, &last_fired_usec, id] {
          auto& rec = (*tracked_ptr)[static_cast<std::size_t>(id)];
          EXPECT_FALSE(rec.cancelled) << "cancelled event " << id << " fired";
          EXPECT_FALSE(rec.fired) << "event " << id << " fired twice";
          rec.fired = true;
          // Clock monotonicity and exactness.
          EXPECT_EQ(sim.now().count_usec(), rec.when_usec);
          EXPECT_GE(sim.now().count_usec(), last_fired_usec);
          last_fired_usec = sim.now().count_usec();
          result.fired.push_back({id, rec.when_usec});
        });
  };

  for (int op = 0; op < op_count; ++op) {
    const auto roll = rng() % 100;
    if (roll < 55 || tracked.empty()) {
      // Coarse delays make timestamp collisions common, exercising the
      // FIFO tiebreak.
      schedule_one(static_cast<std::int64_t>(rng() % 50) * 1000);
    } else if (roll < 80) {
      auto& victim = tracked[rng() % tracked.size()];
      const bool was_pending = victim.handle.pending();
      victim.handle.cancel();
      if (was_pending && !victim.fired) victim.cancelled = true;
      EXPECT_FALSE(victim.handle.pending());
    } else if (roll < 90) {
      // Drain a few events mid-tape so schedule/cancel interleave with
      // dispatch and slot reuse.
      for (int i = 0; i < 5; ++i) {
        if (!sim.step()) break;
      }
    } else {
      // Double-cancel / cancel-after-fire probes on a random handle.
      auto& victim = tracked[rng() % tracked.size()];
      victim.handle.cancel();
      victim.handle.cancel();
      if (victim.fired) {
        EXPECT_FALSE(victim.handle.pending());
      } else {
        victim.cancelled = true;
      }
    }
  }
  sim.run();
  result.executed = sim.executed_events();

  // Work conservation: every event either fired or was cancelled, and
  // the engine's executed count matches the oracle's.
  std::size_t fired_count = 0;
  for (const auto& rec : tracked) {
    EXPECT_NE(rec.fired, rec.cancelled)
        << "event neither fired nor cancelled (or both)";
    if (rec.fired) ++fired_count;
  }
  EXPECT_EQ(fired_count, result.fired.size());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(sim.empty());

  // FIFO tiebreak: among equal timestamps, ids must ascend — an id is
  // assigned at scheduling time, and mid-tape drains never reorder
  // scheduling order within a timestamp.
  for (std::size_t i = 1; i < result.fired.size(); ++i) {
    if (result.fired[i].when_usec == result.fired[i - 1].when_usec) {
      EXPECT_LT(result.fired[i - 1].id, result.fired[i].id)
          << "FIFO tiebreak violated at t=" << result.fired[i].when_usec;
    }
  }
  tracked_ptr = nullptr;
  return result;
}

TEST(SimFuzzTest, EngineInvariantsHoldAcross64Seeds) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    run_tape(seed, sim::SimulatorOptions{}, 2000);
  }
}

TEST(SimFuzzTest, DispatchOrderIsIdenticalAcrossArities) {
  // (time, seq) is a total order, so the executed sequence must not
  // depend on heap shape or compaction cadence.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::SimulatorOptions binary;
    binary.heap_arity = 2;
    binary.compact_min = 4;
    sim::SimulatorOptions quad;  // defaults: arity 4, compact_min 64
    sim::SimulatorOptions wide;
    wide.heap_arity = 8;
    wide.compact_min = 1;
    const TapeResult a = run_tape(seed, binary, 300);
    const TapeResult b = run_tape(seed, quad, 300);
    const TapeResult c = run_tape(seed, wide, 300);
    ASSERT_EQ(a.fired.size(), b.fired.size());
    ASSERT_EQ(a.fired.size(), c.fired.size());
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.executed, c.executed);
    for (std::size_t i = 0; i < a.fired.size(); ++i) {
      EXPECT_EQ(a.fired[i].id, b.fired[i].id) << "divergence at index " << i;
      EXPECT_EQ(a.fired[i].id, c.fired[i].id) << "divergence at index " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Scenario fuzz
// ---------------------------------------------------------------------

harness::ScenarioConfig random_scenario(std::mt19937_64& rng) {
  harness::ScenarioConfig config;
  switch (rng() % 4) {
    case 0: config.strategy = recovery::StrategyConfig::retry(); break;
    case 1: config.strategy = recovery::StrategyConfig::canary_full(); break;
    case 2:
      config.strategy = recovery::StrategyConfig::canary_checkpoint_only();
      break;
    default:
      config.strategy = recovery::StrategyConfig::canary_replication_only();
      break;
  }
  config.error_rate = static_cast<double>(rng() % 30) / 100.0;
  config.cluster_nodes = 4u + rng() % 13;  // 4..16
  config.seed = rng();
  if (rng() % 3 == 0) {
    // A node failure somewhere in the first simulated minute.
    config.node_failure_offsets.push_back(
        Duration::sec(1.0 + static_cast<double>(rng() % 50)));
  }
  return config;
}

std::vector<faas::JobSpec> random_jobs(std::mt19937_64& rng) {
  static constexpr workloads::WorkloadKind kKinds[] = {
      workloads::WorkloadKind::kDlTraining, workloads::WorkloadKind::kWebService,
      workloads::WorkloadKind::kSparkMining, workloads::WorkloadKind::kCompression,
      workloads::WorkloadKind::kGraphBfs,
  };
  std::vector<faas::JobSpec> jobs;
  const std::size_t job_count = 1 + rng() % 2;
  for (std::size_t j = 0; j < job_count; ++j) {
    switch (rng() % 3) {
      case 0:
        jobs.push_back(workloads::make_job(kKinds[rng() % 5], 2 + rng() % 30));
        break;
      case 1:
        jobs.push_back(workloads::make_mapreduce_job(2 + rng() % 4,
                                                     1 + rng() % 2));
        break;
      default:
        jobs.push_back(workloads::make_mixed_batch(3 + rng() % 8));
        break;
    }
  }
  return jobs;
}

TEST(SimFuzzTest, ScenarioInvariantsHoldAcross64Seeds) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull);
    const harness::ScenarioConfig config = random_scenario(rng);
    const std::vector<faas::JobSpec> jobs = random_jobs(rng);
    std::size_t total_functions = 0;
    for (const auto& job : jobs) total_functions += job.functions.size();

    const harness::RunResult result = harness::ScenarioRunner::run(config, jobs);

    // Work conservation: the run drains — every job completes, every
    // function completed (counting discarded request-replica losers).
    EXPECT_TRUE(result.completed) << "jobs left incomplete";
    const double completed = result.metrics.counter("functions_completed");
    EXPECT_GE(completed, static_cast<double>(total_functions));
    EXPECT_GE(result.makespan_s, 0.0);
    EXPECT_GE(result.total_recovery_s, 0.0);
    EXPECT_GE(result.lost_work_s, 0.0);

    // Failures either recovered or were absorbed by completion: recovery
    // accounting never goes negative and the simulated clock advanced.
    EXPECT_GT(result.simulated_events, 0u);

    // Critical-path partition: components of every resolved recovery
    // window sum to the window length within 1 sim-ms.
    ASSERT_NE(result.events, nullptr);
    const obs::CriticalPathAnalyzer analyzer(*result.events);
    for (const auto& window : analyzer.recovery_windows()) {
      const double window_s = window.window().to_seconds();
      const double sum_s = window.components.total();
      EXPECT_NEAR(sum_s, window_s, 1e-3)
          << "recovery window of " << window.family
          << " not partitioned: components " << sum_s << " vs window "
          << window_s;
    }

    // The aggregate breakdown inherits the same partition property.
    const double agg_window = result.breakdown.recovery_window_s;
    const double agg_sum = result.breakdown.recovery_components.total();
    EXPECT_NEAR(agg_sum, agg_window,
                1e-3 * std::max<double>(1.0, static_cast<double>(
                                                 result.breakdown.recovery_count)));
  }
}

// ---------------------------------------------------------------------
// Differential fuzz: coalesced state runs vs the per-state reference
// ---------------------------------------------------------------------

/// A duration drawn uniformly from [lo_usec, lo_usec + span_usec).
Duration random_span(std::mt19937_64& rng, std::int64_t lo_usec,
                     std::uint64_t span_usec) {
  return Duration::usec(lo_usec + static_cast<std::int64_t>(rng() % span_usec));
}

harness::ScenarioConfig random_platform_scenario(std::mt19937_64& rng) {
  harness::ScenarioConfig config;
  switch (rng() % 3) {
    case 0: config.strategy = recovery::StrategyConfig::retry(); break;
    case 1:
      config.strategy = recovery::StrategyConfig::request_replication(
          1 + static_cast<unsigned>(rng() % 2));
      break;
    default:
      config.strategy = recovery::StrategyConfig::active_standby();
      break;
  }
  config.error_rate = static_cast<double>(rng() % 30) / 100.0;
  config.cluster_nodes = 4u + rng() % 13;  // 4..16
  config.seed = rng();
  if (rng() % 2 == 0) {
    config.node_failure_offsets.push_back(
        random_span(rng, 1'000'000, 40'000'000));
  }
  const std::size_t gray_windows = rng() % 3;
  for (std::size_t i = 0; i < gray_windows; ++i) {
    harness::ScenarioConfig::GrayFailure gray;
    gray.at = random_span(rng, 0, 30'000'000);
    gray.duration = random_span(rng, 500'000, 8'000'000);
    gray.slowdown = 1.5 + static_cast<double>(rng() % 50) / 10.0;
    config.gray_failures.push_back(gray);
  }
  config.detection.enabled = rng() % 2 == 0;
  if (config.detection.enabled && config.cluster_nodes >= 12 &&
      rng() % 2 == 0) {
    // Cut the last zone (four nodes) off: the majority fences its live
    // workers logically and redeploys their invocations.
    harness::ScenarioConfig::PartitionFault cut;
    cut.at = random_span(rng, 0, 20'000'000);
    cut.duration = random_span(rng, 2'000'000, 6'000'000);
    cut.zone = static_cast<std::uint32_t>(config.cluster_nodes / 4 - 1);
    config.partitions.push_back(cut);
  }
  return config;
}

/// A function timeout that a clean attempt on the slowest CPU class
/// (speed factor 1.18) under maximal cold-start contention always meets,
/// but an attempt slowed by a gray window may not: retries then succeed
/// once the window closes.
Duration random_timeout(std::mt19937_64& rng,
                        const std::vector<faas::JobSpec>& jobs) {
  Duration longest = Duration::zero();
  for (const auto& job : jobs) {
    for (const auto& fn : job.functions) {
      longest = std::max(longest, fn.total_state_work() + fn.finalize);
    }
  }
  const double slack = 1.25 + static_cast<double>(rng() % 75) / 100.0;
  return longest * (1.18 * slack) + Duration::sec(3.0);
}

struct Outcome {
  harness::RunResult result;
  std::vector<std::int64_t> completion_usec;  // by function id
};

Outcome run_outcome(harness::ScenarioConfig config,
                    const std::vector<faas::JobSpec>& jobs,
                    bool record_events) {
  config.record_events = record_events;
  sim::Simulator simulator;
  harness::internal::ScenarioInstance instance(simulator, config, jobs,
                                               /*install_log_hooks=*/true);
  simulator.run();
  Outcome outcome;
  for (const FunctionId id : instance.platform.all_function_ids()) {
    outcome.completion_usec.push_back(
        instance.platform.invocation(id).completion_time.count_usec());
  }
  outcome.result = instance.collect();
  return outcome;
}

TEST(SimFuzzTest, CoalescedStateRunsMatchPerStateReferenceAcross64Seeds) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed * 0xd1b54a32d192ed03ull);
    harness::ScenarioConfig config = random_platform_scenario(rng);
    const std::vector<faas::JobSpec> jobs = random_jobs(rng);
    if (rng() % 3 == 0) {
      config.platform.limits.function_timeout = random_timeout(rng, jobs);
    }

    const Outcome reference =
        run_outcome(config, jobs, /*record_events=*/true);
    const Outcome coalesced =
        run_outcome(config, jobs, /*record_events=*/false);
    const harness::RunResult& ref = reference.result;
    const harness::RunResult& got = coalesced.result;

    EXPECT_EQ(got.completed, ref.completed);
    EXPECT_EQ(got.makespan_s, ref.makespan_s);
    EXPECT_EQ(got.total_recovery_s, ref.total_recovery_s);
    EXPECT_EQ(got.lost_work_s, ref.lost_work_s);
    EXPECT_EQ(got.cost_usd, ref.cost_usd);
    EXPECT_EQ(got.failures, ref.failures);
    for (const char* counter :
         {"functions_completed", "recoveries", "timeouts", "nodes_fenced",
          "nodes_fenced_logical"}) {
      EXPECT_EQ(got.metrics.counter(counter), ref.metrics.counter(counter))
          << counter;
    }
    EXPECT_EQ(got.injected_gray_windows, ref.injected_gray_windows);
    EXPECT_EQ(coalesced.completion_usec, reference.completion_usec);

    // Every generated workload has multi-state functions, so the
    // coalesced run must execute strictly fewer engine events.
    EXPECT_LT(got.simulated_events, ref.simulated_events);
  }
}

}  // namespace
}  // namespace canary
