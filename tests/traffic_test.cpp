// Traffic subsystem tests: arrival-process determinism and rate
// matching, trace round-tripping, admission accounting, full-scenario
// conservation, and the autoscaler's safety invariants.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/network.hpp"
#include "faas/platform.hpp"
#include "faas/retry.hpp"
#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "harness/scenario_internal.hpp"
#include "obs/metric_registry.hpp"
#include "sim/simulator.hpp"
#include "traffic/admission.hpp"
#include "traffic/arrival.hpp"
#include "traffic/autoscaler.hpp"
#include "traffic/generator.hpp"

namespace canary::traffic {
namespace {

std::vector<TimePoint> collect(ArrivalProcess& p, Duration horizon,
                               std::size_t cap = 1u << 20) {
  std::vector<TimePoint> out;
  TimePoint cursor = TimePoint::origin();
  const TimePoint end = TimePoint::origin() + horizon;
  while (out.size() < cap) {
    const std::optional<TimePoint> at = p.next(cursor);
    if (!at.has_value() || *at > end) break;
    out.push_back(*at);
    cursor = *at;
  }
  return out;
}

ArrivalSpec spec_of(ArrivalSpec::Kind kind) {
  ArrivalSpec spec;
  spec.kind = kind;
  spec.rate_hz = 20.0;
  spec.off_rate_hz = 2.0;
  spec.on_mean = Duration::sec(3.0);
  spec.off_mean = Duration::sec(2.0);
  spec.amplitude = 0.6;
  spec.period = Duration::sec(40.0);
  if (kind == ArrivalSpec::Kind::kTrace) {
    for (int i = 0; i < 100; ++i) spec.trace.push_back(Duration::msec(i * 50));
  }
  return spec;
}

class ArrivalKindTest : public ::testing::TestWithParam<ArrivalSpec::Kind> {};

TEST_P(ArrivalKindTest, SameSeedSameStream) {
  const ArrivalSpec spec = spec_of(GetParam());
  auto a = make_arrival_process(spec, Rng(7));
  auto b = make_arrival_process(spec, Rng(7));
  const auto sa = collect(*a, Duration::sec(30.0));
  const auto sb = collect(*b, Duration::sec(30.0));
  ASSERT_FALSE(sa.empty());
  EXPECT_EQ(sa, sb);
}

TEST_P(ArrivalKindTest, ArrivalsStrictlyAdvance) {
  auto p = make_arrival_process(spec_of(GetParam()), Rng(11));
  const auto s = collect(*p, Duration::sec(30.0));
  ASSERT_GE(s.size(), 2u);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_GT(s[i], s[i - 1]);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ArrivalKindTest,
                         ::testing::Values(ArrivalSpec::Kind::kPoisson,
                                           ArrivalSpec::Kind::kOnOff,
                                           ArrivalSpec::Kind::kDiurnal,
                                           ArrivalSpec::Kind::kTrace));

TEST(ArrivalTest, DifferentSeedsDifferentStreams) {
  const ArrivalSpec spec = spec_of(ArrivalSpec::Kind::kPoisson);
  auto a = make_arrival_process(spec, Rng(7));
  auto b = make_arrival_process(spec, Rng(8));
  EXPECT_NE(collect(*a, Duration::sec(10.0)),
            collect(*b, Duration::sec(10.0)));
}

// Property: over a long horizon, the empirical rate of every stochastic
// process matches the analytic mean within tolerance, across seeds.
class RateMatchTest
    : public ::testing::TestWithParam<std::tuple<ArrivalSpec::Kind, int>> {};

TEST_P(RateMatchTest, EmpiricalMatchesAnalyticRate) {
  const auto [kind, seed] = GetParam();
  const ArrivalSpec spec = spec_of(kind);
  const Duration horizon = Duration::sec(2000.0);
  auto p = make_arrival_process(spec, Rng(static_cast<std::uint64_t>(seed)));
  const auto arrivals = collect(*p, horizon);
  const double empirical =
      static_cast<double>(arrivals.size()) / horizon.to_seconds();
  const double analytic = spec.mean_rate_hz();
  ASSERT_GT(analytic, 0.0);
  EXPECT_NEAR(empirical / analytic, 1.0, 0.15)
      << "empirical " << empirical << " Hz vs analytic " << analytic << " Hz";
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByKind, RateMatchTest,
    ::testing::Combine(::testing::Values(ArrivalSpec::Kind::kPoisson,
                                         ArrivalSpec::Kind::kOnOff,
                                         ArrivalSpec::Kind::kDiurnal),
                       ::testing::Values(1, 2, 3, 4, 5)));

TEST(ArrivalTest, TraceRoundTripsBitExact) {
  std::vector<Duration> offsets;
  for (int i = 0; i < 64; ++i) {
    offsets.push_back(Duration::usec(i * 12345 + (i % 7)));
  }
  std::stringstream ss;
  write_trace(ss, offsets);
  const std::vector<Duration> back = parse_trace(ss);
  EXPECT_EQ(offsets, back);
}

TEST(ArrivalTest, TraceParserSkipsCommentsAndSorts) {
  std::stringstream ss("# header\n300\n\n100\n200  # inline\n");
  const std::vector<Duration> t = parse_trace(ss);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], Duration::usec(100));
  EXPECT_EQ(t[1], Duration::usec(200));
  EXPECT_EQ(t[2], Duration::usec(300));
}

// ---- admission ----------------------------------------------------------

TEST(AdmissionTest, AdmitsQueuesThenSheds) {
  std::vector<std::string> submitted;
  std::vector<std::string> shed;
  AdmissionController ctl(
      [&submitted](faas::JobSpec spec) { submitted.push_back(spec.name); },
      [&shed](faas::JobSpec spec) { shed.push_back(spec.name); });
  AdmissionClassConfig cfg;
  cfg.max_concurrent = 2;
  cfg.queue_capacity = 3;
  const std::size_t cls = ctl.add_class(cfg);

  std::vector<AdmissionOutcome> outcomes;
  for (int i = 0; i < 10; ++i) {
    faas::JobSpec job;
    job.name = "j" + std::to_string(i);
    outcomes.push_back(ctl.offer(cls, std::move(job)));
  }
  EXPECT_EQ(outcomes[0], AdmissionOutcome::kAdmitted);
  EXPECT_EQ(outcomes[1], AdmissionOutcome::kAdmitted);
  EXPECT_EQ(outcomes[2], AdmissionOutcome::kQueued);
  EXPECT_EQ(outcomes[4], AdmissionOutcome::kQueued);
  EXPECT_EQ(outcomes[5], AdmissionOutcome::kShed);
  EXPECT_EQ(outcomes[9], AdmissionOutcome::kShed);

  const auto& stats = ctl.stats(cls);
  EXPECT_EQ(stats.offered, 10u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed, 5u);
  EXPECT_EQ(stats.queue_peak, 3u);
  EXPECT_EQ(ctl.total_queued(), 3u);
  EXPECT_EQ(ctl.total_in_flight(), 2u);

  // Completions pump the backlog in FIFO order.
  ctl.on_complete(cls);
  ASSERT_EQ(submitted.size(), 3u);
  EXPECT_EQ(submitted[2], "j2");
  ctl.on_complete(cls);
  ctl.on_complete(cls);
  EXPECT_EQ(submitted.back(), "j4");
  EXPECT_EQ(ctl.total_queued(), 0u);
  // Conservation: offered == admitted + shed + still-queued.
  EXPECT_EQ(stats.offered, stats.admitted + stats.shed + ctl.total_queued());
}

TEST(AdmissionTest, RejectAdmittedRollsBackToShed) {
  int submitted = 0;
  AdmissionController ctl([&submitted](faas::JobSpec) { ++submitted; },
                          [](faas::JobSpec) {});
  AdmissionClassConfig cfg;
  cfg.max_concurrent = 1;
  const std::size_t cls = ctl.add_class(cfg);
  (void)ctl.offer(cls, {});
  EXPECT_EQ(ctl.stats(cls).admitted, 1u);
  ctl.reject_admitted(cls);
  EXPECT_EQ(ctl.stats(cls).admitted, 0u);
  EXPECT_EQ(ctl.stats(cls).shed, 1u);
  EXPECT_EQ(ctl.total_in_flight(), 0u);
}

// ---- full-scenario conservation and determinism -------------------------

harness::ScenarioConfig traffic_scenario(double rate_hz,
                                         std::size_t max_concurrent,
                                         bool autoscale = false) {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::retry();
  config.error_rate = 0.0;
  config.cluster_nodes = 4;
  config.seed = 77;
  config.traffic.enabled = true;
  config.traffic.horizon = Duration::sec(10.0);
  StreamConfig stream;
  stream.name = "web";
  stream.fn.runtime = faas::RuntimeImage::kPython3;
  stream.fn.states.push_back({Duration::msec(200), {}});
  stream.fn.finalize = Duration::msec(50);
  stream.arrival.kind = ArrivalSpec::Kind::kPoisson;
  stream.arrival.rate_hz = rate_hz;
  stream.admission.max_concurrent = max_concurrent;
  stream.admission.queue_capacity = 8;
  config.traffic.streams.push_back(std::move(stream));
  config.traffic.autoscaler.enabled = autoscale;
  return config;
}

TEST(TrafficScenarioTest, ConservationHoldsUnderload) {
  const auto result =
      harness::ScenarioRunner::run(traffic_scenario(10.0, 16), {});
  const auto& t = result.traffic;
  ASSERT_TRUE(t.enabled);
  EXPECT_GT(t.offered, 0u);
  EXPECT_GT(t.completed, 0u);
  EXPECT_TRUE(t.conserved());
  EXPECT_EQ(t.in_flight, 0u);
  EXPECT_EQ(t.queued_end, 0u);
  EXPECT_EQ(t.offered, t.admitted + t.shed);
  EXPECT_GT(result.metrics.histogram("traffic_latency").p50(), 0.0);
}

TEST(TrafficScenarioTest, OverloadShedsButConservationHolds) {
  // 40 Hz offered into a single-slot class: most arrivals must shed, and
  // every one of them must still be accounted for.
  const auto result =
      harness::ScenarioRunner::run(traffic_scenario(40.0, 1), {});
  const auto& t = result.traffic;
  EXPECT_GT(t.shed, 0u);
  EXPECT_TRUE(t.conserved());
  EXPECT_EQ(t.offered, t.admitted + t.shed);
  EXPECT_EQ(t.admitted, t.completed + t.failed);
  // Shed arrivals surface as terminal invocations, never silently vanish.
  auto it = result.metrics.counters().find("functions_shed");
  ASSERT_NE(it, result.metrics.counters().end());
  EXPECT_EQ(static_cast<std::uint64_t>(it->second), t.shed);
}

TEST(TrafficScenarioTest, DeterministicForSameSeed) {
  const auto config = traffic_scenario(15.0, 4, /*autoscale=*/true);
  const auto a = harness::ScenarioRunner::run(config, {});
  const auto b = harness::ScenarioRunner::run(config, {});
  EXPECT_EQ(a.traffic.offered, b.traffic.offered);
  EXPECT_EQ(a.traffic.admitted, b.traffic.admitted);
  EXPECT_EQ(a.traffic.shed, b.traffic.shed);
  EXPECT_EQ(a.traffic.completed, b.traffic.completed);
  EXPECT_EQ(a.metrics.counter("autoscaler_scale_ups"),
            b.metrics.counter("autoscaler_scale_ups"));
  EXPECT_EQ(a.metrics.histogram("traffic_latency").p99(),
            b.metrics.histogram("traffic_latency").p99());
  EXPECT_EQ(a.simulated_events, b.simulated_events);
}

TEST(TrafficScenarioTest, RegistryPercentilesMatchMergedStreamStats) {
  // The run's registry histograms are the only home of traffic latency
  // and queue wait; they must give exactly the percentiles of the
  // generator's per-stream histograms merged together.
  harness::ScenarioConfig config = traffic_scenario(30.0, 2);
  StreamConfig second = config.traffic.streams.front();
  second.name = "batch";
  second.arrival.rate_hz = 12.0;
  second.fn.states.push_back({Duration::msec(300), {}});
  config.traffic.streams.push_back(second);
  sim::Simulator simulator;
  harness::internal::ScenarioInstance instance(simulator, config, {},
                                               /*install_log_hooks=*/false);
  simulator.run();
  const StreamStats totals = instance.traffic_gen->totals();
  ASSERT_GT(instance.traffic_gen->stream_stats(0).latency.count(), 0u);
  ASSERT_GT(instance.traffic_gen->stream_stats(1).latency.count(), 0u);
  ASSERT_GT(totals.queue_wait.p99(), 0.0);  // the backlog did queue

  const obs::Histogram& latency =
      instance.metrics.histogram("traffic_latency");
  const obs::Histogram& queue_wait =
      instance.metrics.histogram("traffic_queue_wait");
  EXPECT_EQ(latency.count(), totals.latency.count());
  EXPECT_EQ(latency.p50(), totals.latency.p50());
  EXPECT_EQ(latency.p99(), totals.latency.p99());
  EXPECT_EQ(latency.percentile(99.9), totals.latency.percentile(99.9));
  EXPECT_EQ(queue_wait.p99(), totals.queue_wait.p99());
}

TEST(TrafficScenarioTest, DisabledTrafficLeavesSummaryEmpty) {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::retry();
  config.cluster_nodes = 4;
  faas::JobSpec job;
  job.name = "batch";
  faas::FunctionSpec fn;
  fn.name = "f";
  fn.states.push_back({Duration::msec(100), {}});
  job.functions.push_back(fn);
  const auto result = harness::ScenarioRunner::run(config, {job});
  EXPECT_FALSE(result.traffic.enabled);
  EXPECT_EQ(result.traffic.offered, 0u);
  EXPECT_EQ(result.metrics.counters().find("traffic_offered"),
            result.metrics.counters().end());
}

// ---- autoscaler invariants ----------------------------------------------

/// Direct-drive fixture: platform + generator + autoscaler without the
/// harness, so the test can inspect retired container ids and events.
class AutoscalerTest : public ::testing::Test {
 protected:
  AutoscalerTest() : cluster_(nodes()), network_(&cluster_, {}) {}

  static std::vector<cluster::NodeSpec> nodes() {
    std::vector<cluster::NodeSpec> specs(4);
    for (auto& s : specs) {
      s.cpu = cluster::CpuClass::kXeonGold6242;
      s.container_slots = 32;
    }
    return specs;
  }

  void run(TrafficConfig config) {
    faas::PlatformConfig pc;
    pc.reuse_containers = true;
    platform_.emplace(sim_, cluster_, network_, pc, metrics_);
    retry_.emplace(*platform_);
    platform_->set_recovery_handler(&*retry_);
    generator_.emplace(sim_, *platform_, std::move(config),
                       [this](faas::JobSpec spec) {
                         return platform_->submit_job(std::move(spec));
                       },
                       Rng(13).child(4));
    platform_->add_observer(&*generator_);
    autoscaler_.emplace(sim_, *platform_, *generator_);
    platform_->add_observer(&*autoscaler_);
    autoscaler_->start();
    generator_->start();
    sim_.run();
  }

  static TrafficConfig bursty_config() {
    TrafficConfig config;
    config.enabled = true;
    config.horizon = Duration::sec(12.0);
    StreamConfig stream;
    stream.name = "burst";
    stream.fn.runtime = faas::RuntimeImage::kPython3;
    stream.fn.states.push_back({Duration::msec(300), {}});
    stream.fn.finalize = Duration::msec(50);
    stream.arrival.kind = ArrivalSpec::Kind::kOnOff;
    stream.arrival.rate_hz = 20.0;
    stream.arrival.off_rate_hz = 0.5;
    stream.arrival.on_mean = Duration::sec(2.0);
    stream.arrival.off_mean = Duration::sec(2.0);
    stream.admission.max_concurrent = 16;
    stream.admission.queue_capacity = 32;
    config.streams.push_back(std::move(stream));
    config.autoscaler.enabled = true;
    config.autoscaler.max_warm = 8;
    config.autoscaler.scale_in_cooldown = Duration::sec(1.0);
    config.autoscaler.drain_grace = Duration::sec(60.0);
    return config;
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  obs::MetricRegistry metrics_;
  std::optional<faas::Platform> platform_;
  std::optional<faas::RetryHandler> retry_;
  std::optional<TrafficGenerator> generator_;
  std::optional<WarmPoolAutoscaler> autoscaler_;
};

TEST_F(AutoscalerTest, ScalesUpUnderBurstAndDrainsToZero) {
  run(bursty_config());
  EXPECT_GT(metrics_.counter("autoscaler_scale_ups"), 0.0);
  // Every container the autoscaler launched was retired or adopted by the
  // end of the drain; destroy_warm_container CHECK-fails on a busy or
  // replica container, so reaching this line proves the safety invariant.
  for (const ContainerId id : autoscaler_->retired()) {
    EXPECT_EQ(platform_->container(id).purpose,
              faas::ContainerPurpose::kFunction);
  }
  EXPECT_TRUE(generator_->quiescent());
}

TEST_F(AutoscalerTest, NeverRetiresReplicaOrForeignContainers) {
  run(bursty_config());
  // The autoscaler only ever destroys ids it launched itself: every
  // retired id must appear in its launch ledger (the launched counter
  // bounds the retirement count).
  const double launched = metrics_.counter("autoscaler_containers_launched");
  const double retired = metrics_.counter("autoscaler_containers_retired");
  EXPECT_LE(retired, launched);
  EXPECT_GT(launched, 0.0);
}

TEST_F(AutoscalerTest, RespectsScaleUpCooldown) {
  run(bursty_config());
  const AutoscalerConfig cfg = bursty_config().autoscaler;
  std::optional<TimePoint> last_up;
  for (const WarmPoolAutoscaler::ScaleEvent& e : autoscaler_->events()) {
    EXPECT_LE(e.count, cfg.max_step);
    if (!e.up) continue;
    if (last_up.has_value()) {
      EXPECT_GE(e.at - *last_up, cfg.scale_up_cooldown);
    }
    last_up = e.at;
  }
}

// ---- chaos integration ---------------------------------------------------

TEST(TrafficChaosTest, BurstPlusNodeFailurePassesAllOracles) {
  for (std::uint64_t seed : {70001u, 70002u, 70003u}) {
    const harness::ChaosOutcome outcome =
        harness::run_traffic_chaos_scenario(seed);
    EXPECT_TRUE(outcome.violations.empty())
        << "seed " << seed << ": " << outcome.violations.front();
    EXPECT_GT(outcome.counter("traffic_offered"), 0.0) << "seed " << seed;
    EXPECT_EQ(outcome.counter("traffic_offered"),
              outcome.counter("traffic_admitted") +
                  outcome.counter("traffic_shed"))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace canary::traffic
