// Byte-level determinism: the same scenario run twice in the same
// process must produce byte-identical run_report v2 JSON and
// byte-identical chrome-trace output. This is the property the figure
// pipeline (and CI's cross-run `cmp`) relies on, asserted here without
// touching the filesystem so it also runs under sanitizers cheaply.
//
// In-process repetition is the stricter variant of CI's two-process
// check: it additionally catches state leaking between runs through
// globals, statics, or allocator-address-dependent ordering.
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "obs/chrome_trace.hpp"
#include "realexec/backend.hpp"
#include "recovery/strategies.hpp"
#include "workloads/workloads.hpp"

namespace canary {
namespace {

harness::ScenarioConfig scenario_under_test() {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.error_rate = 0.15;
  config.cluster_nodes = 8;
  config.seed = 20220101;
  config.node_failure_offsets.push_back(Duration::sec(5.0));
  config.record_spans = true;
  config.record_events = true;
  return config;
}

std::vector<faas::JobSpec> jobs_under_test() {
  std::vector<faas::JobSpec> jobs;
  jobs.push_back(workloads::make_mixed_batch(12));
  jobs.push_back(workloads::make_mapreduce_job(4, 2));
  return jobs;
}

std::string render_report(const harness::Aggregate& agg) {
  obs::RunReport report =
      harness::make_report("determinism_probe", scenario_under_test(), agg);
  return report.to_json();
}

std::string render_trace(const harness::RunResult& result) {
  std::ostringstream out;
  obs::write_chrome_trace(out, result.spans.get(), result.events.get());
  return out.str();
}

TEST(DeterminismTest, RunReportJsonIsByteIdenticalAcrossRuns) {
  const harness::ScenarioConfig config = scenario_under_test();
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const std::string first =
      render_report(harness::run_repetitions(config, jobs, 3));
  const std::string second =
      render_report(harness::run_repetitions(config, jobs, 3));

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "run_report v2 JSON diverged between runs";
  EXPECT_NE(first.find("canary.run_report/v2"), std::string::npos);
}

TEST(DeterminismTest, ChromeTraceIsByteIdenticalAcrossRuns) {
  const harness::ScenarioConfig config = scenario_under_test();
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const harness::RunResult a = harness::ScenarioRunner::run(config, jobs);
  const harness::RunResult b = harness::ScenarioRunner::run(config, jobs);

  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  ASSERT_NE(a.spans, nullptr);
  ASSERT_NE(a.events, nullptr);

  const std::string trace_a = render_trace(a);
  const std::string trace_b = render_trace(b);
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b) << "chrome trace diverged between runs";
}

TEST(DeterminismTest, AttributionSectionsAreByteIdenticalAcrossRuns) {
  // The v3 sections (tail + timeseries) must be as deterministic as the
  // rest of the report: exemplar reservoirs are seeded, repetition merge
  // is associative, and window rollups key off sim time only.
  harness::ScenarioConfig config = scenario_under_test();
  config.tail.enabled = true;
  config.timeseries.enabled = true;
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const std::string first =
      render_report(harness::run_repetitions(config, jobs, 3));
  const std::string second =
      render_report(harness::run_repetitions(config, jobs, 3));

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "v3 report JSON diverged between runs";
  EXPECT_NE(first.find("canary.run_report/v3"), std::string::npos);
  EXPECT_NE(first.find("\"tail\""), std::string::npos);
  EXPECT_NE(first.find("\"timeseries\""), std::string::npos);
}

TEST(DeterminismTest, AttributionOffKeepsArtifactsByteIdentical) {
  // The attribution layer's contract: when disabled (the default), the
  // report is tagged v2, carries neither new section, and the chrome
  // trace has no counter track — nothing a pre-attribution build would
  // not also emit.
  const harness::ScenarioConfig config = scenario_under_test();
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const std::string report =
      render_report(harness::run_repetitions(config, jobs, 2));
  EXPECT_NE(report.find("canary.run_report/v2"), std::string::npos);
  EXPECT_EQ(report.find("\"tail\""), std::string::npos);
  EXPECT_EQ(report.find("\"timeseries\""), std::string::npos);
  EXPECT_EQ(report.find("dropped_by_kind"), std::string::npos);

  const harness::RunResult run = harness::ScenarioRunner::run(config, jobs);
  EXPECT_FALSE(run.timeseries.enabled());
  EXPECT_EQ(run.tail.groups.size(), 0u);
  std::ostringstream two_arg;
  obs::write_chrome_trace(two_arg, run.spans.get(), run.events.get());
  std::ostringstream four_arg;
  obs::write_chrome_trace(four_arg, run.spans.get(), run.events.get(),
                          &run.timeseries);
  // A disabled series pointer must not change a byte of the trace.
  EXPECT_EQ(two_arg.str(), four_arg.str());
  EXPECT_EQ(two_arg.str().find("\"ph\":\"C\""), std::string::npos);
}

TEST(DeterminismTest, RealBackendUnselectedLeavesSimArtifactsByteIdentical) {
  // The substrate seam's contract: linking the real-execution backend —
  // and even running it, forks, SIGKILLs and all — must not perturb a
  // single byte of the simulator's artifacts. The sim side is the v3
  // report + chrome trace this suite already pins; the figure benches
  // (fig04/06/09/11) are the same pipeline, held byte-identical by CI's
  // cross-run cmp against pre-generated artifacts.
  harness::ScenarioConfig config = scenario_under_test();
  config.tail.enabled = true;
  config.timeseries.enabled = true;
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const std::string report_before =
      render_report(harness::run_repetitions(config, jobs, 2));
  const harness::RunResult run_before = harness::ScenarioRunner::run(config, jobs);
  const std::string trace_before = render_trace(run_before);

  // Exercise the real backend in between: fork workers, kill one
  // mid-execution, recover from a checkpoint.
  realexec::RealScenarioConfig real;
  real.kernel = realexec::KernelKind::kCensus;
  real.seed = 33;
  real.size_param = 200'000;
  real.steps_total = 8;
  real.policy = realexec::RecoveryPolicy::kCheckpointRestore;
  real.kill_after_commit_step = 2;
  real.kill_delay = Duration::msec(2);
  real.kills = 1;
  real.heartbeat_interval = Duration::msec(60);
  real.timeout_multiplier = 5.0;
  realexec::RealBackend backend;
  const realexec::RealScenarioResult real_result = backend.run(real);
  ASSERT_TRUE(real_result.completed);
  ASSERT_TRUE(real_result.violations.empty());

  const std::string report_after =
      render_report(harness::run_repetitions(config, jobs, 2));
  const harness::RunResult run_after = harness::ScenarioRunner::run(config, jobs);

  EXPECT_EQ(report_before, report_after)
      << "running the real backend perturbed the sim report";
  EXPECT_EQ(trace_before, render_trace(run_after))
      << "running the real backend perturbed the chrome trace";
  EXPECT_NE(report_before.find("canary.run_report/v3"), std::string::npos);
}

// ---- byte identity with each optional surface enabled ----------------
//
// The tests above pin the default configuration. Traffic, hedging, tail
// attribution and the partition surface each add their own state
// (arrival streams, clone races, exemplar reservoirs, reachability rules)
// and report sections; each variant below must still produce the same
// report and chrome trace bytes when run twice.

void add_traffic(harness::ScenarioConfig& config) {
  config.traffic.enabled = true;
  config.traffic.horizon = Duration::sec(10.0);
  for (int s = 0; s < 8; ++s) {
    traffic::StreamConfig stream;
    stream.name = "det-stream-" + std::to_string(s);
    faas::StateSpec state;
    state.duration = Duration::msec(150 + 40 * s);
    state.checkpoint_payload = Bytes::of(128 * 1024);
    stream.fn.states.push_back(state);
    stream.fn.finalize = Duration::msec(40);
    stream.arrival.rate_hz = 4.0 + s;
    stream.sla = Duration::sec(6.0);
    stream.admission.max_concurrent = 6;
    stream.admission.queue_capacity = 16;
    config.traffic.streams.push_back(std::move(stream));
  }
  config.traffic.autoscaler.enabled = true;
  config.traffic.autoscaler.max_warm = 6;
}

void add_hedging(harness::ScenarioConfig& config) {
  recovery::HedgeConfig hedge;
  hedge.percentile = 90.0;
  hedge.min_samples = 6;
  hedge.initial_delay = Duration::msec(800);
  hedge.max_outstanding = 8;
  config.strategy = recovery::StrategyConfig::hedged(hedge);
  harness::ScenarioConfig::GrayFailure gray;
  gray.at = Duration::sec(3.0);
  config.gray_failures.push_back(gray);
}

void add_attribution(harness::ScenarioConfig& config) {
  config.tail.enabled = true;
  config.timeseries.enabled = true;
}

void add_partitions(harness::ScenarioConfig& config) {
  // The v3 partition surface: a zone bipartition that fences the
  // minority side, plus a correlated zone outage landing on the
  // already-fenced nodes (skipped kills).
  config.detection.enabled = true;
  config.detection.heartbeat_interval = Duration::msec(250);
  config.detection.timeout_multiplier = 2.0;
  config.detection.confirm_multiplier = 1.0;
  config.detection.sweep_interval = Duration::msec(100);
  config.detection.horizon = Duration::sec(600.0);
  config.fault_domain_spread = true;
  harness::ScenarioConfig::PartitionFault window;
  window.at = Duration::sec(2.0);
  window.duration = Duration::sec(3.0);
  window.zone = 1;
  config.partitions.push_back(window);
  config.zone_outages.push_back({Duration::sec(6.0), 1});
}

struct SurfaceVariant {
  const char* name;
  void (*enable)(harness::ScenarioConfig&);
  /// True when the run actually exercised the surface, so the byte
  /// comparison is not vacuous.
  bool (*exercised)(const harness::RunResult&);
};

/// Test listings show the variant by name.
void PrintTo(const SurfaceVariant& variant, std::ostream* os) {
  *os << variant.name;
}

class DeterminismTest : public ::testing::TestWithParam<SurfaceVariant> {};

TEST_P(DeterminismTest, ReportAndTraceAreByteIdenticalAcrossRuns) {
  harness::ScenarioConfig config = scenario_under_test();
  config.cluster_nodes = 12;  // three 4-node zones: a cut leaves a majority
  GetParam().enable(config);
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  std::string reports[2];
  std::string traces[2];
  for (int run = 0; run < 2; ++run) {
    const harness::RunResult result =
        harness::ScenarioRunner::run(config, jobs);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(GetParam().exercised(result));
    std::ostringstream trace;
    obs::write_chrome_trace(trace, result.spans.get(), result.events.get(),
                            &result.timeseries);
    traces[run] = trace.str();
    harness::Aggregate agg;
    agg.add(result);
    reports[run] =
        harness::make_report("determinism_probe", config, agg).to_json();
  }
  ASSERT_FALSE(reports[0].empty());
  ASSERT_FALSE(traces[0].empty());
  EXPECT_EQ(reports[0], reports[1]) << "report diverged between runs";
  EXPECT_EQ(traces[0], traces[1]) << "chrome trace diverged between runs";
}

INSTANTIATE_TEST_SUITE_P(
    Surfaces, DeterminismTest,
    ::testing::Values(
        SurfaceVariant{"Traffic", add_traffic,
                       [](const harness::RunResult& r) {
                         return r.traffic.offered > 0;
                       }},
        SurfaceVariant{"Hedging", add_hedging,
                       [](const harness::RunResult& r) {
                         return r.metrics.counter("hedges_fired") > 0.0;
                       }},
        SurfaceVariant{"Attribution", add_attribution,
                       [](const harness::RunResult& r) {
                         return !r.tail.groups.empty() &&
                                r.timeseries.enabled();
                       }},
        SurfaceVariant{"Partitions", add_partitions,
                       [](const harness::RunResult& r) {
                         return r.metrics.counter("injected_partitions") >
                                    0.0 &&
                                r.metrics.counter("injected_zone_outages") >
                                    0.0;
                       }}));

TEST(DeterminismTest, PartitionSurfaceOffKeepsArtifactsByteIdentical) {
  // The partition-off contract: a scenario that never schedules a
  // partition, zone outage, or fault-domain spread produces a report and
  // trace with zero v3-surface artifacts — the same bytes a pre-surface
  // build would emit (CI cross-checks the figure outputs the same way).
  const harness::ScenarioConfig config = scenario_under_test();
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const std::string report =
      render_report(harness::run_repetitions(config, jobs, 2));
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.find("partitions_started"), std::string::npos);
  EXPECT_EQ(report.find("zombie_commit_attempts"), std::string::npos);
  EXPECT_EQ(report.find("stale_epoch_rejects"), std::string::npos);
  EXPECT_EQ(report.find("nodes_fenced_logical"), std::string::npos);
  EXPECT_EQ(report.find("heartbeats_partition_dropped"), std::string::npos);

  const harness::RunResult run = harness::ScenarioRunner::run(config, jobs);
  EXPECT_EQ(run.metrics.counter("injected_partitions"), 0.0);
  EXPECT_EQ(run.metrics.counter("injected_zone_outages"), 0.0);
  EXPECT_EQ(run.metrics.counter("heartbeats_partition_dropped"), 0.0);
  EXPECT_EQ(run.kv_stale_epoch_rejects, 0u);
  EXPECT_EQ(run.kv_quorum_blocked_puts, 0u);
  const std::string trace = render_trace(run);
  EXPECT_EQ(trace.find("partition_start"), std::string::npos);
  EXPECT_EQ(trace.find("partition_heal"), std::string::npos);
  EXPECT_EQ(trace.find("node_fenced"), std::string::npos);
  EXPECT_EQ(trace.find("injected_zone_outage"), std::string::npos);
}

TEST(DeterminismTest, HeadlineScalarsAreReproducible) {
  const harness::ScenarioConfig config = scenario_under_test();
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const harness::RunResult a = harness::ScenarioRunner::run(config, jobs);
  const harness::RunResult b = harness::ScenarioRunner::run(config, jobs);

  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_recovery_s, b.total_recovery_s);
  EXPECT_EQ(a.lost_work_s, b.lost_work_s);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.cost_usd, b.cost_usd);
  EXPECT_EQ(a.simulated_events, b.simulated_events);
  EXPECT_EQ(a.metrics.counters(), b.metrics.counters());
}

}  // namespace
}  // namespace canary
