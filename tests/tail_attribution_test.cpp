// End-to-end tests for the tail-latency attribution engine: a seeded
// node-failure scenario must yield, for every target percentile, a
// representative exemplar whose causal chain resolves completely and
// whose component attribution sums to its measured latency within one
// simulated millisecond — the acceptance bound that makes "61% of the
// p99.9 is detection" an exact statement rather than an estimate.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_log.hpp"
#include "obs/report.hpp"
#include "obs/tail_analyzer.hpp"
#include "recovery/strategies.hpp"
#include "workloads/workloads.hpp"

namespace canary {
namespace {

harness::ScenarioConfig attribution_scenario() {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.error_rate = 0.2;
  config.cluster_nodes = 8;
  config.seed = 90210;
  // A node failure mid-run puts detection + restore into the tail, so
  // the attribution has non-trivial components to partition.
  config.node_failure_offsets.push_back(Duration::sec(6.0));
  config.tail.enabled = true;
  config.timeseries.enabled = true;
  return config;
}

std::vector<faas::JobSpec> attribution_jobs() {
  std::vector<faas::JobSpec> jobs;
  jobs.push_back(workloads::make_mixed_batch(24));
  return jobs;
}

TEST(TailAttributionTest, AttributionSumsToMeasuredLatencyWithinOneMs) {
  const harness::RunResult run =
      harness::ScenarioRunner::run(attribution_scenario(), attribution_jobs());
  ASSERT_TRUE(run.completed);
  ASSERT_TRUE(run.tail.enabled);
  ASSERT_FALSE(run.tail.groups.empty());

  std::size_t attributions = 0;
  for (const obs::TailGroup& group : run.tail.groups) {
    EXPECT_GT(group.exemplars, 0u) << group.metric;
    for (const obs::TailAttribution& a : group.percentiles) {
      EXPECT_GT(a.samples, 0u) << group.metric << " p" << a.percentile;
      if (!a.has_exemplar) continue;
      ++attributions;
      // The representative's exact latency vs. its causal partition:
      // the two are derived independently (histogram sample vs. event
      // DAG walk) and must agree to 1 sim-ms.
      EXPECT_NEAR(a.attributed_s, a.latency_s, 1e-3)
          << group.metric << " p" << a.percentile << " trace " << a.trace;
      // The bucket estimate and the exemplar sit in the same region of
      // the distribution (the exemplar is picked at or above the rank).
      EXPECT_GE(a.latency_s, a.bucket_estimate_s * 0.98)
          << group.metric << " p" << a.percentile;
      // Every reported trace resolves to a complete causal chain.
      EXPECT_TRUE(a.chain_complete)
          << group.metric << " p" << a.percentile << " trace " << a.trace;
      EXPECT_GT(a.chain_events, 0u);
    }
  }
  EXPECT_GT(attributions, 0u) << "no percentile produced an attribution";
}

TEST(TailAttributionTest, PerFamilyHistogramsGetTheirOwnGroups) {
  const harness::RunResult run =
      harness::ScenarioRunner::run(attribution_scenario(), attribution_jobs());
  ASSERT_TRUE(run.tail.enabled);
  bool run_wide = false;
  bool per_family = false;
  for (const obs::TailGroup& group : run.tail.groups) {
    if (group.metric == "tail_latency") run_wide = true;
    if (group.metric.rfind("tail_latency.fn.", 0) == 0) per_family = true;
  }
  EXPECT_TRUE(run_wide) << "missing the run-wide tail_latency group";
  EXPECT_TRUE(per_family) << "missing per-function-family groups";
}

TEST(TailAttributionTest, TimeSeriesRollupsCoverTheRun) {
  const harness::RunResult run =
      harness::ScenarioRunner::run(attribution_scenario(), attribution_jobs());
  ASSERT_TRUE(run.timeseries.enabled());
  ASSERT_FALSE(run.timeseries.windows().empty());

  double completions = 0.0;
  double node_failures = 0.0;
  std::int64_t prev_start = -1;
  for (const obs::TimeSeries::Window& w : run.timeseries.windows()) {
    EXPECT_GT(w.start.count_usec(), prev_start) << "windows out of order";
    prev_start = w.start.count_usec();
    const auto c = w.counters.find("completions");
    if (c != w.counters.end()) completions += c->second;
    const auto n = w.counters.find("node_failures");
    if (n != w.counters.end()) node_failures += n->second;
  }
  EXPECT_GT(completions, 0.0) << "no completion landed in any window";
  EXPECT_EQ(node_failures, 1.0) << "the injected node failure is missing";
}

TEST(TailAttributionTest, DisabledLeavesReportOnV2WithNoNewSections) {
  harness::ScenarioConfig config = attribution_scenario();
  config.tail.enabled = false;
  config.timeseries.enabled = false;
  const std::vector<faas::JobSpec> jobs = attribution_jobs();

  const harness::Aggregate agg = harness::run_repetitions(config, jobs, 2);
  EXPECT_FALSE(agg.tail.enabled);
  EXPECT_FALSE(agg.timeseries.enabled());
  const std::string json =
      harness::make_report("tail_off_probe", config, agg).to_json();
  EXPECT_NE(json.find("canary.run_report/v2"), std::string::npos);
  EXPECT_EQ(json.find("\"tail\""), std::string::npos);
  EXPECT_EQ(json.find("\"timeseries\""), std::string::npos);
  // No tail histograms may even exist when attribution is off.
  EXPECT_EQ(json.find("tail_latency"), std::string::npos);
}

TEST(TailAttributionTest, EnabledUpgradesReportToV3) {
  const harness::ScenarioConfig config = attribution_scenario();
  const std::vector<faas::JobSpec> jobs = attribution_jobs();

  const harness::Aggregate agg = harness::run_repetitions(config, jobs, 2);
  EXPECT_TRUE(agg.tail.enabled);
  EXPECT_TRUE(agg.timeseries.enabled());
  const std::string json =
      harness::make_report("tail_on_probe", config, agg).to_json();
  EXPECT_NE(json.find("canary.run_report/v3"), std::string::npos);
  EXPECT_NE(json.find("\"tail\""), std::string::npos);
  EXPECT_NE(json.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(json.find("\"chain_complete\""), std::string::npos);
}

TEST(TailAttributionTest, RepetitionMergeIsDeterministicAndAssociative) {
  const harness::ScenarioConfig config = attribution_scenario();
  const std::vector<faas::JobSpec> jobs = attribution_jobs();

  // Merging A into B and B into A must pick the same representative:
  // the deeper-tail exemplar, ties toward the smaller trace id.
  harness::ScenarioConfig other = config;
  other.seed = config.seed + 1;
  const harness::RunResult a = harness::ScenarioRunner::run(config, jobs);
  const harness::RunResult b = harness::ScenarioRunner::run(other, jobs);

  obs::TailReport ab = a.tail;
  ab.merge(b.tail);
  obs::TailReport ba = b.tail;
  ba.merge(a.tail);

  ASSERT_EQ(ab.groups.size(), ba.groups.size());
  for (std::size_t g = 0; g < ab.groups.size(); ++g) {
    EXPECT_EQ(ab.groups[g].metric, ba.groups[g].metric);
    EXPECT_EQ(ab.groups[g].exemplars, ba.groups[g].exemplars);
    ASSERT_EQ(ab.groups[g].percentiles.size(),
              ba.groups[g].percentiles.size());
    for (std::size_t i = 0; i < ab.groups[g].percentiles.size(); ++i) {
      const obs::TailAttribution& x = ab.groups[g].percentiles[i];
      const obs::TailAttribution& y = ba.groups[g].percentiles[i];
      EXPECT_EQ(x.samples, y.samples);
      EXPECT_EQ(x.trace, y.trace) << ab.groups[g].metric << " p"
                                  << x.percentile;
      EXPECT_DOUBLE_EQ(x.latency_s, y.latency_s);
    }
  }
}

// Brute-force chain resolution of one trace: the definition the
// analyzer's single shared pass over the log must reproduce.
struct BruteChain {
  std::uint64_t events = 0;
  bool complete = false;
};

BruteChain brute_force_chain(const obs::EventLog& log, std::uint64_t trace) {
  BruteChain chain;
  bool rooted = false;
  bool completed = false;
  bool parents_ok = true;
  for (const obs::Event& event : log.events()) {
    if (event.trace.value() != trace) continue;
    ++chain.events;
    rooted = rooted || event.kind == obs::EventKind::kQueued ||
             event.kind == obs::EventKind::kSubmit;
    completed = completed || event.kind == obs::EventKind::kComplete;
    if (event.parent != obs::kNoEvent && log.find(event.parent) == nullptr) {
      parents_ok = false;
    }
  }
  chain.complete = rooted && completed && parents_ok && chain.events > 0;
  return chain;
}

TEST(TailAttributionTest, ChainsResolveInOnePassLikeAPerTraceScan) {
  // Seven slots: trace A's whole chain fits; trace B's completion is the
  // eighth event and falls to the capacity cap; trace C completes but its
  // root names a parent outside the log.
  obs::EventLog log(7);
  obs::TraceContext a{log.new_trace()};
  obs::TraceContext b{log.new_trace()};
  obs::TraceContext c{log.new_trace()};
  const TimePoint t0 = TimePoint::origin();
  log.extend(a, obs::EventKind::kSubmit, "submit", t0);
  log.extend(b, obs::EventKind::kSubmit, "submit", t0);
  c.last = log.append_raw(c.trace, /*parent=*/99, obs::EventKind::kSubmit,
                          "submit", t0);
  log.extend(a, obs::EventKind::kExec, "exec", t0 + Duration::sec(1.0));
  log.extend(a, obs::EventKind::kComplete, "complete", t0 + Duration::sec(2.0));
  log.extend(c, obs::EventKind::kComplete, "complete", t0 + Duration::sec(2.0));
  log.extend(b, obs::EventKind::kExec, "exec", t0 + Duration::sec(1.0));
  EXPECT_EQ(log.extend(b, obs::EventKind::kComplete, "complete",
                       t0 + Duration::sec(3.0)),
            obs::kNoEvent);
  ASSERT_TRUE(log.truncated());

  // One sample per histogram, so every percentile of a histogram shares
  // its representative.
  obs::MetricRegistry metrics;
  obs::TailConfig config;
  config.enabled = true;
  config.percentiles = {50.0, 99.0};
  metrics.enable_exemplars("latency.a", config.exemplar_config());
  metrics.enable_exemplars("latency.b", config.exemplar_config());
  metrics.enable_exemplars("latency.c", config.exemplar_config());
  metrics.sample_traced("latency.a", 2.0, a.trace.value(), 1);
  metrics.sample_traced("latency.b", 3.0, b.trace.value(), 2);
  metrics.sample_traced("latency.c", 2.0, c.trace.value(), 3);

  const obs::CriticalPathAnalyzer paths(log);
  const obs::TailReport report =
      obs::TailAnalyzer(metrics, log, paths).analyze(config);
  ASSERT_EQ(report.groups.size(), 3u);
  for (const obs::TailGroup& group : report.groups) {
    ASSERT_EQ(group.percentiles.size(), 2u) << group.metric;
    const obs::TailAttribution& p50 = group.percentiles[0];
    const obs::TailAttribution& p99 = group.percentiles[1];
    ASSERT_TRUE(p50.has_exemplar && p99.has_exemplar) << group.metric;
    EXPECT_EQ(p50.trace, p99.trace) << group.metric;
    EXPECT_EQ(p50.chain_events, p99.chain_events) << group.metric;
    for (const obs::TailAttribution* attribution : {&p50, &p99}) {
      const BruteChain brute = brute_force_chain(log, attribution->trace);
      EXPECT_EQ(attribution->chain_events, brute.events) << group.metric;
      EXPECT_EQ(attribution->chain_complete, brute.complete) << group.metric;
    }
  }
  const obs::TailAttribution& kept = report.groups[0].percentiles[0];
  const obs::TailAttribution& cut = report.groups[1].percentiles[0];
  EXPECT_EQ(kept.trace, a.trace.value());
  EXPECT_EQ(kept.chain_events, 3u);
  EXPECT_TRUE(kept.chain_complete);
  EXPECT_EQ(cut.trace, b.trace.value());
  EXPECT_EQ(cut.chain_events, 2u);
  EXPECT_FALSE(cut.chain_complete) << "a chain that lost its completion";
  const obs::TailAttribution& dangling = report.groups[2].percentiles[0];
  EXPECT_EQ(dangling.trace, c.trace.value());
  EXPECT_EQ(dangling.chain_events, 2u);
  EXPECT_FALSE(dangling.chain_complete) << "a parent outside the log";
}

}  // namespace
}  // namespace canary
