// Fault surface v3: network partitions, correlated fault-domain outages,
// epoch-fenced commits, and split-brain safety. Covers the reachability
// model, the KV store's stale-epoch/quorum gates, fault-domain-aware
// placement, the end-to-end zone-cut zombie path, the correlated-kill
// double-death guard, and a mini sweep of the partition chaos family.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "cluster/cluster.hpp"
#include "cluster/network.hpp"
#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "harness/scenario_internal.hpp"
#include "kvstore/kvstore.hpp"
#include "obs/event_log.hpp"
#include "recovery/strategies.hpp"
#include "sim/simulator.hpp"

namespace canary::cluster {
namespace {

TEST(NetworkReachabilityTest, AsymmetricRulesAndQuorum) {
  Cluster cluster = Cluster::testbed(8);
  NetworkModel net(&cluster, {});
  // No rules: the fast path reports full reachability.
  EXPECT_FALSE(net.has_partitions());
  EXPECT_TRUE(net.reachable(NodeId{1}, NodeId{2}));
  EXPECT_TRUE(net.reaches_majority(NodeId{1}));

  // A directed rule blocks only its own direction.
  const auto one_way = net.block({NodeId{1}}, {NodeId{2}});
  EXPECT_TRUE(net.has_partitions());
  EXPECT_EQ(net.active_rules(), 1u);
  EXPECT_FALSE(net.reachable(NodeId{1}, NodeId{2}));
  EXPECT_TRUE(net.reachable(NodeId{2}, NodeId{1}));
  // Losing one peer does not cost the quorum: node 1 still exchanges
  // traffic with six of the seven other alive nodes (plus itself).
  EXPECT_TRUE(net.reaches_majority(NodeId{1}));

  // Cut node 1 off from everyone: it drops below the majority while
  // every other node keeps it (they only lose bidirectional reach to 1).
  std::vector<NodeId> others;
  for (std::size_t n = 2; n <= 8; ++n) others.push_back(NodeId{n});
  const auto isolate = net.block({NodeId{1}}, others);
  EXPECT_FALSE(net.reaches_majority(NodeId{1}));
  EXPECT_TRUE(net.reaches_majority(NodeId{2}));

  // While any rule is active a dead node never reaches the quorum.
  cluster.fail_node(NodeId{3});
  EXPECT_FALSE(net.reaches_majority(NodeId{3}));
  cluster.restore_node(NodeId{3});

  // Heals restore the fast path exactly: with no rules the predicate
  // short-circuits to true (liveness is the callers' job, not ours).
  net.unblock(isolate);
  net.unblock(one_way);
  EXPECT_FALSE(net.has_partitions());
  EXPECT_TRUE(net.reachable(NodeId{1}, NodeId{2}));
  EXPECT_TRUE(net.reaches_majority(NodeId{1}));
}

TEST(FaultDomainPlacementTest, AvoidingZonePrefersOtherDomains) {
  Cluster cluster = Cluster::testbed(8);  // zones {0, 1}, four nodes each
  EXPECT_EQ(cluster.zone_of(NodeId{1}), 0u);
  EXPECT_EQ(cluster.zone_of(NodeId{4}), 0u);
  EXPECT_EQ(cluster.zone_of(NodeId{5}), 1u);
  EXPECT_EQ(cluster.zones(), (std::vector<std::uint32_t>{0, 1}));
  const std::vector<NodeId> zone1 = cluster.nodes_in_zone(1);
  ASSERT_EQ(zone1.size(), 4u);
  EXPECT_EQ(zone1.front(), NodeId{5});

  // On an empty cluster the spreading probe lands outside the avoided
  // zone even though in-zone hosts are equally loaded with lower ids.
  const auto spread =
      cluster.least_loaded_avoiding_zone(Bytes::mib(256), 0, {});
  ASSERT_TRUE(spread.has_value());
  EXPECT_EQ(cluster.zone_of(*spread), 1u);

  // With every out-of-zone host excluded it falls back in-zone rather
  // than failing the placement outright.
  const auto fallback =
      cluster.least_loaded_avoiding_zone(Bytes::mib(256), 0, zone1);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(cluster.zone_of(*fallback), 0u);
}

}  // namespace
}  // namespace canary::cluster

namespace canary::kv {
namespace {

TEST(EpochFencingTest, FencedWriterCannotCommit) {
  cluster::Cluster cluster = cluster::Cluster::testbed(4);
  KvStore store(KvConfig{}, cluster.node_ids());
  ASSERT_TRUE(store.put("k", "v1", std::nullopt, NodeId{1}).ok());

  store.fence_node(NodeId{1});
  EXPECT_TRUE(store.node_fenced(NodeId{1}));
  // The zombie's commit is a no-op: rejected, counted, value untouched.
  EXPECT_FALSE(store.put("k", "zombie", std::nullopt, NodeId{1}).ok());
  EXPECT_EQ(store.stats().stale_epoch_rejects, 1u);
  EXPECT_EQ(store.get("k").value().payload, "v1");
  // Other writers are unaffected.
  EXPECT_TRUE(store.put("k2", "v", std::nullopt, NodeId{2}).ok());

  // Restoring re-admits the node at a fresh epoch.
  store.restore_node(NodeId{1});
  EXPECT_FALSE(store.node_fenced(NodeId{1}));
  EXPECT_TRUE(store.put("k", "v2", std::nullopt, NodeId{1}).ok());
  EXPECT_EQ(store.get("k").value().payload, "v2");
}

TEST(EpochFencingTest, QuorumPredicateBlocksMidPartitionWrites) {
  cluster::Cluster cluster = cluster::Cluster::testbed(4);
  KvStore store(KvConfig{}, cluster.node_ids());
  bool partitioned = true;
  store.set_writer_quorum(
      [&](NodeId writer) { return !(partitioned && writer == NodeId{2}); });

  // Mid-partition, before the detector fences anyone: the minority
  // writer is blocked at put time, distinct from the stale-epoch case.
  EXPECT_FALSE(store.put("k", "v", std::nullopt, NodeId{2}).ok());
  EXPECT_EQ(store.stats().quorum_blocked_puts, 1u);
  EXPECT_EQ(store.stats().stale_epoch_rejects, 0u);
  EXPECT_TRUE(store.put("k", "v", std::nullopt, NodeId{3}).ok());

  partitioned = false;  // heal: the same writer commits again
  EXPECT_TRUE(store.put("k", "v2", std::nullopt, NodeId{2}).ok());
  EXPECT_EQ(store.get("k").value().payload, "v2");
}

}  // namespace
}  // namespace canary::kv

namespace canary::harness {
namespace {

/// Every function that completed did so exactly once — the split-brain
/// acceptance test at the causal-log level.
void expect_exactly_once(const RunResult& result) {
  ASSERT_NE(result.events, nullptr);
  ASSERT_FALSE(result.events->truncated());
  std::unordered_map<std::uint64_t, int> completes;
  for (const obs::Event& event : result.events->events()) {
    if (event.kind == obs::EventKind::kComplete &&
        event.labels.function.valid()) {
      ++completes[event.labels.function.value()];
    }
  }
  EXPECT_GT(completes.size(), 0u);
  for (const auto& [fn, count] : completes) {
    EXPECT_EQ(count, 1) << "function " << fn << " completed " << count
                        << " times";
  }
}

/// Long-running functions (~3.8 s of state work each) so the partition
/// windows land mid-execution — the fig13 recipe.
std::vector<faas::JobSpec> partition_jobs(int jobs_count = 3) {
  std::vector<faas::JobSpec> jobs;
  for (int j = 0; j < jobs_count; ++j) {
    faas::JobSpec job;
    job.name = "part-job-" + std::to_string(j);
    job.account = AccountId{1};
    for (int f = 0; f < 10; ++f) {
      faas::FunctionSpec fn;
      fn.name = "part-fn-" + std::to_string(j) + "-" + std::to_string(f);
      fn.runtime = faas::RuntimeImage::kPython3;
      for (int s = 0; s < 4; ++s) {
        faas::StateSpec state;
        state.duration = Duration::msec(900);
        state.checkpoint_payload = Bytes::of(1024 * 1024);
        fn.states.push_back(state);
      }
      fn.finalize = Duration::msec(200);
      job.functions.push_back(std::move(fn));
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

ScenarioConfig partition_config(std::size_t nodes) {
  ScenarioConfig config;
  config.seed = 20260808;
  config.cluster_nodes = nodes;
  config.error_rate = 0.0;  // faults come from the partition surface alone
  config.strategy = recovery::StrategyConfig::canary_full();
  config.detection.enabled = true;
  config.detection.heartbeat_interval = Duration::msec(250);
  config.detection.timeout_multiplier = 2.0;
  config.detection.confirm_multiplier = 1.0;
  config.detection.sweep_interval = Duration::msec(100);
  config.detection.horizon = Duration::sec(600.0);
  config.kv.mode = kv::CacheMode::kPartitioned;
  config.kv.backups = 1;
  return config;
}

TEST(PartitionScenarioTest, ZoneCutFencesZombiesWithoutSplitBrain) {
  // A 12-node / 3-zone cluster loses zone 2 behind a 5 s bipartition:
  // the majority confirms the cut-off workers dead and redeploys, the
  // minority zombies finish executing, and every zombie commit bounces
  // off the store's epoch gate.
  auto config = partition_config(12);
  ScenarioConfig::PartitionFault window;
  window.at = Duration::sec(1.0);
  window.duration = Duration::sec(5.0);
  window.zone = 2;
  config.partitions.push_back(window);

  const auto result = ScenarioRunner::run(config, partition_jobs());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.metrics.counter("injected_partitions"), 1.0);
  EXPECT_EQ(result.metrics.counter("injected_partition_heals"), 1.0);
  EXPECT_EQ(result.partitions_active_end, 0u);
  EXPECT_GT(result.metrics.counter("heartbeats_partition_dropped"), 0.0);
  EXPECT_GE(result.metrics.counter("workers_confirmed_dead"), 1.0);
  EXPECT_GE(result.metrics.counter("nodes_fenced_logical"), 1.0);

  const double attempts = result.metrics.counter("zombie_commit_attempts");
  const double rejected = result.metrics.counter("zombie_commits_rejected");
  EXPECT_GT(attempts, 0.0);
  EXPECT_EQ(result.metrics.counter("zombie_commits_committed"), 0.0);
  EXPECT_EQ(attempts, rejected);
  EXPECT_GT(result.kv_stale_epoch_rejects, 0u);

  // Heal convergence: the controller's liveness view matches the cluster
  // once the window heals, and no function ran twice.
  EXPECT_TRUE(result.metadata_views_consistent);
  EXPECT_EQ(result.undetected_failures, 0u);
  expect_exactly_once(result);
}

TEST(PartitionScenarioTest, ZoneOutageIsOneCausalEventAndSkipsDeadNodes) {
  // Satellite regression for the correlated-kill double-death guard: a
  // second outage of an already-dead zone counts every member as a
  // skipped kill, never as a second death (so KV entries cannot be
  // double-dropped), and each outage is exactly ONE causal root event.
  auto config = partition_config(8);  // zones {0, 1}, four nodes each
  config.zone_outages.push_back({Duration::sec(1.0), 0});
  config.zone_outages.push_back({Duration::sec(2.5), 0});

  const auto result = ScenarioRunner::run(config, partition_jobs());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.metrics.counter("injected_zone_outages"), 2.0);
  EXPECT_EQ(result.metrics.counter("injected_node_kills"), 4.0);
  EXPECT_EQ(result.metrics.counter("injected_skipped_node_kills"), 4.0);

  ASSERT_NE(result.events, nullptr);
  std::size_t outage_roots = 0;
  for (const obs::Event& event : result.events->events()) {
    if (event.kind == obs::EventKind::kAnnotation &&
        event.name == "injected_zone_outage") {
      ++outage_roots;
    }
  }
  EXPECT_EQ(outage_roots, 2u);
  expect_exactly_once(result);
}

TEST(PartitionScenarioTest, EveryInjectedFaultKindIsCountedOnce) {
  // One run fires every injector fault kind, and each registry counter
  // must equal a count known by construction and, where the injector
  // annotates the causal log, the number of annotations.
  auto config = partition_config(12);  // zones {0, 1, 2}, four nodes each
  const NodeId quiet{5};               // zone 1
  // Beats go out every 250 ms from t=0. A 50 ms delay window over
  // [0.2 s, 0.7 s) catches the beats sent at 0.25 s and 0.5 s from all 12
  // live workers; a certain-drop window on one worker catches its 1.0 s
  // beat.
  config.heartbeat_faults.push_back({Duration::msec(200), Duration::msec(500),
                                     Duration::msec(50), 0.0, std::nullopt});
  config.heartbeat_faults.push_back({Duration::msec(900), Duration::msec(200),
                                     Duration::zero(), 1.0, quiet});
  config.gray_failures.push_back({Duration::msec(500), Duration::sec(1.0),
                                  2.0, std::nullopt});
  config.gray_failures.push_back({Duration::msec(800), Duration::sec(1.0),
                                  2.0, std::nullopt});
  config.store_faults.push_back({Duration::sec(3.0), 2, 1});
  config.zone_outages.push_back({Duration::sec(4.0), 0});
  config.zone_outages.push_back({Duration::sec(4.5), 0});  // all skipped
  config.node_failure_offsets.push_back(Duration::sec(5.0));
  ScenarioConfig::PartitionFault cut;
  cut.at = Duration::sec(6.0);
  cut.duration = Duration::sec(1.0);
  cut.zone = 2;
  config.partitions.push_back(cut);
  ScenarioConfig::PartitionFault one_way;
  one_way.at = Duration::sec(8.0);
  one_way.duration = Duration::msec(500);
  one_way.from = {quiet};
  for (std::uint64_t n = 1; n <= 12; ++n) {
    if (NodeId{n} != quiet) one_way.to.push_back(NodeId{n});
  }
  config.partitions.push_back(one_way);

  sim::Simulator simulator;
  const std::vector<faas::JobSpec> jobs = partition_jobs();
  internal::ScenarioInstance instance(simulator, config, jobs,
                                      /*install_log_hooks=*/false);
  // Before the first node dies, every lost KV entry is a store-fault drop.
  simulator.run_until(TimePoint::origin() + Duration::msec(3900));
  const std::uint64_t store_drops = instance.store.stats().entries_lost;
  simulator.run();
  const std::uint64_t store_corruptions =
      instance.store.stats().entries_corrupted;
  const RunResult result = instance.collect();
  ASSERT_TRUE(result.completed);

  std::map<std::string, double> annotations;
  for (const obs::Event& event : result.events->events()) {
    if (event.kind == obs::EventKind::kAnnotation) annotations[event.name] += 1;
  }
  const obs::MetricRegistry& m = result.metrics;
  EXPECT_EQ(m.counter("heartbeats_delayed"), 24.0);
  EXPECT_EQ(m.counter("heartbeats_dropped"), 1.0);
  EXPECT_EQ(m.counter("injected_gray_windows"), 2.0);
  EXPECT_EQ(m.counter("injected_gray_windows"),
            annotations["injected_gray_start"]);
  EXPECT_EQ(m.counter("injected_store_drops"), 2.0);
  EXPECT_EQ(m.counter("injected_store_drops"),
            static_cast<double>(store_drops));
  EXPECT_EQ(m.counter("injected_store_corruptions"), 1.0);
  EXPECT_EQ(m.counter("injected_store_corruptions"),
            static_cast<double>(store_corruptions));
  EXPECT_EQ(m.counter("injected_zone_outages"), 2.0);
  EXPECT_EQ(m.counter("injected_zone_outages"),
            annotations["injected_zone_outage"]);
  EXPECT_EQ(m.counter("injected_node_kills"), 5.0);  // zone 0 + one more
  EXPECT_EQ(m.counter("injected_node_kills"),
            annotations["injected_zone_outage_kill"] +
                annotations["injected_node_failure"]);
  EXPECT_EQ(m.counter("injected_skipped_node_kills"), 4.0);
  EXPECT_EQ(m.counter("injected_partitions"), 2.0);
  EXPECT_EQ(m.counter("injected_partitions"), annotations["partition_start"]);
  EXPECT_EQ(m.counter("injected_partition_heals"), 2.0);
  EXPECT_EQ(m.counter("injected_partition_heals"),
            annotations["partition_heal"]);
  expect_exactly_once(result);
}

TEST(PartitionScenarioTest, SurfaceOffLeavesCountersUntouched) {
  // The v3 surface is opt-in: with no partition faults configured none
  // of the new counters move (the byte-identity gate in CI depends on
  // this staying true).
  auto config = partition_config(8);
  const auto result = ScenarioRunner::run(config, partition_jobs(1));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.metrics.counter("injected_partitions"), 0.0);
  EXPECT_EQ(result.metrics.counter("injected_partition_heals"), 0.0);
  EXPECT_EQ(result.metrics.counter("injected_zone_outages"), 0.0);
  EXPECT_EQ(result.metrics.counter("heartbeats_partition_dropped"), 0.0);
  EXPECT_EQ(result.kv_stale_epoch_rejects, 0u);
  EXPECT_EQ(result.kv_quorum_blocked_puts, 0u);
  EXPECT_EQ(result.metrics.counters().count("zombie_commit_attempts"), 0u);
  EXPECT_EQ(result.metrics.counters().count("nodes_fenced_logical"), 0u);
  EXPECT_TRUE(result.metadata_views_consistent);
}

TEST(PartitionChaosSweepTest, MiniSweepHoldsAllInvariants) {
  // A handful of partition-family scenarios inline in the unit suite; the
  // 64-seed subset lives in bench/chaos_campaign. Both new oracles (no
  // split brain, heal convergence) run inside chaos_oracles.
  std::uint64_t partitions_started = 0;
  for (std::uint64_t seed = 10001; seed < 10005; ++seed) {
    const ChaosOutcome outcome = run_partition_chaos_scenario(seed);
    EXPECT_TRUE(outcome.violations.empty())
        << "seed " << seed << ": " << outcome.violations.front();
    EXPECT_TRUE(outcome.completed) << "seed " << seed;
    EXPECT_EQ(outcome.counter("injected_partitions"),
              outcome.counter("injected_partition_heals"))
        << "seed " << seed;
    partitions_started +=
        static_cast<std::uint64_t>(outcome.counter("injected_partitions"));
  }
  // The family always injects at least one window per seed.
  EXPECT_GE(partitions_started, 4u);
}

}  // namespace
}  // namespace canary::harness
