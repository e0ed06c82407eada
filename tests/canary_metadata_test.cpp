// Unit tests for the Core Module's five database tables (paper §IV-C1).
#include <gtest/gtest.h>

#include <vector>

#include "canary/metadata.hpp"

namespace canary::core {
namespace {

TEST(MetadataWorkerTest, UpsertAndLookup) {
  MetadataStore db;
  WorkerInfoRow row;
  row.node = NodeId{3};
  row.rack = 1;
  db.upsert_worker(row);
  ASSERT_NE(db.worker(NodeId{3}), nullptr);
  EXPECT_EQ(db.worker(NodeId{3})->rack, 1u);
  EXPECT_EQ(db.worker(NodeId{9}), nullptr);

  row.alive = false;
  db.upsert_worker(row);
  EXPECT_FALSE(db.worker(NodeId{3})->alive);
  EXPECT_EQ(db.worker_count(), 1u);
}

TEST(MetadataJobTest, InsertAndMutate) {
  MetadataStore db;
  JobInfoRow row;
  row.job = JobId{1};
  row.name = "j";
  row.function_count = 4;
  db.insert_job(row);
  ASSERT_NE(db.job(JobId{1}), nullptr);
  EXPECT_EQ(db.job(JobId{1})->function_count, 4u);
  db.mutable_job(JobId{1})->replication_factor = 3;
  EXPECT_EQ(db.job(JobId{1})->replication_factor, 3u);
  EXPECT_EQ(db.job(JobId{2}), nullptr);
}

TEST(MetadataJobDeathTest, DuplicateJobAborts) {
  MetadataStore db;
  JobInfoRow row;
  row.job = JobId{1};
  db.insert_job(row);
  EXPECT_DEATH(db.insert_job(row), "duplicate job row");
}

TEST(MetadataFunctionTest, InsertLookupByJob) {
  MetadataStore db;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    FunctionInfoRow row;
    row.function = FunctionId{i};
    row.job = JobId{i == 3 ? 2u : 1u};
    db.insert_function(row);
  }
  const auto of_job1 = db.functions_of_job(JobId{1});
  ASSERT_EQ(of_job1.size(), 2u);
  EXPECT_EQ(of_job1[0]->function, FunctionId{1});
  EXPECT_EQ(of_job1[1]->function, FunctionId{2});
  db.mutable_function(FunctionId{1})->attempts = 2;
  EXPECT_EQ(db.function(FunctionId{1})->attempts, 2);
}

TEST(MetadataCheckpointTest, OrderedByStateIndex) {
  MetadataStore db;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    CheckpointInfoRow row;
    row.checkpoint = CheckpointId{i};
    row.function = FunctionId{7};
    row.state_index = 3 - i;  // insert newest-first
    db.insert_checkpoint(row);
  }
  const auto rows = db.checkpoints_of(FunctionId{7});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.front().state_index, 0u);
  EXPECT_EQ(rows.back().state_index, 2u);
  EXPECT_EQ(db.checkpoint_count(FunctionId{7}), 3u);
}

TEST(MetadataCheckpointTest, RemoveSingleAndAll) {
  MetadataStore db;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    CheckpointInfoRow row;
    row.checkpoint = CheckpointId{i};
    row.function = FunctionId{7};
    row.state_index = i;
    db.insert_checkpoint(row);
  }
  db.remove_checkpoint(FunctionId{7}, CheckpointId{2});
  EXPECT_EQ(db.checkpoint_count(FunctionId{7}), 2u);
  EXPECT_EQ(db.mutable_checkpoint(FunctionId{7}, CheckpointId{2}), nullptr);
  db.remove_checkpoints_of(FunctionId{7});
  EXPECT_EQ(db.checkpoint_count(FunctionId{7}), 0u);
  EXPECT_TRUE(db.checkpoints_of(FunctionId{7}).empty());
  // Unknown ids and functions are no-ops.
  db.remove_checkpoint(FunctionId{7}, CheckpointId{99});
  db.remove_checkpoint(FunctionId{8}, CheckpointId{1});
}

TEST(MetadataCheckpointTest, RecommitAfterRestoreKeepsStateOrderAndTrims) {
  MetadataStore db;
  const FunctionId fn{7};
  std::uint64_t next_id = 1;
  std::vector<std::size_t> evicted;
  auto commit = [&](std::size_t state, unsigned retention) {
    CheckpointInfoRow row;
    row.checkpoint = CheckpointId{next_id++};
    row.function = fn;
    row.state_index = state;
    db.commit_checkpoint(row, retention, [&](const CheckpointInfoRow& old) {
      evicted.push_back(old.state_index);
    });
  };
  auto states = [&] {
    std::vector<std::size_t> out;
    for (const auto& row : db.checkpoints_of(fn)) {
      out.push_back(row.state_index);
    }
    return out;
  };
  auto ids = [&] {
    std::vector<CheckpointId> out;
    for (const auto& row : db.checkpoints_of(fn)) {
      out.push_back(row.checkpoint);
    }
    return out;
  };
  for (std::size_t state = 2; state <= 4; ++state) commit(state, 4);

  // A restored function re-executes state 3: its new row (id 4) replaces
  // id 2 in place, and a replaced row is not an eviction.
  commit(3, 4);
  EXPECT_EQ(states(), (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(ids(), (std::vector<CheckpointId>{CheckpointId{1}, CheckpointId{4},
                                              CheckpointId{3}}));
  EXPECT_EQ(db.mutable_checkpoint(fn, CheckpointId{2}), nullptr);
  EXPECT_TRUE(evicted.empty());

  // Recommitting an earlier state lands at its state position.
  commit(1, 4);
  EXPECT_EQ(states(), (std::vector<std::size_t>{1, 2, 3, 4}));
  // Over the bound, the trim drops the oldest state: here the new row.
  commit(0, 4);
  EXPECT_EQ(evicted, (std::vector<std::size_t>{0}));
  EXPECT_EQ(states(), (std::vector<std::size_t>{1, 2, 3, 4}));
  EXPECT_EQ(db.mutable_checkpoint(fn, CheckpointId{6}), nullptr);
  commit(5, 3);
  EXPECT_EQ(evicted, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(states(), (std::vector<std::size_t>{3, 4, 5}));
  EXPECT_EQ(ids(), (std::vector<CheckpointId>{CheckpointId{4}, CheckpointId{3},
                                              CheckpointId{7}}));
  EXPECT_EQ(db.checkpoint_count(fn), 3u);
}

TEST(MetadataCheckpointTest, RetentionIsFreedWithTheFunctionsRows) {
  MetadataStore db;
  const FunctionId fn{7};
  EXPECT_EQ(db.checkpoint_retention(fn), 0u);  // unset until stored
  db.checkpoint_retention(fn) = 4;
  CheckpointInfoRow row;
  row.checkpoint = CheckpointId{1};
  row.function = fn;
  db.insert_checkpoint(row);
  EXPECT_EQ(db.checkpoint_retention(fn), 4u);
  db.remove_checkpoint(fn, CheckpointId{1});
  EXPECT_EQ(db.checkpoint_retention(fn), 4u);  // still the same function
  db.remove_checkpoints_of(fn);
  EXPECT_EQ(db.checkpoint_retention(fn), 0u);
}

TEST(MetadataReplicaTest, InsertAndQueryByImage) {
  MetadataStore db;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ReplicationInfoRow row;
    row.replica = ReplicaId{i};
    row.runtime =
        i == 3 ? faas::RuntimeImage::kJava8 : faas::RuntimeImage::kPython3;
    row.container = ContainerId{i * 10};
    db.insert_replica(row);
  }
  EXPECT_EQ(db.live_replicas_of(faas::RuntimeImage::kPython3).size(), 2u);
  EXPECT_EQ(db.live_replicas_of(faas::RuntimeImage::kJava8).size(), 1u);
  EXPECT_TRUE(db.live_replicas_of(faas::RuntimeImage::kNodeJs14).empty());
}

TEST(MetadataReplicaTest, LookupByContainerSkipsDead) {
  MetadataStore db;
  ReplicationInfoRow row;
  row.replica = ReplicaId{1};
  row.container = ContainerId{5};
  db.insert_replica(row);
  ASSERT_NE(db.replica_by_container(ContainerId{5}), nullptr);
  db.mutable_replica(ReplicaId{1})->status = ReplicaStatus::kDead;
  EXPECT_EQ(db.replica_by_container(ContainerId{5}), nullptr);
  EXPECT_EQ(db.replica_by_container(ContainerId{99}), nullptr);
}

TEST(MetadataReplicaTest, TerminalRowsLeaveTheLiveListInIdOrder) {
  MetadataStore db;
  for (const std::uint64_t id : {3u, 1u, 5u, 2u, 4u}) {  // out of id order
    ReplicationInfoRow row;
    row.replica = ReplicaId{id};
    row.container = ContainerId{id * 10};
    db.insert_replica(row);
  }
  auto live_ids = [&] {
    std::vector<ReplicaId> out;
    for (const auto* row : db.live_replicas_of(faas::RuntimeImage::kPython3)) {
      out.push_back(row->replica);
    }
    return out;
  };
  EXPECT_EQ(live_ids(), (std::vector<ReplicaId>{ReplicaId{1}, ReplicaId{2},
                                                ReplicaId{3}, ReplicaId{4},
                                                ReplicaId{5}}));
  db.mutable_replica(ReplicaId{1})->status = ReplicaStatus::kActive;
  db.mutable_replica(ReplicaId{2})->status = ReplicaStatus::kDead;
  db.mutable_replica(ReplicaId{4})->status = ReplicaStatus::kConsumed;
  EXPECT_EQ(live_ids(), (std::vector<ReplicaId>{ReplicaId{1}, ReplicaId{3},
                                                ReplicaId{5}}));

  // The container index hides dead rows only: a consumed replica's
  // container now runs the recovering function and is still looked up.
  EXPECT_EQ(db.replica_by_container(ContainerId{20}), nullptr);
  ASSERT_NE(db.replica_by_container(ContainerId{40}), nullptr);
  EXPECT_EQ(db.replica_by_container(ContainerId{40})->replica, ReplicaId{4});
  EXPECT_EQ(db.replica_by_container(ContainerId{10})->replica, ReplicaId{1});
  EXPECT_EQ(db.replica_by_container(ContainerId{60}), nullptr);
}

}  // namespace
}  // namespace canary::core
