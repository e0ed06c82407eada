// The Core Module's database tables (paper §IV-C1).
//
// "The five main tables created in the database are worker_info, job_info,
// function_info, checkpoint_info, and replication_info." The paper keeps
// them in CouchDB; here they are typed in-memory tables with the same
// schema and the lookups the Core Module performs during recovery
// (failed function -> runtime -> replica -> latest checkpoint).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/storage.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "faas/runtime.hpp"

namespace canary::core {

struct WorkerInfoRow {
  NodeId node;
  cluster::CpuClass cpu = cluster::CpuClass::kXeonGold6242;
  Bytes memory = Bytes::zero();
  std::uint32_t container_slots = 0;
  std::uint32_t rack = 0;
  /// Fault domain (availability zone) the worker lives in; recovery and
  /// replica placement spread copies across zones when configured.
  std::uint32_t zone = 0;
  bool alive = true;
  std::string role = "invoker";
  /// Heartbeat lease state published by the failure detector (§IV-C1:
  /// the Core Module monitors worker_info heartbeats). last_heartbeat is
  /// the worker-side send time of the latest delivered heartbeat;
  /// suspicion is the phi-style level (missed intervals) at the last
  /// detector sweep.
  TimePoint last_heartbeat = TimePoint::origin();
  double suspicion = 0.0;
  bool suspected = false;
};

struct JobInfoRow {
  JobId job;
  std::string name;
  AccountId account;
  std::size_t function_count = 0;
  TimePoint submitted;
  unsigned checkpoint_retention = 3;
  unsigned replication_factor = 1;
};

struct FunctionInfoRow {
  FunctionId function;
  JobId job;
  faas::RuntimeImage runtime = faas::RuntimeImage::kPython3;
  NodeId worker;         // current/last hosting worker
  ContainerId container; // current/last container
  int attempts = 0;
  bool completed = false;
};

struct CheckpointInfoRow {
  CheckpointId checkpoint;
  JobId job;
  FunctionId function;
  std::size_t state_index = 0;  // index of the committed state
  Bytes payload = Bytes::zero();
  cluster::StorageTier location = cluster::StorageTier::kKvStore;
  NodeId stored_on;  // hosting node for node-local tiers
  bool flushed_to_shared = false;
  std::string kv_key;
  TimePoint created;
};

enum class ReplicaStatus { kLaunching, kActive, kConsumed, kDead };

struct ReplicationInfoRow {
  ReplicaId replica;
  faas::RuntimeImage runtime = faas::RuntimeImage::kPython3;
  NodeId worker;
  ContainerId container;
  ReplicaStatus status = ReplicaStatus::kLaunching;
  TimePoint created;
};

class MetadataStore {
 public:
  // -- worker_info -------------------------------------------------------
  void upsert_worker(WorkerInfoRow row);
  const WorkerInfoRow* worker(NodeId node) const;
  std::size_t worker_count() const { return workers_.size(); }

  // -- job_info ----------------------------------------------------------
  void insert_job(JobInfoRow row);
  const JobInfoRow* job(JobId id) const;
  JobInfoRow* mutable_job(JobId id);

  // -- function_info -----------------------------------------------------
  void insert_function(FunctionInfoRow row);
  FunctionInfoRow* mutable_function(FunctionId id);
  const FunctionInfoRow* function(FunctionId id) const;
  std::vector<const FunctionInfoRow*> functions_of_job(JobId id) const;

  // -- checkpoint_info ---------------------------------------------------
  // Each function keeps its rows by value, oldest state first. Retention
  // bounds a function to a handful of rows, so lookups by checkpoint id
  // scan that function's rows, and a commit in steady state reuses the
  // row vector's storage.

  /// Insert `row` at its state-index position (after equal indices).
  void insert_checkpoint(CheckpointInfoRow row);
  /// Algorithm 1's commit: replace the function's row of the same state
  /// in place (a recommit after a restore) or insert `row`, then drop the
  /// oldest rows by state index until at most `retention` remain — the
  /// new row too, if it is the oldest. `evicted` sees each dropped row
  /// just before it is erased; the replaced row is not passed to it.
  template <typename Evicted>
  void commit_checkpoint(CheckpointInfoRow row, unsigned retention,
                         Evicted&& evicted);
  void remove_checkpoint(FunctionId fn, CheckpointId id);
  /// `fn`'s row `id`, or null once the row was replaced or evicted.
  CheckpointInfoRow* mutable_checkpoint(FunctionId fn, CheckpointId id);
  /// Rows for `fn`, ordered oldest-first by state index. The reference
  /// stays valid until the next write to `fn`'s checkpoints.
  const std::vector<CheckpointInfoRow>& checkpoints_of(FunctionId fn) const;
  std::size_t checkpoint_count(FunctionId fn) const;
  /// Latest-n bound stored beside `fn`'s rows (0 = not yet set), so it is
  /// computed once per function and freed by remove_checkpoints_of.
  unsigned& checkpoint_retention(FunctionId fn);
  void remove_checkpoints_of(FunctionId fn);

  // -- replication_info --------------------------------------------------
  // Replica status only moves forward: kLaunching -> kActive, and from
  // either to kConsumed or kDead, which are terminal. So each image keeps
  // a list of rows that were live when last read, in replica-id order,
  // and drops terminal rows the next time it is read.

  void insert_replica(ReplicationInfoRow row);
  ReplicationInfoRow* mutable_replica(ReplicaId id);
  /// The row owning `id`, unless that row is kDead.
  ReplicationInfoRow* replica_by_container(ContainerId id);
  /// kLaunching and kActive rows of `image`, lowest replica id first —
  /// the order every tie-break in the Runtime Manager relies on. The
  /// reference stays valid until the next replica insert or read.
  const std::vector<ReplicationInfoRow*>& live_replicas_of(
      faas::RuntimeImage image);

 private:
  struct FunctionCheckpoints {
    std::vector<CheckpointInfoRow> rows;  // oldest state first
    unsigned retention = 0;
  };

  std::unordered_map<NodeId, WorkerInfoRow> workers_;
  std::unordered_map<JobId, JobInfoRow> jobs_;
  std::unordered_map<FunctionId, FunctionInfoRow> functions_;
  std::unordered_map<FunctionId, FunctionCheckpoints> checkpoints_by_fn_;
  // Row pointers into the node-based maps stay valid until the row is
  // erased.
  std::unordered_map<ReplicaId, ReplicationInfoRow> replicas_;
  std::unordered_map<ContainerId, ReplicationInfoRow*> replica_by_container_;
  std::unordered_map<faas::RuntimeImage, std::vector<ReplicationInfoRow*>>
      live_replicas_;
};

template <typename Evicted>
void MetadataStore::commit_checkpoint(CheckpointInfoRow row,
                                      unsigned retention, Evicted&& evicted) {
  std::vector<CheckpointInfoRow>& rows = checkpoints_by_fn_[row.function].rows;
  // One allocation per function: the rows never outgrow retention + 1.
  if (rows.capacity() == 0) rows.reserve(retention + 1);
  const auto same_state =
      std::find_if(rows.begin(), rows.end(), [&row](const auto& existing) {
        return existing.state_index == row.state_index;
      });
  if (same_state != rows.end()) {
    *same_state = std::move(row);
  } else {
    insert_checkpoint(std::move(row));
  }
  while (rows.size() > retention) {
    evicted(rows.front());
    rows.erase(rows.begin());
  }
}

}  // namespace canary::core
