#include "canary/metadata.hpp"

#include <algorithm>
#include <iterator>

#include "common/result.hpp"

namespace canary::core {

void MetadataStore::upsert_worker(WorkerInfoRow row) {
  workers_[row.node] = std::move(row);
}

const WorkerInfoRow* MetadataStore::worker(NodeId node) const {
  auto it = workers_.find(node);
  return it == workers_.end() ? nullptr : &it->second;
}

void MetadataStore::insert_job(JobInfoRow row) {
  CANARY_CHECK(jobs_.find(row.job) == jobs_.end(), "duplicate job row");
  jobs_.emplace(row.job, std::move(row));
}

const JobInfoRow* MetadataStore::job(JobId id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

JobInfoRow* MetadataStore::mutable_job(JobId id) {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

void MetadataStore::insert_function(FunctionInfoRow row) {
  CANARY_CHECK(functions_.find(row.function) == functions_.end(),
               "duplicate function row");
  functions_.emplace(row.function, std::move(row));
}

FunctionInfoRow* MetadataStore::mutable_function(FunctionId id) {
  auto it = functions_.find(id);
  return it == functions_.end() ? nullptr : &it->second;
}

const FunctionInfoRow* MetadataStore::function(FunctionId id) const {
  auto it = functions_.find(id);
  return it == functions_.end() ? nullptr : &it->second;
}

std::vector<const FunctionInfoRow*> MetadataStore::functions_of_job(
    JobId id) const {
  std::vector<const FunctionInfoRow*> rows;
  for (const auto& [fid, row] : functions_) {
    if (row.job == id) rows.push_back(&row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const FunctionInfoRow* a, const FunctionInfoRow* b) {
              return a->function < b->function;
            });
  return rows;
}

void MetadataStore::insert_checkpoint(CheckpointInfoRow row) {
  auto& rows = checkpoints_by_fn_[row.function].rows;
  // Commits arrive in state order, so this is nearly always the end.
  auto pos = rows.end();
  while (pos != rows.begin() &&
         std::prev(pos)->state_index > row.state_index) {
    --pos;
  }
  rows.insert(pos, std::move(row));
}

void MetadataStore::remove_checkpoint(FunctionId fn, CheckpointId id) {
  auto it = checkpoints_by_fn_.find(fn);
  if (it == checkpoints_by_fn_.end()) return;
  auto& rows = it->second.rows;
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [id](const CheckpointInfoRow& row) {
                              return row.checkpoint == id;
                            }),
             rows.end());
}

CheckpointInfoRow* MetadataStore::mutable_checkpoint(FunctionId fn,
                                                     CheckpointId id) {
  auto it = checkpoints_by_fn_.find(fn);
  if (it == checkpoints_by_fn_.end()) return nullptr;
  for (CheckpointInfoRow& row : it->second.rows) {
    if (row.checkpoint == id) return &row;
  }
  return nullptr;
}

const std::vector<CheckpointInfoRow>& MetadataStore::checkpoints_of(
    FunctionId fn) const {
  static const std::vector<CheckpointInfoRow> kNone;
  auto it = checkpoints_by_fn_.find(fn);
  return it == checkpoints_by_fn_.end() ? kNone : it->second.rows;
}

std::size_t MetadataStore::checkpoint_count(FunctionId fn) const {
  return checkpoints_of(fn).size();
}

unsigned& MetadataStore::checkpoint_retention(FunctionId fn) {
  return checkpoints_by_fn_[fn].retention;
}

void MetadataStore::remove_checkpoints_of(FunctionId fn) {
  checkpoints_by_fn_.erase(fn);
}

void MetadataStore::insert_replica(ReplicationInfoRow row) {
  const ReplicaId id = row.replica;
  auto [it, inserted] = replicas_.emplace(id, std::move(row));
  CANARY_CHECK(inserted, "duplicate replica row");
  ReplicationInfoRow* stored = &it->second;
  replica_by_container_[stored->container] = stored;
  auto& live = live_replicas_[stored->runtime];
  // Ids are issued in increasing order, so this is nearly always the end.
  auto pos = live.end();
  while (pos != live.begin() && (*std::prev(pos))->replica > id) --pos;
  live.insert(pos, stored);
}

ReplicationInfoRow* MetadataStore::mutable_replica(ReplicaId id) {
  auto it = replicas_.find(id);
  return it == replicas_.end() ? nullptr : &it->second;
}

ReplicationInfoRow* MetadataStore::replica_by_container(ContainerId id) {
  auto it = replica_by_container_.find(id);
  if (it == replica_by_container_.end()) return nullptr;
  return it->second->status == ReplicaStatus::kDead ? nullptr : it->second;
}

const std::vector<ReplicationInfoRow*>& MetadataStore::live_replicas_of(
    faas::RuntimeImage image) {
  auto& live = live_replicas_[image];
  live.erase(std::remove_if(live.begin(), live.end(),
                            [](const ReplicationInfoRow* row) {
                              return row->status == ReplicaStatus::kConsumed ||
                                     row->status == ReplicaStatus::kDead;
                            }),
             live.end());
  return live;
}

}  // namespace canary::core
