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
  const CheckpointId id = row.checkpoint;
  const FunctionId fn = row.function;
  auto [it, inserted] = checkpoints_.emplace(id, std::move(row));
  CANARY_CHECK(inserted, "duplicate checkpoint row");
  const CheckpointInfoRow* stored = &it->second;
  auto& rows = checkpoints_by_fn_[fn].rows;
  // Commits arrive in state order, so this is nearly always the end.
  auto pos = rows.end();
  while (pos != rows.begin() &&
         (*std::prev(pos))->state_index > stored->state_index) {
    --pos;
  }
  rows.insert(pos, stored);
}

void MetadataStore::erase_checkpoint_row(FunctionCheckpoints& per_fn,
                                         std::size_t pos) {
  const CheckpointId id = per_fn.rows[pos]->checkpoint;
  per_fn.rows.erase(per_fn.rows.begin() + static_cast<std::ptrdiff_t>(pos));
  checkpoints_.erase(id);
}

void MetadataStore::remove_checkpoint(CheckpointId id) {
  auto it = checkpoints_.find(id);
  if (it == checkpoints_.end()) return;
  auto& per_fn = checkpoints_by_fn_[it->second.function];
  const auto pos =
      std::find(per_fn.rows.begin(), per_fn.rows.end(), &it->second);
  erase_checkpoint_row(per_fn,
                       static_cast<std::size_t>(pos - per_fn.rows.begin()));
}

CheckpointInfoRow* MetadataStore::mutable_checkpoint(CheckpointId id) {
  auto it = checkpoints_.find(id);
  return it == checkpoints_.end() ? nullptr : &it->second;
}

const std::vector<const CheckpointInfoRow*>& MetadataStore::checkpoints_of(
    FunctionId fn) const {
  static const std::vector<const CheckpointInfoRow*> kNone;
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
  auto it = checkpoints_by_fn_.find(fn);
  if (it == checkpoints_by_fn_.end()) return;
  for (const CheckpointInfoRow* row : it->second.rows) {
    checkpoints_.erase(row->checkpoint);
  }
  checkpoints_by_fn_.erase(it);
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
