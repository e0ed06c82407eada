#include "kvstore/kvstore.hpp"

#include <algorithm>

namespace canary::kv {

std::uint64_t kv_checksum(std::string_view payload) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

KvStore::KvStore(KvConfig config, std::vector<NodeId> cache_nodes)
    : config_(config), cache_nodes_(std::move(cache_nodes)) {
  CANARY_CHECK(!cache_nodes_.empty(), "KV store needs at least one cache node");
}

void KvStore::choose_owners(const std::string& key,
                            std::vector<NodeId>& owners) const {
  if (config_.mode == CacheMode::kReplicated) {
    owners.assign(cache_nodes_.begin(), cache_nodes_.end());
    return;
  }
  owners.clear();
  if (cache_nodes_.empty()) return;
  const std::size_t copies =
      std::min<std::size_t>(1 + config_.backups, cache_nodes_.size());
  const std::size_t start = std::hash<std::string>{}(key) % cache_nodes_.size();
  if (config_.spread_fault_domains && zone_of_ && copies > 1) {
    // Primary at the hash slot as before; each backup walks forward and
    // takes the first node in a zone no copy occupies yet, falling back
    // to the plain consecutive choice when every remaining node shares a
    // zone with an existing copy. Deterministic in (key, membership).
    owners.push_back(cache_nodes_[start]);
    std::vector<std::uint32_t> used_zones{zone_of_(owners.front())};
    std::size_t cursor = 1;
    while (owners.size() < copies) {
      NodeId pick = NodeId::invalid();
      for (std::size_t i = cursor; i < cache_nodes_.size(); ++i) {
        const NodeId cand = cache_nodes_[(start + i) % cache_nodes_.size()];
        if (std::find(owners.begin(), owners.end(), cand) != owners.end()) {
          continue;
        }
        if (std::find(used_zones.begin(), used_zones.end(),
                      zone_of_(cand)) == used_zones.end()) {
          pick = cand;
          break;
        }
      }
      if (!pick.valid()) {
        for (std::size_t i = cursor; i < cache_nodes_.size(); ++i) {
          const NodeId cand = cache_nodes_[(start + i) % cache_nodes_.size()];
          if (std::find(owners.begin(), owners.end(), cand) == owners.end()) {
            pick = cand;
            break;
          }
        }
      }
      if (!pick.valid()) break;
      used_zones.push_back(zone_of_(pick));
      owners.push_back(pick);
      ++cursor;
    }
    return;
  }
  for (std::size_t i = 0; i < copies; ++i) {
    owners.push_back(cache_nodes_[(start + i) % cache_nodes_.size()]);
  }
}

Status KvStore::put(const std::string& key, std::string_view payload,
                    std::optional<Bytes> logical_size) {
  const Bytes size = logical_size.value_or(Bytes::of(payload.size()));
  if (size > config_.max_entry_size) {
    ++stats_.rejected_oversize;
    return Error::resource_exhausted(
        "entry exceeds per-key limit; spill to a storage tier");
  }
  if (cache_nodes_.empty() && !config_.native_persistence) {
    return Error::unavailable("no cache node alive");
  }
  auto it = map_.find(key);
  if (it == map_.end()) {
    if (free_nodes_.empty()) {
      it = map_.emplace(key, KvEntry{}).first;
    } else {
      // A recycled node keeps its key and buffer capacity; its entry
      // starts over as a new key would.
      Map::node_type node = std::move(free_nodes_.back());
      free_nodes_.pop_back();
      node.key() = key;
      node.mapped().version = 0;
      it = map_.insert(std::move(node)).position;
    }
  }
  KvEntry& entry = it->second;
  entry.payload.assign(payload);
  entry.logical_size = size;
  ++entry.version;
  entry.checksum = kv_checksum(entry.payload);
  choose_owners(key, entry.owners);
  ++stats_.puts;
  return Status::ok_status();
}

Status KvStore::put(const std::string& key, std::string_view payload,
                    std::optional<Bytes> logical_size, NodeId writer) {
  if (writer.valid()) {
    // The epoch gate first: a fenced writer stays rejected even after the
    // partition heals and it regains quorum — its epoch is stale forever.
    if (node_fenced(writer)) {
      ++stats_.stale_epoch_rejects;
      return Error::unavailable("stale epoch: writer was fenced");
    }
    if (writer_quorum_ && !writer_quorum_(writer)) {
      ++stats_.quorum_blocked_puts;
      return Error::unavailable("writer cannot reach the KV quorum");
    }
  }
  return put(key, payload, logical_size);
}

void KvStore::recycle(Map::iterator it) {
  free_nodes_.push_back(map_.extract(it));
}

Result<KvEntry> KvStore::get(const std::string& key) const {
  ++stats_.gets;
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return Error::not_found("key not present: " + key);
  }
  ++stats_.hits;
  return it->second;
}

bool KvStore::contains(const std::string& key) const {
  return map_.find(key) != map_.end();
}

bool KvStore::intact(const std::string& key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  return it->second.checksum == kv_checksum(it->second.payload);
}

bool KvStore::corrupt_entry(const std::string& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  // Flip a payload byte (or plant a poison byte into an empty payload)
  // so the stored checksum no longer matches.
  std::string& payload = it->second.payload;
  if (payload.empty()) {
    payload.push_back('\x5a');
  } else {
    payload[0] = static_cast<char>(payload[0] ^ '\x5a');
  }
  ++stats_.entries_corrupted;
  return true;
}

bool KvStore::drop_entry(const std::string& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  recycle(it);
  ++stats_.entries_lost;
  return true;
}

Status KvStore::remove(const std::string& key) {
  ++stats_.removes;
  const auto it = map_.find(key);
  if (it == map_.end()) return Error::not_found("key not present: " + key);
  recycle(it);
  return Status::ok_status();
}

std::vector<std::string> KvStore::keys_with_prefix(
    const std::string& prefix) const {
  std::vector<std::string> keys;
  for (const auto& [key, entry] : map_) {
    if (key.rfind(prefix, 0) == 0) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::size_t KvStore::size() const { return map_.size(); }

Bytes KvStore::logical_bytes() const {
  Bytes total = Bytes::zero();
  for (const auto& [key, entry] : map_) total += entry.logical_size;
  return total;
}

KvStats KvStore::stats() const { return stats_; }

void KvStore::fail_node(NodeId node) {
  auto dead = std::find(cache_nodes_.begin(), cache_nodes_.end(), node);
  if (dead == cache_nodes_.end()) return;
  cache_nodes_.erase(dead);
  dead_nodes_.push_back(node);
  for (auto it = map_.begin(); it != map_.end();) {
    auto& owners = it->second.owners;
    owners.erase(std::remove(owners.begin(), owners.end(), node),
                 owners.end());
    if (owners.empty() && !config_.native_persistence) {
      const auto lost = it++;
      recycle(lost);
      ++stats_.entries_lost;
    } else {
      ++it;
    }
  }
}

void KvStore::restore_node(NodeId node) {
  fenced_nodes_.erase(
      std::remove(fenced_nodes_.begin(), fenced_nodes_.end(), node),
      fenced_nodes_.end());
  auto it = std::find(dead_nodes_.begin(), dead_nodes_.end(), node);
  if (it == dead_nodes_.end()) return;
  dead_nodes_.erase(it);
  cache_nodes_.push_back(node);
}

void KvStore::fence_node(NodeId node) {
  if (std::find(fenced_nodes_.begin(), fenced_nodes_.end(), node) ==
      fenced_nodes_.end()) {
    fenced_nodes_.push_back(node);
  }
}

bool KvStore::node_fenced(NodeId node) const {
  return std::find(fenced_nodes_.begin(), fenced_nodes_.end(), node) !=
         fenced_nodes_.end();
}

}  // namespace canary::kv
