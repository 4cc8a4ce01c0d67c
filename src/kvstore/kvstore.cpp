#include "kvstore/kvstore.hpp"

#include <algorithm>

namespace canary::kv {

std::uint64_t kv_checksum(const std::string& payload) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

KvStore::KvStore(KvConfig config, std::vector<NodeId> cache_nodes)
    : config_(config), cache_nodes_(std::move(cache_nodes)) {
  CANARY_CHECK(config_.shard_count > 0, "shard_count must be positive");
  CANARY_CHECK(!cache_nodes_.empty(), "KV store needs at least one cache node");
  shards_.reserve(config_.shard_count);
  for (std::size_t i = 0; i < config_.shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

KvStore::Shard& KvStore::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

const KvStore::Shard& KvStore::shard_for(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::vector<NodeId> KvStore::choose_owners(const std::string& key) const {
  // Partitioned mode only; caller holds membership_mutex_ (shared or
  // exclusive).
  if (cache_nodes_.empty()) return {};
  std::vector<NodeId> owners;
  const std::size_t copies =
      std::min<std::size_t>(1 + config_.backups, cache_nodes_.size());
  const std::size_t start = std::hash<std::string>{}(key) % cache_nodes_.size();
  if (zone_of_ && copies > 1) {
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
    return owners;
  }
  for (std::size_t i = 0; i < copies; ++i) {
    owners.push_back(cache_nodes_[(start + i) % cache_nodes_.size()]);
  }
  return owners;
}

Status KvStore::put(const std::string& key, std::string payload,
                    std::optional<Bytes> logical_size) {
  const Bytes size = logical_size.value_or(Bytes::of(payload.size()));
  if (size > config_.max_entry_size) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.rejected_oversize;
    return Error::resource_exhausted(
        "entry exceeds per-key limit; spill to a storage tier");
  }
  std::vector<NodeId> owners;
  bool no_cache_node = false;
  {
    std::shared_lock<std::shared_mutex> mlock(membership_mutex_);
    if (config_.mode == CacheMode::kPartitioned) {
      owners = choose_owners(key);
      no_cache_node = owners.empty();
    } else {
      no_cache_node = cache_nodes_.empty();
    }
  }
  if (no_cache_node && !config_.native_persistence) {
    return Error::unavailable("no cache node alive");
  }
  auto& shard = shard_for(key);
  {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    auto& entry = shard.map[key];
    entry.payload = std::move(payload);
    entry.logical_size = size;
    entry.checksum = kv_checksum(entry.payload);
    entry.owners = std::move(owners);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.puts;
  }
  return Status::ok_status();
}

Status KvStore::put(const std::string& key, std::string payload,
                    std::optional<Bytes> logical_size, NodeId writer) {
  if (writer.valid()) {
    // The epoch gate first: a fenced writer stays rejected even after the
    // partition heals and it regains quorum — its epoch is stale forever.
    if (node_fenced(writer)) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.stale_epoch_rejects;
      return Error::unavailable("stale epoch: writer was fenced");
    }
    if (writer_quorum_ && !writer_quorum_(writer)) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.quorum_blocked_puts;
      return Error::unavailable("writer cannot reach the KV quorum");
    }
  }
  return put(key, std::move(payload), logical_size);
}

Result<KvEntry> KvStore::get(const std::string& key) const {
  const auto& shard = shard_for(key);
  std::optional<KvEntry> found;
  {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) found = it->second;
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.gets;
  if (!found) {
    ++stats_.misses;
    return Error::not_found("key not present: " + key);
  }
  ++stats_.hits;
  return *found;
}

bool KvStore::contains(const std::string& key) const {
  const auto& shard = shard_for(key);
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  return shard.map.find(key) != shard.map.end();
}

bool KvStore::intact(const std::string& key) const {
  const auto& shard = shard_for(key);
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  return it->second.checksum == kv_checksum(it->second.payload);
}

bool KvStore::corrupt_entry(const std::string& key) {
  auto& shard = shard_for(key);
  {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return false;
    // Flip a payload byte (or plant a poison byte into an empty payload)
    // so the stored checksum no longer matches.
    if (it->second.payload.empty()) {
      it->second.payload.push_back('\x5a');
    } else {
      it->second.payload[0] =
          static_cast<char>(it->second.payload[0] ^ '\x5a');
    }
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.entries_corrupted;
  return true;
}

bool KvStore::drop_entry(const std::string& key) {
  auto& shard = shard_for(key);
  std::size_t erased = 0;
  {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    erased = shard.map.erase(key);
  }
  if (erased == 0) return false;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.entries_lost;
  return true;
}

Status KvStore::remove(const std::string& key) {
  auto& shard = shard_for(key);
  std::size_t erased = 0;
  {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    erased = shard.map.erase(key);
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.removes;
  if (erased == 0) return Error::not_found("key not present: " + key);
  return Status::ok_status();
}

std::vector<std::string> KvStore::keys_with_prefix(
    const std::string& prefix) const {
  std::vector<std::string> keys;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    for (const auto& [key, entry] : shard->map) {
      if (key.rfind(prefix, 0) == 0) keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

KvStats KvStore::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void KvStore::fail_node(NodeId node) {
  const bool replicated = config_.mode == CacheMode::kReplicated;
  bool last_node_gone = false;
  {
    std::unique_lock<std::shared_mutex> mlock(membership_mutex_);
    auto it = std::find(cache_nodes_.begin(), cache_nodes_.end(), node);
    if (it == cache_nodes_.end()) return;
    cache_nodes_.erase(it);
    last_node_gone = cache_nodes_.empty();
  }
  // A replicated entry loses its last copy exactly with the last node.
  if (replicated && (!last_node_gone || config_.native_persistence)) return;
  std::uint64_t lost = 0;
  for (const auto& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard->mutex);
    if (replicated) {
      lost += shard->map.size();
      shard->map.clear();
      continue;
    }
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      auto& owners = it->second.owners;
      owners.erase(std::remove(owners.begin(), owners.end(), node),
                   owners.end());
      if (owners.empty() && !config_.native_persistence) {
        it = shard->map.erase(it);
        ++lost;
      } else {
        ++it;
      }
    }
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.entries_lost += lost;
}

void KvStore::fence_node(NodeId node) {
  std::unique_lock<std::shared_mutex> mlock(membership_mutex_);
  if (std::find(fenced_nodes_.begin(), fenced_nodes_.end(), node) ==
      fenced_nodes_.end()) {
    fenced_nodes_.push_back(node);
  }
}

bool KvStore::node_fenced(NodeId node) const {
  std::shared_lock<std::shared_mutex> mlock(membership_mutex_);
  return std::find(fenced_nodes_.begin(), fenced_nodes_.end(), node) !=
         fenced_nodes_.end();
}

}  // namespace canary::kv
