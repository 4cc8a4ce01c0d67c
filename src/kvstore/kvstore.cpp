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
  CANARY_CHECK(!cache_nodes_.empty(), "KV store needs at least one cache node");
}

std::vector<NodeId> KvStore::choose_owners(const std::string& key) const {
  // Partitioned mode only. With every cache node dead (a put that native
  // persistence keeps), the entry has no owner.
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
  const Bytes size = logical_size.value_or(Bytes::of(payload.size()));
  if (size > config_.max_entry_size) {
    ++stats_.rejected_oversize;
    return Error::resource_exhausted(
        "entry exceeds per-key limit; spill to a storage tier");
  }
  if (cache_nodes_.empty() && !config_.native_persistence) {
    return Error::unavailable("no cache node alive");
  }
  auto& entry = entries_[key];
  entry.payload = std::move(payload);
  entry.logical_size = size;
  entry.checksum = kv_checksum(entry.payload);
  if (config_.mode == CacheMode::kPartitioned) {
    entry.owners = choose_owners(key);
  }
  ++stats_.puts;
  return Status::ok_status();
}

Result<KvEntry> KvStore::get(const std::string& key) const {
  ++stats_.gets;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return Error::not_found("key not present: " + key);
  }
  ++stats_.hits;
  return it->second;
}

bool KvStore::contains(const std::string& key) const {
  return entries_.find(key) != entries_.end();
}

bool KvStore::intact(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  return it->second.checksum == kv_checksum(it->second.payload);
}

bool KvStore::corrupt_entry(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  // Flip a payload byte (or plant a poison byte into an empty payload)
  // so the stored checksum no longer matches.
  if (it->second.payload.empty()) {
    it->second.payload.push_back('\x5a');
  } else {
    it->second.payload[0] = static_cast<char>(it->second.payload[0] ^ '\x5a');
  }
  ++stats_.entries_corrupted;
  return true;
}

bool KvStore::drop_entry(const std::string& key) {
  if (entries_.erase(key) == 0) return false;
  ++stats_.entries_lost;
  return true;
}

Status KvStore::remove(const std::string& key) {
  ++stats_.removes;
  if (entries_.erase(key) == 0) {
    return Error::not_found("key not present: " + key);
  }
  return Status::ok_status();
}

std::vector<std::string> KvStore::keys_with_prefix(
    const std::string& prefix) const {
  std::vector<std::string> keys;
  for (const auto& [key, entry] : entries_) {
    if (key.rfind(prefix, 0) == 0) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void KvStore::fail_node(NodeId node) {
  auto it = std::find(cache_nodes_.begin(), cache_nodes_.end(), node);
  if (it == cache_nodes_.end()) return;
  cache_nodes_.erase(it);
  if (config_.mode == CacheMode::kReplicated) {
    // A replicated entry loses its last copy exactly with the last node.
    if (cache_nodes_.empty() && !config_.native_persistence) {
      stats_.entries_lost += entries_.size();
      entries_.clear();
    }
    return;
  }
  for (auto entry = entries_.begin(); entry != entries_.end();) {
    auto& owners = entry->second.owners;
    owners.erase(std::remove(owners.begin(), owners.end(), node),
                 owners.end());
    if (owners.empty() && !config_.native_persistence) {
      entry = entries_.erase(entry);
      ++stats_.entries_lost;
    } else {
      ++entry;
    }
  }
}

void KvStore::fence_node(NodeId node) {
  if (!node_fenced(node)) fenced_nodes_.push_back(node);
}

bool KvStore::node_fenced(NodeId node) const {
  return std::find(fenced_nodes_.begin(), fenced_nodes_.end(), node) !=
         fenced_nodes_.end();
}

}  // namespace canary::kv
