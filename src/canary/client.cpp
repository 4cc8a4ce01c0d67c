#include "canary/client.hpp"

#include <algorithm>
#include <cstring>

namespace canary::client {

namespace {
constexpr char kSpillPrefix[] = "SPILL:";

void append_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(const std::string& in, std::size_t& offset) {
  CANARY_CHECK(offset + sizeof(std::uint64_t) <= in.size(),
               "truncated checkpoint record");
  std::uint64_t v = 0;
  std::memcpy(&v, in.data() + offset, sizeof(v));
  offset += sizeof(v);
  return v;
}

void append_blob(std::string& out, const std::string& data) {
  append_u64(out, data.size());
  out.append(data);
}

std::string read_blob(const std::string& in, std::size_t& offset) {
  const std::uint64_t len = read_u64(in, offset);
  CANARY_CHECK(offset + len <= in.size(), "truncated checkpoint blob");
  std::string data = in.substr(offset, len);
  offset += len;
  return data;
}
}  // namespace

Status InMemoryBlobStore::put(const std::string& name, std::string data) {
  blobs_[name] = std::move(data);
  return Status::ok_status();
}

Result<std::string> InMemoryBlobStore::get(const std::string& name) const {
  auto it = blobs_.find(name);
  if (it == blobs_.end()) return Error::not_found("no blob: " + name);
  return it->second;
}

Status InMemoryBlobStore::remove(const std::string& name) {
  if (blobs_.erase(name) == 0) return Error::not_found("no blob: " + name);
  return Status::ok_status();
}

CheckpointClient::CheckpointClient(kv::KvStore& store, BlobStore& blobs,
                                   std::string app_id, ClientConfig config)
    : store_(store), blobs_(blobs), app_id_(std::move(app_id)),
      config_(config) {
  CANARY_CHECK(config_.retention > 0, "retention must be positive");
}

std::string CheckpointClient::kv_key(std::uint64_t state_index) const {
  return "app-ckpt/" + app_id_ + "/" + std::to_string(state_index);
}

std::string CheckpointClient::blob_name(std::uint64_t state_index) const {
  return "app-blob/" + app_id_ + "/" + std::to_string(state_index);
}

void CheckpointClient::register_critical(
    const std::string& name, std::function<std::string()> provider) {
  critical_.emplace_back(name, std::move(provider));
}

Status CheckpointClient::save(std::uint64_t state_index,
                              std::string state_data) {
  // Assemble the record: state data plus every registered critical-data
  // capture (Algorithm 1 line 12: ckpt <- {st, data_cric}).
  std::string record;
  append_u64(record, state_index);
  append_blob(record, state_data);
  append_u64(record, critical_.size());
  for (const auto& [name, provider] : critical_) {
    append_blob(record, name);
    append_blob(record, provider());
  }

  const std::string key = kv_key(state_index);
  if (Bytes::of(record.size()) <= store_.config().max_entry_size) {
    const Status put = store_.put(key, std::move(record));
    if (!put.ok()) return put;
  } else {
    // Oversized: bulk bytes to the blob store, {name, location} into the
    // KV store (Algorithm 1 lines 5-7).
    const std::string blob = blob_name(state_index);
    const Status blob_put = blobs_.put(blob, std::move(record));
    if (!blob_put.ok()) return blob_put;
    const Status put = store_.put(key, kSpillPrefix + blob);
    if (!put.ok()) return put;
    ++spills_;
  }

  // Latest-n retention (Algorithm 1 lines 14-16).
  saved_indices_.erase(
      std::remove(saved_indices_.begin(), saved_indices_.end(), state_index),
      saved_indices_.end());
  saved_indices_.push_back(state_index);
  while (saved_indices_.size() > config_.retention) {
    const std::uint64_t oldest = saved_indices_.front();
    saved_indices_.erase(saved_indices_.begin());
    (void)store_.remove(kv_key(oldest));
    (void)blobs_.remove(blob_name(oldest));
  }
  return Status::ok_status();
}

std::optional<CheckpointClient::Restored> CheckpointClient::load_latest()
    const {
  // Recovery runs in a fresh process: enumerate surviving checkpoints
  // from the KV store rather than trusting local state. Walk
  // newest-first: a record whose bytes no longer match their put-time
  // checksum, or a spilled record whose blob is gone, falls back to the
  // next-older checkpoint.
  const auto keys = store_.keys_with_prefix("app-ckpt/" + app_id_ + "/");
  std::vector<std::uint64_t> indices;
  for (const auto& key : keys) {
    indices.push_back(std::stoull(key.substr(key.rfind('/') + 1)));
  }
  std::sort(indices.rbegin(), indices.rend());
  for (const std::uint64_t index : indices) {
    const std::string key = kv_key(index);
    if (!store_.intact(key)) continue;  // bit rot; try an older checkpoint
    std::string record = store_.get(key).value().payload;
    if (record.rfind(kSpillPrefix, 0) == 0) {
      const auto blob = blobs_.get(record.substr(sizeof(kSpillPrefix) - 1));
      if (!blob.ok()) continue;  // spill lost; try an older checkpoint
      record = blob.value();
    }
    Restored restored;
    std::size_t offset = 0;
    restored.state_index = read_u64(record, offset);
    restored.state_data = read_blob(record, offset);
    const std::uint64_t critical_count = read_u64(record, offset);
    for (std::uint64_t c = 0; c < critical_count; ++c) {
      std::string name = read_blob(record, offset);
      std::string data = read_blob(record, offset);
      restored.critical_data.emplace_back(std::move(name), std::move(data));
    }
    return restored;
  }
  return std::nullopt;
}

}  // namespace canary::client
