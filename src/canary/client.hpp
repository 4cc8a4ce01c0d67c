// Application-facing checkpoint API (paper §IV-C4a).
//
// "With minimum modification to the function code, application states are
// registered by calling the Canary APIs" — this is that client library.
// A stateful function constructs one CheckpointClient, optionally
// registers critical-data providers ("the functionality to define
// critical data within the application code that should be replicated and
// persisted"), and calls save() after each state. The client implements
// Algorithm 1 end to end against the real KV store:
//   * payloads within the per-entry limit go to the KV store directly;
//   * oversized payloads go to the blob store (the disk / storage-tier
//     stand-in) with only the {name, location} record in the KV store;
//   * the latest n checkpoints are retained, older ones removed.
// On recovery, load_latest() returns the newest restorable state.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "kvstore/kvstore.hpp"

namespace canary::client {

/// Bulk storage for checkpoints beyond the KV per-entry limit (Algorithm
/// 1's "ckpt_data -> disk"). Production deployments back this with a
/// shared filesystem or object store; InMemoryBlobStore serves tests,
/// examples and simulation.
class BlobStore {
 public:
  virtual ~BlobStore() = default;
  virtual Status put(const std::string& name, std::string data) = 0;
  virtual Result<std::string> get(const std::string& name) const = 0;
  virtual Status remove(const std::string& name) = 0;
};

class InMemoryBlobStore final : public BlobStore {
 public:
  Status put(const std::string& name, std::string data) override;
  Result<std::string> get(const std::string& name) const override;
  Status remove(const std::string& name) override;
  std::size_t size() const { return blobs_.size(); }

 private:
  std::unordered_map<std::string, std::string> blobs_;
};

struct ClientConfig {
  /// Latest-n retention (paper: initial n = 3).
  unsigned retention = 3;
};

class CheckpointClient {
 public:
  /// `app_id` namespaces this function's checkpoints in the shared KV
  /// store (the paper keys by function id).
  CheckpointClient(kv::KvStore& store, BlobStore& blobs, std::string app_id,
                   ClientConfig config = {});

  /// Register a critical-data provider; captured and persisted with every
  /// subsequent checkpoint.
  void register_critical(const std::string& name,
                         std::function<std::string()> provider);

  /// Persist the application state for `state_index` (Algorithm 1).
  Status save(std::uint64_t state_index, std::string state_data);

  struct Restored {
    std::uint64_t state_index = 0;
    std::string state_data;
    std::vector<std::pair<std::string, std::string>> critical_data;
  };

  /// Newest restorable checkpoint, or nullopt if none survives. A record
  /// that fails its KV checksum, or a spilled one whose blob is gone, is
  /// skipped for the next-older checkpoint.
  std::optional<Restored> load_latest() const;

  std::uint64_t spills() const { return spills_; }

 private:
  std::string kv_key(std::uint64_t state_index) const;
  std::string blob_name(std::uint64_t state_index) const;

  kv::KvStore& store_;
  BlobStore& blobs_;
  std::string app_id_;
  ClientConfig config_;
  std::vector<std::pair<std::string, std::function<std::string()>>> critical_;
  std::vector<std::uint64_t> saved_indices_;  // retention ring, oldest first
  std::uint64_t spills_ = 0;
};

}  // namespace canary::client
