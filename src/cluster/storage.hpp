// Storage hierarchy (paper §IV-C4a, §V-C1).
//
// Checkpoints live primarily in the in-memory KV store (Apache Ignite in
// the paper). When a checkpoint payload exceeds the per-entry database
// limit, the Checkpointing Module spills it to "a faster storage tier
// available in the system such as persistent memory, Ramdisk, or to a
// shared storage accessible to all cluster nodes" and records only the
// location in the KV store. The hierarchy is fixed at deployment time and
// can be overridden by a custom endpoint (e.g. an S3 bucket).
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/time.hpp"

namespace canary::cluster {

enum class StorageTier {
  kKvStore,    // replicated in-memory KV store (Ignite)
  kRamdisk,    // node-local RAM-backed filesystem
  kPmem,       // Intel Optane PMem in AppDirect mode
  kNfs,        // cluster-wide shared filesystem
  kLocalDisk,  // node-local SSD/HDD
  kExternal,   // custom endpoint (e.g. S3)
};

struct TierProfile {
  StorageTier tier;
  Duration access_latency;     // fixed per-operation latency
  double write_mib_per_sec;
  double read_mib_per_sec;
  Bytes capacity;              // spill capacity for checkpoints
  bool shared;                 // reachable from every node
  bool survives_node_failure;  // data remains after the hosting node dies
};

/// Deployment-time description of the tiers available for checkpoint
/// spill, ordered fastest-first. Mirrors the paper's testbed: Ignite KV,
/// Optane PMem / Ramdisk for large files, NFS shared across the cluster.
class StorageHierarchy {
 public:
  /// The testbed configuration from §V-C1.
  static StorageHierarchy testbed();

  explicit StorageHierarchy(std::vector<TierProfile> tiers);

  const TierProfile& profile(StorageTier tier) const;
  bool has_tier(StorageTier tier) const;

  /// Fastest spill tier that can absorb `payload`. Tiers are consulted in
  /// deployment order; the paper prefers PMem/Ramdisk and falls back to
  /// shared NFS. Returns nullopt only if no tier has capacity.
  std::optional<StorageTier> spill_tier_for(Bytes payload) const;

  Duration write_time(StorageTier tier, Bytes payload) const;
  Duration read_time(StorageTier tier, Bytes payload) const;

 private:
  std::vector<TierProfile> tiers_;
};

}  // namespace canary::cluster
