// In-memory distributed key-value store — the Apache Ignite substitute.
//
// The paper stores function states and checkpoints in Ignite deployed in
// replicated caching mode with native persistence enabled (§V-C1), keyed
// by function id (§IV-C4b). This component reproduces the semantics that
// matter to Canary:
//   * a per-entry size limit ("in-memory databases limit the size of data
//     stored per key") — oversized puts are rejected so the Checkpointing
//     Module spills to a storage tier;
//   * replicated vs. partitioned caching: entry copies live on cache
//     nodes; a node failure destroys its copies, and an entry survives if
//     any copy remains or native persistence is on. Cache nodes never
//     rejoin, so a replicated entry's copies are exactly the live cache
//     nodes: only partitioned entries record their owners;
//   * prefix scans (used to enumerate the latest-n checkpoints of a
//     function).
//
// The store is single-threaded: one map, no locks. Every store has one
// driving thread — a scenario's (one per repetition and per sharded
// partition), the realexec controller's poll loop, or a CheckpointClient's
// caller.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"

namespace canary::kv {

enum class CacheMode {
  kReplicated,   // every cache node holds every entry (paper's setup)
  kPartitioned,  // primary + `backups` copies
};

struct KvConfig {
  /// Per-entry limit; Algorithm 1's `db_limit`.
  Bytes max_entry_size = Bytes::mib(4);
  CacheMode mode = CacheMode::kReplicated;
  /// Backup copies per entry in partitioned mode.
  unsigned backups = 1;
  /// Ignite native persistence: entries survive even if every cache node
  /// holding them dies.
  bool native_persistence = true;
};

struct KvEntry {
  std::string payload;       // serialized metadata (small, real bytes)
  Bytes logical_size;        // size of the represented object
  /// FNV-1a over the payload, written at put time. A shard fault that
  /// flips entry bits leaves the stored checksum stale, so readers that
  /// care (the Checkpointing Module) can detect the damage via intact().
  std::uint64_t checksum = 0;
  /// Partitioned mode: the cache nodes currently holding a copy. Empty in
  /// replicated mode, where every live cache node holds one.
  std::vector<NodeId> owners;
};

/// FNV-1a64 of a payload; the checksum stored alongside every entry.
std::uint64_t kv_checksum(const std::string& payload);

struct KvStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t removes = 0;
  std::uint64_t rejected_oversize = 0;
  std::uint64_t entries_lost = 0;       // destroyed by node/shard failures
  std::uint64_t entries_corrupted = 0;  // bit rot injected by shard faults
  /// Writes rejected because the writer node was epoch-fenced: a zombie
  /// on the minority side of a partition tried to commit after the
  /// majority confirmed it dead and redeployed its work.
  std::uint64_t stale_epoch_rejects = 0;
  /// Writes rejected because the writer could not reach the KV quorum at
  /// put time (mid-partition, before the detector fenced it).
  std::uint64_t quorum_blocked_puts = 0;
};

class KvStore {
 public:
  KvStore(KvConfig config, std::vector<NodeId> cache_nodes);

  const KvConfig& config() const { return config_; }

  /// Insert or overwrite `key`. The entry's logical size defaults to the
  /// payload length; pass `logical_size` when the payload is a descriptor
  /// for a larger object (a spilled checkpoint's location record carries
  /// the checkpoint's real size out-of-band). A valid `writer` makes this
  /// the commit path for checkpoint/state writes, gated first: kUnavailable
  /// when `writer` has been epoch-fenced (stale_epoch_rejects), then when
  /// it fails the installed quorum predicate (quorum_blocked_puts). Then
  /// kResourceExhausted when the logical size exceeds the per-entry limit,
  /// and kUnavailable when no cache node is alive and native persistence
  /// is off.
  Status put(const std::string& key, std::string payload,
             std::optional<Bytes> logical_size = std::nullopt,
             NodeId writer = NodeId::invalid());

  Result<KvEntry> get(const std::string& key) const;
  bool contains(const std::string& key) const;
  /// Whether `key` exists and its payload still matches the checksum
  /// written at put time. Stats-neutral (no get/hit/miss accounting):
  /// this is the Checkpointing Module's pre-restore integrity probe.
  bool intact(const std::string& key) const;
  Status remove(const std::string& key);

  // ---- fault injection --------------------------------------------------
  /// Flip the stored payload of `key` without updating its checksum (the
  /// shard-fault bit-rot model). Returns false when the key is absent.
  bool corrupt_entry(const std::string& key);
  /// Destroy `key` outright (shard fault; counted as entries_lost, not as
  /// a client remove). Returns false when the key is absent.
  bool drop_entry(const std::string& key);

  /// All live keys beginning with `prefix`, sorted. O(total keys).
  std::vector<std::string> keys_with_prefix(const std::string& prefix) const;

  const KvStats& stats() const { return stats_; }

  /// Drop the copies held by `node`. Entries with no remaining copy are
  /// destroyed unless native persistence is enabled; in replicated mode
  /// that is every entry, once the last cache node dies.
  void fail_node(NodeId node);

  // ---- epoch fencing (split-brain safety) -------------------------------
  /// Advance `node`'s write epoch: every subsequent writer-attributed put
  /// from it is a stale-epoch write and is rejected. Called when the
  /// majority side confirms a partitioned-away worker dead — the
  /// minority-side zombie keeps executing, but its commit is a no-op.
  void fence_node(NodeId node);
  bool node_fenced(NodeId node) const;
  /// Quorum predicate consulted by writer-attributed puts; wired to
  /// NetworkModel::reaches_majority by the harness. Unset = always true.
  void set_writer_quorum(std::function<bool(NodeId)> predicate) {
    writer_quorum_ = std::move(predicate);
  }
  /// Zone lookup that turns on fault-domain-aware owner selection
  /// (partitioned mode): backup copies prefer cache nodes in a *different
  /// zone* than the primary, so a zone outage cannot destroy every copy of
  /// an entry. The harness wires it to Cluster::zone_of only when
  /// fault-domain spreading is on; unset = consecutive owners.
  void set_zone_map(std::function<std::uint32_t(NodeId)> zone_of) {
    zone_of_ = std::move(zone_of);
  }

 private:
  std::vector<NodeId> choose_owners(const std::string& key) const;

  KvConfig config_;
  std::function<bool(NodeId)> writer_quorum_;
  std::function<std::uint32_t(NodeId)> zone_of_;
  std::vector<NodeId> cache_nodes_;
  /// Nodes whose write epoch was advanced by fence_node.
  std::vector<NodeId> fenced_nodes_;
  std::unordered_map<std::string, KvEntry> entries_;
  mutable KvStats stats_;  // gets/hits/misses are counted in const reads
};

}  // namespace canary::kv
