// Checkpointing Module (paper §IV-C4, Algorithm 1).
//
// After each committed state the module persists the application state and
// registered critical data: payloads within the KV store's per-entry limit
// go to the KV store (Ignite); larger payloads spill to the fastest
// storage tier with capacity, and only the {name, location} record is
// pushed to the KV store. Checkpoints are first written to the KV store /
// memory tier and flushed asynchronously to shared storage, which is what
// makes them survive node-level failures (§V-D6). The latest n
// checkpoints are retained per function; n starts at 3 and adapts to the
// checkpoint payload size and the state production frequency (§IV-C4b).
//
// Implicit vs. explicit checkpointing (§IV-C4b): explicit mode lets the
// application register a subset of its state, shrinking every payload by
// `explicit_payload_factor` at the cost of programming effort.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/network.hpp"
#include "cluster/storage.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "faas/events.hpp"
#include "kvstore/kvstore.hpp"
#include "obs/event_log.hpp"
#include "obs/metric_registry.hpp"
#include "sim/simulator.hpp"

namespace canary::core {

struct CheckpointingConfig {
  bool enabled = true;
  /// Fraction of the nominal checkpoint payload actually persisted;
  /// 1.0 = implicit (whole state), <1.0 = explicit user-registered state.
  double explicit_payload_factor = 1.0;
  unsigned initial_retention = 3;  // paper: "initial value of n is set to 3"
  unsigned min_retention = 2;
  unsigned max_retention = 5;
  /// Delay before the asynchronous flush of a node-local checkpoint to
  /// shared storage begins.
  Duration async_flush_delay = Duration::msec(200);
  /// Checkpoint compression: trades CPU time (modelled at zstd-class
  /// throughput) for payload bytes — smaller checkpoints fit the KV
  /// store's entry limit more often and restore faster across the
  /// network.
  bool compress = false;
};

/// One retained checkpoint of a function (a row of the paper's
/// checkpoint_info table). Its KV key is kv_key(function, state_index).
struct CheckpointRow {
  CheckpointId checkpoint;
  std::size_t state_index = 0;  // index of the committed state
  Bytes payload = Bytes::zero();
  cluster::StorageTier location = cluster::StorageTier::kKvStore;
  NodeId stored_on;  // hosting node for node-local tiers
  bool flushed_to_shared = false;
};

/// Where to resume a failed function and how long loading the checkpoint
/// will take on the target node.
struct RestorePlan {
  std::size_t from_state = 0;
  Duration restore_time = Duration::zero();
  std::optional<CheckpointId> checkpoint;
};

class CheckpointingModule {
 public:
  CheckpointingModule(sim::Simulator& simulator, cluster::Cluster& cluster,
                      const cluster::StorageHierarchy& storage,
                      const cluster::NetworkModel& network, kv::KvStore& store,
                      obs::MetricRegistry& metrics, CheckpointingConfig config);

  const CheckpointingConfig& config() const { return config_; }

  /// Append kCheckpoint leaf events, each carrying its write window, to
  /// each invocation's causal chain (null disables).
  void set_event_log(obs::EventLog* events) { events_ = events; }

  /// Time appended to state `idx` for writing its checkpoint. Pure in
  /// (spec, idx); used for scheduling and attempt-duration estimates.
  Duration state_epilogue(const faas::Invocation& inv, std::size_t idx) const;

  /// Record the checkpoint for committed state `idx`: KV write or spill,
  /// retention enforcement, and async flush scheduling.
  void on_state_committed(const faas::Invocation& inv, std::size_t idx);

  /// Latest restorable checkpoint for `fn` when recovering onto
  /// `target_node`. Checkpoints whose only copy sat on a dead node and
  /// was not yet flushed are skipped (older checkpoints are consulted).
  RestorePlan restore_plan(FunctionId fn, NodeId target_node) const;

  /// Dynamic latest-n retention for a function (paper §IV-C4b). Pure in
  /// (spec, config); the commit path computes it once per function.
  unsigned retention_for(const faas::FunctionSpec& spec) const;

  /// Drop all checkpoints of a completed function.
  void drop_function(FunctionId fn);

  /// Retained checkpoints of `fn`, ordered oldest-first by state index.
  /// The view is invalidated by the next commit or drop of `fn`.
  std::span<const CheckpointRow> checkpoints_of(FunctionId fn) const;

  /// Split-brain probe: a logically fenced (minority-partition) worker
  /// finished executing `fn` and now tries to commit. The attempt is a
  /// REAL writer-attributed KV put routed through the store's epoch gate;
  /// a correct gate rejects it (stale epoch) and the commit is a no-op.
  /// Metrics record the outcome — the chaos no-split-brain oracle asserts
  /// zombie_commits_committed stays zero.
  void zombie_commit(NodeId node, FunctionId fn);

  static std::string kv_key(FunctionId fn, std::size_t state_idx);

 private:
  Bytes effective_payload(const faas::FunctionSpec& spec,
                          std::size_t idx) const;
  Duration compression_time(const faas::FunctionSpec& spec,
                            std::size_t idx) const;
  Duration decompression_time(Bytes compressed) const;

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  const cluster::StorageHierarchy& storage_;
  const cluster::NetworkModel& network_;
  kv::KvStore& store_;
  obs::MetricRegistry& metrics_;
  obs::EventLog* events_ = nullptr;
  CheckpointingConfig config_;
  IdGenerator<CheckpointId> ids_;
  /// The function's latest-n bound (Algorithm 1), computed on its first
  /// checkpoint, and its rows sorted by state index.
  struct FunctionCheckpoints {
    unsigned retention = 0;
    std::vector<CheckpointRow> rows;
  };
  std::unordered_map<FunctionId, FunctionCheckpoints> checkpoints_;
  obs::CounterHandle m_checkpoints_written_{metrics_, "checkpoints_written"};
  obs::CounterHandle m_checkpoint_spills_{metrics_, "checkpoint_spills"};
  obs::HistogramHandle m_checkpoint_payload_mib_{metrics_,
                                                 "checkpoint_payload_mib"};
};

}  // namespace canary::core
