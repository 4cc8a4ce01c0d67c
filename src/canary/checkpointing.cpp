#include "canary/checkpointing.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace canary::core {

namespace {

/// Retention adapts when checkpoints are produced faster than these
/// thresholds (frequent small states -> keep more).
constexpr Duration kFastStateThreshold = Duration::msec(500);
constexpr Duration kMediumStateThreshold = Duration::sec(2.0);
/// Size of the {name, location, state} record pushed to the KV store when
/// the payload itself spills to a storage tier.
constexpr Bytes kMetadataSize = Bytes::of(512);
/// Compression at zstd-class throughput; the ratio is calibrated on the
/// repository's own LZ kernel over model-weight-like data.
constexpr double kCompressionRatio = 2.8;
constexpr double kCompressMibPerSec = 400.0;
constexpr double kDecompressMibPerSec = 1200.0;

}  // namespace

CheckpointingModule::CheckpointingModule(
    sim::Simulator& simulator, cluster::Cluster& cluster,
    const cluster::StorageHierarchy& storage,
    const cluster::NetworkModel& network, kv::KvStore& store,
    obs::MetricRegistry& metrics, CheckpointingConfig config)
    : sim_(simulator),
      cluster_(cluster),
      storage_(storage),
      network_(network),
      store_(store),
      metrics_(metrics),
      config_(config) {}

std::string CheckpointingModule::kv_key(FunctionId fn, std::size_t state_idx) {
  return "ckpt/" + to_string(fn) + "/" + std::to_string(state_idx);
}

Bytes CheckpointingModule::effective_payload(const faas::FunctionSpec& spec,
                                             std::size_t idx) const {
  const Bytes nominal = spec.states[idx].checkpoint_payload;
  double scaled =
      static_cast<double>(nominal.count()) * config_.explicit_payload_factor;
  if (config_.compress) scaled /= kCompressionRatio;
  return Bytes::of(static_cast<std::uint64_t>(scaled));
}

Duration CheckpointingModule::compression_time(const faas::FunctionSpec& spec,
                                               std::size_t idx) const {
  if (!config_.compress) return Duration::zero();
  // CPU cost is paid on the uncompressed (registered) bytes.
  const double mib = static_cast<double>(spec.states[idx].checkpoint_payload
                                             .count()) *
                     config_.explicit_payload_factor / (1024.0 * 1024.0);
  return Duration::sec(mib / kCompressMibPerSec);
}

Duration CheckpointingModule::decompression_time(Bytes compressed) const {
  if (!config_.compress) return Duration::zero();
  const double mib = compressed.to_mib() * kCompressionRatio;  // output bytes
  return Duration::sec(mib / kDecompressMibPerSec);
}

Duration CheckpointingModule::state_epilogue(const faas::Invocation& inv,
                                             std::size_t idx) const {
  if (!config_.enabled) return Duration::zero();
  const Bytes payload = effective_payload(*inv.spec, idx);
  const Duration compress = compression_time(*inv.spec, idx);
  if (payload.count() == 0) {
    // State-only checkpoint: just the state record into the KV store.
    return storage_.write_time(cluster::StorageTier::kKvStore, kMetadataSize);
  }
  if (payload <= store_.config().max_entry_size) {
    return compress +
           storage_.write_time(cluster::StorageTier::kKvStore, payload);
  }
  // Spill path: bulk write to the fastest tier with capacity plus the
  // location record into the KV store (Algorithm 1 lines 5-8).
  const auto tier = storage_.spill_tier_for(payload);
  const Duration bulk = tier ? storage_.write_time(*tier, payload)
                             : storage_.write_time(
                                   cluster::StorageTier::kNfs, payload);
  return compress + bulk +
         storage_.write_time(cluster::StorageTier::kKvStore, kMetadataSize);
}

unsigned CheckpointingModule::retention_for(
    const faas::FunctionSpec& spec) const {
  if (spec.states.empty()) return config_.initial_retention;
  bool oversized = false;
  Duration total = Duration::zero();
  for (std::size_t i = 0; i < spec.states.size(); ++i) {
    total += spec.states[i].duration;
    if (effective_payload(spec, i) > store_.config().max_entry_size) {
      oversized = true;
    }
  }
  // Large payloads: keep fewer to bound memory/tier pressure.
  if (oversized) return config_.min_retention;
  const Duration mean = total / static_cast<std::int64_t>(spec.states.size());
  // Frequent small states: keep more so a lagging async flush still
  // leaves a usable recent checkpoint.
  if (mean < kFastStateThreshold) return config_.max_retention;
  if (mean < kMediumStateThreshold) {
    return std::min(config_.max_retention, config_.initial_retention + 1);
  }
  return config_.initial_retention;
}

void CheckpointingModule::on_state_committed(const faas::Invocation& inv,
                                             std::size_t idx) {
  if (!config_.enabled) return;
  const Bytes payload = effective_payload(*inv.spec, idx);
  const std::string key = kv_key(inv.id, idx);

  CheckpointRow row;
  row.checkpoint = ids_.next();
  row.state_index = idx;
  row.payload = payload;
  row.stored_on = inv.node;

  // The KV entry models the checkpoint (or, on the spill path, its
  // location record) by its logical size and checksum alone: restore
  // reads the module's rows, never the entry's bytes, so the payload is
  // empty. A shard fault still leaves the checksum stale.
  if (payload <= store_.config().max_entry_size) {
    row.location = cluster::StorageTier::kKvStore;
    // The KV store is replicated (and persistent in the testbed config),
    // so in-KV checkpoints survive node failures immediately.
    row.flushed_to_shared = true;
    const Status put = store_.put(key, {}, payload, inv.node);
    if (!put.ok()) {
      // A degraded store (shard fault, capacity, fenced/partitioned
      // writer) must never crash the checkpoint path: the state commit
      // stands, this checkpoint is simply not durable — recovery falls
      // back to an older intact row or full re-execution.
      metrics_.count("checkpoint_write_failures");
      CANARY_LOG_WARN("checkpoint put failed for " << key << ": "
                                                   << put.error().message);
      return;
    }
  } else {
    const auto tier = storage_.spill_tier_for(payload);
    row.location = tier.value_or(cluster::StorageTier::kNfs);
    const auto& tier_profile = storage_.profile(row.location);
    row.flushed_to_shared = tier_profile.shared;
    const Status put = store_.put(key, {}, kMetadataSize, inv.node);
    if (!put.ok()) {
      metrics_.count("checkpoint_write_failures");
      CANARY_LOG_WARN("checkpoint metadata put failed for "
                      << key << ": " << put.error().message);
      return;
    }
    m_checkpoint_spills_.add();
  }
  m_checkpoints_written_.add();
  m_checkpoint_payload_mib_.record(payload.to_mib());
  if (events_ != nullptr && inv.trace.valid()) {
    // Leaf event off the invocation's chain: checkpoints are side effects
    // of the state commit, not steps on the critical path. The commit
    // fires at the end of the state's epilogue, so the write window is
    // the nominal epilogue interval ending now.
    obs::SpanLabels labels{inv.job, inv.id, inv.container, inv.node,
                           inv.attempt};
    events_->append_checkpoint(inv.trace, idx, sim_.now(), labels,
                               state_epilogue(inv, idx));
  }

  FunctionCheckpoints& checkpoints = checkpoints_[inv.id];
  auto& rows = checkpoints.rows;
  // Retention is pure in (spec, config): computed on the function's first
  // checkpoint and kept with its rows.
  if (checkpoints.retention == 0) {
    checkpoints.retention = retention_for(*inv.spec);
    // Room for the bound plus the one row a commit adds before eviction.
    rows.reserve(checkpoints.retention + 1);
  }
  // A recommit of the same state (after a restore) replaces the old row.
  const auto same = std::find_if(
      rows.begin(), rows.end(),
      [idx](const CheckpointRow& r) { return r.state_index == idx; });
  if (same != rows.end()) rows.erase(same);
  rows.insert(std::upper_bound(rows.begin(), rows.end(), idx,
                               [](std::size_t state, const CheckpointRow& r) {
                                 return state < r.state_index;
                               }),
              row);

  // Retention: keep the latest n checkpoints (Algorithm 1 lines 14-16).
  while (rows.size() > checkpoints.retention) {
    (void)store_.remove(kv_key(inv.id, rows.front().state_index));
    rows.erase(rows.begin());
  }

  if (!row.flushed_to_shared) {
    // Asynchronous flush to shared storage; until it completes the spilled
    // checkpoint dies with its node.
    const Duration flush_time =
        config_.async_flush_delay +
        storage_.write_time(cluster::StorageTier::kNfs, payload);
    sim_.schedule_after(flush_time, [this, fn = inv.id, id = row.checkpoint] {
      // Found by checkpoint id: a later recommit of the same state is a
      // new row this flush must not mark. Nothing is found when retention
      // evicted the row or the function was dropped meanwhile.
      auto found = checkpoints_.find(fn);
      if (found == checkpoints_.end()) return;
      for (CheckpointRow& pending : found->second.rows) {
        if (pending.checkpoint != id) continue;
        // A copy whose node died before the flush finished is lost.
        if (cluster_.node(pending.stored_on).alive()) {
          pending.flushed_to_shared = true;
        }
        return;
      }
    });
  }
}

RestorePlan CheckpointingModule::restore_plan(FunctionId fn,
                                              NodeId target_node) const {
  RestorePlan plan;
  if (!config_.enabled) return plan;
  const auto rows = checkpoints_of(fn);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    const CheckpointRow& row = *it;
    const std::string key = kv_key(fn, row.state_index);
    Duration read = Duration::zero();
    if (row.location == cluster::StorageTier::kKvStore) {
      if (!store_.contains(key)) continue;  // lost with cache nodes
      if (!store_.intact(key)) {
        // Checksum mismatch: the entry survived but its payload is
        // damaged. Restoring it would silently resurrect corrupt state —
        // skip to the next-older checkpoint (or full re-execution).
        metrics_.count("checkpoint_corrupt_skipped");
        continue;
      }
      read = storage_.read_time(cluster::StorageTier::kKvStore, row.payload);
    } else {
      const auto& tier_profile = storage_.profile(row.location);
      const bool source_alive = cluster_.node(row.stored_on).alive();
      if (tier_profile.shared) {
        read = storage_.read_time(row.location, row.payload);
      } else if (source_alive) {
        read = storage_.read_time(row.location, row.payload) +
               network_.transfer_time(row.stored_on, target_node, row.payload);
      } else if (row.flushed_to_shared) {
        read = storage_.read_time(cluster::StorageTier::kNfs, row.payload);
      } else {
        continue;  // only copy died with its node and was never flushed
      }
      // The location record still comes out of the KV store first.
      read += storage_.read_time(cluster::StorageTier::kKvStore, kMetadataSize);
    }
    plan.from_state = row.state_index + 1;
    plan.restore_time = read + decompression_time(row.payload);
    plan.checkpoint = row.checkpoint;
    // Oracle tripwire: a selected KV checkpoint must be intact (the skip
    // above filters corrupt ones). The chaos campaign asserts this
    // counter stays zero.
    if (row.location == cluster::StorageTier::kKvStore &&
        !store_.intact(key)) {
      metrics_.count("restored_corrupt_checkpoints");
    }
    return plan;
  }
  return plan;  // no usable checkpoint: restart from the first state
}

void CheckpointingModule::zombie_commit(NodeId node, FunctionId fn) {
  metrics_.count("zombie_commit_attempts");
  // A dedicated key prefix: even a buggy gate that lets the put through
  // must not overwrite a real checkpoint row.
  const std::string key = "zombie/" + to_string(fn);
  const Status put = store_.put(key, "zombie", Bytes::of(6), node);
  if (put.ok()) {
    // Split brain: the fenced side's side effect landed. The oracle trips
    // on this counter; remove the probe entry so store contents stay
    // comparable either way.
    metrics_.count("zombie_commits_committed");
    (void)store_.remove(key);
  } else {
    metrics_.count("zombie_commits_rejected");
  }
  if (events_ != nullptr) {
    obs::SpanLabels labels;
    labels.node = node;
    labels.function = fn;
    events_->append_raw(events_->new_trace(), obs::kNoEvent,
                        obs::EventKind::kAnnotation,
                        put.ok() ? obs::Name::kZombieCommitCommitted
                                 : obs::Name::kZombieCommitRejected,
                        sim_.now(), labels);
  }
}

void CheckpointingModule::drop_function(FunctionId fn) {
  auto found = checkpoints_.find(fn);
  if (found == checkpoints_.end()) return;
  for (const CheckpointRow& row : found->second.rows) {
    (void)store_.remove(kv_key(fn, row.state_index));
  }
  checkpoints_.erase(found);
}

std::span<const CheckpointRow> CheckpointingModule::checkpoints_of(
    FunctionId fn) const {
  auto found = checkpoints_.find(fn);
  if (found == checkpoints_.end()) return {};
  return found->second.rows;
}

}  // namespace canary::core
