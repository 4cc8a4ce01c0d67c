// Unit tests for the in-memory distributed KV store (Ignite substitute).
#include <gtest/gtest.h>

#include "kvstore/kvstore.hpp"

namespace canary::kv {
namespace {

std::vector<NodeId> nodes(std::size_t n) {
  std::vector<NodeId> ids;
  for (std::size_t i = 1; i <= n; ++i) ids.push_back(NodeId{i});
  return ids;
}

KvStore make_store(KvConfig config = {}, std::size_t node_count = 4) {
  return KvStore(config, nodes(node_count));
}

TEST(KvStoreTest, PutGetRoundTrip) {
  auto store = make_store();
  ASSERT_TRUE(store.put("k1", "hello").ok());
  const auto got = store.get("k1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().payload, "hello");
  EXPECT_EQ(got.value().logical_size.count(), 5u);
}

TEST(KvStoreTest, OverwriteReplacesPayload) {
  auto store = make_store();
  ASSERT_TRUE(store.put("k", "a").ok());
  ASSERT_TRUE(store.put("k", "b").ok());
  const auto got = store.get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().payload, "b");
  EXPECT_EQ(store.keys_with_prefix("").size(), 1u);
}

TEST(KvStoreTest, MissingKeyIsNotFound) {
  auto store = make_store();
  const auto got = store.get("nope");
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, ErrorCode::kNotFound);
  EXPECT_FALSE(store.contains("nope"));
}

TEST(KvStoreTest, RemoveDeletes) {
  auto store = make_store();
  ASSERT_TRUE(store.put("k", "v").ok());
  EXPECT_TRUE(store.remove("k").ok());
  EXPECT_FALSE(store.contains("k"));
  EXPECT_FALSE(store.remove("k").ok());
}

TEST(KvStoreTest, OversizedEntryRejected) {
  KvConfig config;
  config.max_entry_size = Bytes::of(8);
  auto store = make_store(config);
  const Status put = store.put("k", "way too large for the limit");
  EXPECT_FALSE(put.ok());
  EXPECT_EQ(put.error().code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(store.stats().rejected_oversize, 1u);
  EXPECT_FALSE(store.contains("k"));
}

TEST(KvStoreTest, WriterGatesPrecedeTheSizeLimit) {
  // Gate order: the writer's fence, then its quorum, then the size limit.
  // An oversized put from a fenced writer is a stale-epoch reject.
  KvConfig config;
  config.max_entry_size = Bytes::of(8);
  auto store = make_store(config);
  store.set_writer_quorum([](NodeId writer) { return writer != NodeId{2}; });
  store.fence_node(NodeId{1});
  const std::string oversized = "way too large for the limit";
  const Status fenced = store.put("k", oversized, std::nullopt, NodeId{1});
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(store.stats().stale_epoch_rejects, 1u);
  EXPECT_EQ(store.stats().rejected_oversize, 0u);

  const Status blocked = store.put("k", oversized, std::nullopt, NodeId{2});
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(store.stats().quorum_blocked_puts, 1u);
  EXPECT_EQ(store.stats().rejected_oversize, 0u);

  const Status oversize = store.put("k", oversized, std::nullopt, NodeId{3});
  ASSERT_FALSE(oversize.ok());
  EXPECT_EQ(oversize.error().code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(store.stats().rejected_oversize, 1u);
}

TEST(KvStoreTest, UnattributedPutSkipsTheQuorumPredicate) {
  auto store = make_store();
  store.set_writer_quorum([](NodeId) { return false; });
  EXPECT_TRUE(store.put("k", "v", std::nullopt, NodeId::invalid()).ok());
  EXPECT_TRUE(store.put("k2", "v").ok());
  EXPECT_FALSE(store.put("k3", "v", std::nullopt, NodeId{1}).ok());
  EXPECT_EQ(store.stats().quorum_blocked_puts, 1u);
  EXPECT_EQ(store.stats().puts, 2u);
}

TEST(KvStoreTest, PutAfterEveryCacheNodeDied) {
  // Cache nodes never rejoin. With native persistence the put is still
  // durable (a partitioned entry then has no owner); without it there is
  // nowhere to keep the entry.
  for (const CacheMode mode :
       {CacheMode::kReplicated, CacheMode::kPartitioned}) {
    for (const bool persistence : {true, false}) {
      SCOPED_TRACE(std::string(mode == CacheMode::kReplicated
                                   ? "replicated"
                                   : "partitioned") +
                   (persistence ? ", persistence" : ", no persistence"));
      KvConfig config;
      config.mode = mode;
      config.native_persistence = persistence;
      auto store = make_store(config, 2);
      store.fail_node(NodeId{1});
      store.fail_node(NodeId{2});
      const Status put = store.put("k", "v");
      if (persistence) {
        ASSERT_TRUE(put.ok());
        const auto entry = store.get("k");
        ASSERT_TRUE(entry.ok());
        EXPECT_TRUE(entry.value().owners.empty());
      } else {
        ASSERT_FALSE(put.ok());
        EXPECT_EQ(put.error().code, ErrorCode::kUnavailable);
        EXPECT_FALSE(store.contains("k"));
      }
    }
  }
}

TEST(KvStoreTest, LogicalSizeOverridesPayloadLength) {
  KvConfig config;
  config.max_entry_size = Bytes::mib(4);
  auto store = make_store(config);
  // A tiny location record representing a 100 MiB spilled checkpoint must
  // pass the limit check with its own (metadata) size...
  ASSERT_TRUE(store.put("meta", "loc-record", Bytes::of(512)).ok());
  // ...while a logical size above the limit is rejected even for a small
  // payload string.
  EXPECT_FALSE(store.put("big", "descriptor", Bytes::mib(100)).ok());
}

TEST(KvStoreTest, PrefixScanSorted) {
  auto store = make_store();
  ASSERT_TRUE(store.put("ckpt/7/2", "b").ok());
  ASSERT_TRUE(store.put("ckpt/7/1", "a").ok());
  ASSERT_TRUE(store.put("ckpt/8/1", "c").ok());
  ASSERT_TRUE(store.put("other", "d").ok());
  const auto keys = store.keys_with_prefix("ckpt/7/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "ckpt/7/1");
  EXPECT_EQ(keys[1], "ckpt/7/2");
}

TEST(KvStoreTest, StatsTrackHitsMisses) {
  auto store = make_store();
  ASSERT_TRUE(store.put("k", "v").ok());
  (void)store.get("k");
  (void)store.get("absent");
  const auto stats = store.stats();
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.gets, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(KvStoreTest, ReplicatedModeSurvivesNodeFailure) {
  KvConfig config;
  config.mode = CacheMode::kReplicated;
  config.native_persistence = false;
  auto store = make_store(config, 4);
  ASSERT_TRUE(store.put("k", "v").ok());
  store.fail_node(NodeId{1});
  store.fail_node(NodeId{2});
  store.fail_node(NodeId{3});
  EXPECT_TRUE(store.contains("k"));  // one copy left
  EXPECT_EQ(store.stats().entries_lost, 0u);
}

TEST(KvStoreTest, ReplicatedModeLosesDataWhenAllNodesDieWithoutPersistence) {
  KvConfig config;
  config.mode = CacheMode::kReplicated;
  config.native_persistence = false;
  auto store = make_store(config, 2);
  ASSERT_TRUE(store.put("k", "v").ok());
  store.fail_node(NodeId{1});
  store.fail_node(NodeId{2});
  EXPECT_FALSE(store.contains("k"));
  EXPECT_EQ(store.stats().entries_lost, 1u);

  // Several keys, one of them put after the first death: each is held by
  // every live cache node, so all of them die with the last one.
  auto many = make_store(config, 3);
  for (const char* key : {"a", "b", "c"}) ASSERT_TRUE(many.put(key, "v").ok());
  many.fail_node(NodeId{1});
  ASSERT_TRUE(many.put("d", "v").ok());
  many.fail_node(NodeId{2});
  EXPECT_EQ(many.keys_with_prefix("").size(), 4u);
  EXPECT_EQ(many.stats().entries_lost, 0u);
  many.fail_node(NodeId{3});
  EXPECT_TRUE(many.keys_with_prefix("").empty());
  EXPECT_EQ(many.stats().entries_lost, 4u);
}

TEST(KvStoreTest, NativePersistenceSurvivesTotalFailure) {
  KvConfig config;
  config.native_persistence = true;
  auto store = make_store(config, 2);
  ASSERT_TRUE(store.put("k", "v").ok());
  store.fail_node(NodeId{1});
  store.fail_node(NodeId{2});
  EXPECT_TRUE(store.contains("k"));  // recovered from persistence
}

TEST(KvStoreTest, PartitionedModeLosesUnbackedEntries) {
  KvConfig config;
  config.mode = CacheMode::kPartitioned;
  config.backups = 0;
  config.native_persistence = false;
  auto store = make_store(config, 4);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(store.put("key" + std::to_string(i), "v").ok());
  }
  store.fail_node(NodeId{1});
  // With no backups, roughly a quarter of the entries die with node 1.
  const auto lost = store.stats().entries_lost;
  EXPECT_GT(lost, 0u);
  EXPECT_LT(lost, 64u);
  EXPECT_EQ(store.keys_with_prefix("").size(), 64u - lost);
}

TEST(KvStoreTest, PartitionedBackupsSurviveSingleFailure) {
  KvConfig config;
  config.mode = CacheMode::kPartitioned;
  config.backups = 1;
  config.native_persistence = false;
  auto store = make_store(config, 4);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(store.put("key" + std::to_string(i), "v").ok());
  }
  store.fail_node(NodeId{2});
  EXPECT_EQ(store.stats().entries_lost, 0u);
  EXPECT_EQ(store.keys_with_prefix("").size(), 64u);
}

TEST(KvStoreTest, PartitionedBackupsUnderOverlappingNodeLosses) {
  // Two overlapping node losses with backups=1 and no persistence: an
  // entry dies iff both of its owners are among the dead; every survivor
  // keeps a readable copy on its remaining owner.
  KvConfig config;
  config.mode = CacheMode::kPartitioned;
  config.backups = 1;
  config.native_persistence = false;
  auto store = make_store(config, 4);
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("key" + std::to_string(i));
    ASSERT_TRUE(store.put(keys.back(), "v" + std::to_string(i)).ok());
  }
  std::uint64_t doomed = 0;  // both owners in {1, 2}
  for (const auto& key : keys) {
    const auto entry = store.get(key);
    ASSERT_TRUE(entry.ok());
    ASSERT_EQ(entry.value().owners.size(), 2u);
    bool survives = false;
    for (const NodeId owner : entry.value().owners) {
      if (owner != NodeId{1} && owner != NodeId{2}) survives = true;
    }
    if (!survives) ++doomed;
  }
  store.fail_node(NodeId{1});
  store.fail_node(NodeId{2});
  EXPECT_EQ(store.stats().entries_lost, doomed);
  EXPECT_EQ(store.keys_with_prefix("").size(), 64u - doomed);
  for (const auto& key : keys) {
    if (store.contains(key)) {
      const auto entry = store.get(key);
      ASSERT_TRUE(entry.ok());
      EXPECT_EQ(entry.value().payload, "v" + key.substr(3));
    }
  }
}

TEST(KvStoreTest, CorruptEntryFailsIntegrityButStillReads) {
  // Shard-fault bit rot: the payload flips but the stored checksum keeps
  // the put-time value, so intact() flags the damage while get() still
  // returns bytes (the Checkpointing Module decides what to do). Two
  // inputs: a payload with bytes, and the empty payload the Checkpointing
  // Module puts (its entries model a checkpoint by logical size alone),
  // into which the fault plants a byte.
  struct Input {
    std::string payload;
    std::optional<Bytes> logical_size;
  };
  for (const Input& input : {Input{"state-bytes", std::nullopt},
                             Input{"", Bytes::kib(64)}}) {
    SCOPED_TRACE("payload '" + input.payload + "'");
    auto store = make_store();
    ASSERT_TRUE(
        store.put("ckpt/f1/3", input.payload, input.logical_size).ok());
    EXPECT_TRUE(store.intact("ckpt/f1/3"));
    ASSERT_TRUE(store.corrupt_entry("ckpt/f1/3"));
    EXPECT_FALSE(store.intact("ckpt/f1/3"));
    EXPECT_TRUE(store.contains("ckpt/f1/3"));
    const auto read = store.get("ckpt/f1/3");
    ASSERT_TRUE(read.ok());
    EXPECT_NE(read.value().payload, input.payload);
    EXPECT_EQ(read.value().logical_size,
              input.logical_size.value_or(Bytes::of(input.payload.size())));
    EXPECT_EQ(store.stats().entries_corrupted, 1u);
    // Overwriting re-checksums: the entry is whole again.
    ASSERT_TRUE(
        store.put("ckpt/f1/3", input.payload, input.logical_size).ok());
    EXPECT_TRUE(store.intact("ckpt/f1/3"));
  }
}

TEST(KvStoreTest, DropEntryDestroysWithoutClientRemove) {
  auto store = make_store();
  ASSERT_TRUE(store.put("ckpt/f2/1", "x").ok());
  ASSERT_TRUE(store.drop_entry("ckpt/f2/1"));
  EXPECT_FALSE(store.contains("ckpt/f2/1"));
  EXPECT_FALSE(store.drop_entry("ckpt/f2/1"));  // already gone
  const auto stats = store.stats();
  EXPECT_EQ(stats.entries_lost, 1u);
  EXPECT_EQ(stats.removes, 0u);  // a fault, not a client operation
  EXPECT_FALSE(store.intact("ckpt/f2/1"));  // absent keys are not intact
}

TEST(KvStoreDeathTest, RequiresCacheNodes) {
  EXPECT_DEATH(KvStore({}, {}), "at least one cache node");
}

// Property sweep: entries at the limit boundary are accepted, one byte
// over is rejected, whatever the number of cache nodes the key space is
// sharded over, in both cache modes.
class KvBoundaryTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KvBoundaryTest, EntryLimitIsInclusive) {
  for (const CacheMode mode :
       {CacheMode::kReplicated, CacheMode::kPartitioned}) {
    SCOPED_TRACE(mode == CacheMode::kReplicated ? "replicated"
                                                : "partitioned");
    KvConfig config;
    config.mode = mode;
    config.max_entry_size = Bytes::of(100);
    auto store = make_store(config, GetParam());
    EXPECT_TRUE(store.put("exact", std::string(100, 'x')).ok());
    EXPECT_FALSE(store.put("over", std::string(101, 'x')).ok());
    EXPECT_TRUE(store.contains("exact"));
    EXPECT_FALSE(store.contains("over"));
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, KvBoundaryTest,
                         ::testing::Values(1, 2, 16, 64));

}  // namespace
}  // namespace canary::kv
