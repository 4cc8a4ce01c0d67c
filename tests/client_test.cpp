// Tests for the application-facing checkpoint client (Algorithm 1's
// user-checkpoint branch) and the blob store.
#include <gtest/gtest.h>

#include "canary/client.hpp"

namespace canary::client {
namespace {

kv::KvStore make_store(Bytes entry_limit = Bytes::kib(64)) {
  kv::KvConfig config;
  config.max_entry_size = entry_limit;
  return kv::KvStore(config, {NodeId{1}, NodeId{2}});
}

TEST(InMemoryBlobStoreTest, PutGetRemove) {
  InMemoryBlobStore blobs;
  ASSERT_TRUE(blobs.put("a", "data").ok());
  const auto got = blobs.get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "data");
  EXPECT_TRUE(blobs.remove("a").ok());
  EXPECT_FALSE(blobs.get("a").ok());
  EXPECT_FALSE(blobs.remove("a").ok());
}

TEST(CheckpointClientTest, SaveAndLoadRoundTrip) {
  auto store = make_store();
  InMemoryBlobStore blobs;
  CheckpointClient checkpoints(store, blobs, "fn-1");
  ASSERT_TRUE(checkpoints.save(0, "state-zero").ok());
  ASSERT_TRUE(checkpoints.save(1, "state-one").ok());

  const auto restored = checkpoints.load_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->state_index, 1u);
  EXPECT_EQ(restored->state_data, "state-one");
  EXPECT_TRUE(restored->critical_data.empty());
}

TEST(CheckpointClientTest, LoadSurvivesFreshClient) {
  auto store = make_store();
  InMemoryBlobStore blobs;
  {
    CheckpointClient writer(store, blobs, "fn-2");
    ASSERT_TRUE(writer.save(5, "latest").ok());
  }
  // The recovering function builds a brand-new client over the same
  // stores — exactly the paper's restore-onto-a-replica situation.
  CheckpointClient reader(store, blobs, "fn-2");
  const auto restored = reader.load_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->state_index, 5u);
  EXPECT_EQ(restored->state_data, "latest");
}

TEST(CheckpointClientTest, CriticalDataCapturedPerSave) {
  auto store = make_store();
  InMemoryBlobStore blobs;
  CheckpointClient checkpoints(store, blobs, "fn-3");
  int epoch = 0;
  checkpoints.register_critical(
      "weights", [&epoch] { return "weights@" + std::to_string(epoch); });
  epoch = 1;
  ASSERT_TRUE(checkpoints.save(0, "s0").ok());
  epoch = 2;
  ASSERT_TRUE(checkpoints.save(1, "s1").ok());

  const auto restored = checkpoints.load_latest();
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->critical_data.size(), 1u);
  EXPECT_EQ(restored->critical_data[0].first, "weights");
  // Captured at the time of the latest save.
  EXPECT_EQ(restored->critical_data[0].second, "weights@2");
}

TEST(CheckpointClientTest, OversizedPayloadSpillsToBlobStore) {
  auto store = make_store(Bytes::of(128));
  InMemoryBlobStore blobs;
  CheckpointClient checkpoints(store, blobs, "fn-4");
  const std::string big(1024, 'x');
  ASSERT_TRUE(checkpoints.save(0, big).ok());
  EXPECT_EQ(checkpoints.spills(), 1u);
  EXPECT_EQ(blobs.size(), 1u);

  const auto restored = checkpoints.load_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->state_data, big);
}

TEST(CheckpointClientTest, LostSpillFallsBackToOlderCheckpoint) {
  auto store = make_store(Bytes::of(128));
  InMemoryBlobStore blobs;
  CheckpointClient checkpoints(store, blobs, "fn-5");
  ASSERT_TRUE(checkpoints.save(0, "small-and-safe").ok());
  ASSERT_TRUE(checkpoints.save(1, std::string(1024, 'y')).ok());
  // The spilled blob dies (node-local tier lost with its node).
  ASSERT_TRUE(blobs.remove("app-blob/fn-5/1").ok());

  const auto restored = checkpoints.load_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->state_index, 0u);
  EXPECT_EQ(restored->state_data, "small-and-safe");
}

TEST(CheckpointClientTest, CorruptRecordFallsBackToOlderCheckpoint) {
  auto store = make_store();
  InMemoryBlobStore blobs;
  CheckpointClient checkpoints(store, blobs, "fn-9");
  ASSERT_TRUE(checkpoints.save(0, "older").ok());
  ASSERT_TRUE(checkpoints.save(1, "newest").ok());
  // Bit rot in the newest record: its bytes no longer match the checksum
  // written at put time, so it must not be decoded.
  ASSERT_TRUE(store.corrupt_entry("app-ckpt/fn-9/1"));

  const auto restored = checkpoints.load_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->state_index, 0u);
  EXPECT_EQ(restored->state_data, "older");
}

TEST(CheckpointClientTest, CorruptSpillRecordFallsBackToOlderCheckpoint) {
  auto store = make_store(Bytes::of(128));
  InMemoryBlobStore blobs;
  CheckpointClient checkpoints(store, blobs, "fn-10");
  ASSERT_TRUE(checkpoints.save(0, "small-and-safe").ok());
  ASSERT_TRUE(checkpoints.save(1, std::string(1024, 'y')).ok());
  ASSERT_EQ(checkpoints.spills(), 1u);
  // The rotted location record no longer names its blob.
  ASSERT_TRUE(store.corrupt_entry("app-ckpt/fn-10/1"));

  const auto restored = checkpoints.load_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->state_index, 0u);
  EXPECT_EQ(restored->state_data, "small-and-safe");
}

TEST(CheckpointClientTest, RetentionKeepsLatestN) {
  auto store = make_store();
  InMemoryBlobStore blobs;
  ClientConfig config;
  config.retention = 2;
  CheckpointClient checkpoints(store, blobs, "fn-6", config);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(checkpoints.save(i, "s" + std::to_string(i)).ok());
  }
  EXPECT_EQ(store.keys_with_prefix("app-ckpt/fn-6/").size(), 2u);
  const auto restored = checkpoints.load_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->state_index, 4u);
}

TEST(CheckpointClientTest, ResaveSameIndexOverwrites) {
  auto store = make_store();
  InMemoryBlobStore blobs;
  CheckpointClient checkpoints(store, blobs, "fn-7");
  ASSERT_TRUE(checkpoints.save(0, "first").ok());
  ASSERT_TRUE(checkpoints.save(0, "second").ok());
  const auto restored = checkpoints.load_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->state_data, "second");
  EXPECT_EQ(store.keys_with_prefix("app-ckpt/fn-7/").size(), 1u);
}

TEST(CheckpointClientTest, ClientsAreNamespaced) {
  auto store = make_store();
  InMemoryBlobStore blobs;
  CheckpointClient a(store, blobs, "fn-a");
  CheckpointClient b(store, blobs, "fn-b");
  ASSERT_TRUE(a.save(0, "a-state").ok());
  ASSERT_TRUE(b.save(0, "b-state").ok());
  EXPECT_EQ(a.load_latest()->state_data, "a-state");
  EXPECT_EQ(b.load_latest()->state_data, "b-state");
  EXPECT_EQ(store.keys_with_prefix("app-ckpt/fn-a/").size(), 1u);
  EXPECT_EQ(store.keys_with_prefix("app-ckpt/fn-b/").size(), 1u);
}

TEST(CheckpointClientTest, EmptyStoreLoadsNothing) {
  auto store = make_store();
  InMemoryBlobStore blobs;
  CheckpointClient checkpoints(store, blobs, "fn-8");
  EXPECT_FALSE(checkpoints.load_latest().has_value());
}

}  // namespace
}  // namespace canary::client
