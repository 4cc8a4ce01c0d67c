#include "cluster/storage.hpp"

#include "common/result.hpp"

namespace canary::cluster {

StorageHierarchy StorageHierarchy::testbed() {
  // Latency/bandwidth figures follow published measurements: Ignite-class
  // KV ops ~0.5 ms; Ramdisk multi-GiB/s; Optane AppDirect ~1-2 GiB/s
  // writes, faster reads; NFS over 10GbE ~100 MiB/s effective; SATA SSD
  // ~400 MiB/s.
  return StorageHierarchy({
      {StorageTier::kKvStore, Duration::usec(500), 900.0, 1200.0,
       Bytes::gib(8), /*shared=*/true, /*survives=*/true},
      {StorageTier::kRamdisk, Duration::usec(30), 4000.0, 6000.0,
       Bytes::gib(32), /*shared=*/false, /*survives=*/false},
      {StorageTier::kPmem, Duration::usec(60), 1400.0, 2600.0,
       Bytes::gib(128), /*shared=*/false, /*survives=*/true},
      {StorageTier::kNfs, Duration::msec(1), 110.0, 160.0,
       Bytes::gib(1024), /*shared=*/true, /*survives=*/true},
      {StorageTier::kLocalDisk, Duration::usec(120), 420.0, 520.0,
       Bytes::gib(512), /*shared=*/false, /*survives=*/false},
  });
}

StorageHierarchy::StorageHierarchy(std::vector<TierProfile> tiers)
    : tiers_(std::move(tiers)) {
  CANARY_CHECK(!tiers_.empty(), "storage hierarchy needs at least one tier");
}

const TierProfile& StorageHierarchy::profile(StorageTier tier) const {
  for (const auto& t : tiers_) {
    if (t.tier == tier) return t;
  }
  CANARY_CHECK(false, "storage tier not configured");
  return tiers_.front();  // unreachable
}

bool StorageHierarchy::has_tier(StorageTier tier) const {
  for (const auto& t : tiers_) {
    if (t.tier == tier) return true;
  }
  return false;
}

std::optional<StorageTier> StorageHierarchy::spill_tier_for(Bytes payload) const {
  for (const auto& t : tiers_) {
    if (t.tier == StorageTier::kKvStore) continue;  // spill leaves the KV
    if (payload.count() <= t.capacity.count()) return t.tier;
  }
  return std::nullopt;
}

Duration StorageHierarchy::write_time(StorageTier tier, Bytes payload) const {
  const auto& p = profile(tier);
  return p.access_latency + Duration::sec(payload.to_mib() / p.write_mib_per_sec);
}

Duration StorageHierarchy::read_time(StorageTier tier, Bytes payload) const {
  const auto& p = profile(tier);
  return p.access_latency + Duration::sec(payload.to_mib() / p.read_mib_per_sec);
}

}  // namespace canary::cluster
