#include "obs/name.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>

#include "common/result.hpp"

namespace canary::obs {

namespace {

/// Literal texts, indexed by Name::Literal.
constexpr std::array<std::string_view, Name::kLiteralCount> kLiterals = {
    "",
    "launch",
    "init",
    "restore",
    "warm_dispatch",
    "exec",
    "finalize",
    "complete",
    "detect",
    "recovered",
    "sla_violation",
    "hedged",
    "hedge_cancelled",
    "replica_provision",
    "replica_ready",
    "container_kill",
    "node_failure",
    "timeout",
    "recovery_stall",
    "recovery",
    "checkpoint",
    "retry_restart",
    "cold_fallback_recovery",
    "replica_recovery",
    "sla_promised_recovery",
    "recovery_stall_reroute",
    "hedge_clone_abandoned",
    "hedge_retry",
    "rr_group_restart",
    "as_standby_activation",
    "as_cold_restart",
    "discarded",
    "node_fenced",
    "node_marked_suspect",
    "zombie_commit_committed",
    "zombie_commit_rejected",
    "worker_suspected",
    "worker_unsuspected",
    "worker_confirmed_dead",
    "injected_node_failure",
    "injected_correlated_node_failure",
    "injected_zone_outage",
    "injected_zone_outage_kill",
    "injected_gray_start",
    "injected_gray_end",
    "injected_store_fault",
    "partition_start",
    "partition_heal",
};

}  // namespace

std::optional<Name> Name::literal(std::string_view text) {
  const auto it = std::find(kLiterals.begin(), kLiterals.end(), text);
  if (it == kLiterals.end()) return std::nullopt;
  return Name(static_cast<Literal>(it - kLiterals.begin()));
}

Name NameArena::add(std::string_view text) {
  CANARY_CHECK(text.size() <= UINT32_MAX, "name longer than 4 GiB");
  const auto size = static_cast<std::uint32_t>(text.size());
  const std::size_t need = sizeof(size) + text.size();
  if (used_ + need > kChunkBytes) {
    // A text longer than a chunk gets a chunk of its own; the next add()
    // starts a fresh one after it.
    chunks_.push_back(
        std::make_unique_for_overwrite<char[]>(std::max(need, kChunkBytes)));
    used_ = 0;
  }
  char* at = chunks_.back().get() + used_;
  std::memcpy(at, &size, sizeof(size));
  if (size > 0) std::memcpy(at + sizeof(size), text.data(), size);
  const Name name = Name::tagged(
      Name::Tag::kText, (chunks_.size() - 1) << kChunkBits | used_);
  used_ += need;
  return name;
}

std::string_view NameArena::text(Name name) const {
  const std::uint32_t payload = name.payload();
  const char* at = chunks_[payload >> kChunkBits].get() +
                   (payload & (kChunkBytes - 1));
  std::uint32_t size = 0;
  std::memcpy(&size, at, sizeof(size));
  return {at + sizeof(size), size};
}

NameText render(Name name, const NameArena* arena) {
  NameText out;
  std::string_view prefix;
  switch (name.tag()) {
    case Name::Tag::kLiteral:
      CANARY_CHECK(name.payload() < Name::kLiteralCount, "unknown literal");
      out.data_ = kLiterals[name.payload()].data();
      out.size_ = kLiterals[name.payload()].size();
      return out;
    case Name::Tag::kText: {
      CANARY_CHECK(arena != nullptr, "a text name renders through its log");
      const std::string_view text = arena->text(name);
      out.data_ = text.data();
      out.size_ = text.size();
      return out;
    }
    case Name::Tag::kState: prefix = "state_"; break;
    case Name::Tag::kCheckpoint: prefix = "checkpoint_"; break;
  }
  std::memcpy(out.buf_, prefix.data(), prefix.size());
  char* end = out.buf_ + sizeof(out.buf_);
  const auto [ptr, ec] =
      std::to_chars(out.buf_ + prefix.size(), end, name.payload());
  (void)ec;  // 11 + 10 digits always fit
  out.size_ = static_cast<std::size_t>(ptr - out.buf_);
  out.formatted_ = true;
  return out;
}

}  // namespace canary::obs
