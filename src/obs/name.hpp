// Record names: 32-bit ids that render as text at export.
//
// Every event and span carries a name, and a causal log holds hundreds of
// thousands of them, so a record stores a 4-byte Name instead of a string.
// Three kinds of name share the id space, told apart by its top two bits:
//
//   * literals, fixed per event kind or per call site ("launch",
//     "warm_dispatch", "retry_restart"): an index into one static table;
//   * indexed names, "state_<N>" (a state commit) and "checkpoint_<N>"
//     (its checkpoint write): the id stores N and the text is formatted
//     only when the name is rendered;
//   * text (function names, freeform annotations): copied once into the
//     character arena of the log that records it (NameArena) and named by
//     its place there.
//
// render() turns any name back into exactly the text its producer meant,
// so exported bytes do not depend on how a name is stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace canary::obs {

class NameArena;
class NameText;

class Name {
 public:
  /// Every literal name in the program, in table order; kUnnamed ("") is
  /// the value-initialised name.
  enum Literal : std::uint32_t {
    kUnnamed,
    // Lifecycle steps, fixed per kind (two for kRestore).
    kLaunch,
    kInit,
    kRestore,
    kWarmDispatch,
    kExec,
    kFinalize,
    kComplete,
    kDetect,
    kRecovered,
    kSlaViolation,
    kHedged,
    kHedgeCancelled,
    kReplicaProvision,
    kReplicaReady,
    // Failure kinds (faas::FailureKind); kNodeFailure also names the
    // node-level event.
    kContainerKill,
    kNodeFailure,
    kTimeout,
    kRecoveryStall,
    // Derived span names.
    kRecovery,
    kCheckpoint,
    // Recovery actions, one per strategy decision.
    kRetryRestart,
    kColdFallbackRecovery,
    kReplicaRecovery,
    kSlaPromisedRecovery,
    kRecoveryStallReroute,
    kHedgeCloneAbandoned,
    kHedgeRetry,
    kRrGroupRestart,
    kAsStandbyActivation,
    kAsColdRestart,
    // Annotations: platform, Canary modules and the fault injector.
    kDiscarded,
    kNodeFenced,
    kNodeMarkedSuspect,
    kZombieCommitCommitted,
    kZombieCommitRejected,
    kWorkerSuspected,
    kWorkerUnsuspected,
    kWorkerConfirmedDead,
    kInjectedNodeFailure,
    kInjectedCorrelatedNodeFailure,
    kInjectedZoneOutage,
    kInjectedZoneOutageKill,
    kInjectedGrayStart,
    kInjectedGrayEnd,
    kInjectedStoreFault,
    kPartitionStart,
    kPartitionHeal,
    kLiteralCount,
  };

  constexpr Name() = default;  // kUnnamed
  constexpr Name(Literal literal) : bits_(literal) {}

  /// "state_<index>" and "checkpoint_<index>"; CHECK-fail past 2^30.
  static Name state(std::size_t index) { return tagged(Tag::kState, index); }
  static Name checkpoint(std::size_t index) {
    return tagged(Tag::kCheckpoint, index);
  }

  /// The literal that renders as `text`, if there is one.
  static std::optional<Name> literal(std::string_view text);

  bool operator==(const Name&) const = default;

 private:
  friend class NameArena;
  friend NameText render(Name name, const NameArena* arena);

  enum class Tag : std::uint32_t { kLiteral, kState, kCheckpoint, kText };
  static constexpr unsigned kTagShift = 30;
  static constexpr std::uint32_t kPayloadMask = (1u << kTagShift) - 1;

  static Name tagged(Tag tag, std::size_t payload) {
    CANARY_CHECK(payload <= kPayloadMask, "name payload exceeds 30 bits");
    Name name;
    name.bits_ = static_cast<std::uint32_t>(tag) << kTagShift |
                 static_cast<std::uint32_t>(payload);
    return name;
  }
  Tag tag() const { return static_cast<Tag>(bits_ >> kTagShift); }
  std::uint32_t payload() const { return bits_ & kPayloadMask; }

  std::uint32_t bits_ = kUnnamed;
};

/// Where text names live: one log's function names and annotations,
/// packed length-prefixed into 64 KiB chunks that never move. A name is
/// its chunk and offset, so adding one allocates only when a chunk fills.
class NameArena {
 public:
  /// Copy `text` in and name it; CHECK-fails past 2^14 chunks (1 GiB).
  Name add(std::string_view text);

 private:
  friend NameText render(Name name, const NameArena* arena);

  /// The text of a name add() returned.
  std::string_view text(Name name) const;

  static constexpr std::size_t kChunkBits = 16;
  static constexpr std::size_t kChunkBytes = std::size_t{1} << kChunkBits;

  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t used_ = kChunkBytes;  // bytes taken in the last chunk
};

/// A name as text. Literal and arena text are viewed where they live; an
/// indexed name is formatted into the object itself, so a view() of it
/// lives only as long as the NameText.
class NameText {
 public:
  std::string_view view() const {
    return formatted_ ? std::string_view(buf_, size_)
                      : std::string_view(data_, size_);
  }

 private:
  friend NameText render(Name name, const NameArena* arena);

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool formatted_ = false;
  char buf_[32];
};

/// The text of `name`. A text name needs the arena that holds it; with a
/// null `arena` only literal and indexed names render (CHECK otherwise).
NameText render(Name name, const NameArena* arena);

}  // namespace canary::obs
