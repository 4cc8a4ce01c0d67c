// Strong identifier types.
//
// Every entity in the platform (jobs, function invocations, containers,
// nodes, checkpoints) is addressed by a tagged 64-bit id. The
// tag makes JobId/FunctionId/... distinct types, so passing a ContainerId
// where a NodeId is expected fails to compile. Id value 0 is reserved as
// the invalid sentinel; every IdGenerator starts at 1.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace canary {

template <typename Tag>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(std::uint64_t v) : value_(v) {}

  static constexpr Id invalid() { return Id{0}; }
  constexpr bool valid() const { return value_ != 0; }
  constexpr std::uint64_t value() const { return value_; }

  constexpr auto operator<=>(const Id&) const = default;

 private:
  std::uint64_t value_ = 0;
};

struct JobTag {};
struct FunctionTag {};
struct ContainerTag {};
struct NodeTag {};
struct CheckpointTag {};
struct AccountTag {};

using JobId = Id<JobTag>;
using FunctionId = Id<FunctionTag>;
using ContainerId = Id<ContainerTag>;
using NodeId = Id<NodeTag>;
using CheckpointId = Id<CheckpointTag>;
using AccountId = Id<AccountTag>;

template <typename Tag>
std::string to_string(Id<Tag> id) {
  return std::to_string(id.value());
}

/// Monotonic generator for one id family (paper §IV-C1: the Core Module
/// "generates a set of unique IDs for the submitted jobs, functions,
/// checkpoints, and replicas"). The Checkpointing Module issues
/// checkpoint ids with one; the platform's job, function and container
/// ids are their records' slab positions, and a replica is addressed by
/// its container's id.
template <typename IdT>
class IdGenerator {
 public:
  IdT next() { return IdT{next_++}; }
  std::uint64_t issued() const { return next_ - 1; }

 private:
  std::uint64_t next_ = 1;
};

}  // namespace canary

namespace std {
template <typename Tag>
struct hash<canary::Id<Tag>> {
  size_t operator()(canary::Id<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
}  // namespace std
