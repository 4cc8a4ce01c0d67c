// Move-only callable with small-buffer optimization.
//
// The simulator schedules millions of short-lived callbacks per run;
// wrapping each in std::function costs one heap allocation (plus another
// for captures beyond the libstdc++ 16-byte inline window) on the hottest
// path of the whole system. UniqueFunction stores any callable whose
// state fits kInlineSize bytes (and is nothrow-movable) directly inside
// the object, so the common platform lambdas — a `this` pointer plus a
// few ids and durations — never touch the allocator. Larger or
// throwing-move callables transparently fall back to the heap, and
// move-only captures (e.g. a moved-in std::function or unique_ptr) are
// supported, which std::function cannot do at all.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace canary::sim {

class UniqueFunction {
 public:
  /// Inline capture budget. 64 bytes covers every platform callback
  /// (state advance, kill timer, pump tick, warm-container launch);
  /// anything larger spills to the heap.
  static constexpr std::size_t kInlineSize = 64;

  UniqueFunction() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, UniqueFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    constexpr bool kFitsInline =
        sizeof(D) <= kInlineSize &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;
    if constexpr (kFitsInline) {
      ::new (static_cast<void*>(inline_)) D(std::forward<F>(f));
      ops_ = &kOps<D, true>;
    } else {
      heap_ = new D(std::forward<F>(f));
      ops_ = &kOps<D, false>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { steal(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(target()); }

  /// Destroy the stored callable (and release any heap storage) now.
  /// Cancellation uses this so a dead event's captures do not linger in
  /// the slab until the slot is reused.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(target());
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* obj);
    /// Move-construct the callable into `dst` and destroy the source.
    /// Only reached for inline storage; heap storage moves by pointer.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* obj) noexcept;
    bool inline_stored;
  };

  template <typename D, bool Inline>
  static constexpr Ops kOps = {
      [](void* obj) { (*static_cast<D*>(obj))(); },
      [](void* src, void* dst) noexcept {
        if constexpr (std::is_nothrow_move_constructible_v<D>) {
          ::new (dst) D(std::move(*static_cast<D*>(src)));
          static_cast<D*>(src)->~D();
        }
      },
      [](void* obj) noexcept {
        if constexpr (Inline) {
          static_cast<D*>(obj)->~D();
        } else {
          delete static_cast<D*>(obj);
        }
      },
      Inline,
  };

  void* target() {
    return ops_->inline_stored ? static_cast<void*>(inline_) : heap_;
  }

  void steal(UniqueFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    if (other.ops_->inline_stored) {
      other.ops_->relocate(other.inline_, inline_);
    } else {
      heap_ = other.heap_;
    }
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  union {
    alignas(std::max_align_t) unsigned char inline_[kInlineSize];
    void* heap_;
  };
  const Ops* ops_ = nullptr;
};

}  // namespace canary::sim
