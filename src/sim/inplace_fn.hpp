// sim::InplaceFn — the Engine's zero-allocation event payload.
//
// std::function heap-allocates any callable larger than its small-buffer
// optimization (16 bytes on libstdc++), which made nearly every posted
// wire continuation — a Segment/Packet moved into the lambda plus a few
// pointers — a malloc/free pair on the dispatch path. FabricHot-Check
// (scripts/hotpath_check.py) flagged that as the headline hot-path
// impurity; InplaceFn is the fix: a move-only callable wrapper whose
// storage is entirely inline, sized at compile time for the largest
// continuation in the tree.
//
// Contract:
//   * No heap, ever. A callable that does not fit the inline capacity is
//     rejected at compile time (deleted constructor), never spilled to
//     the heap — growing a capture is a conscious decision about every
//     event's footprint, not a silent allocation. tests/hotpath_test.cpp
//     probes the over-size rejection via std::is_constructible.
//   * Move-only, destructive. Moving transfers the callable (the
//     per-type operations table moves only sizeof(F) bytes, not the full
//     capacity) and empties the source. No copies: posted continuations
//     own moved-in frames and completion state.
//   * Buildable in place. emplace() constructs a callable directly in an
//     existing wrapper's storage, so the Engine builds each posted
//     continuation in its queue slot instead of building a temporary and
//     relocating it there.
//   * Deterministic. Construction, move and destruction touch nothing
//     global — no allocator, no registry — so swapping std::function for
//     InplaceFn leaves every run digest byte-identical (pinned by
//     scripts/check_determinism.sh across the swap).
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace fabsim::sim {

/// Inline storage for one posted continuation. Sized for the largest
/// wire-handoff lambda in the tree (an iwarp::Rnic Segment or ib::Hca
/// Packet moved into the capture plus a handful of pointers) while
/// keeping the whole wrapper — ops pointer + storage — at 184 bytes, so
/// the Engine's queue slot (wrapper + scope label) is 192 bytes, three
/// cache lines; the compile-time fit check below turns a capture that
/// outgrows this into a build error naming the offending post site.
inline constexpr std::size_t kEventFnCapacity = 176;

/// Move-only callable with fixed inline storage and no heap fallback.
template <std::size_t Capacity = kEventFnCapacity>
class InplaceFn {
 public:
  /// True when a callable of type F can be held: it fits the capacity,
  /// needs no more than pointer alignment, and can be moved.
  template <typename F>
  static constexpr bool fits = sizeof(F) <= Capacity && alignof(F) <= alignof(void*) &&
                               std::is_move_constructible_v<F>;

  InplaceFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InplaceFn> &&
             fits<std::remove_cvref_t<F>>)
  InplaceFn(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors std::function
    emplace(std::forward<F>(fn));
  }

  /// A callable that exceeds the inline capacity is a compile error, not
  /// a heap allocation: grow kEventFnCapacity deliberately or shrink the
  /// capture. (std::is_constructible_v stays false — probed by tests.)
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InplaceFn> &&
             !fits<std::remove_cvref_t<F>>)
  InplaceFn(F&& fn) = delete;  // NOLINT(google-explicit-constructor)

  InplaceFn(InplaceFn&& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      relocate_from(other);
      other.ops_ = nullptr;
    }
  }

  InplaceFn& operator=(InplaceFn&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        ops_ = other.ops_;
        relocate_from(other);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InplaceFn(const InplaceFn&) = delete;
  InplaceFn& operator=(const InplaceFn&) = delete;

  ~InplaceFn() { reset(); }

  /// True when a callable is held (moved-from InplaceFns are empty).
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  /// Replace the held callable (if any) with `fn`, constructed directly
  /// in the inline storage: no temporary wrapper, no relocation.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InplaceFn> &&
             fits<std::remove_cvref_t<F>>)
  void emplace(F&& fn) {
    reset();
    using Fn = std::remove_cvref_t<F>;
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));  // NOLINT: placement new, no allocation
    ops_ = &ops_for<Fn>;
  }

  /// Destroy the held callable, if any; the wrapper is empty afterwards.
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into dst from src, then destroy src (a destructive
    /// move: touches only sizeof(F) bytes of the capacity). Null when the
    /// callable is trivially relocatable — a memcpy of trivial_size bytes
    /// replaces the indirect call, which matters on the post path where
    /// the compiler cannot see through a function pointer.
    void (*relocate)(void* dst, void* src);
    /// Null when destruction is a no-op (trivially destructible capture).
    void (*destroy)(void*);
    /// memcpy length when relocate is null. 0 for a capture-less
    /// callable: its one byte is never written, so copying it would read
    /// uninitialized storage (which GCC rightly flags under -Werror).
    std::size_t trivial_size;
  };

  template <typename Fn>
  static constexpr bool trivially_relocatable =
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;

  template <typename Fn>
  static constexpr Ops ops_for{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      trivially_relocatable<Fn>
          ? nullptr
          : +[](void* dst, void* src) {
              ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));  // NOLINT: placement new, no allocation
              static_cast<Fn*>(src)->~Fn();
            },
      std::is_trivially_destructible_v<Fn> ? nullptr
                                           : +[](void* p) { static_cast<Fn*>(p)->~Fn(); },
      trivially_relocatable<Fn> && !std::is_empty_v<Fn> ? sizeof(Fn) : 0,
  };

  /// Precondition: other.ops_ != nullptr and ops_ == other.ops_.
  void relocate_from(InplaceFn& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, ops_->trivial_size);
    }
  }

  // ops_ deliberately precedes the storage, with no padding between
  // them: together with the first bytes of a small capture it shares one
  // cache line, so parking and dispatching a typical continuation
  // touches a single line of the Engine's payload slab instead of two.
  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char storage_[Capacity];
};

/// The Engine's event-payload type: every posted continuation must fit.
using EventFn = InplaceFn<>;

}  // namespace fabsim::sim
