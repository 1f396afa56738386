// edp::sim — a small-buffer-only callable for the scheduler hot path.
//
// Every simulated event carries a closure; std::function heap-allocates any
// capture larger than its (implementation-defined, ~16 byte) small buffer,
// which at millions of events per second makes the allocator the kernel's
// bottleneck. InlineCallback stores the closure in fixed inline storage and
// has NO heap fallback: a closure that does not fit is a compile error
// (static_assert), so the zero-allocation property is enforced at build
// time rather than decaying silently as captures grow.
//
// Requirements on the callable: nothrow-move-constructible (callbacks are
// relocated, e.g. from a batch into a scheduler slot) and invocable as
// void(). Copy is intentionally unsupported — events fire exactly once, so
// unlike std::function the callable may be move-only (e.g. capture a
// net::Packet or std::unique_ptr by value without a shared_ptr wrapper).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace edp::sim {

class InlineCallback {
 public:
  /// Sized for the largest in-tree closure: the transmit/cross-shard
  /// completions capture a net::Packet (~56 bytes) plus a pointer and port.
  static constexpr std::size_t kCapacity = 96;
  static constexpr std::size_t kAlign = 16;

  InlineCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback>>>
  InlineCallback(F&& fn) {  // NOLINT: implicit by design, like std::function
    construct(std::forward<F>(fn));
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// Replace the held closure by one built directly in this storage from
  /// `fn` — no temporary InlineCallback, so a closure that captures a
  /// packet is moved exactly once on its way into a scheduler slot.
  template <typename F>
  void emplace(F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
      *this = std::move(fn);
    } else {
      reset();
      construct(std::forward<F>(fn));
    }
  }

  /// Destroy the held closure (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  template <typename F>
  void construct(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "closure exceeds InlineCallback storage: shrink the "
                  "capture (capture pointers/indices, or box the state in a "
                  "unique_ptr) or raise kCapacity");
    static_assert(alignof(Fn) <= kAlign,
                  "closure over-aligned for InlineCallback storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "closures must be nothrow-move-constructible (callbacks "
                  "are relocated)");
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "InlineCallback requires a void() callable");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    ops_ = &kOps<Fn>;
  }

  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* src, void* dst);  ///< move-construct + destroy src
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* self) { (*std::launder(reinterpret_cast<Fn*>(self)))(); },
      [](void* src, void* dst) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* self) { std::launder(reinterpret_cast<Fn*>(self))->~Fn(); },
  };

  // ops_ leads so that it shares a cache line with the first bytes of the
  // closure: for the common small capture, dispatch + state is one line.
  const Ops* ops_ = nullptr;
  alignas(kAlign) unsigned char storage_[kCapacity];
};

}  // namespace edp::sim
