// Small-buffer-optimized callable: the kernel's replacement for
// std::function on the per-message hot paths.
//
// Every simulated message schedules at least one event, and every event used
// to carry a std::function whose capture list (frame payload pointer, trace
// context, node ids) overflows libstdc++'s 16-byte inline buffer — one heap
// allocation per message, twice that under the reliable channel. SmallFn
// widens the inline buffer so every closure the substrate creates is stored
// in place; a static counter exposes how often the heap fallback fires so
// bench/kernel_overhead can assert the steady-state path allocates nothing.
// The object is 96 bytes (the 88-byte buffer, then the 8-byte ops pointer),
// which is what every pending event in the kernel's queue costs on top of
// its heap entry and generation.
//
// Copyable on purpose: net::Network duplicates a delivery callback when the
// fault injector clones a message, and the reliable channel re-captures
// callbacks across retransmissions. Closures that reach SmallFn must
// therefore be copy-constructible — all scheduler/transport lambdas in this
// codebase are (they capture pointers, ids, and refcounted payload handles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace optsync::util {

/// How many times any SmallFn fell back to a heap-allocated target since
/// process start. A plain counter (single-threaded kernel); benches read it
/// around a run to prove the hot path stays allocation-free.
inline std::uint64_t& small_fn_heap_allocs() {
  static std::uint64_t n = 0;
  return n;
}

template <typename Signature, std::size_t InlineBytes = 88>
class SmallFn;

template <typename R, typename... Args, std::size_t InlineBytes>
class SmallFn<R(Args...), InlineBytes> {
 public:
  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (kInline<Fn>) {
      ::new (storage()) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<void**>(storage()) = new Fn(std::forward<F>(f));
      ++small_fn_heap_allocs();
      ops_ = &heap_ops<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage(), other.storage());
      other.ops_ = nullptr;
    }
  }

  SmallFn(const SmallFn& other) : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->copy(storage(), other.storage());
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage(), other.storage());
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn& operator=(const SmallFn& other) {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->copy(storage(), other.storage());
    }
    return *this;
  }

  SmallFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  ~SmallFn() { reset(); }

  R operator()(Args... args) const {
    return ops_->call(storage(), std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const SmallFn& f, std::nullptr_t) { return !f; }
  friend bool operator!=(const SmallFn& f, std::nullptr_t) {
    return static_cast<bool>(f);
  }

  /// True when the current target lives in the inline buffer (empty counts
  /// as inline). Exposed for the kernel_overhead bench and unit tests.
  [[nodiscard]] bool is_inline() const {
    return ops_ == nullptr || ops_->inline_stored;
  }

  static constexpr std::size_t inline_bytes() { return InlineBytes; }

 private:
  template <typename Fn>
  static constexpr bool kInline = sizeof(Fn) <= InlineBytes &&
                                  alignof(Fn) <= alignof(std::max_align_t) &&
                                  std::is_nothrow_move_constructible_v<Fn>;

  struct Ops {
    R (*call)(void*, Args&&...);
    void (*relocate)(void* dst, void* src);  // move into dst, destroy src
    void (*copy)(void* dst, const void* src);
    void (*destroy)(void*);
    bool inline_stored;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      +[](void* s, Args&&... args) -> R {
        return (*static_cast<Fn*>(s))(std::forward<Args>(args)...);
      },
      +[](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      +[](void* dst, const void* src) {
        ::new (dst) Fn(*static_cast<const Fn*>(src));
      },
      +[](void* s) { static_cast<Fn*>(s)->~Fn(); },
      true,
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      +[](void* s, Args&&... args) -> R {
        return (**static_cast<Fn**>(s))(std::forward<Args>(args)...);
      },
      +[](void* dst, void* src) {
        *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
      },
      +[](void* dst, const void* src) {
        *static_cast<Fn**>(dst) = new Fn(**static_cast<Fn* const*>(src));
        ++small_fn_heap_allocs();
      },
      +[](void* s) { delete *static_cast<Fn**>(s); },
      false,
  };

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage());
      ops_ = nullptr;
    }
  }

  void* storage() const { return const_cast<unsigned char*>(buf_); }

  // Buffer first: at the default 88 bytes the pointer then fills the last
  // 8 bytes of the 16-aligned object (96 B) instead of padding out ahead
  // of the buffer (112 B).
  alignas(std::max_align_t) unsigned char buf_[InlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace optsync::util
