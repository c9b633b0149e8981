// Move-only callable with small-buffer optimization for the event kernel.
//
// Every scheduled event used to carry a std::function<void()>, whose copyable
// type-erasure forces a heap allocation for anything bigger than two words.
// The kernel's common case — a lambda capturing `this` plus a handful of
// pointers and counts — fits comfortably in a fixed inline buffer, so
// Action stores callables up to kInlineSize bytes in place and only falls
// back to the heap for oversized or throwing-move captures. Actions are
// move-only (an event fires exactly once; nothing ever needs to copy one),
// which also admits move-only captures that std::function rejects.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hsfi::sim {

class Action {
 public:
  /// Room for any hot-path capture (the largest, a Channel delivery, is
  /// this + sink + start + count = 32 bytes) and most cold ones. Total
  /// Action = 64 bytes.
  static constexpr std::size_t kInlineSize = 56;

  Action() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  Action(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    emplace(std::forward<F>(f));
  }

  Action(Action&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) take_callable(other);
  }

  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) take_callable(other);
    }
    return *this;
  }

  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;

  ~Action() { reset(); }

  /// Precondition: *this holds a callable.
  void operator()() { ops_->invoke(storage_); }

  /// Replaces the held callable with one constructed directly from `f` in
  /// this Action's storage, so a callable forwarded down to its final
  /// resting place (an event-queue slot) is built once and never relocated.
  /// An Action argument is moved in instead.
  template <typename F>
    requires(std::is_same_v<std::remove_cvref_t<F>, Action> ||
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  void emplace(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (std::is_same_v<Fn, Action>) {
      *this = std::forward<F>(f);
    } else {
      reset();
      if constexpr (sizeof(Fn) <= kInlineSize &&
                    alignof(Fn) <= alignof(std::max_align_t) &&
                    std::is_nothrow_move_constructible_v<Fn>) {
        ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
        ops_ = &kInlineOps<Fn>;
      } else {
        ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
        ops_ = &kHeapOps<Fn>;
      }
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Destroys the held callable (releasing any captured resources) and
  /// leaves *this empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Whether clone() can duplicate the held callable. Empty Actions are
  /// trivially clonable; a non-empty Action is clonable iff the erased
  /// callable is copy-constructible.
  [[nodiscard]] bool clonable() const noexcept {
    return ops_ == nullptr || ops_->clone != nullptr;
  }

  /// Duplicates the held callable (EventQueue snapshots copy every pending
  /// event's action this way). Precondition: clonable().
  [[nodiscard]] Action clone() const {
    Action out;
    if (ops_ != nullptr) {
      ops_->clone(out.storage_, storage_);
      out.ops_ = ops_;
    }
    return out;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the callable into `dst` from `src` and destroys the
    /// `src` copy; nullptr when a byte copy of the storage does that (a
    /// heap-held callable's pointer, or an inline trivially copyable
    /// callable: every hot-path capture).
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr when there is nothing to destroy.
    void (*destroy)(void*) noexcept;
    /// Copy-constructs the callable into `dst` from `src`; nullptr when the
    /// callable is move-only (such an action cannot be snapshotted).
    void (*clone)(void* dst, const void* src);
  };

  template <typename Fn>
  static constexpr auto clone_inline() {
    if constexpr (std::is_copy_constructible_v<Fn>) {
      return +[](void* dst, const void* src) {
        ::new (dst) Fn(*std::launder(reinterpret_cast<const Fn*>(src)));
      };
    } else {
      return static_cast<void (*)(void*, const void*)>(nullptr);
    }
  }

  template <typename Fn>
  static constexpr auto clone_heap() {
    if constexpr (std::is_copy_constructible_v<Fn>) {
      return +[](void* dst, const void* src) {
        ::new (dst)
            Fn*(new Fn(**std::launder(reinterpret_cast<Fn* const*>(src))));
      };
    } else {
      return static_cast<void (*)(void*, const void*)>(nullptr);
    }
  }

  template <typename Fn>
  static constexpr auto relocate_inline() {
    if constexpr (std::is_trivially_copyable_v<Fn>) {
      return static_cast<void (*)(void*, void*) noexcept>(nullptr);
    } else {
      return +[](void* dst, void* src) noexcept {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      };
    }
  }

  template <typename Fn>
  static constexpr auto destroy_inline() {
    if constexpr (std::is_trivially_destructible_v<Fn>) {
      return static_cast<void (*)(void*) noexcept>(nullptr);
    } else {
      return +[](void* p) noexcept {
        std::launder(reinterpret_cast<Fn*>(p))->~Fn();
      };
    }
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      relocate_inline<Fn>(),
      destroy_inline<Fn>(),
      clone_inline<Fn>(),
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
      nullptr,  // relocating moves the pointer: a byte copy
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<Fn**>(p)); },
      clone_heap<Fn>(),
  };

  /// Moves `other`'s callable into this Action's storage and empties
  /// `other`. Precondition: ops_ == other.ops_ != nullptr.
  void take_callable(Action& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineSize);
    }
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace hsfi::sim
