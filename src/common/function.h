// UniqueFn: a move-only `void()` callable with inline small-buffer storage.
//
// Every timer and every simulated network delivery stores one of these.
// Unlike std::function it does not require the target to be copyable, so
// callbacks may own move-only state. Targets up to kInlineSize bytes (a few
// captured pointers and ids) live inside the event slot, so scheduling them
// does not heap-allocate; larger targets cost one allocation. A captured
// wire::Message (232 bytes) does not fit: the simulated network parks
// in-flight messages in its own pool and schedules only their index.

#ifndef SRC_COMMON_FUNCTION_H_
#define SRC_COMMON_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace itv {

class UniqueFn {
 public:
  // Targets up to this size are stored inline; larger ones cost one heap
  // allocation.
  static constexpr std::size_t kInlineSize = 120;

  // True if a `F` target is stored inside the UniqueFn rather than on the
  // heap. Hot paths static_assert it for the closures they schedule.
  template <typename F>
  static constexpr bool kStoresInline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  UniqueFn() = default;
  UniqueFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  UniqueFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (kStoresInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      call_ = [](void* s) { (*static_cast<Fn*>(s))(); };
      manage_ = [](Op op, void* s, void* dst) {
        Fn* self = static_cast<Fn*>(s);
        if (op == Op::kMove) {
          ::new (dst) Fn(std::move(*self));
        }
        self->~Fn();  // After a move the source is destroyed too.
      };
    } else {
      Fn* heap = new Fn(std::forward<F>(f));
      ::new (static_cast<void*>(storage_)) Fn*(heap);
      call_ = [](void* s) { (**static_cast<Fn**>(s))(); };
      manage_ = [](Op op, void* s, void* dst) {
        Fn** self = static_cast<Fn**>(s);
        if (op == Op::kMove) {
          ::new (dst) Fn*(*self);  // Ownership transfers with the pointer.
        } else {
          delete *self;
        }
      };
    }
  }

  ~UniqueFn() { Reset(); }

  UniqueFn(UniqueFn&& other) noexcept { MoveFrom(std::move(other)); }
  UniqueFn& operator=(UniqueFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  UniqueFn(const UniqueFn&) = delete;
  UniqueFn& operator=(const UniqueFn&) = delete;

  void operator()() { call_(storage_); }

  explicit operator bool() const { return call_ != nullptr; }
  friend bool operator==(const UniqueFn& f, std::nullptr_t) { return !f; }
  friend bool operator!=(const UniqueFn& f, std::nullptr_t) {
    return static_cast<bool>(f);
  }

  void Reset() {
    if (call_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
      call_ = nullptr;
      manage_ = nullptr;
    }
  }

 private:
  enum class Op { kMove, kDestroy };
  using CallFn = void (*)(void*);
  using ManageFn = void (*)(Op, void* self, void* dst);

  void MoveFrom(UniqueFn&& other) {
    if (other.call_ == nullptr) {
      return;
    }
    other.manage_(Op::kMove, other.storage_, storage_);
    call_ = other.call_;
    manage_ = other.manage_;
    other.call_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  CallFn call_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace itv

#endif  // SRC_COMMON_FUNCTION_H_
