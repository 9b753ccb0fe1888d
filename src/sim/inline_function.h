/**
 * @file
 * A move-only callable wrapper with small-buffer-optimized storage.
 *
 * The discrete-event simulator schedules tens of millions of short-lived
 * callbacks per experiment; std::function heap-allocates most lambda
 * captures (anything beyond ~2 pointers), which made malloc/free the
 * hottest non-sim symbol in profiles. InlineFunction stores callables up
 * to a compile-time capacity inline in the event record itself and only
 * falls back to the heap for oversized captures. Being move-only, it
 * also accepts non-copyable captures (e.g. unique_ptr) that
 * std::function rejects.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace fleetio {

template <typename Signature, std::size_t Capacity = 48>
class InlineFunction;  // primary template, never defined

/**
 * Move-only callable of signature R(Args...) with @p Capacity bytes of
 * inline storage. Callables that fit (and are nothrow-move-constructible)
 * live inline; larger ones are boxed on the heap transparently.
 */
template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            invoke_ = &invokeInline<Fn>;
            manage_ = &manageInline<Fn>;
        } else {
            // Oversized capture: box it. The buffer then holds only the
            // owning pointer.
            auto *boxed = new Fn(std::forward<F>(f));
            ::new (static_cast<void *>(buf_)) Fn *(boxed);
            invoke_ = &invokeBoxed<Fn>;
            manage_ = &manageBoxed<Fn>;
            ++boxed_count_;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    /**
     * Converting move from a different-capacity InlineFunction of the
     * same signature. A null source stays null (instead of becoming a
     * non-null wrapper around nothing); otherwise the source is wrapped,
     * inline when it fits.
     */
    template <std::size_t M, typename = std::enable_if_t<M != Capacity>>
    InlineFunction(InlineFunction<R(Args...), M> &&other)
    {
        if (other) {
            *this = InlineFunction(
                [inner = std::move(other)](Args... args) mutable -> R {
                    return inner(std::forward<Args>(args)...);
                });
        }
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    R
    operator()(Args... args)
    {
        return invoke_(buf_, std::forward<Args>(args)...);
    }

    /** Bytes of inline capture storage (for tests / sizing asserts). */
    static constexpr std::size_t capacity() { return Capacity; }

    /** True when a callable of type F would avoid the heap. */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        return sizeof(F) <= Capacity &&
               alignof(F) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<F>;
    }

    /**
     * Callables of this signature and capacity boxed so far on the
     * calling thread. Boxing is silent by design, so tests read this
     * to prove a path stays allocation-free.
     */
    static std::uint64_t boxedCount() noexcept { return boxed_count_; }

  private:
    static inline thread_local std::uint64_t boxed_count_ = 0;

    using Invoke = R (*)(void *, Args...);
    /** dst==nullptr: destroy src. Otherwise: move-construct dst from
     *  src and destroy src (relocation). */
    using Manage = void (*)(void *dst, void *src) noexcept;

    template <typename Fn>
    static R
    invokeInline(void *buf, Args... args)
    {
        return (*std::launder(reinterpret_cast<Fn *>(buf)))(
            std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    manageInline(void *dst, void *src) noexcept
    {
        Fn *s = std::launder(reinterpret_cast<Fn *>(src));
        if (dst != nullptr)
            ::new (dst) Fn(std::move(*s));
        s->~Fn();
    }

    template <typename Fn>
    static R
    invokeBoxed(void *buf, Args... args)
    {
        Fn *boxed = *std::launder(reinterpret_cast<Fn **>(buf));
        return (*boxed)(std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    manageBoxed(void *dst, void *src) noexcept
    {
        Fn **s = std::launder(reinterpret_cast<Fn **>(src));
        if (dst != nullptr)
            ::new (dst) Fn *(*s);
        else
            delete *s;
        // The pointer itself is trivially destructible.
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        if (other.invoke_ == nullptr)
            return;
        other.manage_(buf_, other.buf_);  // relocate capture into us
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    void
    reset() noexcept
    {
        if (invoke_ != nullptr) {
            manage_(nullptr, buf_);
            invoke_ = nullptr;
            manage_ = nullptr;
        }
    }

    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[Capacity];
};

}  // namespace fleetio
