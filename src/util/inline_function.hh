/**
 * @file
 * Small-buffer-optimised, move-only callable for the event kernel.
 *
 * std::function heap-allocates any capture larger than its (tiny,
 * implementation-defined) internal buffer and drags in RTTI and copy
 * machinery the simulator never uses.  Every event callback in dir2b
 * is invoked exactly once, never copied, and captures a handful of
 * words (a controller pointer, a Message, an address), so the kernel
 * stores callables inline in the event node itself.
 *
 * InlineFunction is deliberately minimal: void() signature, move-only,
 * and a fixed inline capacity with no heap path — a capture larger
 * than the buffer, or more strictly aligned, fails a static_assert, so
 * storing a callable never allocates and the event kernel's
 * no-allocation property holds at compile time.
 *
 * A target that is trivially copyable and trivially destructible (a
 * capture of pointers, integers and POD messages: every timed-tier
 * callback) is trivially relocatable: a move is one memcpy and
 * destruction does nothing, so the kernel's move-out-then-invoke makes
 * one indirect call per event, not three.  The memcpy copies the whole
 * inline buffer, not just the target: a fixed size compiles to a few
 * vector moves, where the target's own size would be a library call
 * (measured: about 10% of timed-tier run time).  The bytes past the
 * target are copied but never read.
 */

#ifndef DIR2B_UTIL_INLINE_FUNCTION_HH
#define DIR2B_UTIL_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dir2b
{

/** Move-only void() callable with Capacity bytes of inline storage. */
template <std::size_t Capacity>
class InlineFunction
{
  public:
    InlineFunction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction>>>
    InlineFunction(F &&f)
    {
        assign(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction>>>
    InlineFunction &
    operator=(F &&f)
    {
        destroy();
        assign(std::forward<F>(f));
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { destroy(); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the stored callable (must be non-empty). */
    void
    operator()()
    {
        ops_->invoke(target());
    }

    /** Drop the stored callable, returning to the empty state. */
    void
    reset()
    {
        destroy();
        ops_ = nullptr;
    }

    static constexpr std::size_t capacity() { return Capacity; }

  private:
    /** Manual vtable: one static instance per stored callable type. */
    struct Ops
    {
        void (*invoke)(void *);
        /** Move the callable between nodes; src is left destroyed. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
        /** Relocate is a memcpy of the buffer and destroy a no-op;
         *  relocate/destroy are then never called. */
        bool trivial;
    };

    template <typename F>
    static constexpr Ops
    makeOps()
    {
        return Ops{
            [](void *p) { (*static_cast<F *>(p))(); },
            [](void *dst, void *src) {
                ::new (dst) F(std::move(*static_cast<F *>(src)));
                static_cast<F *>(src)->~F();
            },
            [](void *p) { static_cast<F *>(p)->~F(); },
            std::is_trivially_copyable_v<F> &&
                std::is_trivially_destructible_v<F>,
        };
    }

    template <typename F>
    void
    assign(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn &>,
                      "InlineFunction target must be callable");
        static_assert(sizeof(Fn) <= Capacity,
                      "capture exceeds the InlineFunction buffer");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "capture is over-aligned for InlineFunction");
        static constexpr Ops ops = makeOps<Fn>();
        ::new (target()) Fn(std::forward<F>(f));
        ops_ = &ops;
    }

    void *target() { return buf_; }

    void
    destroy()
    {
        if (ops_ && !ops_->trivial)
            ops_->destroy(target());
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            if (ops_->trivial)
                std::memcpy(buf_, other.buf_, Capacity);
            else
                ops_->relocate(target(), other.target());
        }
        other.ops_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf_[Capacity];
    const Ops *ops_ = nullptr;
};

} // namespace dir2b

#endif // DIR2B_UTIL_INLINE_FUNCTION_HH
