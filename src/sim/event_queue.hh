/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The timed tier of dir2b (controllers, networks, processors) runs on a
 * single global event queue.  Events scheduled for the same tick fire
 * in FIFO order of scheduling, which makes runs bit-for-bit
 * deterministic regardless of scheduler internals.
 *
 * Internals (the golden digests in tests/test_golden_digest.cc pin
 * that no rewrite of them changed anything observable):
 *
 *  - Events live in arena nodes recycled through a freelist, so the
 *    steady state performs no allocation per event.  Callbacks are
 *    stored inline in the node (InlineFunction); a capture too large
 *    for the node does not compile.
 *
 *  - Events due in [now, now + 64) sit in a one-level wheel of 64
 *    slots, each a FIFO list, with a 64-bit occupancy bitmap so the
 *    next tick is a rotate and a count-trailing-zeros away.  Every
 *    delay the timed tier schedules on its hot path (cache 1,
 *    directory 2, network and memory a few ticks) lands there.  Later
 *    events wait in a (when, seq) min-heap.
 *
 *  - FIFO order within a tick is preserved exactly: whenever now()
 *    moves, every heap event that entered the window moves into the
 *    wheel, in (when, seq) order, before anything executes — so a
 *    migrated event is never filed behind a newer direct insert for
 *    its tick.  Every append asserts same tick and rising sequence,
 *    and a slot fires straight down its list.
 *
 *  - runUntil() executes strictly below a horizon and nextTick()
 *    reports the exact tick of the earliest pending event; the
 *    telemetry sampler uses the pair to stop the kernel exactly at
 *    sampling boundaries.  A plain run() uses neither.
 */

#ifndef DIR2B_SIM_EVENT_QUEUE_HH
#define DIR2B_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/inline_function.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace dir2b
{

/** Global FIFO-stable discrete-event queue. */
class EventQueue
{
  public:
    /** Inline capture capacity: the largest timed-tier callback
     *  (supplyData's [this, dst, Message, a]) is 64 bytes. */
    static constexpr std::size_t inlineBytes = 104;

    using Callback = InlineFunction<inlineBytes>;

    EventQueue() = default;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** Number of events currently pending. */
    std::size_t pending() const { return pending_; }

    /** Schedule a callback at an absolute tick >= now(). */
    template <typename F>
    void
    scheduleAt(Tick when, F &&cb)
    {
        DIR2B_ASSERT(when >= now_, "scheduling event in the past: ", when,
                     " < ", now_);
        const std::uint32_t idx = allocNode();
        Node &n = arena_[idx];
        n.when = when;
        n.seq = seq_++;
        n.cb = std::forward<F>(cb);
        if (when - now_ < slotCount)
            fileInWheel(idx);
        else
            pushOverflow(idx);
        ++pending_;
    }

    /** Schedule a callback delay ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&cb)
    {
        scheduleAt(now_ + delay, std::forward<F>(cb));
    }

    /**
     * Run until the queue drains or maxEvents have executed.
     * @return true if the queue drained, false if the budget expired
     *         (the usual sign of livelock in a protocol under test).
     */
    bool
    run(std::uint64_t maxEvents = ~0ULL)
    {
        std::uint64_t budget = maxEvents;
        while (pending_ != 0) {
            advanceTo(nextTick());
            if (!drainCurrentSlot(budget))
                return false;
        }
        return true;
    }

    /**
     * Execute every pending event with when < horizon.  now() never
     * advances to or beyond the horizon, so the caller observes the
     * state exactly as of the horizon.
     * @return false when the budget ran out before the horizon.
     */
    bool
    runUntil(Tick horizon, std::uint64_t &budget)
    {
        while (pending_ != 0) {
            const Tick next = nextTick();
            if (next >= horizon)
                return true; // nothing left below the horizon
            advanceTo(next);
            if (!drainCurrentSlot(budget))
                return false;
        }
        return true;
    }

    /** The when of the earliest pending event; maxTick when the queue
     *  is empty. */
    Tick
    nextTick() const
    {
        // Heap events are all at least a window past now_ (they
        // migrate whenever now_ moves), so an occupied wheel wins.
        if (occ_ != 0) {
            return now_ + static_cast<Tick>(std::countr_zero(
                              std::rotr(occ_, slotOf(now_))));
        }
        if (!over_.empty())
            return arena_[over_.front()].when;
        DIR2B_ASSERT(pending_ == 0, "pending events but no slot");
        return maxTick;
    }

    /** Drop all pending events (end of a run). */
    void
    reset()
    {
        arena_.clear(); // destroys pending callbacks
        freeHead_ = nil;
        over_.clear();
        occ_ = 0;
        head_.fill(nil);
        tail_.fill(nil);
        now_ = 0;
        seq_ = 0;
        executed_ = 0;
        pending_ = 0;
    }

  private:
    static constexpr std::size_t slotCount = 64;
    static constexpr std::uint32_t nil = ~std::uint32_t{0};

    struct Node
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint32_t next = nil;
        Callback cb;
    };

    static constexpr std::array<std::uint32_t, slotCount>
    filled(std::uint32_t v)
    {
        std::array<std::uint32_t, slotCount> a{};
        a.fill(v);
        return a;
    }

    static unsigned
    slotOf(Tick t)
    {
        return static_cast<unsigned>(t & (slotCount - 1));
    }

    std::uint32_t
    allocNode()
    {
        if (freeHead_ != nil) {
            const std::uint32_t idx = freeHead_;
            freeHead_ = arena_[idx].next;
            return idx;
        }
        arena_.emplace_back();
        return static_cast<std::uint32_t>(arena_.size() - 1);
    }

    void
    freeNode(std::uint32_t idx)
    {
        arena_[idx].next = freeHead_;
        freeHead_ = idx;
    }

    /** Append a node due within the window to its slot's list. */
    void
    fileInWheel(std::uint32_t idx)
    {
        Node &n = arena_[idx];
        n.next = nil;
        const unsigned slot = slotOf(n.when);
        if (tail_[slot] == nil) {
            head_[slot] = idx;
        } else {
            Node &tail = arena_[tail_[slot]];
            DIR2B_ASSERT(tail.when == n.when && tail.seq < n.seq,
                         "event filed out of FIFO order at tick ",
                         n.when);
            tail.next = idx;
        }
        tail_[slot] = idx;
        occ_ |= std::uint64_t{1} << slot;
    }

    /** Overflow-heap ordering: true if a fires after b. */
    bool
    laterThan(std::uint32_t a, std::uint32_t b) const
    {
        const Node &na = arena_[a];
        const Node &nb = arena_[b];
        if (na.when != nb.when)
            return na.when > nb.when;
        return na.seq > nb.seq;
    }

    void
    pushOverflow(std::uint32_t idx)
    {
        over_.push_back(idx);
        std::push_heap(over_.begin(), over_.end(),
                       [this](std::uint32_t a, std::uint32_t b) {
                           return laterThan(a, b);
                       });
    }

    /** Move now_ to `next` (the earliest pending tick) and file every
     *  heap event now inside the window into the wheel, earliest
     *  (when, seq) first, before anything executes at `next`. */
    void
    advanceTo(Tick next)
    {
        DIR2B_ASSERT(next >= now_, "event queue time warp");
        now_ = next;
        while (!over_.empty() &&
               arena_[over_.front()].when - now_ < slotCount) {
            std::pop_heap(over_.begin(), over_.end(),
                          [this](std::uint32_t a, std::uint32_t b) {
                              return laterThan(a, b);
                          });
            fileInWheel(over_.back());
            over_.pop_back();
        }
    }

    /**
     * Fire the events in the slot at now_, re-checking the slot
     * afterwards because zero-delay callbacks append to it.
     * @return false when the budget ran out (undrained nodes are
     *         reinserted ahead of any newly scheduled same-tick ones).
     */
    bool
    drainCurrentSlot(std::uint64_t &budget)
    {
        const unsigned slot = slotOf(now_);
        while (occ_ >> slot & 1) {
            // Detach the slot.  Fired nodes go back to the freelist
            // as we walk, but the rest of the detached list is
            // untouched by the callbacks (they can only file new
            // nodes), so `next` stays valid.
            std::uint32_t n = head_[slot];
            head_[slot] = nil;
            tail_[slot] = nil;
            occ_ &= ~(std::uint64_t{1} << slot);
            while (n != nil) {
                if (budget == 0) {
                    reinsertUndrained(slot, n);
                    return false;
                }
                --budget;
                Node &node = arena_[n];
                DIR2B_ASSERT(node.when == now_,
                             "wheel slot holds foreign tick");
                const std::uint32_t next = node.next;
                Callback cb = std::move(node.cb);
                freeNode(n);
                --pending_;
                ++executed_;
                cb();
                n = next;
            }
        }
        return true;
    }

    /** Put the undrained list starting at `from` back at the front of
     *  the given slot, ahead of any same-tick events scheduled during
     *  the drain (which are all newer, so the slot stays sorted). */
    void
    reinsertUndrained(unsigned slot, std::uint32_t from)
    {
        std::uint32_t last = from;
        while (arena_[last].next != nil)
            last = arena_[last].next;
        DIR2B_ASSERT(head_[slot] == nil ||
                         arena_[last].seq < arena_[head_[slot]].seq,
                     "undrained events newer than the slot they rejoin");
        arena_[last].next = head_[slot];
        if (tail_[slot] == nil)
            tail_[slot] = last;
        head_[slot] = from;
        occ_ |= std::uint64_t{1} << slot;
    }

    std::vector<Node> arena_;
    std::uint32_t freeHead_ = nil;
    /** Wheel slot lists (arena indices) and their occupancy bitmap. */
    std::array<std::uint32_t, slotCount> head_ = filled(nil);
    std::array<std::uint32_t, slotCount> tail_ = filled(nil);
    std::uint64_t occ_ = 0;
    /** Min-heap (by when, then seq) of events due past the window. */
    std::vector<std::uint32_t> over_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;
};

} // namespace dir2b

#endif // DIR2B_SIM_EVENT_QUEUE_HH
