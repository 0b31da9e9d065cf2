/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The timed tier of dir2b (controllers, networks, processors) runs on a
 * single global event queue.  Events scheduled for the same tick fire
 * in FIFO order of scheduling, which makes runs bit-for-bit
 * deterministic regardless of scheduler internals.
 *
 * Internals (rewritten from a std::function + std::priority_queue
 * kernel; the golden digests in tests/test_golden_digest.cc pin that
 * the rewrite changed nothing observable):
 *
 *  - Events live in arena nodes recycled through a freelist, so the
 *    steady state performs no allocation per event.  Callbacks are
 *    stored inline in the node (InlineFunction); a capture larger
 *    than the inline buffer falls back to the heap and is counted.
 *
 *  - Scheduling uses a hierarchical timing wheel: four levels of 64
 *    slots, level L spanning deltas below 64^(L+1) ticks, each with a
 *    64-bit occupancy bitmap so the next event is found with a rotate
 *    and a count-trailing-zeros instead of heap rebalancing.  Deltas
 *    of 64^4 ticks or more wait in a small (when, seq) min-heap and
 *    migrate into the wheel as time approaches.
 *
 *  - FIFO order within a tick is preserved exactly: slot lists append
 *    in schedule order, and a bucket is cascaded as soon as now()
 *    enters its range, before anything executes there, so a cascade
 *    never files an older event behind a newer direct insert.  Every
 *    level-0 append asserts that order, and a slot fires straight
 *    down its list.
 *
 *  - runUntil() executes strictly below a horizon and
 *    nextTickLowerBound() bounds the next event from below; the
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
     *  (supplyData's [this, dst, Message, a]) is 64 bytes; oversized
     *  captures heap-allocate and show up in
     *  InlineFunction::heapFallbacks(). */
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
        placeNode(idx);
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
            advance<false>(0);
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
            if (!advance<true>(horizon))
                return true; // nothing left below the horizon
            if (!drainCurrentSlot(budget))
                return false;
        }
        return true;
    }

    /**
     * A lower bound on the when of the earliest pending event (exact
     * when that event sits in level 0 or the overflow heap; a bucket
     * start otherwise); maxTick when the queue is empty.  No pending
     * event lies below it, and runUntil() refines the bucket bounds it
     * stops at, so a caller alternating the two always makes progress.
     */
    Tick
    nextTickLowerBound() const
    {
        if (pending_ == 0)
            return maxTick;
        return minCandidate().when;
    }

    /** Drop all pending events (end of a run). */
    void
    reset()
    {
        arena_.clear(); // destroys pending callbacks
        freeHead_ = nil;
        over_.clear();
        for (Level &lv : levels_) {
            lv.occ = 0;
            lv.head.fill(nil);
            lv.tail.fill(nil);
        }
        now_ = 0;
        seq_ = 0;
        executed_ = 0;
        pending_ = 0;
    }

  private:
    static constexpr unsigned slotBits = 6;
    static constexpr std::size_t slotCount = 1u << slotBits;
    static constexpr unsigned levelCount = 4;
    /** Deltas at or beyond 64^4 ticks wait in the overflow heap. */
    static constexpr Tick horizon = Tick{1}
                                    << (slotBits * levelCount);
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

    struct Level
    {
        std::array<std::uint32_t, slotCount> head = filled(nil);
        std::array<std::uint32_t, slotCount> tail = filled(nil);
        std::uint64_t occ = 0;
    };

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

    /**
     * File a node into its wheel slot (or the overflow heap).
     *
     * An event goes to the smallest level whose digits above it agree
     * between when and now_ (the "same cycle" rule).  Picking the
     * level from the raw delta instead would wrap: a delta just under
     * 64^4 that crosses enough digit boundaries lands a full cycle
     * ahead in the CURRENT level-3 bucket.  With the prefix rule an
     * occupied slot is always strictly ahead of now_ within its
     * cycle, so circular bitmap distances are exact.
     */
    void
    placeNode(std::uint32_t idx)
    {
        Node &n = arena_[idx];
        n.next = nil;
        unsigned level = 0;
        while (level < levelCount &&
               (n.when >> (slotBits * (level + 1))) !=
                   (now_ >> (slotBits * (level + 1))))
            ++level;
        if (level == levelCount) {
            over_.push_back(idx);
            std::push_heap(over_.begin(), over_.end(),
                           [this](std::uint32_t a, std::uint32_t b) {
                               return laterThan(a, b);
                           });
            return;
        }
        const auto slot = static_cast<std::size_t>(
            (n.when >> (slotBits * level)) & (slotCount - 1));
        Level &lv = levels_[level];
        if (lv.tail[slot] == nil) {
            lv.head[slot] = idx;
        } else {
            Node &tail = arena_[lv.tail[slot]];
            DIR2B_ASSERT(level != 0 || tail.seq < n.seq,
                         "event filed out of FIFO order at tick ",
                         n.when);
            tail.next = idx;
        }
        lv.tail[slot] = idx;
        lv.occ |= std::uint64_t{1} << slot;
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

    /** Detach and clear slot `slot` of level `level`. */
    std::uint32_t
    detachSlot(unsigned level, std::size_t slot)
    {
        Level &lv = levels_[level];
        const std::uint32_t head = lv.head[slot];
        lv.head[slot] = nil;
        lv.tail[slot] = nil;
        lv.occ &= ~(std::uint64_t{1} << slot);
        return head;
    }

    struct Candidate
    {
        Tick when;
        int level;
    };

    /**
     * The earliest jump candidate: a level-0 slot gives an exact time
     * (level-0 deltas are < 64, so circular distance is absolute),
     * while a level>=1 bucket gives only its start — a lower bound on
     * everything in it — and the overflow top is exact.  Requires
     * pending_ > 0.
     */
    Candidate
    minCandidate() const
    {
        Tick best = ~Tick{0};
        int bestLevel = -1;
        if (!over_.empty()) {
            best = arena_[over_.front()].when;
            bestLevel = levelCount; // sentinel: jump-and-migrate
        }
        for (unsigned lv = levelCount - 1; lv >= 1; --lv) {
            if (!levels_[lv].occ)
                continue;
            const Tick cur = now_ >> (slotBits * lv);
            const auto curSlot = static_cast<unsigned>(
                cur & (slotCount - 1));
            const unsigned d = static_cast<unsigned>(
                std::countr_zero(
                    std::rotr(levels_[lv].occ, curSlot)));
            // d == 0 (the current-digit bucket is occupied) can
            // happen right after a jump that landed exactly on a
            // bucket boundary via a different candidate; such a
            // bucket must cascade before anything executes, so it
            // bids now_ itself, the unbeatable minimum.
            const Tick start =
                d == 0 ? now_ : (cur + d) << (slotBits * lv);
            if (start < best) {
                best = start;
                bestLevel = static_cast<int>(lv);
            }
        }
        if (levels_[0].occ) {
            const auto curSlot =
                static_cast<unsigned>(now_ & (slotCount - 1));
            const unsigned d = static_cast<unsigned>(
                std::countr_zero(
                    std::rotr(levels_[0].occ, curSlot)));
            const Tick cand = now_ + d;
            if (cand < best) {
                best = cand;
                bestLevel = 0;
            }
        }
        DIR2B_ASSERT(bestLevel >= 0, "pending events but no slot");
        DIR2B_ASSERT(best >= now_, "event queue time warp");
        return {best, bestLevel};
    }

    /**
     * Move now_ to the next event time, cascading higher-level
     * buckets and migrating overflow nodes until the level-0 slot at
     * now_ holds the earliest pending events.  Requires pending_ > 0.
     *
     * Correctness hinges on candidate selection (minCandidate): the
     * jump target is the global minimum over exact times and bucket
     * lower bounds, and a bucket chosen at its lower bound is cascaded
     * and re-evaluated rather than executed, so a level-0 jump can
     * never skip over an earlier event hiding in a bucket.
     *
     * Bounded (runUntil): returns false — with now_ strictly below
     * the horizon — as soon as the candidate minimum reaches the
     * horizon.  Cascades performed before that point only refine
     * bucket bounds, so nextTickLowerBound() grows across calls and
     * a runUntil loop always makes progress.  Returns true when
     * positioned on a drainable level-0 slot.
     */
    template <bool Bounded>
    bool
    advance(Tick horizon)
    {
        for (;;) {
            while (!over_.empty() &&
                   (arena_[over_.front()].when >>
                    (slotBits * levelCount)) ==
                       (now_ >> (slotBits * levelCount))) {
                std::pop_heap(over_.begin(), over_.end(),
                              [this](std::uint32_t a, std::uint32_t b) {
                                  return laterThan(a, b);
                              });
                const std::uint32_t idx = over_.back();
                over_.pop_back();
                placeNode(idx);
            }

            const Candidate c = minCandidate();
            if (Bounded && c.when >= horizon)
                return false;

            now_ = c.when;
            if (c.level == 0)
                return true;
            if (c.level == static_cast<int>(levelCount))
                continue; // overflow top: migrate at new now_
            // Cascade the chosen bucket into lower levels, in list
            // order so equal-tick FIFO is preserved.
            const auto slot = static_cast<std::size_t>(
                (now_ >> (slotBits * c.level)) & (slotCount - 1));
            std::uint32_t n =
                detachSlot(static_cast<unsigned>(c.level), slot);
            while (n != nil) {
                const std::uint32_t next = arena_[n].next;
                placeNode(n);
                n = next;
            }
        }
    }

    /**
     * Fire the events in the level-0 slot at now_, re-checking the
     * slot afterwards because zero-delay callbacks append to it.
     * @return false when the budget ran out (undrained nodes are
     *         reinserted ahead of any newly scheduled same-tick ones).
     */
    bool
    drainCurrentSlot(std::uint64_t &budget)
    {
        const auto slot = static_cast<std::size_t>(now_ & (slotCount - 1));
        while (levels_[0].occ >> slot & 1) {
            // Fired nodes go back to the freelist as we walk, but the
            // rest of the detached list is untouched by the callbacks
            // (they can only file new nodes), so `next` stays valid.
            for (std::uint32_t n = detachSlot(0, slot); n != nil;) {
                if (budget == 0) {
                    reinsertUndrained(slot, n);
                    return false;
                }
                --budget;
                Node &node = arena_[n];
                DIR2B_ASSERT(node.when == now_,
                             "level-0 slot holds foreign tick");
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
    reinsertUndrained(std::size_t slot, std::uint32_t from)
    {
        std::uint32_t last = from;
        while (arena_[last].next != nil)
            last = arena_[last].next;
        Level &lv = levels_[0];
        arena_[last].next = lv.head[slot];
        if (lv.tail[slot] == nil)
            lv.tail[slot] = last;
        lv.head[slot] = from;
        lv.occ |= std::uint64_t{1} << slot;
    }

    std::vector<Node> arena_;
    std::uint32_t freeHead_ = nil;
    Level levels_[levelCount];
    /** Min-heap (by when, then seq) of beyond-horizon node indices. */
    std::vector<std::uint32_t> over_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;
};

} // namespace dir2b

#endif // DIR2B_SIM_EVENT_QUEUE_HH
