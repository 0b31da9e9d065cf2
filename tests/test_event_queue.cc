/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "util/random.hh"

namespace dir2b
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&] { order.push_back(3); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(5, [&order, i] { order.push_back(i); });
    EXPECT_TRUE(eq.run());
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RelativeSchedulingUsesNow)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(100, [&] {
        eq.schedule(5, [&] { seen = eq.now(); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 100)
            eq.schedule(1, chain);
    };
    eq.schedule(0, chain);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(eq.executed(), 100u);
}

TEST(EventQueue, BudgetDetectsLivelock)
{
    EventQueue eq;
    std::function<void()> forever = [&] { eq.schedule(1, forever); };
    eq.schedule(0, forever);
    EXPECT_FALSE(eq.run(1000));
}

TEST(EventQueue, ResetRestoresPristineState)
{
    EventQueue eq;
    eq.scheduleAt(50, [] {});
    eq.run();
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
    // Scheduling at a tick earlier than the old now() must work again.
    bool ran = false;
    eq.scheduleAt(1, [&] { ran = true; });
    eq.run();
    EXPECT_TRUE(ran);
}

/** Callable that counts copies, moves, and live instances. */
struct CountingCallback
{
    int *copies;
    int *alive;
    int *fired;

    CountingCallback(int *c, int *a, int *f)
        : copies(c), alive(a), fired(f)
    {
        ++*alive;
    }
    CountingCallback(const CountingCallback &o)
        : copies(o.copies), alive(o.alive), fired(o.fired)
    {
        ++*copies;
        ++*alive;
    }
    CountingCallback(CountingCallback &&o) noexcept
        : copies(o.copies), alive(o.alive), fired(o.fired)
    {
        ++*alive;
    }
    ~CountingCallback() { --*alive; }
    void operator()() { ++*fired; }
};

TEST(EventQueue, RunNeverCopiesTheCallback)
{
    // The pre-rewrite kernel copied the whole heap entry (and with it
    // the std::function) on every pop; the arena kernel must only
    // ever move callbacks.
    int copies = 0;
    int alive = 0;
    int fired = 0;
    EventQueue eq;
    for (int i = 0; i < 100; ++i)
        eq.schedule(static_cast<Tick>(i % 11),
                    CountingCallback(&copies, &alive, &fired));
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(copies, 0);
    EXPECT_EQ(alive, 0);
}

TEST(EventQueue, AcceptsMoveOnlyCallbacks)
{
    // Compile-time proof there is no copy path at all: a capture
    // holding unique_ptr would reject the old std::function storage.
    EventQueue eq;
    auto payload = std::make_unique<int>(42);
    int seen = 0;
    eq.schedule(3, [p = std::move(payload), &seen] { seen = *p; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, CascadeRestoresFifoAgainstDirectInserts)
{
    // Event A is scheduled far ahead (lands in the overflow heap);
    // event B is scheduled later for the SAME tick from close range.
    // A must migrate into the wheel before B is filed behind it: A was
    // scheduled first and must fire first.
    EventQueue eq;
    std::vector<char> order;
    eq.scheduleAt(5000, [&] { order.push_back('A'); });
    eq.scheduleAt(4990, [&] {
        eq.scheduleAt(5000, [&] { order.push_back('B'); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
}

TEST(EventQueue, StaticDifferentialAgainstStableSort)
{
    // Random times inside and far beyond the wheel window; the kernel
    // must fire them exactly in stable (when, seq) order.
    EventQueue eq;
    Rng rng(0xeafe11);
    std::vector<std::pair<Tick, int>> expect;
    std::vector<int> got;
    const Tick spans[] = {1,    7,      63,     64,      100,
                          4095, 4096,   262143, 262144,  999999,
                          (Tick{1} << 24) - 1, Tick{1} << 24,
                          (Tick{1} << 24) + 12345, Tick{1} << 30};
    for (int i = 0; i < 2000; ++i) {
        const Tick when = rng.range(spans[rng.range(14)]);
        expect.emplace_back(when, i);
        eq.scheduleAt(when, [&got, i] { got.push_back(i); });
    }
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expect[i].second) << "position " << i;
    EXPECT_EQ(eq.executed(), 2000u);
}

TEST(EventQueue, DynamicChainsAcrossAllLevels)
{
    // Self-rescheduling chains with pseudo-random delays: time must
    // never go backwards and every event must be accounted for.
    EventQueue eq;
    Rng rng(0xc4a1);
    Tick last = 0;
    std::uint64_t fired = 0;
    bool monotonic = true;
    std::function<void()> hop = [&] {
        if (eq.now() < last)
            monotonic = false;
        last = eq.now();
        ++fired;
        if (fired < 5000) {
            const Tick delays[] = {0, 1, 5, 63, 64, 700, 4096, 50000,
                                   262144, Tick{1} << 24};
            eq.schedule(delays[rng.range(10)], hop);
        }
    };
    for (int c = 0; c < 4; ++c)
        eq.schedule(static_cast<Tick>(c), hop);
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(fired, 5003u);
}

TEST(EventQueue, ZeroDelayDuringDrainRunsSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(10, [&] {
        order.push_back(1);
        eq.schedule(0, [&] {
            order.push_back(2);
            eq.schedule(0, [&] { order.push_back(3); });
        });
    });
    eq.scheduleAt(11, [&] { order.push_back(4); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, BudgetExpiryMidTickPreservesOrder)
{
    // Ten same-tick events, budget for three: the remaining seven
    // must survive and still fire in FIFO order on the next run().
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(5, [&order, i] { order.push_back(i); });
    EXPECT_FALSE(eq.run(3));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.pending(), 7u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order,
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, BudgetExpiryKeepsUndrainedAheadOfZeroDelay)
{
    // Event 0 schedules a zero-delay event Z during the drain; the
    // budget runs out after two events, and the three undrained
    // same-tick events were scheduled before Z, so they fire first.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(5, [&] {
        order.push_back(0);
        eq.schedule(0, [&] { order.push_back(99); });
    });
    for (int i = 1; i < 5; ++i)
        eq.scheduleAt(5, [&order, i] { order.push_back(i); });
    EXPECT_FALSE(eq.run(2));
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 99}));
}

TEST(EventQueue, DifferentialUnderCascadesAndBudgetSlices)
{
    // Far-ahead events migrate into the wheel while near events for
    // the same ticks are scheduled from close range, and run() is cut
    // every few events (undrained remainders): the firing order must
    // still be the stable (when, seq) order.
    EventQueue eq;
    Rng rng(0x51ce);
    std::vector<std::pair<Tick, int>> expect;
    std::vector<int> got;
    int next = 0;
    // Seed events far ahead; each, when it fires, schedules a few
    // events near its own time from close range.
    std::function<void()> spawn = [&] {
        for (int k = 0; k < 3; ++k) {
            const Tick when = eq.now() + rng.range(80);
            const int id = next++;
            expect.emplace_back(when, id);
            eq.scheduleAt(when, [&got, id] { got.push_back(id); });
        }
    };
    for (int i = 0; i < 400; ++i) {
        const Tick when = rng.range(Tick{1} << 14);
        const int id = next++;
        expect.emplace_back(when, id);
        eq.scheduleAt(when, [&got, &spawn, id] {
            got.push_back(id);
            spawn();
        });
    }
    while (!eq.run(1 + rng.range(7))) {
    }
    // ids grow with scheduling order, so a stable sort by when of the
    // (when, id) pairs sorted by id is the FIFO order.
    std::sort(expect.begin(), expect.end(),
              [](const auto &a, const auto &b) {
                  return a.second < b.second;
              });
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expect[i].second) << "position " << i;
}

TEST(EventQueue, ResetDestroysPendingCallbacks)
{
    int copies = 0;
    int alive = 0;
    int fired = 0;
    EventQueue eq;
    for (int i = 0; i < 8; ++i)
        eq.schedule(static_cast<Tick>(1 + i * 1000),
                    CountingCallback(&copies, &alive, &fired));
    eq.reset();
    EXPECT_EQ(alive, 0);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, HotPathCapturesStayInline)
{
    // A network-delivery-sized capture compiles (it fits inline; a
    // larger one would fail InlineFunction's static_assert) and runs.
    EventQueue eq;
    struct
    {
        void *self;
        unsigned src, dst;
        unsigned char msg[40];
    } payload = {};
    int hits = 0;
    eq.schedule(1, [payload, &hits] {
        ++hits;
        (void)payload;
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(hits, 1);
}

TEST(EventQueue, RunUntilStopsStrictlyBelowHorizon)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.scheduleAt(1, [&] { fired.push_back(1); });
    eq.scheduleAt(4, [&] { fired.push_back(4); });
    eq.scheduleAt(5, [&] { fired.push_back(5); });

    std::uint64_t budget = 100;
    EXPECT_TRUE(eq.runUntil(5, budget));
    EXPECT_EQ(fired, (std::vector<Tick>{1, 4}));
    EXPECT_EQ(eq.nextTick(), 5u);

    EXPECT_TRUE(eq.runUntil(6, budget));
    EXPECT_EQ(fired, (std::vector<Tick>{1, 4, 5}));
    EXPECT_EQ(eq.nextTick(), maxTick);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RunUntilReportsBudgetExhaustion)
{
    EventQueue eq;
    for (int i = 0; i < 4; ++i)
        eq.scheduleAt(1, [] {});
    std::uint64_t budget = 2;
    EXPECT_FALSE(eq.runUntil(10, budget));
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueue, LowerBoundRefinesAcrossRunUntil)
{
    // An event far in the future sits in the overflow heap; the next
    // tick must still be its exact tick, and a bounded advance to just
    // past it must fire it.
    EventQueue eq;
    bool fired = false;
    const Tick when = 100000;
    eq.scheduleAt(when, [&] { fired = true; });
    std::uint64_t budget = 100;
    Tick bound = eq.nextTick();
    while (!fired) {
        ASSERT_EQ(bound, when);
        ASSERT_TRUE(eq.runUntil(bound + 1, budget));
        const Tick next = eq.nextTick();
        if (!fired) {
            ASSERT_GT(next, bound) << "bound failed to refine";
        }
        bound = next;
    }
    EXPECT_EQ(eq.now(), when);
}

TEST(EventQueue, LowerBoundDifferentialAcrossAllLevels)
{
    // Events spread over the wheel window and far into the overflow
    // heap, some scheduling children as they fire.  Between bounded
    // runUntil steps nextTick() must equal the true earliest pending
    // tick (a brute-force multiset minimum), nothing may fire at or
    // past the horizon, and it is maxTick exactly when the queue has
    // drained.
    EventQueue eq;
    Rng rng(0x10b0d);
    std::multiset<Tick> pending;
    const Tick spans[] = {1,       63,     64,
                          4095,    4096,   262143,
                          262144,  (Tick{1} << 24) - 1,
                          Tick{1} << 24,   Tick{1} << 30};
    auto span = [&] { return rng.range(spans[rng.range(10)]); };
    Tick horizon = maxTick;
    bool firedOutOfPlace = false;
    std::function<void(Tick)> add = [&](Tick when) {
        pending.insert(when);
        eq.scheduleAt(when, [&, when] {
            if (eq.now() != when || when >= horizon)
                firedOutOfPlace = true;
            pending.erase(pending.find(when));
            if (rng.chance(0.3))
                add(when + span());
        });
    };
    for (int i = 0; i < 3000; ++i)
        add(span());

    std::uint64_t budget = ~0ULL;
    std::uint64_t steps = 0;
    for (;;) {
        const Tick bound = eq.nextTick();
        if (pending.empty()) {
            EXPECT_EQ(bound, maxTick);
            break;
        }
        ASSERT_GE(bound, eq.now());
        ASSERT_EQ(bound, *pending.begin()) << "step " << steps;
        // Horizons from just past the next tick (one slot) to far
        // beyond it (many slots and migrations per step).
        horizon = bound + 1 + (rng.chance(0.5) ? 0 : span());
        ASSERT_TRUE(eq.runUntil(horizon, budget));
        ASSERT_FALSE(firedOutOfPlace) << "step " << steps;
        ASSERT_LT(eq.now(), horizon);
        if (!pending.empty()) {
            ASSERT_GE(*pending.begin(), horizon);
        }
        ++steps;
    }
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_GT(eq.executed(), 3000u);
}

} // namespace
} // namespace dir2b
