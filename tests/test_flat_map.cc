/**
 * @file
 * Tests for the hot-path storage primitives: FlatMap/FlatSet (open
 * addressing with backward-shift deletion), PagedArray, and the
 * InlineFunction event callback.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/flat_map.hh"
#include "util/inline_function.hh"
#include "util/paged_array.hh"
#include "util/random.hh"

namespace dir2b
{
namespace
{

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), m.end());

    m[7] = 70;
    m[8] = 80;
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.find(7)->second, 70);
    EXPECT_EQ(m.find(8)->second, 80);
    EXPECT_EQ(m.count(9), 0u);

    m[7] = 71;
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.find(7)->second, 71);

    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.erase(7));
    EXPECT_EQ(m.find(7), m.end());
    EXPECT_EQ(m.find(8)->second, 80);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, TryEmplaceNonDefaultConstructible)
{
    struct NoDefault
    {
        explicit NoDefault(int x) : v(x) {}
        int v;
    };
    FlatMap<std::uint64_t, NoDefault> m;
    auto [it, fresh] = m.tryEmplace(3, 42);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(it->second.v, 42);
    auto [it2, fresh2] = m.tryEmplace(3, 99);
    EXPECT_FALSE(fresh2);
    EXPECT_EQ(it2->second.v, 42);
}

TEST(FlatMap, EraseByIterator)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 10; ++k)
        m[k] = static_cast<int>(k);
    auto it = m.find(4);
    ASSERT_NE(it, m.end());
    m.erase(it);
    EXPECT_EQ(m.size(), 9u);
    EXPECT_EQ(m.find(4), m.end());
    for (std::uint64_t k = 0; k < 10; ++k) {
        if (k != 4) {
            EXPECT_EQ(m.find(k)->second, static_cast<int>(k));
        }
    }
}

TEST(FlatMap, IterationVisitsEveryEntryOnce)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m[k * 97 + 13] = k;
    std::uint64_t visited = 0;
    std::uint64_t keySum = 0;
    for (const auto &[k, v] : m) {
        ++visited;
        keySum += k;
        EXPECT_EQ((k - 13) / 97, v);
    }
    EXPECT_EQ(visited, 100u);
    std::uint64_t expect = 0;
    for (std::uint64_t k = 0; k < 100; ++k)
        expect += k * 97 + 13;
    EXPECT_EQ(keySum, expect);
}

TEST(FlatMap, DifferentialAgainstUnorderedMap)
{
    // Randomised insert/overwrite/erase mix over a small key space to
    // force dense clusters, wraparound probes, and backward shifts.
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(0xf1a7f1a7ULL);
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t key = rng.range(256);
        switch (rng.range(3)) {
          case 0:
            m[key] = static_cast<std::uint64_t>(step);
            ref[key] = static_cast<std::uint64_t>(step);
            break;
          case 1:
            EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
            break;
          case 2: {
            auto it = m.find(key);
            auto rit = ref.find(key);
            ASSERT_EQ(it == m.end(), rit == ref.end());
            if (rit != ref.end()) {
                EXPECT_EQ(it->second, rit->second);
            }
            break;
          }
        }
        ASSERT_EQ(m.size(), ref.size());
    }
    for (const auto &[k, v] : ref)
        EXPECT_EQ(m.find(k)->second, v);
}

TEST(FlatMap, MoveSemantics)
{
    FlatMap<std::uint64_t, int> a;
    a[1] = 10;
    a[2] = 20;
    FlatMap<std::uint64_t, int> b(std::move(a));
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(b.find(1)->second, 10);
    EXPECT_TRUE(a.empty());

    FlatMap<std::uint64_t, int> c;
    c[9] = 90;
    c = std::move(b);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.find(2)->second, 20);
}

TEST(FlatMap, ClearAndReuse)
{
    FlatMap<std::uint64_t, std::string> m;
    for (std::uint64_t k = 0; k < 50; ++k) {
        std::string v = "v";
        v += std::to_string(k);
        m.tryEmplace(k, std::move(v));
    }
    m.clear();
    EXPECT_TRUE(m.empty());
    m.tryEmplace(3, "fresh");
    EXPECT_EQ(m.find(3)->second, "fresh");
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatSet, InsertEraseContains)
{
    FlatSet<std::uint64_t> s;
    s.insert(5);
    s.insert(5);
    s.insert(6);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(s.contains(5));
    EXPECT_EQ(s.count(6), 1u);
    EXPECT_FALSE(s.contains(7));
    EXPECT_TRUE(s.erase(5));
    EXPECT_FALSE(s.contains(5));
    EXPECT_EQ(s.size(), 1u);
}

TEST(PagedArray, SparseDefaultAndMaterialisation)
{
    PagedArray<std::uint32_t, 8> arr; // 256 elements per page
    EXPECT_EQ(arr.get(12345), 0u);
    EXPECT_EQ(arr.pageCount(), 0u);

    arr.ref(12345) = 7;
    EXPECT_EQ(arr.get(12345), 7u);
    EXPECT_EQ(arr.pageCount(), 1u);

    // Same page: no new materialisation; neighbours still default.
    arr.ref(12346) = 8;
    EXPECT_EQ(arr.pageCount(), 1u);
    EXPECT_EQ(arr.get(12344), 0u);

    // Distant index: second page.
    arr.ref(1u << 20) = 9;
    EXPECT_EQ(arr.pageCount(), 2u);
    EXPECT_EQ(arr.get(12345), 7u);
    EXPECT_EQ(arr.get(1u << 20), 9u);
}

TEST(PagedArray, ManyPagesStress)
{
    PagedArray<std::uint64_t, 4> arr; // tiny 16-element pages
    for (std::uint64_t i = 0; i < 4096; i += 3)
        arr.ref(i) = i * 2 + 1;
    for (std::uint64_t i = 0; i < 4096; ++i) {
        if (i % 3 == 0)
            EXPECT_EQ(arr.get(i), i * 2 + 1);
        else
            EXPECT_EQ(arr.get(i), 0u);
    }
}

TEST(InlineFunction, InvokesAndMoves)
{
    int hits = 0;
    InlineFunction<64> f([&hits] { ++hits; });
    ASSERT_TRUE(static_cast<bool>(f));
    f();
    EXPECT_EQ(hits, 1);

    InlineFunction<64> g(std::move(f));
    EXPECT_FALSE(static_cast<bool>(f));
    g();
    EXPECT_EQ(hits, 2);

    g.reset();
    EXPECT_FALSE(static_cast<bool>(g));
}

/** Callable that counts copies and moves of itself. */
struct CopyCounter
{
    int *copies;
    int *moves;
    CopyCounter(int *c, int *m) : copies(c), moves(m) {}
    CopyCounter(const CopyCounter &o) : copies(o.copies), moves(o.moves)
    {
        ++*copies;
    }
    CopyCounter(CopyCounter &&o) noexcept
        : copies(o.copies), moves(o.moves)
    {
        ++*moves;
    }
    void operator()() {}
};

TEST(InlineFunction, NeverCopiesTheCallable)
{
    int copies = 0;
    int moves = 0;
    CopyCounter c(&copies, &moves);
    InlineFunction<64> f(std::move(c));
    InlineFunction<64> g(std::move(f));
    g();
    EXPECT_EQ(copies, 0);
    EXPECT_GE(moves, 1);
}

TEST(InlineFunction, TrivialCaptureSurvivesRepeatedMoves)
{
    int hits = 0;
    std::uint64_t seen = 0;
    // The shape of a network delivery: [this, src, dst, Message].
    struct
    {
        int *hits;
        std::uint64_t *seen;
        unsigned src, dst;
        std::uint64_t msg[3];
    } cap = {&hits, &seen, 3, 5, {7, 11, 13}};
    auto fn = [cap] {
        ++*cap.hits;
        *cap.seen = cap.src + cap.dst + cap.msg[0] + cap.msg[1] +
                    cap.msg[2];
    };
    static_assert(std::is_trivially_copyable_v<decltype(fn)> &&
                  std::is_trivially_destructible_v<decltype(fn)>);

    InlineFunction<64> f(fn);
    for (int i = 0; i < 16; ++i) {
        InlineFunction<64> g(std::move(f));
        EXPECT_FALSE(static_cast<bool>(f));
        f = std::move(g);
        EXPECT_FALSE(static_cast<bool>(g));
    }
    ASSERT_TRUE(static_cast<bool>(f));
    f();
    f.reset();
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(seen, 3u + 5u + 7u + 11u + 13u);
}

/** Non-trivial callable that counts its moves and live instances. */
struct LifeCounter
{
    int *moves;
    int *alive;
    int *fired;
    LifeCounter(int *m, int *a, int *f) : moves(m), alive(a), fired(f)
    {
        ++*alive;
    }
    LifeCounter(LifeCounter &&o) noexcept
        : moves(o.moves), alive(o.alive), fired(o.fired)
    {
        ++*moves;
        ++*alive;
    }
    LifeCounter(const LifeCounter &) = delete;
    ~LifeCounter() { --*alive; }
    void operator()() { ++*fired; }
};

TEST(InlineFunction, NonTrivialCaptureRelocatedAndDestroyedOnce)
{
    static_assert(!std::is_trivially_copyable_v<LifeCounter>);
    int moves = 0;
    int alive = 0;
    int fired = 0;
    {
        InlineFunction<64> f(LifeCounter(&moves, &alive, &fired));
        EXPECT_EQ(moves, 1); // into the buffer
        EXPECT_EQ(alive, 1); // the temporary is gone
        for (int i = 0; i < 5; ++i) {
            InlineFunction<64> g(std::move(f));
            f = std::move(g);
        }
        // Every InlineFunction move relocates: one move construction
        // and one destruction of the source.
        EXPECT_EQ(moves, 1 + 2 * 5);
        EXPECT_EQ(alive, 1);
        f();
    }
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(alive, 0);
}

} // namespace
} // namespace dir2b
