/**
 * @file
 * Differential and directed tests for the tiered page store
 * (util/tiered_store.hh): random access patterns against a plain
 * std::vector oracle at several RAM budgets, compression round-trips
 * on homogeneous and mixed pages, and eviction-then-reload identity
 * through the cold and disk tiers.
 */

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/global_state.hh"
#include "core/two_bit_directory.hh"
#include "util/tiered_store.hh"

namespace dir2b
{
namespace
{

// Small pages (8 words) so a few KiB of budget spans many pages.
using SmallStore = TieredStore<std::uint64_t, 3>;

/** Random get/ref stream vs a dense std::vector oracle. */
void
differential(std::uint64_t budget, std::uint64_t space, int ops,
             std::uint32_t seed)
{
    SmallStore store(budget);
    std::vector<std::uint64_t> oracle(space, 0);
    std::mt19937_64 rng(seed);

    for (int i = 0; i < ops; ++i) {
        // Skewed index stream: half the traffic on a hot eighth of
        // the space, the rest uniform, so pages have unequal heat.
        std::uint64_t idx = rng() % space;
        if (rng() % 2)
            idx %= std::max<std::uint64_t>(space / 8, 1);
        if (rng() % 3 == 0) {
            const std::uint64_t v = rng();
            store.ref(idx) = v;
            oracle[idx] = v;
        } else {
            ASSERT_EQ(store.get(idx), oracle[idx])
                << "idx " << idx << " budget " << budget << " op " << i;
        }
    }
    // Full final sweep: every element, including never-touched ones.
    for (std::uint64_t idx = 0; idx < space; ++idx)
        ASSERT_EQ(store.get(idx), oracle[idx]) << "final idx " << idx;
}

TEST(TieredStore, DifferentialUnlimitedBudget)
{
    differential(/*budget=*/0, /*space=*/1 << 12, /*ops=*/20000, 1);
}

TEST(TieredStore, DifferentialTinyBudgetConstantEviction)
{
    // Budget of two raw pages over a 512-page space: nearly every
    // access demotes something, and the overflow must hit the disk
    // tier (or count an honest overrun if tmpfile is unavailable).
    const std::uint64_t budget = 2 * SmallStore::rawPageBytes;
    differential(budget, /*space=*/1 << 12, /*ops=*/20000, 2);
}

TEST(TieredStore, DifferentialMidBudget)
{
    differential(16 * SmallStore::rawPageBytes, 1 << 12, 20000, 3);
}

TEST(TieredStore, TinyBudgetReachesDiskTier)
{
    SmallStore store(2 * SmallStore::rawPageBytes);
    for (std::uint64_t p = 0; p < 256; ++p)
        store.ref(p * SmallStore::pageElems) = p + 1;
    const auto &st = store.stats();
    EXPECT_GT(st.compressions, 0u);
    if (st.diskUnavailable == 0) {
        EXPECT_GT(st.diskPageWrites, 0u);
        EXPECT_GT(store.diskPages(), 0u);
    } else {
        EXPECT_GT(st.budgetOverruns, 0u);
    }
    // Everything written is still readable, wherever it lives now.
    for (std::uint64_t p = 0; p < 256; ++p)
        EXPECT_EQ(store.get(p * SmallStore::pageElems), p + 1);
}

TEST(TieredStore, BudgetBoundsResidentBytes)
{
    const std::uint64_t budget = 4 * SmallStore::rawPageBytes;
    SmallStore store(budget);
    std::mt19937_64 rng(7);
    for (int i = 0; i < 5000; ++i)
        store.ref(rng() % (1 << 14)) = rng();
    if (store.stats().diskUnavailable == 0) {
        EXPECT_LE(store.residentBytes(), budget);
    }
    EXPECT_EQ(store.hotPages() + store.coldPages() + store.diskPages(),
              store.pageCount());
}

TEST(TieredStore, HomogeneousPageCompressionRoundTrip)
{
    // A page holding one repeated value must survive demotion and
    // reload exactly, and its compressed form must be tiny.
    SmallStore store(2 * SmallStore::rawPageBytes);
    const std::uint64_t v = 0x5555555555555555ULL; // all-Present1 words
    for (std::uint64_t i = 0; i < SmallStore::pageElems; ++i)
        store.ref(i) = v;
    // Touch enough other pages to force page 0 through the cold tier.
    for (std::uint64_t p = 1; p < 64; ++p)
        store.ref(p * SmallStore::pageElems) = p;
    EXPECT_GT(store.stats().compressions, 0u);
    EXPECT_LT(store.compressedBytes() + store.segmentBytes(),
              63 * SmallStore::rawPageBytes / 2);
    for (std::uint64_t i = 0; i < SmallStore::pageElems; ++i)
        EXPECT_EQ(store.get(i), v);
}

TEST(TieredStore, MixedPageCompressionRoundTrip)
{
    // An incompressible page (distinct value per word) falls back to
    // the raw-copy blob and still round-trips bit-exactly.
    SmallStore store(2 * SmallStore::rawPageBytes);
    std::mt19937_64 rng(11);
    std::vector<std::uint64_t> vals;
    for (std::uint64_t i = 0; i < SmallStore::pageElems; ++i) {
        vals.push_back(rng());
        store.ref(i) = vals.back();
    }
    for (std::uint64_t p = 1; p < 64; ++p)
        store.ref(p * SmallStore::pageElems) = p;
    for (std::uint64_t i = 0; i < SmallStore::pageElems; ++i)
        EXPECT_EQ(store.get(i), vals[i]);
}

TEST(TieredStore, EvictReloadEvictReloadIdentity)
{
    // Ping-pong two working sets through a one-set budget so the same
    // pages are demoted and promoted repeatedly, including rewrites
    // between round trips (the disk segment is append-only; stale
    // copies must never be served).
    SmallStore store(4 * SmallStore::rawPageBytes);
    const std::uint64_t setB = 64 * SmallStore::pageElems;
    for (int round = 0; round < 6; ++round) {
        for (std::uint64_t i = 0; i < 8 * SmallStore::pageElems; ++i) {
            const std::uint64_t want =
                round == 0 ? 0 : i * 31 + (round - 1);
            ASSERT_EQ(store.get(i), want) << "round " << round;
            store.ref(i) = i * 31 + round;
        }
        for (std::uint64_t i = 0; i < 8 * SmallStore::pageElems; ++i)
            store.ref(setB + i) = ~i + round;
    }
    EXPECT_GT(store.stats().decompressions, 0u);
}

TEST(TieredStore, UnlimitedBudgetNeverTiers)
{
    SmallStore store; // budget 0
    std::mt19937_64 rng(13);
    for (int i = 0; i < 5000; ++i)
        store.ref(rng() % (1 << 14)) = rng();
    EXPECT_EQ(store.stats().compressions, 0u);
    EXPECT_EQ(store.coldPages(), 0u);
    EXPECT_EQ(store.diskPages(), 0u);
    EXPECT_EQ(store.hotPages(), store.pageCount());
}

TEST(TieredStore, MoveTransfersAllTiers)
{
    SmallStore a(2 * SmallStore::rawPageBytes);
    for (std::uint64_t p = 0; p < 64; ++p)
        a.ref(p * SmallStore::pageElems) = p ^ 0xabcdef;
    SmallStore b(std::move(a));
    std::vector<SmallStore> vec;
    vec.push_back(std::move(b));
    for (std::uint64_t p = 0; p < 64; ++p)
        EXPECT_EQ(vec[0].get(p * SmallStore::pageElems), p ^ 0xabcdef);
}

TEST(TwoBitDirectoryTiered, BudgetedDirectoryMatchesUnlimited)
{
    // The directory's get/set semantics must be identical at any
    // budget — this is the property the golden digests rely on.
    TwoBitDirectory plain;
    TwoBitDirectory tiny(2048); // two 1 KiB pages
    std::mt19937_64 rng(17);
    for (int i = 0; i < 40000; ++i) {
        const Addr a = rng() % (1 << 22);
        if (rng() % 2) {
            const auto st = static_cast<GlobalState>(rng() % 4);
            plain.set(a, st);
            tiny.set(a, st);
        } else {
            ASSERT_EQ(plain.get(a), tiny.get(a)) << "addr " << a;
        }
    }
    EXPECT_EQ(plain.setstateCount(), tiny.setstateCount());
    EXPECT_EQ(plain.materialisedBits(), tiny.materialisedBits());
    EXPECT_GT(tiny.storeStats().compressions, 0u);
    EXPECT_EQ(tiny.ramBudgetBytes(), 2048u);
}

TEST(TwoBitDirectoryTiered, HugeSparseSpaceStaysWithinBudget)
{
    // 2^32 block addresses scattered across the space: materialises
    // thousands of pages yet stays within a 64 KiB resident budget
    // (pages are homogeneous, so the cold tier is almost free).
    TwoBitDirectory dir(64 * 1024);
    std::mt19937_64 rng(19);
    std::vector<Addr> touched;
    for (int i = 0; i < 4000; ++i) {
        const Addr a = rng() % (Addr{1} << 32);
        dir.set(a, GlobalState::Present1);
        touched.push_back(a);
    }
    if (dir.storeStats().diskUnavailable == 0) {
        EXPECT_LE(dir.residentBytes(), 64u * 1024u);
    }
    for (const Addr a : touched)
        EXPECT_EQ(dir.get(a), GlobalState::Present1);
}

} // namespace
} // namespace dir2b
