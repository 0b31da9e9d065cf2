/**
 * @file
 * Directed tests for the write-through two-bit variant: the directory
 * as an invalidation *filter* over the classical broadcast scheme
 * (§2.4's framing), with no PresentM state, no write-backs and no
 * write-allocate.  The scheme runs on the table engine; its directory
 * state indices are the GlobalState values.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/global_state.hh"
#include "proto/classical.hh"
#include "proto/protocol_factory.hh"
#include "proto/table_engine.hh"
#include "util/random.hh"

namespace dir2b
{
namespace
{

ProtoConfig
config(ProcId n = 4, std::size_t sets = 16, std::size_t ways = 2)
{
    ProtoConfig cfg;
    cfg.numProcs = n;
    cfg.cacheGeom.sets = sets;
    cfg.cacheGeom.ways = ways;
    cfg.numModules = 2;
    return cfg;
}

/** The scheme as the factory builds it: a table the engine runs. */
std::unique_ptr<TableProtocol>
makeWt(const ProtoConfig &cfg)
{
    auto p = makeProtocol("two_bit_wt", cfg);
    auto *tab = dynamic_cast<TableProtocol *>(p.get());
    if (!tab)
        throw std::logic_error("two_bit_wt is not a table protocol");
    p.release();
    return std::unique_ptr<TableProtocol>(tab);
}

GlobalState
stateOf(const TableProtocol &p, Addr a)
{
    return static_cast<GlobalState>(p.dirStateOf(a));
}

TEST(TwoBitWt, WriteHitOnSoleCopyNeedsNoBroadcast)
{
    const auto p = makeWt(config());
    p->access(0, 5, false); // Present1
    p->access(0, 5, true, 9);
    EXPECT_EQ(p->lastDelta().broadcasts, 0u);
    EXPECT_EQ(p->memValue(5), 9u); // written through
    EXPECT_EQ(stateOf(*p, 5), GlobalState::Present1);
}

TEST(TwoBitWt, WriteHitOnSharedBlockFiltersBackToPresent1)
{
    const ProcId n = 4;
    const auto p = makeWt(config(n));
    p->access(0, 5, false);
    p->access(1, 5, false); // Present*
    p->access(0, 5, true, 9);
    EXPECT_EQ(p->lastDelta().broadcasts, 1u);
    EXPECT_EQ(p->lastDelta().broadcastCmds, n - 1u);
    EXPECT_EQ(p->lastDelta().invalidations, 1u);
    // The invalidation restored exact knowledge.
    EXPECT_EQ(stateOf(*p, 5), GlobalState::Present1);
    // So the next write is broadcast-free again.
    p->access(0, 5, true, 10);
    EXPECT_EQ(p->lastDelta().broadcasts, 0u);
}

TEST(TwoBitWt, WriteMissOnAbsentIsSilent)
{
    const auto p = makeWt(config());
    p->access(0, 7, true, 1);
    EXPECT_EQ(p->lastDelta().broadcasts, 0u);
    EXPECT_EQ(p->lastDelta().memWrites, 1u);
    // No allocate: no copy anywhere.
    EXPECT_EQ(p->holders(7).size(), 0u);
    EXPECT_EQ(stateOf(*p, 7), GlobalState::Absent);
}

TEST(TwoBitWt, WriteMissOnSharedReclaimsAbsent)
{
    const auto p = makeWt(config());
    p->access(0, 7, false);
    p->access(1, 7, false);
    p->access(2, 7, true, 3);
    EXPECT_EQ(p->lastDelta().invalidations, 2u);
    EXPECT_EQ(stateOf(*p, 7), GlobalState::Absent);
    EXPECT_EQ(p->access(0, 7, false), 3u);
}

TEST(TwoBitWt, NeverWritesBackAndNeverPresentM)
{
    const auto p = makeWt(config(4, 2, 1)); // tiny: heavy eviction
    Rng rng(5);
    for (int i = 0; i < 4000; ++i) {
        p->access(static_cast<ProcId>(rng.range(4)), rng.range(12),
                 rng.chance(0.4), 100u + i);
        if (i % 64 == 0)
            p->checkInvariants();
    }
    EXPECT_EQ(p->counts().writebacks, 0u);
    EXPECT_EQ(p->counts().purges, 0u);
    EXPECT_EQ(p->counts().wordWrites, p->counts().writes);
    // Every line is clean, so every write hit is a clean one.
    EXPECT_EQ(p->counts().writeHitsClean, p->counts().writeHits);
}

TEST(TwoBitWt, WriteMissLeavesTheResidentLine)
{
    // One frame per cache: block 6 maps onto block 5's frame, but a
    // write miss allocates nothing, so it evicts nothing either.
    const auto p = makeWt(config(2, 1, 1));
    p->access(0, 5, false);
    p->access(0, 6, true, 4);
    EXPECT_EQ(p->lastDelta().ejects, 0u);
    EXPECT_EQ(p->counts().ejects, 0u);
    EXPECT_EQ(p->holders(5), std::vector<ProcId>{0});
    EXPECT_TRUE(p->holders(6).empty());
    EXPECT_EQ(stateOf(*p, 5), GlobalState::Present1);
    EXPECT_EQ(p->memValue(6), 4u);
}

TEST(TwoBitWt, FiltersClassicalBroadcastStorm)
{
    // The §2.4 claim made concrete: identical write-through policy,
    // but the 2-bit map suppresses broadcasts for unshared blocks.
    auto drive = [](Protocol &p) {
        Rng rng(6);
        for (int i = 0; i < 6000; ++i) {
            const auto proc = static_cast<ProcId>(rng.range(4));
            // Mostly private blocks, occasionally a shared one.
            const Addr a = rng.chance(0.1)
                               ? rng.range(4)
                               : 1000 + proc * 100 + rng.range(8);
            p.access(proc, a, rng.chance(0.4), 10u + i);
        }
    };
    const auto filtered = makeWt(config());
    ClassicalProtocol classical(config());
    drive(*filtered);
    drive(classical);
    // The classical scheme broadcasts every store; the map filters the
    // private-store majority out.
    EXPECT_LT(filtered->counts().broadcasts,
              classical.counts().broadcasts / 3);
    // Both deliver identical invalidation *effects* (same workload).
    EXPECT_EQ(filtered->counts().wordWrites,
              classical.counts().wordWrites);
}

TEST(TwoBitWt, FlushReclaimsPresent1)
{
    const auto p = makeWt(config());
    p->access(0, 5, false);
    p->flushCache(0);
    EXPECT_EQ(stateOf(*p, 5), GlobalState::Absent);
    EXPECT_EQ(p->cache(0).validCount(), 0u);
}

} // namespace
} // namespace dir2b
