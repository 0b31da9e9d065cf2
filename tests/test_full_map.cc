/**
 * @file
 * Directed tests of the full-map baseline (Censier-Feautrier) and the
 * Yen-Fu local-state extension: exact presence-vector maintenance and
 * the defining property that no command is ever useless.
 */

#include <gtest/gtest.h>

#include "proto/protocol_factory.hh"
#include "proto/table_engine.hh"
#include "util/bitset.hh"

namespace dir2b
{
namespace
{

ProtoConfig
config(ProcId n = 4, std::size_t sets = 64, std::size_t ways = 4)
{
    ProtoConfig cfg;
    cfg.numProcs = n;
    cfg.cacheGeom.sets = sets;
    cfg.cacheGeom.ways = ways;
    cfg.numModules = 2;
    return cfg;
}

/** A full-map scheme as the factory builds it (the table engine). */
std::unique_ptr<TableProtocol>
makeFullMap(const ProtoConfig &cfg, const std::string &name = "full_map")
{
    return std::unique_ptr<TableProtocol>(&dynamic_cast<TableProtocol &>(
        *makeProtocol(name, cfg).release()));
}

/** Fire count of the row `describeRow` renders as `desc`. */
std::uint64_t
rowFired(const TableProtocol &p, const std::string &desc)
{
    for (std::size_t i = 0; i < p.table().rows.size(); ++i)
        if (describeRow(p.table(), i) == desc)
            return p.rowHits()[i];
    ADD_FAILURE() << "no row " << desc;
    return 0;
}

/** The n+1 bits of block a: the engine keeps the presence bits in the
 *  cache arrays and the modified bit as the Modified directory state. */
struct FullMapEntry
{
    DynBitset present;
    bool modified = false;
};

FullMapEntry
entryOf(const TableProtocol &p, Addr a)
{
    FullMapEntry e{DynBitset(p.numProcs())};
    for (ProcId i = 0; i < p.numProcs(); ++i) {
        const CacheLine *l = p.cache(i).peek(a);
        if (l && l->valid())
            e.present.set(i);
    }
    e.modified = p.table().stateNames[p.dirStateOf(a)] == "Modified";
    return e;
}

TEST(FullMap, PresenceBitsTrackReaders)
{
    auto p = makeFullMap(config());
    const Addr a = 100;
    p->access(0, a, false);
    p->access(2, a, false);
    const FullMapEntry e = entryOf(*p, a);
    EXPECT_TRUE(e.present.test(0));
    EXPECT_FALSE(e.present.test(1));
    EXPECT_TRUE(e.present.test(2));
    EXPECT_FALSE(e.modified);
}

TEST(FullMap, WriteMissSendsExactlyHolderCountInvalidations)
{
    auto p = makeFullMap(config(8));
    const Addr a = 5;
    p->access(0, a, false);
    p->access(1, a, false);
    p->access(2, a, false);
    p->access(7, a, true, 1);

    const AccessCounts &d = p->lastDelta();
    EXPECT_EQ(d.directedCmds, 3u);
    EXPECT_EQ(d.invalidations, 3u);
    EXPECT_EQ(d.broadcasts, 0u);
    EXPECT_EQ(d.uselessCmds, 0u);
    const FullMapEntry e = entryOf(*p, a);
    EXPECT_EQ(e.present.count(), 1u);
    EXPECT_TRUE(e.present.test(7));
    EXPECT_TRUE(e.modified);
}

TEST(FullMap, ReadMissOnModifiedPurgesExactlyOwner)
{
    auto p = makeFullMap(config(8));
    const Addr a = 6;
    p->access(3, a, true, 42);
    p->access(5, a, false);

    const AccessCounts &d = p->lastDelta();
    EXPECT_EQ(d.directedCmds, 1u);
    EXPECT_EQ(d.purges, 1u);
    EXPECT_EQ(d.writebacks, 1u);
    EXPECT_EQ(d.uselessCmds, 0u);
    EXPECT_EQ(p->access(5, a, false), 42u);
    const FullMapEntry e = entryOf(*p, a);
    EXPECT_EQ(e.present.count(), 2u);
    EXPECT_FALSE(e.modified);
}

TEST(FullMap, WriteHitWithSoleCopyNeedsNoInvalidation)
{
    auto p = makeFullMap(config());
    const Addr a = 7;
    p->access(0, a, false);
    p->access(0, a, true, 9);
    EXPECT_EQ(p->lastDelta().directedCmds, 0u);
    EXPECT_EQ(p->lastDelta().invalidations, 0u);
    EXPECT_TRUE(entryOf(*p, a).modified);
}

TEST(FullMap, CleanEjectClearsPresenceBitExactly)
{
    auto p = makeFullMap(config(4, 1, 1));
    const Addr a = 20;
    const Addr b = 21;
    p->access(0, a, false);
    p->access(1, a, false);
    p->access(0, b, false); // cache 0 ejects a
    const FullMapEntry e = entryOf(*p, a);
    EXPECT_FALSE(e.present.test(0));
    EXPECT_TRUE(e.present.test(1));
    // Unlike the two-bit map, a later write sends exactly one command.
    p->access(2, a, true, 1);
    EXPECT_EQ(p->lastDelta().directedCmds, 1u);
    EXPECT_EQ(p->lastDelta().uselessCmds, 0u);
}

TEST(FullMap, NeverAnyUselessCommand)
{
    auto p = makeFullMap(config(4, 2, 2));
    // A busy mixed sequence with evictions and ownership migration.
    for (int i = 0; i < 500; ++i) {
        const auto proc = static_cast<ProcId>(i % 4);
        const Addr a = static_cast<Addr>(i % 12);
        p->access(proc, a, i % 3 == 0, 10000u + i);
        p->checkInvariants();
    }
    EXPECT_EQ(p->counts().uselessCmds, 0u);
    EXPECT_EQ(p->counts().broadcasts, 0u);
}

TEST(FullMap, DirectoryCostGrowsWithN)
{
    EXPECT_EQ(makeFullMap(config(4))->directoryBitsPerBlock(), 5u);
    EXPECT_EQ(makeFullMap(config(16))->directoryBitsPerBlock(), 17u);
    EXPECT_EQ(makeFullMap(config(64))->directoryBitsPerBlock(), 65u);
}

TEST(FullMapLocal, FirstReaderGetsExclusiveCleanCopy)
{
    auto p = makeFullMap(config(), "full_map_local");
    const Addr a = 30;
    p->access(0, a, false);
    EXPECT_EQ(p->cache(0).peek(a)->state, LineState::Exclusive);
}

TEST(FullMapLocal, SilentUpgradeCostsNoMessages)
{
    auto p = makeFullMap(config(), "full_map_local");
    const Addr a = 31;
    p->access(0, a, false); // Exclusive
    const AccessCounts before = p->counts();
    p->access(0, a, true, 5);
    const AccessCounts d = p->counts() - before;
    EXPECT_EQ(d.netMessages, 0u);
    EXPECT_EQ(d.mrequests, 0u);
    EXPECT_EQ(rowFired(*p, "(Exclusive, WriteHitClean, Always) -> "
                           "Exclusive"),
              1u);
}

TEST(FullMapLocal, RemoteReadAfterSilentUpgradeRecoversData)
{
    auto p = makeFullMap(config(), "full_map_local");
    const Addr a = 32;
    p->access(0, a, false);
    p->access(0, a, true, 77); // silent upgrade: directory thinks clean
    p->access(1, a, false);    // must still see 77
    EXPECT_EQ(p->access(1, a, false), 77u);
    EXPECT_EQ(p->memValue(a), 77u); // write-back happened on the query
}

TEST(FullMapLocal, SecondReaderDowngradesExclusive)
{
    auto p = makeFullMap(config(), "full_map_local");
    const Addr a = 33;
    p->access(0, a, false);
    p->access(1, a, false);
    EXPECT_EQ(p->cache(0).peek(a)->state, LineState::Shared);
    EXPECT_EQ(p->cache(1).peek(a)->state, LineState::Shared);
}

TEST(FullMapLocal, SharedWriteHitStillNeedsInvalidations)
{
    auto p = makeFullMap(config(), "full_map_local");
    const Addr a = 34;
    p->access(0, a, false);
    p->access(1, a, false); // both Shared
    p->access(0, a, true, 5);
    EXPECT_EQ(p->lastDelta().mrequests, 1u);
    EXPECT_EQ(p->lastDelta().invalidations, 1u);
    EXPECT_EQ(p->holders(a), std::vector<ProcId>{0});
}

TEST(FullMapLocal, SoleSharedHolderIsQueried)
{
    // Two readers share a; one is evicted, so the directory sees a
    // single holder it cannot tell from a silent upgrader.  The next
    // read miss queries that holder and reads memory: no purge.
    auto p = makeFullMap(config(4, 1, 1), "full_map_local");
    const Addr a = 40;
    const Addr b = 41;
    p->access(0, a, false);
    p->access(1, a, false); // both Shared
    p->access(0, b, false); // cache 0 ejects a
    ASSERT_EQ(p->holders(a), std::vector<ProcId>{1});
    p->access(2, a, false);
    const AccessCounts d = p->lastDelta();
    EXPECT_EQ(d.directedCmds, 1u);
    EXPECT_EQ(d.memReads, 1u);
    EXPECT_EQ(d.purges, 0u);
    EXPECT_EQ(d.writebacks, 0u);
    EXPECT_EQ(d.uselessCmds, 0u);
    EXPECT_EQ(rowFired(*p, "(Shared, ReadMiss, OtherHoldersOne) -> "
                           "Shared"),
              1u);
    EXPECT_EQ(p->cache(1).peek(a)->state, LineState::Shared);
    EXPECT_EQ(p->cache(2).peek(a)->state, LineState::Shared);
}

TEST(FullMapLocal, InvariantsUnderMigration)
{
    auto p = makeFullMap(config(4, 2, 2), "full_map_local");
    for (int i = 0; i < 500; ++i) {
        const auto proc = static_cast<ProcId>((i * 7) % 4);
        const Addr a = static_cast<Addr>(i % 10);
        p->access(proc, a, i % 4 == 0, 20000u + i);
        p->checkInvariants();
    }
    EXPECT_EQ(p->counts().uselessCmds, 0u);
}

} // namespace
} // namespace dir2b
