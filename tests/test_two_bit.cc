/**
 * @file
 * Directed tests of the two-bit directory protocol: every case of
 * §3.2 (replacement, read miss, write miss, write hit on unmodified
 * block) with its exact state transition and broadcast-overhead
 * accounting from §4.2.
 */

#include <gtest/gtest.h>

#include "proto/protocol_factory.hh"
#include "proto/table_engine.hh"
#include "util/random.hh"
#include "util/types.hh"

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

/** The two-bit scheme as the factory builds it (the table engine). */
std::unique_ptr<TableProtocol>
makeTwoBit(const ProtoConfig &cfg, const std::string &name = "two_bit")
{
    return std::unique_ptr<TableProtocol>(
        &dynamic_cast<TableProtocol &>(*makeProtocol(name, cfg).release()));
}

/** The §3.1 global state of block a (the table's state index). */
GlobalState
globalState(const TableProtocol &p, Addr a)
{
    return static_cast<GlobalState>(p.dirStateOf(a));
}

TEST(TwoBit, ReadMissAbsentBecomesPresent1)
{
    auto p = makeTwoBit(config());
    const Addr a = 100;
    const Value v = p->access(0, a, false);
    EXPECT_EQ(v, initialValue(a));
    EXPECT_EQ(globalState(*p, a), GlobalState::Present1);
    EXPECT_EQ(p->lastDelta().memReads, 1u);
    EXPECT_EQ(p->lastDelta().broadcasts, 0u);
    EXPECT_EQ(p->lastDelta().uselessCmds, 0u);
}

TEST(TwoBit, SecondReaderMakesPresentStar)
{
    auto p = makeTwoBit(config());
    const Addr a = 100;
    p->access(0, a, false);
    p->access(1, a, false);
    EXPECT_EQ(globalState(*p, a), GlobalState::PresentStar);
    EXPECT_EQ(p->lastDelta().broadcasts, 0u);
    EXPECT_EQ(p->holders(a).size(), 2u);
}

TEST(TwoBit, ReadHitIsLocal)
{
    auto p = makeTwoBit(config());
    const Addr a = 7;
    p->access(0, a, false);
    const AccessCounts before = p->counts();
    p->access(0, a, false);
    const AccessCounts d = p->counts() - before;
    EXPECT_EQ(d.readHits, 1u);
    EXPECT_EQ(d.netMessages, 0u);
    EXPECT_EQ(d.requests, 0u);
}

TEST(TwoBit, WriteMissAbsentBecomesPresentM)
{
    auto p = makeTwoBit(config());
    const Addr a = 200;
    p->access(0, a, true, 555);
    EXPECT_EQ(globalState(*p, a), GlobalState::PresentM);
    EXPECT_EQ(p->lastDelta().broadcasts, 0u);
    EXPECT_EQ(p->lastDelta().uselessCmds, 0u);
    EXPECT_EQ(p->access(0, a, false), 555u);
}

TEST(TwoBit, ReadMissOnPresentMQueriesOwner)
{
    const ProcId n = 4;
    auto p = makeTwoBit(config(n));
    const Addr a = 300;
    p->access(0, a, true, 111); // PresentM at cache 0
    p->access(1, a, false);     // read miss from cache 1

    // §3.2.2 case 2: BROADQUERY to all n-1 caches, one useful (owner),
    // n-2 useless; owner writes back and keeps a clean copy.
    const AccessCounts &d = p->lastDelta();
    EXPECT_EQ(d.broadcasts, 1u);
    EXPECT_EQ(d.broadcastCmds, n - 1u);
    EXPECT_EQ(d.uselessCmds, n - 2u);
    EXPECT_EQ(d.writebacks, 1u);
    EXPECT_EQ(d.purges, 1u);
    EXPECT_EQ(globalState(*p, a), GlobalState::PresentStar);
    EXPECT_EQ(p->holders(a).size(), 2u);
    // The read must observe the modified data.
    EXPECT_EQ(p->access(1, a, false), 111u);
    // Memory was brought current by the write-back.
    EXPECT_EQ(p->memValue(a), 111u);
}

TEST(TwoBit, WriteMissOnPresent1Broadcasts)
{
    const ProcId n = 4;
    auto p = makeTwoBit(config(n));
    const Addr a = 10;
    p->access(0, a, false); // Present1 at cache 0
    p->access(1, a, true, 9);

    // §3.2.3 case 2 with Present1: n-1 commands, one useful -> n-2.
    const AccessCounts &d = p->lastDelta();
    EXPECT_EQ(d.broadcasts, 1u);
    EXPECT_EQ(d.broadcastCmds, n - 1u);
    EXPECT_EQ(d.uselessCmds, n - 2u);
    EXPECT_EQ(d.invalidations, 1u);
    EXPECT_EQ(globalState(*p, a), GlobalState::PresentM);
    EXPECT_EQ(p->holders(a), std::vector<ProcId>{1});
}

TEST(TwoBit, WriteMissOnPresentStarCountsActualHolders)
{
    const ProcId n = 8;
    auto p = makeTwoBit(config(n));
    const Addr a = 11;
    p->access(0, a, false);
    p->access(1, a, false);
    p->access(2, a, false); // three holders, Present*
    p->access(3, a, true, 1);

    const AccessCounts &d = p->lastDelta();
    EXPECT_EQ(d.broadcastCmds, n - 1u);
    EXPECT_EQ(d.invalidations, 3u);
    EXPECT_EQ(d.uselessCmds, n - 1u - 3u);
    EXPECT_EQ(globalState(*p, a), GlobalState::PresentM);
}

TEST(TwoBit, WriteMissOnPresentMPurgesOwner)
{
    const ProcId n = 4;
    auto p = makeTwoBit(config(n));
    const Addr a = 12;
    p->access(0, a, true, 77);
    p->access(1, a, true, 88);

    const AccessCounts &d = p->lastDelta();
    EXPECT_EQ(d.broadcasts, 1u);
    EXPECT_EQ(d.uselessCmds, n - 2u);
    EXPECT_EQ(d.writebacks, 1u);
    EXPECT_EQ(d.invalidations, 1u);
    EXPECT_EQ(globalState(*p, a), GlobalState::PresentM);
    EXPECT_EQ(p->holders(a), std::vector<ProcId>{1});
    EXPECT_EQ(p->access(1, a, false), 88u);
}

TEST(TwoBit, WriteHitOnPresent1GrantsWithoutBroadcast)
{
    auto p = makeTwoBit(config());
    const Addr a = 13;
    p->access(0, a, false); // Present1
    p->access(0, a, true, 5);

    // §3.2.4 case 1: MGRANTED(k,true), no broadcast at all — the
    // payoff for encoding Present1 separately.
    const AccessCounts &d = p->lastDelta();
    EXPECT_EQ(d.mrequests, 1u);
    EXPECT_EQ(d.broadcasts, 0u);
    EXPECT_EQ(d.uselessCmds, 0u);
    EXPECT_EQ(globalState(*p, a), GlobalState::PresentM);
}

TEST(TwoBit, WriteHitOnPresentStarBroadcasts)
{
    const ProcId n = 4;
    auto p = makeTwoBit(config(n));
    const Addr a = 14;
    p->access(0, a, false);
    p->access(1, a, false); // Present*, two holders
    p->access(0, a, true, 5);

    // §3.2.4 case 2: broadcast reaches n-1 caches; the other holder is
    // useful; n - holders are useless.
    const AccessCounts &d = p->lastDelta();
    EXPECT_EQ(d.mrequests, 1u);
    EXPECT_EQ(d.broadcasts, 1u);
    EXPECT_EQ(d.broadcastCmds, n - 1u);
    EXPECT_EQ(d.invalidations, 1u);
    EXPECT_EQ(d.uselessCmds, n - 2u);
    EXPECT_EQ(globalState(*p, a), GlobalState::PresentM);
    EXPECT_EQ(p->holders(a), std::vector<ProcId>{0});
}

TEST(TwoBit, WriteHitOnModifiedIsPurelyLocal)
{
    auto p = makeTwoBit(config());
    const Addr a = 15;
    p->access(0, a, true, 1);
    const AccessCounts before = p->counts();
    p->access(0, a, true, 2);
    const AccessCounts d = p->counts() - before;
    EXPECT_EQ(d.netMessages, 0u);
    EXPECT_EQ(d.writeHits, 1u);
    EXPECT_EQ(p->access(0, a, false), 2u);
}

TEST(TwoBit, CleanEjectOfPresent1ReclaimsAbsent)
{
    // 1-set, 1-way cache: the second fill evicts the first.
    auto p = makeTwoBit(config(4, 1, 1));
    const Addr a = 20;
    const Addr b = 21;
    p->access(0, a, false);
    EXPECT_EQ(globalState(*p, a), GlobalState::Present1);
    p->access(0, b, false); // evicts a
    EXPECT_EQ(globalState(*p, a), GlobalState::Absent);
    EXPECT_EQ(p->holders(a).size(), 0u);
}

TEST(TwoBit, CleanEjectFromPresentStarStaysStar)
{
    auto p = makeTwoBit(config(4, 1, 1));
    const Addr a = 20;
    const Addr b = 21;
    p->access(0, a, false);
    p->access(1, a, false); // Present*
    p->access(0, b, false); // cache 0 ejects a
    p->access(1, b, false); // cache 1 ejects a too
    // The anomaly of §3.1: zero cached copies, state still Present*.
    EXPECT_EQ(globalState(*p, a), GlobalState::PresentStar);
    EXPECT_EQ(p->holders(a).size(), 0u);

    // A later write miss must now broadcast to everyone uselessly
    // (the n-1 worst case of T_WM).
    p->access(2, a, true, 3);
    EXPECT_EQ(p->lastDelta().uselessCmds, 3u);
    EXPECT_EQ(p->lastDelta().invalidations, 0u);
}

TEST(TwoBit, DirtyEjectWritesBackAndReclaims)
{
    auto p = makeTwoBit(config(4, 1, 1));
    const Addr a = 20;
    const Addr b = 21;
    p->access(0, a, true, 99);
    p->access(0, b, false); // evicts dirty a
    EXPECT_EQ(p->lastDelta().writebacks, 1u);
    EXPECT_EQ(globalState(*p, a), GlobalState::Absent);
    EXPECT_EQ(p->memValue(a), 99u);
    // The value survives the round trip through memory.
    EXPECT_EQ(p->access(1, a, false), 99u);
}

TEST(TwoBit, DirectoryCostIsTwoBitsIndependentOfN)
{
    auto p4 = makeTwoBit(config(4));
    auto p64 = makeTwoBit(config(64));
    EXPECT_EQ(p4->directoryBitsPerBlock(), 2u);
    EXPECT_EQ(p64->directoryBitsPerBlock(), 2u);
}

TEST(TwoBit, InvariantsHoldAfterMixedSequence)
{
    auto p = makeTwoBit(config(4, 2, 2));
    const Addr addrs[] = {1, 2, 3, 4, 5, 6, 7, 8};
    int i = 0;
    for (Addr a : addrs) {
        p->access(static_cast<ProcId>(i % 4), a, i % 3 == 0, 1000u + i);
        p->checkInvariants();
        ++i;
    }
}

TEST(TwoBitAblation, NoPresent1FoldsIntoPresentStar)
{
    auto p = makeTwoBit(config(), "two_bit_nop1");
    const Addr a = 50;
    p->access(0, a, false);
    // First reader lands in Present* directly.
    EXPECT_EQ(globalState(*p, a), GlobalState::PresentStar);
    // A write hit on the sole copy now needs a broadcast (no free
    // MGRANTED) — the cost the paper's Present1 encoding avoids.
    p->access(0, a, true, 1);
    EXPECT_EQ(p->lastDelta().broadcasts, 1u);
    EXPECT_EQ(p->lastDelta().uselessCmds, 3u);
    p->checkInvariants();
}

TEST(TwoBitAblation, NoPresent1NeverReclaimsOnCleanEject)
{
    auto p = makeTwoBit(config(4, 1, 1), "two_bit_nop1");
    const Addr a = 20;
    p->access(0, a, false);
    p->access(0, 21, false); // evicts a
    // Present* cannot count down to Absent.
    EXPECT_EQ(globalState(*p, a), GlobalState::PresentStar);
}

TEST(TwoBitAblation, MoreBroadcastsThanBaseline)
{
    auto run = [](bool ablated) {
        auto p =
            makeTwoBit(config(8, 8, 2), ablated ? "two_bit_nop1" : "two_bit");
        Rng rng(3);
        for (int i = 0; i < 5000; ++i) {
            p->access(static_cast<ProcId>(rng.range(8)),
                     rng.range(32), rng.chance(0.3), 1000u + i);
        }
        return p->counts().broadcasts;
    };
    EXPECT_GT(run(true), run(false));
}

TEST(TwoBitDirectory, PackedStorageRoundTrips)
{
    TwoBitDirectory dir;
    EXPECT_EQ(dir.get(12345), GlobalState::Absent);
    dir.set(12345, GlobalState::PresentM);
    dir.set(12346, GlobalState::Present1);
    dir.set(12347, GlobalState::PresentStar);
    EXPECT_EQ(dir.get(12345), GlobalState::PresentM);
    EXPECT_EQ(dir.get(12346), GlobalState::Present1);
    EXPECT_EQ(dir.get(12347), GlobalState::PresentStar);
    dir.set(12345, GlobalState::Absent);
    EXPECT_EQ(dir.get(12345), GlobalState::Absent);
    EXPECT_EQ(dir.setstateCount(), 4u);
}

TEST(TwoBitDirectory, NeighbouringBlocksDoNotInterfere)
{
    TwoBitDirectory dir;
    for (Addr a = 0; a < 256; ++a)
        dir.set(a, static_cast<GlobalState>(a % 4));
    for (Addr a = 0; a < 256; ++a)
        EXPECT_EQ(dir.get(a), static_cast<GlobalState>(a % 4));
}

} // namespace
} // namespace dir2b
