/**
 * @file
 * Unit suite for the table-driven protocol engine (proto/table_engine):
 * table validation (row-numbered rejection messages, any-state rows),
 * first-match guard evaluation order, dispatch independence from row
 * order across (state, event) groups, hits that never read the
 * directory, and the metadata the rest of
 * the system derives from tables (flush support, directory cost,
 * directory store counters).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "proto/table_defs.hh"
#include "proto/table_engine.hh"
#include "proto/protocol_factory.hh"
#include "util/random.hh"

namespace dir2b
{
namespace
{

TableAction
bump(TableCounter c)
{
    return {ActionOp::Bump, static_cast<std::uint8_t>(c)};
}

TableAction
act(ActionOp op, std::uint8_t arg = 0)
{
    return {op, arg};
}

/** Smallest valid table: one state, a self-loop read-miss fill, a hit
 *  row, and eviction rows so flush works. */
TransitionTable
tinyTable()
{
    TransitionTable t;
    t.name = "tiny";
    t.stateNames = {"Only"};
    t.constraints = {{0, SIZE_MAX, 0, 1}};
    t.rows = {
        {0, EventClass::ReadHit, TableGuard::Always, {}, 0},
        {0, EventClass::WriteHitDirty, TableGuard::Always,
         {act(ActionOp::WriteLine)}, 0},
        {0, EventClass::WriteHitClean, TableGuard::Always,
         {act(ActionOp::SetLine,
              static_cast<std::uint8_t>(LineState::Modified)),
          act(ActionOp::WriteLine)}, 0},
        {0, EventClass::ReadMiss, TableGuard::Always,
         {act(ActionOp::ReadMem),
          act(ActionOp::FillLine,
              static_cast<std::uint8_t>(LineState::Shared))}, 0},
        {0, EventClass::WriteMiss, TableGuard::Always,
         {act(ActionOp::ReadMem),
          act(ActionOp::FillLine,
              static_cast<std::uint8_t>(LineState::Modified))}, 0},
        {0, EventClass::EvictClean, TableGuard::Always,
         {act(ActionOp::DropLine)}, 0},
        {0, EventClass::EvictDirty, TableGuard::Always,
         {act(ActionOp::WritebackLine), act(ActionOp::DropLine)}, 0},
    };
    return t;
}

ProtoConfig
smallConfig(ProcId procs = 2)
{
    ProtoConfig pc;
    pc.numProcs = procs;
    pc.numModules = 1;
    pc.cacheGeom.sets = 2;
    pc.cacheGeom.ways = 2;
    return pc;
}

/** True iff some validation message contains both fragments. */
bool
rejectsWith(const TransitionTable &t, const std::string &a,
            const std::string &b = "")
{
    for (const std::string &m : t.validate()) {
        if (m.find(a) != std::string::npos &&
            (b.empty() || m.find(b) != std::string::npos))
            return true;
    }
    return false;
}

TEST(TableValidate, ShippedTablesAreValid)
{
    EXPECT_TRUE(twoBitTable().validate().empty());
    EXPECT_TRUE(twoBitNoPresent1Table().validate().empty());
    EXPECT_TRUE(twoBitWtTable().validate().empty());
    EXPECT_TRUE(fullMapTable().validate().empty());
    EXPECT_TRUE(fullMapLocalTable().validate().empty());
    EXPECT_TRUE(moesiTable().validate().empty());
}

TEST(TableValidate, ShippedTableShapes)
{
    // Hit rows are any-state rows: one ReadHit row per table, and one
    // WriteHitDirty row where every state handles it alike.
    EXPECT_EQ(twoBitTable().rows.size(), 15u);
    EXPECT_EQ(twoBitNoPresent1Table().rows.size(), 11u);
    EXPECT_EQ(twoBitWtTable().rows.size(), 11u);
    EXPECT_EQ(twoBitWtTable().stateNames.size(), 3u);
    EXPECT_EQ(fullMapTable().rows.size(), 12u);
    EXPECT_EQ(fullMapLocalTable().rows.size(), 17u);
    EXPECT_EQ(fullMapLocalTable().stateNames.size(), 3u);
    EXPECT_EQ(moesiTable().rows.size(), 24u);
    EXPECT_TRUE(twoBitTable().anyStateEvent(EventClass::ReadHit));
    EXPECT_TRUE(twoBitTable().anyStateEvent(EventClass::WriteHitDirty));
    EXPECT_FALSE(twoBitTable().anyStateEvent(EventClass::WriteHitClean));
    EXPECT_FALSE(moesiTable().anyStateEvent(EventClass::WriteHitDirty));
    EXPECT_TRUE(twoBitTable().handlesEvict());
    EXPECT_TRUE(moesiTable().handlesEvict());
    // Misses evict a victim only where their rows fill a line: the
    // write-through write miss allocates nothing.
    EXPECT_TRUE(twoBitTable().evictsVictim(EventClass::WriteMiss));
    EXPECT_TRUE(twoBitWtTable().evictsVictim(EventClass::ReadMiss));
    EXPECT_FALSE(twoBitWtTable().evictsVictim(EventClass::WriteMiss));
    EXPECT_FALSE(twoBitWtTable().evictsVictim(EventClass::EvictClean));
}

TEST(TableValidate, DuplicateRowRejectedWithRowNumber)
{
    TransitionTable t = tinyTable();
    t.rows.push_back(t.rows[0]); // duplicate (Only, ReadHit, Always)
    EXPECT_TRUE(rejectsWith(t, "row 7", "duplicate of row 0"));
}

TEST(TableValidate, GuardRowShadowedByEarlierAlwaysRejected)
{
    TransitionTable t = tinyTable();
    // Guarded variant AFTER the Always row: first-match order makes
    // it dead, and validate() must say so by row number.
    t.rows.push_back({0, EventClass::ReadHit,
                      TableGuard::OtherHoldersNone, {}, 0});
    EXPECT_TRUE(rejectsWith(t, "row 7", "matches Always first"));
}

TEST(TableValidate, UndefinedStatesRejected)
{
    TransitionTable t = tinyTable();
    t.rows.push_back({3, EventClass::ReadHit, TableGuard::Always,
                      {}, 0});
    EXPECT_TRUE(rejectsWith(t, "undefined state 3"));

    TransitionTable u = tinyTable();
    u.rows[0].next = 2;
    EXPECT_TRUE(rejectsWith(u, "undefined next-state 2"));
}

TEST(TableValidate, ActionVocabularyViolationsRejected)
{
    TransitionTable t = tinyTable();
    t.rows[0].actions = {bump(static_cast<TableCounter>(99))};
    EXPECT_TRUE(rejectsWith(t, "row 0", "unknown counter 99"));

    TransitionTable u = tinyTable();
    u.rows[3].actions = {act(ActionOp::FillLine,
                             static_cast<std::uint8_t>(
                                 LineState::Invalid))};
    EXPECT_TRUE(rejectsWith(u, "FillLine(Invalid)"));

    TransitionTable v = tinyTable();
    v.rows[3].actions = {act(ActionOp::FillLine, 42)};
    EXPECT_TRUE(rejectsWith(v, "unknown line state 42"));

    TransitionTable w = tinyTable();
    w.rows[0].actions = {act(ActionOp::SetDirState, 3)};
    EXPECT_TRUE(rejectsWith(w, "undefined target state 3"));
}

TEST(TableValidate, MissRowsMustAgreeOnFilling)
{
    // A second state whose write miss allocates nothing, while state
    // 0's write miss fills: the victim eviction would be ill-defined.
    TransitionTable t = tinyTable();
    t.stateNames = {"A", "B"};
    t.constraints = {{0, SIZE_MAX, 0, 1}, {0, SIZE_MAX, 0, 1}};
    t.rows.push_back({1, EventClass::WriteMiss, TableGuard::Always,
                      {act(ActionOp::WriteThrough)}, 1});
    EXPECT_TRUE(rejectsWith(t, "row 7", "disagrees with row 4"));

    // Every write-miss row without a fill is fine.
    t.rows[4].actions = {act(ActionOp::WriteThrough)};
    EXPECT_TRUE(t.validate().empty());
}

TEST(TableValidate, NextStateMustMatchDirectoryEffect)
{
    // Two states so a state change is expressible.
    TransitionTable t = tinyTable();
    t.stateNames = {"A", "B"};
    t.constraints = {{0, SIZE_MAX, 0, 1}, {0, SIZE_MAX, 0, 1}};

    // Declared next B, but no SetDirState: silently wrong.
    TransitionTable u = t;
    u.rows[0].next = 1;
    EXPECT_TRUE(rejectsWith(u, "changes state without a SetDirState"));

    // SetDirState writes B but the row declares next A.
    TransitionTable v = t;
    v.rows[0].actions = {act(ActionOp::SetDirState, 1)};
    EXPECT_TRUE(
        rejectsWith(v, "declares next state 'A'", "writes 'B'"));
}

/** tinyTable() with its hit rows declared for any state. */
TransitionTable
anyStateTinyTable()
{
    TransitionTable t = tinyTable();
    for (std::size_t i : {0u, 1u}) {
        t.rows[i].state = anyState;
        t.rows[i].next = anyState;
    }
    return t;
}

TEST(TableValidate, AnyStateRowsAccepted)
{
    EXPECT_TRUE(anyStateTinyTable().validate().empty());
    EXPECT_EQ(describeRow(anyStateTinyTable(), 0),
              "(*, ReadHit, Always) -> *");
}

TEST(TableValidate, AnyStateRowMayNotWriteTheDirectory)
{
    TransitionTable t = anyStateTinyTable();
    t.rows[1].actions.push_back(act(ActionOp::SetDirState, 0));
    t.rows[1].next = 0;
    EXPECT_TRUE(rejectsWith(t, "row 1", "cannot write the directory"));
}

TEST(TableValidate, EventMixingAnyStateAndPerStateRowsRejected)
{
    TransitionTable t = anyStateTinyTable();
    t.rows.push_back({0, EventClass::ReadHit,
                      TableGuard::OtherHoldersNone, {}, 0});
    EXPECT_TRUE(
        rejectsWith(t, "row 7", "mixes any-state and per-state rows"));
}

TEST(TableValidate, StateCountAndConstraintArityChecked)
{
    TransitionTable t = tinyTable();
    t.stateNames = {"A", "B", "C", "D", "E"};
    EXPECT_TRUE(rejectsWith(t, "5 states"));

    TransitionTable u = tinyTable();
    u.constraints.clear();
    EXPECT_TRUE(rejectsWith(u, "0 state constraints"));
}

#if GTEST_HAS_DEATH_TEST
TEST(TableProtocolDeath, ConstructingFromInvalidTableFatals)
{
    TransitionTable t = tinyTable();
    t.rows.push_back(t.rows[0]);
    EXPECT_DEATH(TableProtocol(t, smallConfig()), "duplicate of row");
}

TEST(TableProtocolDeath, AnyStateRowWritingTheDirectoryFatals)
{
    TransitionTable t = anyStateTinyTable();
    t.rows[0].actions = {act(ActionOp::SetDirState, 0)};
    t.rows[0].next = 0;
    EXPECT_DEATH(TableProtocol(t, smallConfig()),
                 "cannot write the directory");
}

TEST(TableProtocolDeath, MixedAnyStateAndPerStateRowsFatal)
{
    TransitionTable t = anyStateTinyTable();
    t.rows[1].state = 0;
    t.rows[1].next = 0;
    t.rows.push_back({anyState, EventClass::WriteHitDirty,
                      TableGuard::OtherHoldersNone, {}, anyState});
    EXPECT_DEATH(TableProtocol(t, smallConfig()),
                 "mixes any-state and per-state rows");
}

TEST(TableProtocolDeath, MissingRowFatalsWithIncompleteTable)
{
    TransitionTable t = tinyTable();
    // Remove the WriteMiss row: the first write from a cold cache has
    // no matching (state, event) row.
    t.rows.erase(t.rows.begin() + 4);
    TableProtocol proto(t, smallConfig());
    EXPECT_DEATH(proto.access(0, 0, true, 7), "incomplete table");
}

TEST(TableProtocolDeath, ExclusiveCopyBesideAnotherFailsInvariants)
{
    TransitionTable t = tinyTable();
    // Every read miss grants Exclusive, even to a second reader.
    t.rows[3].actions[1].arg =
        static_cast<std::uint8_t>(LineState::Exclusive);
    TableProtocol proto(t, smallConfig());
    proto.access(0, 0, false);
    proto.checkInvariants();
    proto.access(1, 0, false);
    EXPECT_DEATH(proto.checkInvariants(), "exclusive copy and 1 other");
}
#endif

TEST(TableGuards, FirstMatchingRowWinsInDeclarationOrder)
{
    // full_map's clean-evict pair: the OtherHoldersNone row precedes
    // the Always fallback, so the LAST holder reclaims the directory
    // entry and an earlier evict (with another holder live) does not.
    TableProtocol proto(fullMapTable(), smallConfig());
    proto.access(0, 0, false);
    proto.access(1, 0, false);
    EXPECT_EQ(proto.dirStateOf(0), 1u); // Shared

    proto.flushCache(0); // other holder remains -> Always row, stays S
    EXPECT_EQ(proto.dirStateOf(0), 1u);
    proto.flushCache(1); // last holder -> OtherHoldersNone row, to U
    EXPECT_EQ(proto.dirStateOf(0), 0u);
}

TEST(TableGuards, GuardsSelectOnRemoteOwnerDirtiness)
{
    // MOESI (EM, ReadMiss): OwnerDirty row -> Owned; Always (clean
    // Exclusive owner) row -> Shared.
    TableProtocol dirty(moesiTable(), smallConfig());
    dirty.access(0, 0, true, 11); // P0 Modified, dir EM
    dirty.access(1, 0, false);    // dirty owner supplies -> dir Owned
    EXPECT_EQ(dirty.dirStateOf(0), 3u);

    TableProtocol clean(moesiTable(), smallConfig());
    clean.access(0, 0, false); // P0 Exclusive (clean), dir EM
    clean.access(1, 0, false); // clean owner downgrades -> dir Shared
    EXPECT_EQ(clean.dirStateOf(0), 1u);
}

TEST(TableMetadata, FlushSupportComesFromEvictRows)
{
    EXPECT_TRUE(TableProtocol(twoBitTable(), smallConfig())
                    .supportsFlush());

    TransitionTable t = tinyTable();
    t.rows.resize(5); // drop both eviction rows
    EXPECT_FALSE(TableProtocol(t, smallConfig()).supportsFlush());
}

TEST(TableMetadata, DirectoryCostComesFromTableBits)
{
    ProtoConfig pc = smallConfig(16);
    EXPECT_EQ(TableProtocol(twoBitTable(), pc).directoryBitsPerBlock(),
              2u);
    EXPECT_EQ(
        TableProtocol(fullMapTable(), pc).directoryBitsPerBlock(),
        17u);
    EXPECT_EQ(TableProtocol(moesiTable(), pc).directoryBitsPerBlock(),
              18u);
}

TEST(TableDispatch, HitsDoNotReadTheDirectory)
{
    // Under a tiny RAM budget a directory page nobody touches goes
    // cold; reading it again decompresses it.  Hits on a cold block
    // must not, because any-state rows never consult the directory.
    ProtoConfig pc = smallConfig();
    pc.dirRamBudget = 2048;
    TableProtocol proto(twoBitTable(), pc);
    const Addr a = 0;
    proto.access(0, a, true, 5);
    for (Addr b = 1; b < 2048; ++b)
        proto.access(1, b << 16, false); // sweep other pages
    const std::uint64_t cold = proto.dirStoreCounters().decompressions;

    EXPECT_EQ(proto.access(0, a, false), 5u); // ReadHit
    proto.access(0, a, true, 6);              // WriteHitDirty
    EXPECT_EQ(proto.dirStoreCounters().decompressions, cold);

    // Control: a miss on the same block does read its page.
    EXPECT_EQ(proto.access(1, a, false), 6u);
    EXPECT_GT(proto.dirStoreCounters().decompressions, cold);
    proto.checkInvariants();
}

TEST(TableMetadata, DirStoreCountersComposeWithRamBudget)
{
    // A tiny directory RAM budget forces the tiered store onto its
    // compress/evict path; the aggregated counters must show it and
    // the protocol must still be coherent.
    ProtoConfig pc = smallConfig();
    pc.dirRamBudget = 2048;
    TableProtocol proto(twoBitTable(), pc);
    for (Addr a = 0; a < 4096; ++a)
        proto.access(a % 2, a, a % 3 == 0, 100 + a);
    const DirStoreCounters c = proto.dirStoreCounters();
    EXPECT_EQ(c.ramBudgetBytes, 2048u);
    EXPECT_GT(c.hotPages + c.coldPages + c.diskPages, 0u);
    proto.checkInvariants();
}

/**
 * Row permutation of `t` that moves rows of different (state, event)
 * groups past each other while keeping each group's declaration order:
 * groups are taken in reverse order of first appearance and their rows
 * interleaved round-robin.  perm[j] is the original index of new row j.
 */
std::vector<std::size_t>
crossGroupPermutation(const TransitionTable &t)
{
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < t.rows.size(); ++i) {
        auto same = [&](const std::vector<std::size_t> &g) {
            return t.rows[g[0]].state == t.rows[i].state &&
                   t.rows[g[0]].event == t.rows[i].event;
        };
        auto it = std::find_if(groups.begin(), groups.end(), same);
        if (it == groups.end())
            groups.push_back({i});
        else
            it->push_back(i);
    }
    std::reverse(groups.begin(), groups.end());
    std::vector<std::size_t> perm;
    for (std::size_t rank = 0; perm.size() < t.rows.size(); ++rank) {
        for (const auto &g : groups) {
            if (rank < g.size())
                perm.push_back(g[rank]);
        }
    }
    return perm;
}

TEST(TableDispatch, CrossGroupRowOrderDoesNotChangeBehaviour)
{
    // A (state, event) query may only ever match rows of its own
    // group, first match in declaration order; where the other groups'
    // rows sit in the table must not matter.  Drive each shipped table
    // and a copy whose groups are interleaved in a different order
    // through an identical mixed workload and require bit-identical
    // observable state: returned values, counters, row coverage
    // (mapped back through the permutation), directory states.
    for (const TransitionTable &t :
         {twoBitTable(), fullMapTable(), moesiTable()}) {
        const std::vector<std::size_t> perm = crossGroupPermutation(t);
        ASSERT_EQ(perm.size(), t.rows.size()) << t.name;
        TransitionTable moved = t;
        for (std::size_t j = 0; j < perm.size(); ++j)
            moved.rows[j] = t.rows[perm[j]];
        ASSERT_NE(perm[0], 0u) << t.name << ": permutation is trivial";

        ProtoConfig pc = smallConfig(4);
        TableProtocol declared(t, pc);
        TableProtocol reordered(moved, pc);

        Rng rng(0x9e3779b97f4a7c15ULL);
        Value nonce = 0;
        for (int i = 0; i < 4000; ++i) {
            const ProcId p = static_cast<ProcId>(rng.range(4));
            const Addr a = rng.range(48);
            const bool w = rng.chance(0.3);
            const Value v = w ? ++nonce : 0;
            ASSERT_EQ(declared.access(p, a, w, v),
                      reordered.access(p, a, w, v))
                << t.name << " diverged at ref " << i;
            if (i % 500 == 499) {
                declared.flushCache(p);
                reordered.flushCache(p);
            }
        }
        std::vector<std::uint64_t> hitsBack(t.rows.size());
        for (std::size_t j = 0; j < perm.size(); ++j)
            hitsBack[perm[j]] = reordered.rowHits()[j];
        EXPECT_EQ(declared.rowHits(), hitsBack) << t.name;
        std::vector<std::uint64_t> vd, vr;
        AccessCounts::forEachField(
            declared.counts(),
            [&](const char *, std::uint64_t v) { vd.push_back(v); });
        AccessCounts::forEachField(
            reordered.counts(),
            [&](const char *, std::uint64_t v) { vr.push_back(v); });
        EXPECT_EQ(vd, vr) << t.name;
        for (Addr a = 0; a < 48; ++a)
            ASSERT_EQ(declared.dirStateOf(a), reordered.dirStateOf(a))
                << t.name << " dir state differs at block " << a;
        declared.checkInvariants();
        reordered.checkInvariants();
    }
}

TEST(TableFactory, TableProtocolsAreRegistered)
{
    const auto names = protocolNames();
    for (const char *want :
         {"two_bit_table", "full_map_table", "moesi"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), want),
                  names.end())
            << want << " missing from protocolNames()";
    }
    // The fuzz tier assumes the paper's scheme stays first.
    EXPECT_EQ(names.front(), "two_bit");
}

TEST(TableFactory, DescribeRowReadsLikeTheDocs)
{
    EXPECT_EQ(describeRow(twoBitTable(), 0),
              "(*, ReadHit, Always) -> *");
    EXPECT_EQ(describeRow(twoBitTable(), 2),
              "(Present1, WriteHitClean, Always) -> PresentM");
}

} // namespace
} // namespace dir2b
