#include "proto/table_defs.hh"

#include <vector>

namespace dir2b
{
namespace
{

// Row-building shorthand: tables should read like the paper's case
// analysis, not like C++.
using E = EventClass;
using G = TableGuard;
using C = TableCounter;

TableAction
bump(C c)
{
    return {ActionOp::Bump, static_cast<std::uint8_t>(c)};
}

TableAction
act(ActionOp op)
{
    return {op, 0};
}

TableAction
fill(LineState s)
{
    return {ActionOp::FillLine, static_cast<std::uint8_t>(s)};
}

TableAction
setLine(LineState s)
{
    return {ActionOp::SetLine, static_cast<std::uint8_t>(s)};
}

TableAction
setDir(std::uint8_t s)
{
    return {ActionOp::SetDirState, s};
}

TableRow
row(std::uint8_t state, E ev, std::vector<TableAction> actions,
    std::uint8_t next)
{
    return {state, ev, G::Always, std::move(actions), next};
}

TableRow
rowIf(std::uint8_t state, E ev, G guard,
      std::vector<TableAction> actions, std::uint8_t next)
{
    return {state, ev, guard, std::move(actions), next};
}

/** Exactly-one-holder, clean. */
constexpr StateConstraint one{1, 1, 0, 0};
/** Any number of clean holders (broadcast schemes cannot count down). */
constexpr StateConstraint anyClean{0, SIZE_MAX, 0, 0};
/** At least one holder, all clean. */
constexpr StateConstraint someClean{1, SIZE_MAX, 0, 0};
/** No holders at all. */
constexpr StateConstraint none{0, 0, 0, 0};
/** Exactly one holder, modified. */
constexpr StateConstraint oneDirty{1, 1, 1, 1};

/** A hit row for every directory state: answered without reading the
 *  directory, as hits are in the paper. */
TableRow
hitRow(E ev, std::vector<TableAction> actions)
{
    return row(anyState, ev, std::move(actions), anyState);
}

/** The §3 two-bit scheme; without Present1 it is the ablation that
 *  folds Present1 into Present* (the first reader goes straight to
 *  Present*), isolating the value of the paper's §3.2.1/§3.2.4 claim
 *  that keeping Present1 "will reduce the number of broadcasts". */
TransitionTable
buildTwoBit(const char *name, bool present1)
{
    // States are the §3.1 global states, indices = GlobalState values.
    enum : std::uint8_t { A, P1, PS, PM };
    const std::uint8_t firstReader = present1 ? P1 : PS;
    TransitionTable t;
    t.name = name;
    t.stateNames = {"Absent", "Present1", "Present*", "PresentM"};
    t.constraints = {none, one, anyClean, oneDirty};
    t.dirBitsFixed = 2;
    t.dirBitsPerProc = 0;
    t.rows = {
        // Hits never touch the directory.
        hitRow(E::ReadHit, {}),
        hitRow(E::WriteHitDirty, {act(ActionOp::WriteLine)}),

        // §3.2.4 write hit on a clean copy: MREQUEST + MGRANTED;
        // Present1 grants without a broadcast (the payoff of keeping
        // Present1 distinct), Present* must BROADINV first.
        row(P1, E::WriteHitClean,
            {bump(C::MRequests), bump(C::NetMessages),
             bump(C::NetMessages), setDir(PM),
             setLine(LineState::Modified), act(ActionOp::WriteLine)},
            PM),
        row(PS, E::WriteHitClean,
            {bump(C::MRequests), bump(C::NetMessages),
             bump(C::NetMessages), act(ActionOp::SendBroadInv),
             setDir(PM), setLine(LineState::Modified),
             act(ActionOp::WriteLine)},
            PM),

        // §3.2.2 read miss: REQUEST, then memory or BROADQUERY.
        row(A, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(firstReader),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            firstReader),
        row(P1, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(PS),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            PS),
        row(PS, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(PS),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            PS),
        row(PM, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendBroadQueryRead), setDir(PS),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            PS),

        // §3.2.3 write miss.
        row(A, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(PM),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            PM),
        row(P1, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendBroadInv), act(ActionOp::ReadMem),
             setDir(PM), bump(C::DataTransfers),
             bump(C::NetMessages), fill(LineState::Modified)},
            PM),
        row(PS, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendBroadInv), act(ActionOp::ReadMem),
             setDir(PM), bump(C::DataTransfers),
             bump(C::NetMessages), fill(LineState::Modified)},
            PM),
        row(PM, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendBroadQueryWrite), setDir(PM),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            PM),

        // §3.2.1 replacement: only Present1 can be reclaimed on a
        // clean eject (Present* cannot count down, footnote 2).
        row(P1, E::EvictClean,
            {bump(C::Ejects), bump(C::NetMessages), setDir(A),
             act(ActionOp::DropLine)},
            A),
        row(PS, E::EvictClean,
            {bump(C::Ejects), bump(C::NetMessages),
             act(ActionOp::DropLine)},
            PS),
        row(PM, E::EvictDirty,
            {bump(C::Ejects), bump(C::NetMessages),
             act(ActionOp::WritebackLine), setDir(A),
             act(ActionOp::DropLine)},
            A),
    };
    if (!present1)
        std::erase_if(t.rows,
                      [](const TableRow &r) { return r.state == P1; });
    return t;
}

/** §2.4's write-through branch, the map as a filter over the classical
 *  scheme's broadcasts: memory is always current (no PresentM), a
 *  write miss allocates nothing, reads and ejects are as above. */
TransitionTable
buildTwoBitWriteThrough()
{
    enum : std::uint8_t { A, P1, PS, PM };
    TransitionTable t = buildTwoBit("two_bit_wt", true);
    t.stateNames.pop_back();
    t.constraints.pop_back();
    std::erase_if(t.rows, [](const TableRow &r) {
        return r.state == PM ||
               (r.event != E::ReadHit && r.event != E::ReadMiss &&
                r.event != E::EvictClean);
    });
    const TableAction through = act(ActionOp::WriteThrough);
    const TableAction write = act(ActionOp::WriteLine);
    const TableAction inv = act(ActionOp::SendBroadInv);
    t.rows.insert(t.rows.end(), {
        // Every store goes through.  Present1 needs no broadcast, the
        // filtering win over the classical scheme; on Present* the
        // other copies go and exactly the writer's remains.
        row(P1, E::WriteHitClean, {through, write}, P1),
        row(PS, E::WriteHitClean, {through, write, inv, setDir(P1)}, P1),
        // No write-allocate: after the invalidation no copy remains.
        row(A, E::WriteMiss, {through}, A),
        row(P1, E::WriteMiss, {through, inv, setDir(A)}, A),
        row(PS, E::WriteMiss, {through, inv, setDir(A)}, A),
    });
    return t;
}

TransitionTable
buildFullMap()
{
    // The n+1-bit map's 2-bit summary: presence bits are modelled by
    // the cache arrays themselves (SendInvHolders/SendPurge* derive
    // the exact holder set); dirBitsPerProc reports the true cost.
    enum : std::uint8_t { U, S, M };
    TransitionTable t;
    t.name = "full_map_table";
    t.stateNames = {"Uncached", "Shared", "Modified"};
    t.constraints = {none, someClean, oneDirty};
    t.dirBitsFixed = 1;   // the modified bit
    t.dirBitsPerProc = 1; // one presence bit per cache
    t.rows = {
        hitRow(E::ReadHit, {}),
        hitRow(E::WriteHitDirty, {act(ActionOp::WriteLine)}),

        // Write hit on a clean copy: directed INVALIDATEs to the
        // exactly-known other holders, no broadcast ever.
        row(S, E::WriteHitClean,
            {bump(C::MRequests), bump(C::NetMessages),
             bump(C::NetMessages), act(ActionOp::SendInvHolders),
             setDir(M), setLine(LineState::Modified),
             act(ActionOp::WriteLine)},
            M),

        row(U, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(S),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            S),
        row(S, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(S),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            S),
        row(M, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendPurgeRead), setDir(S),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            S),

        row(U, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(M),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            M),
        row(S, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendInvHolders), act(ActionOp::ReadMem),
             setDir(M), bump(C::DataTransfers),
             bump(C::NetMessages), fill(LineState::Modified)},
            M),
        row(M, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendPurgeWrite), setDir(M),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            M),

        // Replacement: the map tracks every holder exactly, so each
        // eject updates the presence bits (one SETSTATE, always).
        rowIf(S, E::EvictClean, G::OtherHoldersNone,
              {bump(C::Ejects), bump(C::NetMessages), setDir(U),
               act(ActionOp::DropLine)},
              U),
        rowIf(S, E::EvictClean, G::Always,
              {bump(C::Ejects), bump(C::NetMessages), setDir(S),
               act(ActionOp::DropLine)},
              S),
        row(M, E::EvictDirty,
            {bump(C::Ejects), bump(C::NetMessages),
             act(ActionOp::WritebackLine), setDir(U),
             act(ActionOp::DropLine)},
            U),
    };
    return t;
}

/** Yen and Fu's full map with local state (§2.4.3): the first reader
 *  of an uncached block gets an exclusive-clean copy, which it may
 *  write "without first consulting the global table".  The directory
 *  cannot tell a silently upgraded copy from a clean one, so a remote
 *  miss on an Exclusive block always queries the holder. */
TransitionTable
buildFullMapLocal()
{
    enum : std::uint8_t { U, X, S };
    // A miss: REQUEST, the row's own actions, then the grant.
    const auto miss = [](std::uint8_t st, E ev, G g,
                         std::vector<TableAction> mid, std::uint8_t next,
                         LineState as) {
        mid.insert(mid.begin(), {bump(C::Requests), bump(C::NetMessages)});
        mid.insert(mid.end(), {setDir(next), bump(C::DataTransfers),
                               bump(C::NetMessages), fill(as)});
        return rowIf(st, ev, g, std::move(mid), next);
    };
    // Every eject updates the presence bits: one SETSTATE, always.
    const auto eject = [](std::uint8_t st, E ev, G g,
                          std::vector<TableAction> mid, std::uint8_t next) {
        mid.insert(mid.begin(), {bump(C::Ejects), bump(C::NetMessages)});
        mid.insert(mid.end(), {setDir(next), act(ActionOp::DropLine)});
        return rowIf(st, ev, g, std::move(mid), next);
    };
    const TableAction mem = act(ActionOp::ReadMem);
    const TableAction share = act(ActionOp::SendShareHolders);
    const TableAction inv = act(ActionOp::SendInvHolders);
    const TableAction write = act(ActionOp::WriteLine);
    const LineState Sh = LineState::Shared;
    const LineState Mo = LineState::Modified;
    TransitionTable t;
    t.name = "full_map_local";
    t.stateNames = {"Uncached", "Exclusive", "Shared"};
    t.constraints = {none, {1, 1, 0, 1}, someClean};
    t.dirBitsFixed = 1;   // the modified bit
    t.dirBitsPerProc = 1; // one presence bit per cache
    t.rows = {
        hitRow(E::ReadHit, {}),
        hitRow(E::WriteHitDirty, {write}),

        // The scheme's payoff: the exclusive-clean holder writes with
        // no global transaction at all.
        row(X, E::WriteHitClean, {setLine(Mo), write}, X),
        row(S, E::WriteHitClean,
            {bump(C::MRequests), bump(C::NetMessages),
             bump(C::NetMessages), inv, setDir(X), setLine(Mo), write},
            X),

        // The first reader gets an exclusive-clean copy.  A sole
        // holder may have written silently, so it is queried; with
        // two or more sharers memory is known to be current.
        miss(U, E::ReadMiss, G::Always, {mem}, X, LineState::Exclusive),
        miss(X, E::ReadMiss, G::OwnerDirty,
             {act(ActionOp::SendPurgeRead)}, S, Sh),
        miss(X, E::ReadMiss, G::Always, {share, mem}, S, Sh),
        miss(S, E::ReadMiss, G::OtherHoldersOne, {share, mem}, S, Sh),
        miss(S, E::ReadMiss, G::Always, {mem}, S, Sh),

        miss(U, E::WriteMiss, G::Always, {mem}, X, Mo),
        miss(X, E::WriteMiss, G::OwnerDirty,
             {act(ActionOp::SendPurgeWrite)}, X, Mo),
        miss(X, E::WriteMiss, G::Always, {inv, mem}, X, Mo),
        miss(S, E::WriteMiss, G::Always, {inv, mem}, X, Mo),

        eject(X, E::EvictClean, G::Always, {}, U),
        eject(X, E::EvictDirty, G::Always,
              {act(ActionOp::WritebackLine)}, U),
        eject(S, E::EvictClean, G::OtherHoldersNone, {}, U),
        eject(S, E::EvictClean, G::Always, {}, S),
    };
    return t;
}

TransitionTable
buildMoesi()
{
    // Directory MOESI: E and M share one directory state (a silent
    // E->M upgrade is invisible to the home node), the fourth state is
    // Owned — a dirty owner coexisting with clean sharers, supplying
    // the block cache-to-cache with no write-back on read misses.
    // Four states, so the 2-bit economy still holds at the directory;
    // the owner/sharer distinction lives in the caches' line states.
    enum : std::uint8_t { I, S, EM, O };
    TransitionTable t;
    t.name = "moesi";
    t.stateNames = {"Invalid", "Shared", "ExclMod", "Owned"};
    t.constraints = {none, someClean, {1, 1, 0, 1}, {1, SIZE_MAX, 1, 1}};
    t.dirBitsFixed = 2;   // four directory states
    t.dirBitsPerProc = 1; // presence bits for directed commands
    t.rows = {
        hitRow(E::ReadHit, {}),

        // A dirty hit stays per-state: Owned differs from ExclMod.
        row(EM, E::WriteHitDirty, {act(ActionOp::WriteLine)}, EM),
        // The owner writes again: reclaim exclusivity from the
        // sharers (directed), silently when none remain.
        rowIf(O, E::WriteHitDirty, G::OtherHoldersSome,
              {bump(C::MRequests), bump(C::NetMessages),
               bump(C::NetMessages), act(ActionOp::SendInvHolders),
               setDir(EM), setLine(LineState::Modified),
               act(ActionOp::WriteLine)},
              EM),
        rowIf(O, E::WriteHitDirty, G::Always,
              {setDir(EM), setLine(LineState::Modified),
               act(ActionOp::WriteLine)},
              EM),

        // Silent E->M upgrade: the MOESI payoff for Exclusive.
        row(EM, E::WriteHitClean,
            {setLine(LineState::Modified), act(ActionOp::WriteLine)},
            EM),
        rowIf(S, E::WriteHitClean, G::OtherHoldersSome,
              {bump(C::MRequests), bump(C::NetMessages),
               bump(C::NetMessages), act(ActionOp::SendInvHolders),
               setDir(EM), setLine(LineState::Modified),
               act(ActionOp::WriteLine)},
              EM),
        rowIf(S, E::WriteHitClean, G::Always,
              {bump(C::MRequests), bump(C::NetMessages),
               bump(C::NetMessages), setDir(EM),
               setLine(LineState::Modified), act(ActionOp::WriteLine)},
              EM),
        // A sharer writes while a dirty owner exists: fetch-inv the
        // owner (our clean copy already holds the same data — the
        // invariant the checker enforces), invalidate the rest.
        row(O, E::WriteHitClean,
            {bump(C::MRequests), bump(C::NetMessages),
             bump(C::NetMessages), act(ActionOp::SendFetchInvOwner),
             act(ActionOp::SendInvHolders), setDir(EM),
             setLine(LineState::Modified), act(ActionOp::WriteLine)},
            EM),

        // Read misses: first reader gets Exclusive; a dirty owner
        // supplies cache-to-cache and becomes Owned (no write-back).
        row(I, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(EM),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Exclusive)},
            EM),
        row(S, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(S),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            S),
        rowIf(EM, E::ReadMiss, G::OwnerDirty,
              {bump(C::Requests), bump(C::NetMessages),
               act(ActionOp::SendDowngradeOwner), setDir(O),
               bump(C::DataTransfers), bump(C::NetMessages),
               fill(LineState::Shared)},
              O),
        rowIf(EM, E::ReadMiss, G::Always,
              {bump(C::Requests), bump(C::NetMessages),
               act(ActionOp::SendDowngradeOwner), setDir(S),
               bump(C::DataTransfers), bump(C::NetMessages),
               fill(LineState::Shared)},
              S),
        row(O, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendDowngradeOwner), setDir(O),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            O),

        // Write misses: fetch-inv any owner cache-to-cache, directed
        // invalidates for sharers, never a broadcast.
        row(I, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(EM),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            EM),
        row(S, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendInvHolders), act(ActionOp::ReadMem),
             setDir(EM), bump(C::DataTransfers),
             bump(C::NetMessages), fill(LineState::Modified)},
            EM),
        row(EM, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendFetchInvOwner), setDir(EM),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            EM),
        row(O, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendFetchInvOwner),
             act(ActionOp::SendInvHolders), setDir(EM),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            EM),

        // Replacement.  An evicting owner with live sharers writes
        // back and leaves them Shared (memory is current again).
        rowIf(S, E::EvictClean, G::OtherHoldersNone,
              {bump(C::Ejects), bump(C::NetMessages), setDir(I),
               act(ActionOp::DropLine)},
              I),
        rowIf(S, E::EvictClean, G::Always,
              {bump(C::Ejects), bump(C::NetMessages),
               act(ActionOp::DropLine)},
              S),
        row(EM, E::EvictClean,
            {bump(C::Ejects), bump(C::NetMessages), setDir(I),
             act(ActionOp::DropLine)},
            I),
        row(O, E::EvictClean,
            {bump(C::Ejects), bump(C::NetMessages),
             act(ActionOp::DropLine)},
            O),
        row(EM, E::EvictDirty,
            {bump(C::Ejects), bump(C::NetMessages),
             act(ActionOp::WritebackLine), setDir(I),
             act(ActionOp::DropLine)},
            I),
        rowIf(O, E::EvictDirty, G::OtherHoldersNone,
              {bump(C::Ejects), bump(C::NetMessages),
               act(ActionOp::WritebackLine), setDir(I),
               act(ActionOp::DropLine)},
              I),
        rowIf(O, E::EvictDirty, G::Always,
              {bump(C::Ejects), bump(C::NetMessages),
               act(ActionOp::WritebackLine), setDir(S),
               act(ActionOp::DropLine)},
              S),
    };
    return t;
}

} // namespace

const CompiledTable &
twoBitTable()
{
    static const CompiledTable t(buildTwoBit("two_bit_table", true));
    return t;
}

const CompiledTable &
twoBitNoPresent1Table()
{
    static const CompiledTable t(buildTwoBit("two_bit_nop1", false));
    return t;
}

const CompiledTable &
twoBitWtTable()
{
    static const CompiledTable t(buildTwoBitWriteThrough());
    return t;
}

const CompiledTable &
fullMapTable()
{
    static const CompiledTable t(buildFullMap());
    return t;
}

const CompiledTable &
fullMapLocalTable()
{
    static const CompiledTable t(buildFullMapLocal());
    return t;
}

const CompiledTable &
moesiTable()
{
    static const CompiledTable t(buildMoesi());
    return t;
}

} // namespace dir2b
