/**
 * @file
 * Example: a guided tour of one block's life under the two-bit scheme.
 *
 * Drives a tiny hand-written reference sequence and narrates every
 * global-state transition of §3.2 — the executable version of the
 * paper's protocol walk-through.  Useful as a first read of the
 * protocol and as a template for poking at it interactively.
 */

#include <cstdio>

#include "proto/protocol_factory.hh"
#include "proto/table_engine.hh"
#include "trace/reference.hh"

using namespace dir2b;

namespace
{

const TableProtocol *gState = nullptr;
Protocol *gProto = nullptr;

/** The §3.1 global state of block a (the two-bit table's state index
 *  is the GlobalState value). */
GlobalState
globalState(Addr a)
{
    return static_cast<GlobalState>(gState->dirStateOf(a));
}

void
step(const char *what, ProcId p, Addr a, bool write, const char *expect,
     Addr watch = invalidAddr)
{
    // Narrate the state of 'watch' (default: the accessed block) so
    // eviction steps can show the *victim's* transition.
    if (watch == invalidAddr)
        watch = a;
    const GlobalState before = globalState(watch);
    gProto->access(p, a, write, write ? 0xC0FFEE00 + p : 0);
    const GlobalState after = globalState(watch);
    const auto &d = gProto->lastDelta();
    std::printf("%-34s %-9s -> %-9s", what, toString(before).c_str(),
                toString(after).c_str());
    if (d.broadcasts)
        std::printf("  [broadcast: %llu cmds, %llu useless]",
                    static_cast<unsigned long long>(d.broadcastCmds),
                    static_cast<unsigned long long>(d.uselessCmds));
    if (d.writebacks)
        std::printf("  [write-back]");
    if (d.mrequests)
        std::printf("  [MREQUEST]");
    std::printf("\n    expecting: %s\n", expect);
}

} // namespace

int
main()
{
    ProtoConfig cfg;
    cfg.numProcs = 4;
    cfg.cacheGeom.sets = 1;
    cfg.cacheGeom.ways = 2; // tiny cache so we can force ejections
    cfg.numModules = 1;
    auto proto = makeProtocol("two_bit", cfg);
    gProto = proto.get();
    gState = &dynamic_cast<const TableProtocol &>(*proto);

    const Addr a = 0;
    const Addr b = 2; // same set as a (1-set cache)
    const Addr c = 4;

    std::printf("The life of block %llu under the two-bit directory "
                "(n=4):\n\n",
                static_cast<unsigned long long>(a));

    step("P0 reads a (miss)", 0, a, false,
         "Absent -> Present1, data from memory, no broadcast "
         "(Sec. 3.2.2 case 1)");
    step("P1 reads a (miss)", 1, a, false,
         "Present1 -> Present*, still no broadcast");
    step("P0 writes a (hit, clean)", 0, a, true,
         "MREQUEST; Present* forces BROADINV to n-1=3 caches, one "
         "useful (P1), two useless (Sec. 3.2.4 case 2)");
    step("P2 reads a (miss)", 2, a, false,
         "PresentM: BROADQUERY finds the owner P0, who writes back "
         "and keeps a clean copy -> Present* (Sec. 3.2.2 case 2)");
    step("P3 writes a (miss)", 3, a, true,
         "Present*: BROADINV invalidates P0 and P2 -> PresentM "
         "(Sec. 3.2.3 case 2)");
    step("P3 reads b (miss, evicts...)", 3, b, false,
         "b fills; note a was NOT evicted (2-way set): Absent -> "
         "Present1 for b");
    step("P3 reads c (miss, evicts a!)", 3, c, false,
         "the dirty copy of a is ejected: EJECT(write)+put, a -> "
         "Absent (Sec. 3.2.1 case 3)", a);
    step("P1 writes a (miss)", 1, a, true,
         "Absent again: plain fill, PresentM, no broadcast");

    // The anomaly: Present* that decays to zero copies.  Fresh system
    // so cache contents are predictable.
    std::printf("\nThe Present* anomaly (Sec. 3.1 footnote), on a "
                "fresh system:\n\n");
    auto proto2 = makeProtocol("two_bit", cfg);
    gProto = proto2.get();
    gState = &dynamic_cast<const TableProtocol &>(*proto2);
    const Addr z = 6;
    step("P0 reads z", 0, z, false, "Absent -> Present1");
    step("P1 reads z", 1, z, false, "Present1 -> Present*");
    step("P0 reads u", 0, 8, false, "fills P0's other way");
    step("P0 reads v (evicts z)", 0, 12, false,
         "clean eject from Present*: the map cannot count down", z);
    step("P1 reads u'", 1, 10, false, "fills P1's other way");
    step("P1 reads v' (evicts z)", 1, 14, false,
         "zero cached copies of z remain, state still Present*", z);
    step("P2 writes z (miss)", 2, z, true,
         "the broadcast goes to all 3 other caches and EVERY command "
         "is useless - the worst case (n-1) of T_WM");

    std::printf("\nDirectory bill: 2 bits/block, vs %u bits/block for "
                "the full map at n=4.\n",
                cfg.numProcs + 1);
    proto->checkInvariants();
    proto2->checkInvariants();
    std::printf("All invariants hold.\n");
    return 0;
}
