/**
 * @file
 * Non-aborting structural invariants over a functional protocol.
 *
 * Protocol::checkInvariants() panics on violation, which is right for
 * directed tests but useless for engines that must *report* a failure
 * and keep going (the exhaustive explorer) or hand it to a shrinker
 * (the differential fuzzer).  This module re-states the correctness
 * conditions as predicates that return a Violation instead:
 *
 *  1. value coherence — every valid cached copy of a block holds the
 *     most recently written value (the oracle's shadow); when no
 *     modified copy exists, memory holds it too;
 *  2. single writer — at most one modified copy of a block exists
 *     system-wide;
 *  3. map consistency — for table schemes, the directory entry meets
 *     its state's bounds on the cached copies (for the §3.1 global
 *     states, Absent: none; Present1: exactly one, clean; Present*:
 *     any number, all clean; PresentM: exactly one, modified);
 *  4. §4.2 command counts — for the plain two-bit scheme, the
 *     broadcast deliveries and useless commands of one access match
 *     the closed-form case analysis behind T_RM / T_WM / T_WH.
 */

#ifndef DIR2B_CHECK_INVARIANTS_HH
#define DIR2B_CHECK_INVARIANTS_HH

#include <optional>
#include <string>
#include <vector>

#include "check/oracle.hh"
#include "core/global_state.hh"
#include "proto/protocol.hh"
#include "trace/reference.hh"

namespace dir2b
{

/** One detected correctness violation. */
struct Violation
{
    /** Machine-readable class ("stale-copy", "multi-modified",
     *  "map-mismatch", "count-mismatch", "stale-read", ...). */
    std::string kind;
    /** Human-readable diagnostic. */
    std::string detail;
};

/**
 * Check invariants 1-3 over the given blocks.
 * @return the first violation found, or nullopt when the state is
 *         consistent.
 */
std::optional<Violation>
checkProtocolState(const Protocol &proto, const CoherenceOracle &oracle,
                   const std::vector<Addr> &blocks);

/** Directory-vs-copies snapshot taken immediately before an access,
 *  for the §4.2 per-access command-count check. */
struct PreAccess
{
    /** Two-bit global state of the referenced block. */
    GlobalState global = GlobalState::Absent;
    /** The requester held a valid copy. */
    bool hit = false;
    /** ...and that copy was modified. */
    bool dirtyHit = false;
    /** Holders of the block other than the requester. */
    std::size_t otherHolders = 0;
};

/**
 * Whether checkBroadcastDelta() applies to this protocol: the plain
 * two-bit scheme (including the no-Present1 ablation) without a
 * duplicate tag directory.  The translation-buffer variant redirects
 * broadcasts and the §4.2 analysis does not describe it.
 */
bool broadcastDeltaApplies(const Protocol &proto);

/** Snapshot the quantities the count check needs; only meaningful
 *  when broadcastDeltaApplies(proto). */
PreAccess snapshotPreAccess(const Protocol &proto, const MemRef &ref);

/**
 * Verify that the broadcast deliveries and useless commands of the
 * access `ref` (its lastDelta) match the §3.2 case analysis — the
 * per-event form of the closed-form overhead terms:
 *
 *   read miss on PresentM            n-1 deliveries, n-2 useless (T_RM)
 *   write miss on Present1/Present*  n-1 deliveries, n-1-holders useless
 *   write miss on PresentM           n-1 deliveries, n-2 useless (T_WM)
 *   write hit  on Present*           n-1 deliveries, n-1-holders useless
 *                                    (T_WH)
 *   everything else                  no broadcast at all
 */
std::optional<Violation>
checkBroadcastDelta(const Protocol &proto, const PreAccess &pre,
                    const MemRef &ref, const AccessCounts &delta);

} // namespace dir2b

#endif // DIR2B_CHECK_INVARIANTS_HH
