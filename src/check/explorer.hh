/**
 * @file
 * Exhaustive protocol state-space exploration over small
 * configurations.
 *
 * The engine enumerates every interleaving of LOAD / STORE / flush
 * (eject) actions by every processor over a handful of blocks, in the
 * style of explicit-state protocol model checking: states are
 * identified by an abstraction signature — per-cache line states plus
 * value freshness relative to the last-writer oracle, memory
 * freshness, and the two-bit global state where the scheme keeps one —
 * and a breadth-first search expands every action from every reachable
 * signature, checking the full invariant suite (check/invariants.hh)
 * after each transition.
 *
 * Concrete write values are abstracted to fresh/stale, which is what
 * makes the reachable signature set finite; the search is sound
 * (violations reported are real, with the action trail that produced
 * them) and, for configurations without hidden replacement state
 * (direct-mapped caches, or capacity >= blocks so no replacement
 * occurs), complete up to the depth bound.
 *
 * Grids of configurations dispatch through the shared worker pool
 * (util/parallel.hh); each cell is deterministic, so results are
 * independent of the thread count.
 */

#ifndef DIR2B_CHECK_EXPLORER_HH
#define DIR2B_CHECK_EXPLORER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "proto/protocol.hh"

namespace dir2b
{

/** One explorer action: a memory reference or a cache flush. */
struct CheckAction
{
    enum class Kind : std::uint8_t { Load, Store, Flush };
    Kind kind = Kind::Load;
    ProcId proc = 0;
    /** Block address (unused for Flush). */
    Addr addr = 0;
};

/** Render "P0 LOAD 1" / "P1 FLUSH" for diagnostics and reports. */
std::string toString(const CheckAction &a);

/** One explorer cell: a protocol at a small configuration. */
struct ExplorerConfig
{
    /** Factory name of the scheme under test. */
    std::string protocol = "two_bit";
    /** Processor-cache pairs (2-3 keeps the closure small). */
    ProcId numProcs = 2;
    /** Distinct block addresses the actions range over (1-2). */
    std::size_t numBlocks = 1;
    /** Cache geometry.  Keep it free of hidden replacement state:
     *  ways == 1 (deterministic victim) or sets*ways >= numBlocks
     *  (no replacement). */
    std::size_t sets = 2;
    std::size_t ways = 2;
    /** Memory modules. */
    ModuleId numModules = 1;
    /** Include per-processor flush (the §2.2 eject action) when the
     *  scheme implements it. */
    bool includeFlush = true;
    /** BFS depth bound (actions from the initial state); the closure
     *  is normally reached well before this. */
    unsigned maxDepth = 12;
    /** Safety valve on distinct signatures. */
    std::size_t maxStates = 200000;
};

/** Outcome of exploring one cell. */
struct ExploreResult
{
    /** Distinct abstraction signatures reached. */
    std::uint64_t statesVisited = 0;
    /** Transitions executed and invariant-checked. */
    std::uint64_t transitionsChecked = 0;
    /** Depth at which the frontier emptied (closure), or maxDepth. */
    unsigned depthReached = 0;
    /** True when the search closed before hitting a bound. */
    bool closed = false;
    /** First violation found, if any. */
    std::vector<Violation> violations;
    /** Action trail reproducing violations.front(). */
    std::vector<CheckAction> trail;
    /** Table-driven protocols only: rows in the transition table. */
    std::size_t totalRows = 0;
    /** Per-row fire counts, unioned over every replayed simulation;
     *  empty for hand-written protocols. */
    std::vector<std::uint64_t> rowsFired;
    /** describeRow() of every row the closed search never fired.
     *  Non-empty means dead rows (or a grid cell too small to reach
     *  them) — the coverage tests assert this is empty. */
    std::vector<std::string> unreachableRows;
};

/** Whether the factory scheme supports flushCache (the eject action).
 *  Answered by the scheme itself via Protocol::supportsFlush(). */
bool protocolSupportsFlush(const std::string &name);

/** Exhaustively explore one configuration. */
ExploreResult explore(const ExplorerConfig &cfg);

/** Explore a grid of cells on the shared pool; results are positional
 *  and independent of the thread count. */
std::vector<ExploreResult>
exploreGrid(const std::vector<ExplorerConfig> &grid, unsigned threads = 0);

/** The default verification grid: every factory protocol (plus the
 *  no-Present1 ablation) at (2 caches x 1 block), (2 caches x 2
 *  blocks), the direct-mapped (2 caches x 2 blocks) replacement cell
 *  and (3 caches x 1 block). */
std::vector<ExplorerConfig> defaultExplorerGrid();

} // namespace dir2b

#endif // DIR2B_CHECK_EXPLORER_HH
