/**
 * @file
 * Allocation guard for the functional tier's steady state.
 *
 * Replaces the global operator new with a counting one (hence its own
 * test binary) and runs two_bit with the coherence oracle on, 8
 * processors, over the synthetic stream.  Once the caches, the
 * directory pages and the oracle's records for the working set exist,
 * a reference allocates nothing: the frontend pulls references into a
 * stack block, the protocol's access delta is computed on demand, and
 * the oracle updates records in place.  So a run ten times longer must
 * make no more allocations than a short one, up to a small constant.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "proto/protocol_factory.hh"
#include "system/func_system.hh"
#include "trace/synthetic.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

} // namespace

// Out of line, so the compiler never inlines a free() into a call site
// that it can see allocated with new (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace dir2b
{
namespace
{

/** Heap allocations made by runFunctional over numRefs references of
 *  a fresh 8-processor two_bit system (set-up not counted). */
std::uint64_t
runAllocations(std::uint64_t numRefs)
{
    ProtoConfig cfg;
    cfg.numProcs = 8;
    cfg.cacheGeom.sets = 32;
    cfg.cacheGeom.ways = 4;
    cfg.numModules = 4;
    auto proto = makeProtocol("two_bit", cfg);

    SyntheticConfig sc;
    sc.numProcs = 8;
    sc.sharedLocality = 0.9;
    sc.privateBlocks = 96;
    sc.hotBlocks = 24;
    SyntheticStream stream(sc);

    RunOptions opts;
    opts.numRefs = numRefs;
    opts.checkCoherence = true;

    allocations = 0;
    counting = true;
    const RunResult r = runFunctional(*proto, stream, opts);
    counting = false;
    EXPECT_EQ(r.counts.refs(), numRefs);
    return allocations.load();
}

TEST(FuncAlloc, LongRunAllocatesNoMoreThanShortRun)
{
    const std::uint64_t shortRun = runAllocations(200000);
    const std::uint64_t longRun = runAllocations(2000000);
    EXPECT_LE(longRun, shortRun + 8)
        << shortRun << " allocations over 200k references, " << longRun
        << " over 2M";
}

} // namespace
} // namespace dir2b
