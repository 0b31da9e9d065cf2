/**
 * @file
 * Allocation guard for the timed tier's steady state.
 *
 * Replaces the global operator new with a counting one (hence its own
 * test binary) and runs each timed scheme on a crossbar, 8 processors
 * x 20k references.  Everything a reference touches on its way through
 * issue -> controllers -> network -> completion -> re-issue must come
 * from storage the run already owns: event nodes recycled through the
 * kernel's freelist, callbacks stored inline, the completion reported
 * through a fixed hook.  What remains is amortised growth (arena,
 * oracle pages, flat maps) and the end-of-run audit, so a run makes
 * far fewer allocations than references.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "timed/timed_system.hh"
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

class TimedAlloc : public ::testing::TestWithParam<TimedProto>
{
};

std::string
schemeName(const ::testing::TestParamInfo<TimedProto> &info)
{
    static const char *const names[] = {"tb", "fm", "yf"};
    return names[static_cast<int>(info.param)];
}

TEST_P(TimedAlloc, RunAllocatesFarLessThanOncePerReference)
{
    constexpr ProcId procs = 8;
    constexpr std::uint64_t refsPerProc = 20000;

    TimedConfig cfg;
    cfg.protocol = GetParam();
    cfg.numProcs = procs;
    cfg.numModules = 4;
    cfg.cacheGeom.sets = 32;
    cfg.cacheGeom.ways = 4;
    cfg.perBlockConcurrency = true;
    cfg.network = NetKind::Crossbar;
    cfg.thinkTime = 1;
    TimedSystem sys(cfg);

    SyntheticConfig sc;
    sc.numProcs = procs;
    sc.sharedLocality = 0.9;
    sc.privateBlocks = 96;
    sc.hotBlocks = 24;
    SyntheticStream stream(sc);
    const ProcSource src = [&](ProcId p) -> std::optional<MemRef> {
        return stream.nextFor(p);
    };

    allocations = 0;
    counting = true;
    const TimedRunResult r = sys.run(src, refsPerProc);
    counting = false;

    ASSERT_EQ(r.refsCompleted, procs * refsPerProc);
    const double perRef = static_cast<double>(allocations.load()) /
                          static_cast<double>(r.refsCompleted);
    EXPECT_LT(perRef, 0.01)
        << allocations.load() << " heap allocations for "
        << r.refsCompleted << " references";
}

INSTANTIATE_TEST_SUITE_P(Schemes, TimedAlloc,
                         ::testing::Values(TimedProto::TwoBit,
                                           TimedProto::FullMap,
                                           TimedProto::YenFu),
                         schemeName);

} // namespace
} // namespace dir2b
