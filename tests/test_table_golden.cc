/**
 * @file
 * Pinned functional digests of every scheme the table engine runs.
 *
 * The functional-tier digest of each scheme on a fixed contended trace
 * is a checked-in constant, the same way test_golden_digest.cc freezes
 * the timed tier.  two_bit and full_map run on the same tables as
 * two_bit_table and full_map_table, so they must hit the very same
 * constants; the variants built on the engine's hooks (translation
 * buffer, duplicated directories, the no-Present1 ablation, the §4.4(a)
 * snoop filter), the write-through scheme and the Yen-Fu full map
 * carry digests captured from the hand-written code they replaced.
 * Regenerate only for an intentional protocol change.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>

#include "check/differ.hh"
#include "proto/protocol_factory.hh"

namespace dir2b
{
namespace
{

std::uint64_t
fold(std::uint64_t h, std::uint64_t x)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Functional-tier digest: a fixed contended trace, FNV-1a over every
 *  counter field, the per-processor command counters, and the final
 *  per-block images.  `tweak` adjusts the configuration (translation
 *  buffer size, snoop filter) before the scheme is built. */
std::uint64_t
digestProtocol(const std::string &name,
               const std::function<void(ProtoConfig &)> &tweak = {})
{
    FuzzConfig fc;
    fc.numSeeds = 1;
    fc.refsPerSeed = 5000;
    fc.baseSeed = 0xd16257;
    const auto trace = fuzzTrace(fc, 0);

    ProtoConfig pc;
    pc.numProcs = fc.diff.numProcs;
    pc.numModules = fc.diff.numModules;
    pc.cacheGeom.sets = fc.diff.sets;
    pc.cacheGeom.ways = fc.diff.ways;
    if (tweak)
        tweak(pc);
    const auto proto = makeProtocol(name, pc);

    Value nonce = 0;
    for (const MemRef &r : trace)
        proto->access(r.proc, r.addr, r.write, r.write ? ++nonce : 0);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    AccessCounts::forEachField(
        proto->counts(),
        [&](const char *, std::uint64_t v) { h = fold(h, v); });
    for (ProcId p = 0; p < pc.numProcs; ++p) {
        h = fold(h, proto->cmdsReceivedBy(p));
        h = fold(h, proto->uselessReceivedBy(p));
        h = fold(h, proto->refsIssuedBy(p));
    }
    std::set<Addr> blocks;
    for (const MemRef &r : trace)
        blocks.insert(r.addr);
    for (const Addr a : blocks) {
        Value v = proto->memValue(a);
        for (ProcId p = 0; p < pc.numProcs; ++p) {
            const CacheLine *l = proto->cache(p).peek(a);
            if (l && l->valid() && l->dirty())
                v = l->value;
        }
        h = fold(h, v);
    }
    return h;
}

struct GoldenCase
{
    const char *scheme;
    std::uint64_t digest;
};

// Captured from the first table-engine build.  two_bit and full_map
// resolve to the same tables, so they share the constants.
const GoldenCase goldenCases[] = {
    {"two_bit_table", 0xfeb02f0eedaad5cdULL},
    {"two_bit", 0xfeb02f0eedaad5cdULL},
    {"full_map_table", 0x694edcae1778aa2cULL},
    {"full_map", 0x694edcae1778aa2cULL},
    {"moesi", 0xc84e87d6891f3443ULL},
};

TEST(TableGoldenDigest, FunctionalDigestsMatchCheckedInValues)
{
    for (const auto &c : goldenCases) {
        const std::uint64_t got = digestProtocol(c.scheme);
        EXPECT_EQ(got, c.digest)
            << c.scheme << ": digest 0x" << std::hex << got
            << " != golden 0x" << c.digest;
    }
}

struct VariantCase
{
    const char *label;
    const char *scheme;
    std::function<void(ProtoConfig &)> tweak;
    std::uint64_t digest;
};

// Captured from the hand-written two-bit and full-map code these
// variants were derived from before they moved onto the engine.  The
// write-through scheme's capture counts every write hit as a clean
// one (writeHitsClean), as the engine does; its hand-written code
// counted only those on Present*.  The Yen-Fu full map's capture is
// of its hand-written code as it stood, unchanged.
const VariantCase variantCases[] = {
    {"two_bit_nop1", "two_bit_nop1", {}, 0x8af80d070e8e7febULL},
    {"two_bit_tb(4)", "two_bit_tb",
     [](ProtoConfig &pc) { pc.tbCapacity = 4; },
     0xc7569295b0f8fce7ULL},
    {"two_bit_tb(64)", "two_bit_tb",
     [](ProtoConfig &pc) { pc.tbCapacity = 64; },
     0x13be70c8a09f12d1ULL},
    {"two_bit+snoop", "two_bit",
     [](ProtoConfig &pc) { pc.snoopFilter = true; },
     0xb22e669ae8b47205ULL},
    {"dup_dir", "dup_dir", {}, 0x17dfd4eb97dda7d4ULL},
    {"two_bit_wt", "two_bit_wt", {}, 0xc2ebf1dafbac3d8dULL},
    {"full_map_local", "full_map_local", {}, 0xc17329bfb71f988eULL},
};

TEST(TableGoldenDigest, VariantDigestsMatchCheckedInValues)
{
    for (const auto &c : variantCases) {
        const std::uint64_t got = digestProtocol(c.scheme, c.tweak);
        EXPECT_EQ(got, c.digest)
            << c.label << ": digest 0x" << std::hex << got
            << " != golden 0x" << c.digest;
    }
}

} // namespace
} // namespace dir2b
