#include "check/differ.hh"

#include <deque>
#include <set>
#include <sstream>

#include "check/invariants.hh"
#include "check/oracle.hh"
#include "proto/protocol_factory.hh"
#include "timed/timed_system.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "util/parallel.hh"

namespace dir2b
{
namespace
{

ProtoConfig
makeProtoConfig(const DiffConfig &cfg)
{
    ProtoConfig pc;
    pc.numProcs = cfg.numProcs;
    pc.numModules = cfg.numModules;
    pc.cacheGeom.sets = cfg.sets;
    pc.cacheGeom.ways = cfg.ways;
    // Small translation buffer: exercises both the exact-holder-set
    // path and the eviction fallback to broadcast.
    pc.tbCapacity = 64;
    // Exercise the classical scheme's BIAS filter.
    pc.biasCapacity = 4;
    // The software scheme is only coherent when shared-writeable
    // blocks are classified non-cacheable; synthetic traces keep all
    // cross-processor traffic in the shared region.
    pc.nonCacheableBase = sharedRegionBase;
    return pc;
}

/** Current per-block image: the unique dirty copy, else memory. */
Value
imageOf(const Protocol &p, Addr a)
{
    for (ProcId k = 0; k < p.numProcs(); ++k) {
        const CacheLine *l = p.cache(k).peek(a);
        if (l && l->valid() && l->dirty())
            return l->value;
    }
    return p.memValue(a);
}

std::vector<Addr>
touchedBlocks(const std::vector<MemRef> &trace)
{
    std::set<Addr> s;
    for (const MemRef &r : trace)
        s.insert(r.addr);
    return {s.begin(), s.end()};
}

/** Feed the trace through the timed two-bit tier; its per-location
 *  oracle panics on any coherence violation, so the checks here are
 *  the lockstep consistency conditions. */
std::optional<DiffFailure>
runTimedLockstep(const DiffConfig &cfg, const std::vector<MemRef> &trace)
{
    TimedConfig tc;
    tc.protocol = TimedProto::TwoBit;
    tc.numProcs = cfg.numProcs;
    tc.numModules = cfg.numModules;
    tc.cacheGeom.sets = cfg.sets;
    tc.cacheGeom.ways = cfg.ways;

    std::vector<std::deque<MemRef>> perProc(cfg.numProcs);
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (const MemRef &r : trace) {
        perProc.at(r.proc).push_back(r);
        ++(r.write ? writes : reads);
    }

    TimedSystem sys(tc);
    const TimedRunResult r =
        sys.run([&perProc](ProcId p) -> std::optional<MemRef> {
            if (perProc[p].empty())
                return std::nullopt;
            MemRef ref = perProc[p].front();
            perProc[p].pop_front();
            return ref;
        }, trace.size());

    auto fail = [&](const std::string &kind, const std::string &detail) {
        return DiffFailure{"timed_two_bit", kind, trace.size(), detail};
    };
    if (r.refsCompleted != trace.size()) {
        std::ostringstream os;
        os << "timed tier completed " << r.refsCompleted << " of "
           << trace.size() << " references";
        return fail("timed-incomplete", os.str());
    }
    if (r.readsChecked != reads || r.writesRecorded != writes) {
        std::ostringstream os;
        os << "timed oracle saw " << r.readsChecked << " reads / "
           << r.writesRecorded << " writes, trace has " << reads
           << " / " << writes;
        return fail("timed-final", os.str());
    }
    return std::nullopt;
}

} // namespace

std::vector<std::string>
functionalCheckProtocols()
{
    auto names = protocolNames();
    names.push_back("two_bit_nop1");
    return names;
}

std::optional<DiffFailure>
diffTrace(const DiffConfig &cfg, const std::vector<MemRef> &trace,
          const ProtocolMaker &maker)
{
    ProtocolMaker makeOne = maker;
    if (!makeOne) {
        makeOne = [](const std::string &n, const ProtoConfig &c) {
            return makeProtocol(n, c);
        };
    }
    const auto names =
        cfg.protocols.empty() ? functionalCheckProtocols()
                              : cfg.protocols;
    const ProtoConfig pc = makeProtoConfig(cfg);
    const std::vector<Addr> blocks = touchedBlocks(trace);

    std::vector<std::unique_ptr<Protocol>> protos;
    protos.reserve(names.size());
    for (const auto &n : names)
        protos.push_back(makeOne(n, pc));

    // Lockstep replay: one shared oracle; every scheme sees the same
    // write-value sequence, so final images must agree bit-for-bit.
    CoherenceOracle oracle;
    for (std::size_t step = 0; step < trace.size(); ++step) {
        const MemRef &ref = trace[step];
        const Value wval = ref.write ? oracle.freshValue() : 0;
        for (std::size_t i = 0; i < protos.size(); ++i) {
            const Value v =
                protos[i]->access(ref.proc, ref.addr, ref.write, wval);
            if (!ref.write && v != oracle.expected(ref.addr)) {
                std::ostringstream os;
                os << toString(ref) << " returned " << v
                   << " but the most recently written value is "
                   << oracle.expected(ref.addr);
                return DiffFailure{names[i], "stale-read", step,
                                   os.str()};
            }
        }
        if (ref.write)
            oracle.onWrite(ref.addr, wval);

        const bool structural =
            cfg.structuralEvery &&
            (step + 1) % cfg.structuralEvery == 0;
        if (structural) {
            for (std::size_t i = 0; i < protos.size(); ++i) {
                if (auto v = checkProtocolState(*protos[i], oracle,
                                                blocks))
                    return DiffFailure{names[i], v->kind, step,
                                       v->detail};
                if (cfg.nativeInvariants)
                    protos[i]->checkInvariants();
            }
        }
    }

    // End-of-run: structural state, then the cross-scheme image diff.
    for (std::size_t i = 0; i < protos.size(); ++i) {
        if (auto v = checkProtocolState(*protos[i], oracle, blocks))
            return DiffFailure{names[i], v->kind, trace.size(),
                               v->detail};
        if (cfg.nativeInvariants)
            protos[i]->checkInvariants();
    }
    for (const Addr a : blocks) {
        const Value want = oracle.expected(a);
        for (std::size_t i = 0; i < protos.size(); ++i) {
            const Value got = imageOf(*protos[i], a);
            if (got != want) {
                std::ostringstream os;
                os << "final image of block " << a << " is " << got
                   << " but the most recently written value is "
                   << want
                   << (i ? std::string(" (") + names[0] + " agrees "
                           "with the oracle)" : std::string());
                return DiffFailure{names[i], "final-image",
                                   trace.size(), os.str()};
            }
        }
    }

    if (cfg.withTimed)
        return runTimedLockstep(cfg, trace);
    return std::nullopt;
}

ReplaySeed
makeSeed(const DiffConfig &cfg, const std::vector<MemRef> &trace)
{
    ReplaySeed seed;
    seed.numProcs = cfg.numProcs;
    seed.numModules = cfg.numModules;
    seed.sets = cfg.sets;
    seed.ways = cfg.ways;
    seed.protocols = cfg.protocols;
    seed.trace = trace;
    return seed;
}

std::optional<DiffFailure>
replaySeed(const ReplaySeed &seed, bool withTimed)
{
    DiffConfig cfg;
    cfg.numProcs = seed.numProcs;
    cfg.numModules = seed.numModules;
    cfg.sets = seed.sets;
    cfg.ways = seed.ways;
    cfg.protocols = seed.protocols;
    cfg.withTimed = withTimed;
    return diffTrace(cfg, seed.trace);
}

std::vector<MemRef>
fuzzTrace(const FuzzConfig &cfg, std::uint64_t index)
{
    Rng rng = taskRng(cfg.baseSeed, index);
    SyntheticConfig sc;
    sc.numProcs = cfg.diff.numProcs;
    sc.q = cfg.q;
    sc.w = cfg.w;
    sc.sharedBlocks = cfg.sharedBlocks;
    sc.privateBlocks = cfg.privateBlocks;
    sc.hotBlocks = cfg.hotBlocks;
    sc.seed = rng.next();
    SyntheticStream stream(sc);
    return recordStream(stream, cfg.refsPerSeed);
}

FuzzResult
fuzzMany(const FuzzConfig &cfg, unsigned threads,
         const ProtocolMaker &maker)
{
    std::vector<std::optional<DiffFailure>> verdicts(cfg.numSeeds);
    std::vector<std::vector<MemRef>> failing(cfg.numSeeds);

    parallelFor(0, cfg.numSeeds, [&](std::size_t i) {
        auto trace = fuzzTrace(cfg, i);
        verdicts[i] = diffTrace(cfg.diff, trace, maker);
        if (verdicts[i])
            failing[i] = std::move(trace);
    }, threads);

    FuzzResult res;
    res.seedsRun = cfg.numSeeds;
    res.refsReplayed = cfg.numSeeds * cfg.refsPerSeed;
    for (std::size_t i = 0; i < cfg.numSeeds; ++i) {
        if (verdicts[i])
            res.failures.push_back(
                {i, *verdicts[i], std::move(failing[i])});
    }
    return res;
}

} // namespace dir2b
