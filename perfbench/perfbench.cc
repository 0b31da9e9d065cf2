/**
 * @file
 * dir2b baseline benchmark: one workload per process, measured in
 * fixed-size repetitions ("reps") for a wall-clock budget.
 *
 * Every rep builds a fresh system (set-up, timed separately), runs a
 * fixed number of references through it (the timed phase) and hashes
 * every simulated statistic into a digest.  A rep's input depends only
 * on --seed, so every rep of a run must produce the same digest, and
 * perfbench/run.py compares it with the pin for that seed.
 *
 * With --trace 1 the run alternates untraced reps with traced reps.
 * A traced rep drives the same layers from this file's own loop, in
 * batches, and records a span around each batch of calls into a layer
 * (trace generation or decode, Protocol::access, CoherenceOracle,
 * TimedSystem::run).  Per-layer metrics are computed from those spans
 * and the spans are written out when the run ends.
 *
 * Usage:
 *   dir2b_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   --work-dir DIR [--min-reps N]
 *
 * Prints one JSON object on stdout: the machine stamp, the digest of
 * every rep, and the metrics (medians over reps, except refs_per_s,
 * which is the fastest rep's).
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/oracle.hh"
#include "proto/protocol_factory.hh"
#include "system/func_system.hh"
#include "timed/timed_system.hh"
#include "trace/synthetic.hh"
#include "trace/trace_binary.hh"
#include "trace/workloads.hh"

#ifndef DIR2B_BUILD_TYPE
#define DIR2B_BUILD_TYPE "unknown"
#endif

using namespace dir2b;

namespace
{

// ---------------------------------------------------------------- sizes

/** References per rep.  Fixed, because the digest pins depend on it;
 *  each is sized so that one rep takes a fraction of a second. */
constexpr std::uint64_t w1Refs = 2'000'000;
constexpr std::uint64_t w2Refs = 1'000'000;
constexpr std::uint64_t w3RefsPerProc = 100'000;

constexpr ProcId numProcs = 8;

/** W2's directory RAM budget.  The scattered working set touches
 *  about 4096 directory pages of 1 KiB, so 3 MiB keeps the tiered store
 *  moving pages between hot and cold (about 0.2 compressions per
 *  reference) without drowning out the table interpreter. */
constexpr std::uint64_t w2DirBudget = 3 * 1024 * 1024;

/** W2 scatters addresses over 2^32 blocks. */
constexpr std::uint64_t w2SpaceBlocks = std::uint64_t{1} << 32;

/** References per traced batch (one span per layer per batch). */
constexpr std::size_t batchRefs = 8192;

// ---------------------------------------------------------------- clock

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- spans

struct Span
{
    const char *name;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent; ///< index of the enclosing span, -1 for a root
    std::uint32_t batch; ///< shared by a batch span and its children
};

/** In-memory span log; written out once, when the run ends. */
class SpanLog
{
  public:
    std::int32_t
    open(const char *name, std::int32_t parent, std::uint32_t batch)
    {
        spans_.push_back(Span{name, nowNs(), 0, parent, batch});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    void close(std::int32_t id) { spans_[id].end = nowNs(); }

    std::size_t size() const { return spans_.size(); }

    /** Total duration of spans named `name` with index >= from. */
    double
    totalNs(const char *name, std::size_t from = 0) const
    {
        double t = 0;
        for (std::size_t i = from; i < spans_.size(); ++i)
            if (std::strcmp(spans_[i].name, name) == 0)
                t += static_cast<double>(spans_[i].end - spans_[i].start);
        return t;
    }

    /** Self time of span `id`: its duration minus its children's. */
    double
    selfNs(std::int32_t id) const
    {
        double t = static_cast<double>(spans_[id].end - spans_[id].start);
        for (std::size_t i = static_cast<std::size_t>(id) + 1;
             i < spans_.size(); ++i)
            if (spans_[i].parent == id)
                t -= static_cast<double>(spans_[i].end - spans_[i].start);
        return t;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            DIR2B_FATAL("cannot write spans to '", path, "'");
        const std::int64_t t0 = spans_.empty() ? 0 : spans_[0].start;
        out << "{\"spans\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"id\": " << i << ", \"name\": \"" << s.name
                << "\", \"start_ns\": " << s.start - t0
                << ", \"end_ns\": " << s.end - t0
                << ", \"parent\": " << s.parent
                << ", \"batch\": " << s.batch << "}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
    }

  private:
    std::vector<Span> spans_;
};

// --------------------------------------------------------------- digest

/** FNV-1a over named 64-bit statistics. */
class Digest
{
  public:
    void
    add(const char *name, std::uint64_t v)
    {
        h_ = traceDigest(name, std::strlen(name), h_);
        h_ = traceDigest(&v, sizeof v, h_);
    }

    void
    add(const char *name, double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(name, bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = traceDigestSeed;
};

/**
 * Simulated statistics of a functional rep.  The directory store's
 * counters are left out: they describe the simulator's own storage
 * (host side), not the modelled machine, and are reported as per-layer
 * metrics instead.
 */
struct FuncStats
{
    AccessCounts counts;
    std::uint64_t sharedRefs = 0;
    std::uint64_t sharedWrites = 0;
    std::uint64_t sharedHits = 0;
};

std::uint64_t
funcDigest(const Protocol &proto, const FuncStats &s)
{
    Digest d;
    AccessCounts::forEachField(
        s.counts, [&](const char *n, std::uint64_t v) { d.add(n, v); });
    d.add("sharedRefs", s.sharedRefs);
    d.add("sharedWrites", s.sharedWrites);
    d.add("sharedHits", s.sharedHits);
    for (ProcId p = 0; p < proto.numProcs(); ++p) {
        d.add("cmdsReceivedBy", proto.cmdsReceivedBy(p));
        d.add("uselessReceivedBy", proto.uselessReceivedBy(p));
        d.add("refsIssuedBy", proto.refsIssuedBy(p));
    }
    return d.value();
}

/** Every simulated field of a serial timed run (the directory store
 *  and the sharded engine's epoch counters are host fields). */
std::uint64_t
timedDigest(const TimedRunResult &r)
{
    Digest d;
    d.add("finalTick", std::uint64_t{r.finalTick});
    d.add("refsCompleted", r.refsCompleted);
    d.add("eventsExecuted", r.eventsExecuted);
    d.add("avgLatency", r.avgLatency);
    d.add("stolenCycles", r.stolenCycles);
    d.add("filteredCmds", r.filteredCmds);
    d.add("mrequestConversions", r.mrequestConversions);
    d.add("mreqDeleted", r.mreqDeleted);
    d.add("putsConsumed", r.putsConsumed);
    d.add("putsAwaited", r.putsAwaited);
    d.add("grantsFalse", r.grantsFalse);
    d.add("netMessages", r.netMessages);
    d.add("broadcasts", r.broadcasts);
    d.add("netWaitCycles", r.netWaitCycles);
    d.add("readsChecked", r.readsChecked);
    d.add("writesRecorded", r.writesRecorded);
    d.add("latencyP50", std::uint64_t{r.latencyP50});
    d.add("latencyP95", std::uint64_t{r.latencyP95});
    d.add("latencyP99", std::uint64_t{r.latencyP99});
    return d.value();
}

// ------------------------------------------------------------- results

/** What one rep measured.  `layer` holds the per-layer values (traced
 *  reps compute the host-time ones; every rep the simulated ones). */
struct RepResult
{
    std::uint64_t digest = 0;
    std::uint64_t refs = 0;
    double setupS = 0;
    double runS = 0;
    std::vector<std::pair<const char *, double>> layer;
};

void
addDirStore(RepResult &r, const DirStoreCounters &d)
{
    const double krefs = static_cast<double>(r.refs) / 1000.0;
    r.layer.push_back({"core.dir_compressions_per_kref",
                       static_cast<double>(d.compressions) / krefs});
    r.layer.push_back({"core.dir_decompressions_per_kref",
                       static_cast<double>(d.decompressions) / krefs});
    r.layer.push_back(
        {"core.dir_hot_pages", static_cast<double>(d.hotPages)});
    r.layer.push_back(
        {"core.dir_cold_pages", static_cast<double>(d.coldPages)});
    r.layer.push_back({"core.dir_resident_kib",
                       static_cast<double>(d.residentBytes) / 1024.0});
}

void
addProtoCounts(RepResult &r, const AccessCounts &c)
{
    const double refs = static_cast<double>(r.refs);
    r.layer.push_back({"proto.miss_ratio", c.missRatio()});
    r.layer.push_back({"proto.net_msgs_per_ref",
                       static_cast<double>(c.netMessages) / refs});
    r.layer.push_back({"proto.broadcasts_per_ref",
                       static_cast<double>(c.broadcasts) / refs});
    r.layer.push_back(
        {"proto.useful_cmd_ratio",
         c.broadcastCmds ? 1.0 - static_cast<double>(c.uselessCmds) /
                                     static_cast<double>(c.broadcastCmds)
                         : 0.0});
}

// ------------------------------------------------- functional, traced

/**
 * The traced functional loop: runFunctional's per-reference semantics
 * (fresh write value, access, shared-region tallies, oracle update or
 * check), reordered into per-batch phases so that each layer's calls
 * sit inside one span.  The oracle is a pure function of the ordered
 * (op, block, value) sequence, so checking a batch after its accesses
 * checks exactly what the interleaved loop checks.
 */
class TracedFunc
{
  public:
    TracedFunc(Protocol &p, bool checkCoherence)
        : proto_(p), check_(checkCoherence), start_(p.counts()),
          vals_(batchRefs)
    {}

    void
    dispatch(SpanLog &log, std::int32_t root, std::uint32_t batch,
             const MemRef *refs, std::size_t n)
    {
        // runFunctional draws a fresh write value even with checking
        // off; the draw is a CoherenceOracle call.
        std::int32_t s = log.open("check.oracle", root, batch);
        for (std::size_t i = 0; i < n; ++i)
            if (refs[i].write)
                vals_[i] = oracle_.freshValue();
        log.close(s);

        s = log.open("proto.access", root, batch);
        for (std::size_t i = 0; i < n; ++i) {
            const MemRef &r = refs[i];
            DIR2B_ASSERT(r.proc < proto_.numProcs(),
                         "reference for processor ", r.proc);
            if (r.write)
                proto_.access(r.proc, r.addr, true, vals_[i]);
            else
                vals_[i] = proto_.access(r.proc, r.addr, false);
            if (r.addr >= sharedRegionBase) {
                ++stats_.sharedRefs;
                if (r.write)
                    ++stats_.sharedWrites;
                const AccessCounts &d = proto_.lastDelta();
                if (d.readHits + d.writeHits == 1)
                    ++stats_.sharedHits;
            }
        }
        log.close(s);

        if (check_) {
            s = log.open("check.oracle", root, batch);
            for (std::size_t i = 0; i < n; ++i) {
                if (refs[i].write)
                    oracle_.onWrite(refs[i].addr, vals_[i]);
                else
                    oracle_.onRead(refs[i].addr, vals_[i]);
            }
            log.close(s);
        }
    }

    FuncStats
    finish()
    {
        stats_.counts = proto_.counts() - start_;
        return stats_;
    }

  private:
    Protocol &proto_;
    bool check_;
    AccessCounts start_;
    CoherenceOracle oracle_;
    FuncStats stats_;
    std::vector<Value> vals_;
};

FuncStats
statsOf(const RunResult &r)
{
    return FuncStats{r.counts, r.sharedRefs, r.sharedWrites, r.sharedHits};
}

void
addFuncLayers(RepResult &r, const Protocol &proto, const FuncStats &s)
{
    addProtoCounts(r, s.counts);
    addDirStore(r, proto.dirStoreCounters());
}

/** Per-layer host time of a traced rep, from spans [from, end). */
void
addSpanLayers(RepResult &r, const SpanLog &log, std::size_t from,
              double timedSelfNs, std::uint64_t events)
{
    const double refs = static_cast<double>(r.refs);
    r.layer.push_back(
        {"trace.gen_ns_per_ref", log.totalNs("trace.gen", from) / refs});
    r.layer.push_back({"trace.decode_ns_per_ref",
                       log.totalNs("trace.decode", from) / refs});
    r.layer.push_back({"proto.access_ns_per_ref",
                       log.totalNs("proto.access", from) / refs});
    r.layer.push_back({"check.oracle_ns_per_ref",
                       log.totalNs("check.oracle", from) / refs});
    r.layer.push_back({"timed.self_ns_per_ref", timedSelfNs / refs});
    r.layer.push_back(
        {"timed.ns_per_event",
         events ? timedSelfNs / static_cast<double>(events) : 0.0});
}

ProtoConfig
protoConfig(std::uint64_t dirRamBudget)
{
    ProtoConfig cfg;
    cfg.numProcs = numProcs;
    cfg.cacheGeom.sets = 32;
    cfg.cacheGeom.ways = 4;
    cfg.numModules = 4;
    cfg.nonCacheableBase = sharedRegionBase;
    cfg.dirRamBudget = dirRamBudget;
    return cfg;
}

/** The dir2bsim default synthetic workload (§4.1 reference model). */
SyntheticConfig
syntheticConfig(std::uint64_t seed)
{
    SyntheticConfig cfg;
    cfg.numProcs = numProcs;
    cfg.q = 0.05;
    cfg.w = 0.2;
    cfg.sharedBlocks = 16;
    cfg.sharedLocality = 0.9;
    cfg.privateBlocks = 96;
    cfg.hotBlocks = 24;
    cfg.seed = seed;
    return cfg;
}

// ------------------------------------------------- W1: func_synth_hits

RepResult
repSynthHits(std::uint64_t seed, SpanLog *log, std::uint32_t &batch)
{
    RepResult r;
    r.refs = w1Refs;
    const std::int64_t t0 = nowNs();
    auto proto = makeProtocol("two_bit", protoConfig(0));
    SyntheticStream stream(syntheticConfig(seed));
    const std::int64_t t1 = nowNs();
    r.setupS = static_cast<double>(t1 - t0) * 1e-9;

    FuncStats stats;
    if (!log) {
        RunOptions opts;
        opts.numRefs = w1Refs;
        opts.checkCoherence = true;
        stats = statsOf(runFunctional(*proto, stream, opts));
        r.runS = static_cast<double>(nowNs() - t1) * 1e-9;
    } else {
        const std::size_t from = log->size();
        TracedFunc run(*proto, true);
        std::vector<MemRef> refs(batchRefs);
        // SyntheticStream never ends, so every batch is full.
        for (std::uint64_t done = 0; done < w1Refs;) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(batchRefs, w1Refs - done));
            const std::int32_t root = log->open("batch", -1, batch);
            const std::int32_t g = log->open("trace.gen", root, batch);
            for (std::size_t i = 0; i < n; ++i)
                refs[i] = *stream.next();
            log->close(g);
            run.dispatch(*log, root, batch, refs.data(), n);
            log->close(root);
            ++batch;
            done += n;
        }
        stats = run.finish();
        r.runS = static_cast<double>(nowNs() - t1) * 1e-9;
        addSpanLayers(r, *log, from, 0.0, 0);
    }
    r.digest = funcDigest(*proto, stats);
    addFuncLayers(r, *proto, stats);
    return r;
}

// ---------------------------------------- W2: replay_sparse_contention

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Record W2's input trace: lock contention with a private working
 *  set about 4x each 32x4 cache, hash-scattered over 2^32 blocks. */
void
recordContentionTrace(const std::string &path, std::uint64_t seed,
                      SpanLog *log, std::int32_t parent,
                      std::uint32_t batch)
{
    WorkloadConfig cfg;
    cfg.numProcs = numProcs;
    cfg.sharedBlocks = 16;
    cfg.privateBlocks = 4 * 32 * 4;
    cfg.seed = seed;
    LockContentionWorkload wl(cfg);
    TraceWriter writer(path);
    std::vector<MemRef> refs(batchRefs);
    for (std::uint64_t done = 0; done < w2Refs;) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(batchRefs, w2Refs - done));
        const std::int32_t g =
            log ? log->open("trace.gen", parent, batch) : -1;
        for (std::size_t i = 0; i < n; ++i) {
            refs[i] = *wl.next();
            refs[i].addr = mix64(refs[i].addr) % w2SpaceBlocks;
        }
        if (log)
            log->close(g);
        writer.append(refs.data(), n);
        done += n;
    }
    writer.finish();
}

RepResult
repSparseContention(std::uint64_t seed, const std::string &tracePath,
                    SpanLog *log, std::uint32_t &batch)
{
    RepResult r;
    r.refs = w2Refs;
    const std::size_t from = log ? log->size() : 0;
    const std::int64_t t0 = nowNs();
    const std::int32_t setup = log ? log->open("setup", -1, batch) : -1;
    recordContentionTrace(tracePath, seed, log, setup, batch);
    TraceReader reader(tracePath);
    reader.verify();
    auto proto = makeProtocol("two_bit_table", protoConfig(w2DirBudget));
    if (log) {
        log->close(setup);
        ++batch;
    }
    const std::int64_t t1 = nowNs();
    r.setupS = static_cast<double>(t1 - t0) * 1e-9;

    TraceBatchStream batches(reader);
    FuncStats stats;
    if (!log) {
        RunOptions opts;
        opts.numRefs = w2Refs;
        opts.checkCoherence = false;
        stats = statsOf(runFunctionalBatched(*proto, batches, opts));
        r.runS = static_cast<double>(nowNs() - t1) * 1e-9;
    } else {
        TracedFunc run(*proto, false);
        std::vector<MemRef> refs(batchRefs);
        AccessBatch cur;
        std::size_t pos = 0;
        for (std::uint64_t done = 0; done < w2Refs;) {
            const std::int32_t root = log->open("batch", -1, batch);
            const std::int32_t d = log->open("trace.decode", root, batch);
            if (pos == cur.count) {
                cur = batches.nextBatch();
                pos = 0;
            }
            const std::size_t n = std::min<std::size_t>(
                {batchRefs, cur.count - pos,
                 static_cast<std::size_t>(w2Refs - done)});
            for (std::size_t i = 0; i < n; ++i)
                refs[i] = cur.recs[pos + i].toRef();
            pos += n;
            log->close(d);
            run.dispatch(*log, root, batch, refs.data(), n);
            log->close(root);
            ++batch;
            done += n;
            if (n == 0)
                break;
        }
        stats = run.finish();
        r.runS = static_cast<double>(nowNs() - t1) * 1e-9;
        // From the set-up span on: W2 generates its input in set-up,
        // so trace.gen is the recording's time per recorded reference.
        addSpanLayers(r, *log, from, 0.0, 0);
    }
    const DirStoreCounters store = proto->dirStoreCounters();
    if (store.diskPageWrites != 0)
        DIR2B_FATAL("W2 spilled directory pages to disk; the budget must "
                    "keep the store in RAM");
    r.digest = funcDigest(*proto, stats);
    addFuncLayers(r, *proto, stats);
    return r;
}

// ------------------------------------------------- W3: timed_crossbar

/** dir2bsim --timed defaults: tb, 4 modules, crossbar, per-block
 *  concurrency, think 1. */
TimedConfig
timedConfig()
{
    TimedConfig cfg;
    cfg.protocol = TimedProto::TwoBit;
    cfg.numProcs = numProcs;
    cfg.numModules = 4;
    cfg.cacheGeom.sets = 32;
    cfg.cacheGeom.ways = 4;
    cfg.perBlockConcurrency = true;
    cfg.network = NetKind::Crossbar;
    cfg.thinkTime = 1;
    return cfg;
}

RepResult
repTimedCrossbar(std::uint64_t seed, SpanLog *log, std::uint32_t &batch)
{
    RepResult r;
    r.refs = w3RefsPerProc * numProcs;
    // runTimedWorkload(shards = 1) is exactly TimedSystem(cfg).run();
    // constructing it here lets set-up be timed on its own.
    const std::int64_t t0 = nowNs();
    TimedSystem sys(timedConfig());
    SyntheticStream stream(syntheticConfig(seed));
    const std::int64_t t1 = nowNs();
    r.setupS = static_cast<double>(t1 - t0) * 1e-9;

    TimedRunResult res;
    if (!log) {
        res = sys.run(
            [&](ProcId p) -> std::optional<MemRef> {
                return stream.nextFor(p);
            },
            w3RefsPerProc);
        r.runS = static_cast<double>(nowNs() - t1) * 1e-9;
    } else {
        // nextFor keeps all state per processor, so drawing a batch
        // ahead for one processor yields that processor's sequence.
        constexpr std::size_t genBatch = 1024;
        std::vector<std::vector<MemRef>> buf(numProcs);
        std::vector<std::size_t> pos(numProcs, 0);
        const std::size_t from = log->size();
        const std::int32_t run = log->open("timed.run", -1, batch);
        res = sys.run(
            [&](ProcId p) -> std::optional<MemRef> {
                if (pos[p] == buf[p].size()) {
                    const std::int32_t g =
                        log->open("trace.gen", run, batch);
                    buf[p].resize(genBatch);
                    for (MemRef &ref : buf[p])
                        ref = stream.nextFor(p);
                    pos[p] = 0;
                    log->close(g);
                }
                return buf[p][pos[p]++];
            },
            w3RefsPerProc);
        log->close(run);
        ++batch;
        r.runS = static_cast<double>(nowNs() - t1) * 1e-9;
        addSpanLayers(r, *log, from, log->selfNs(run), res.eventsExecuted);
    }
    r.digest = timedDigest(res);
    const double refs = static_cast<double>(r.refs);
    r.layer.push_back({"sim.events_per_ref",
                       static_cast<double>(res.eventsExecuted) / refs});
    r.layer.push_back({"timed.net_msgs_per_ref",
                       static_cast<double>(res.netMessages) / refs});
    r.layer.push_back({"timed.net_wait_cycles_per_ref",
                       static_cast<double>(res.netWaitCycles) / refs});
    r.layer.push_back({"timed.latency_p50_cycles",
                       static_cast<double>(res.latencyP50)});
    r.layer.push_back({"timed.latency_p99_cycles",
                       static_cast<double>(res.latencyP99)});
    addDirStore(r, res.dirStore);
    return r;
}

// --------------------------------------------------------------- main

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string workDir;
    unsigned minReps = 3;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: dir2b_perfbench --workload func_synth_hits|"
                 "replay_sparse_contention|timed_crossbar --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--min-reps N]\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v);
        else if (k == "--trace")
            a.trace = std::string(v) == "1";
        else if (k == "--work-dir")
            a.workDir = v;
        else if (k == "--min-reps")
            a.minReps = static_cast<unsigned>(std::atoi(v));
        else
            usage();
    }
    if (a.workload.empty() || a.workDir.empty() || a.seconds <= 0)
        usage();
    return a;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

std::string
digestList(const std::vector<RepResult> &reps)
{
    std::string s = "[";
    for (std::size_t i = 0; i < reps.size(); ++i)
        s += (i ? ", \"" : "\"") + hex(reps[i].digest) + "\"";
    return s + "]";
}

/** Median over reps of the named per-layer value. */
double
layerMedian(const std::vector<RepResult> &reps, const char *name)
{
    std::vector<double> v;
    for (const RepResult &r : reps)
        for (const auto &[n, x] : r.layer)
            if (std::strcmp(n, name) == 0)
                v.push_back(x);
    return median(v);
}

/** This process's peak RSS in MiB.  VmHWM, not getrusage's ru_maxrss:
 *  the latter keeps the peak of the process image before exec (here,
 *  the Python launcher). */
double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    DIR2B_FATAL("no VmHWM in /proc/self/status");
}

double
refsPerS(const RepResult &r)
{
    return static_cast<double>(r.refs) / r.runS;
}

struct Metric
{
    const char *name;
    const char *unit;
};

/** Per-layer metrics, in report order, with their units. */
constexpr Metric layerMetrics[] = {
    {"trace.gen_ns_per_ref", "ns"},
    {"trace.decode_ns_per_ref", "ns"},
    {"proto.access_ns_per_ref", "ns"},
    {"check.oracle_ns_per_ref", "ns"},
    {"timed.self_ns_per_ref", "ns"},
    {"timed.ns_per_event", "ns"},
    {"core.dir_compressions_per_kref", "count/kref"},
    {"core.dir_decompressions_per_kref", "count/kref"},
    {"core.dir_hot_pages", "count"},
    {"core.dir_cold_pages", "count"},
    {"core.dir_resident_kib", "KiB"},
    {"proto.miss_ratio", "fraction"},
    {"proto.net_msgs_per_ref", "msgs/ref"},
    {"proto.broadcasts_per_ref", "count/ref"},
    {"proto.useful_cmd_ratio", "fraction"},
    {"sim.events_per_ref", "events/ref"},
    {"timed.net_msgs_per_ref", "msgs/ref"},
    {"timed.net_wait_cycles_per_ref", "cycles/ref"},
    {"timed.latency_p50_cycles", "cycles"},
    {"timed.latency_p99_cycles", "cycles"},
};

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "dir2b_perfbench: refusing to report from a "
                         "non-optimized build (" DIR2B_BUILD_TYPE ")\n");
    return 3;
#endif
    const Args a = parseArgs(argc, argv);

    std::function<RepResult(SpanLog *, std::uint32_t &)> rep;
    const std::string tracePath = a.workDir + "/" + a.workload + "-" +
                                  std::to_string(a.seed) + ".d2t";
    if (a.workload == "func_synth_hits") {
        rep = [&](SpanLog *l, std::uint32_t &b) {
            return repSynthHits(a.seed, l, b);
        };
    } else if (a.workload == "replay_sparse_contention") {
        rep = [&](SpanLog *l, std::uint32_t &b) {
            return repSparseContention(a.seed, tracePath, l, b);
        };
    } else if (a.workload == "timed_crossbar") {
        rep = [&](SpanLog *l, std::uint32_t &b) {
            return repTimedCrossbar(a.seed, l, b);
        };
    } else {
        usage();
    }

    // Untraced reps measure the end-to-end metrics.  In a traced run,
    // traced reps alternate with untraced ones, so that each pair sees
    // the same machine conditions; their ratio is the tracing overhead.
    SpanLog log;
    std::uint32_t batch = 0;
    std::vector<RepResult> plain, traced;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(a.seconds * 1e9);
    while (nowNs() < deadline || plain.size() < a.minReps ||
           (a.trace && traced.size() < a.minReps)) {
        plain.push_back(rep(nullptr, batch));
        if (a.trace)
            traced.push_back(rep(&log, batch));
    }
    std::remove(tracePath.c_str());

    // refs_per_s is the fastest rep's rate, not the median: on a shared
    // host other tenants slow whole stretches of reps (by up to 2x on
    // W2, in phases of seconds), while nothing makes a rep faster than
    // the code allows, so the fastest rep is the one that repeats from
    // run to run.
    std::vector<double> rates, setups;
    for (const RepResult &r : plain) {
        rates.push_back(refsPerS(r));
        setups.push_back(r.setupS);
    }

    std::printf("{\"stamp\": {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"nproc\": %ld, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"reps\": %zu, \"refs_per_rep\": "
                "%" PRIu64 "},\n",
                a.workload.c_str(), a.seed, sysconf(_SC_NPROCESSORS_ONLN),
                DIR2B_BUILD_TYPE, __VERSION__, plain.size(),
                plain.front().refs);
    std::printf(" \"digests\": %s,\n \"traced_digests\": %s,\n",
                digestList(plain).c_str(), digestList(traced).c_str());
    std::printf(" \"metrics\": {");
    if (!a.trace) {
        std::printf("\"refs_per_s\": {\"value\": %.17g, \"unit\": "
                    "\"1/s\"}, \"setup_s\": {\"value\": %.17g, \"unit\": "
                    "\"s\"}, \"peak_rss_mib\": {\"value\": %.17g, "
                    "\"unit\": \"MiB\"}",
                    *std::max_element(rates.begin(), rates.end()),
                    median(setups),
                    peakRssMib());
    } else {
        std::vector<double> ratios;
        for (std::size_t i = 0; i < traced.size(); ++i)
            ratios.push_back(refsPerS(traced[i]) / refsPerS(plain[i]));
        const double overhead = 1.0 - median(ratios);
        for (const Metric &m : layerMetrics)
            std::printf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}, ",
                        m.name, layerMedian(traced, m.name), m.unit);
        std::printf("\"bench.trace_overhead_frac\": {\"value\": %.17g, "
                    "\"unit\": \"fraction\"}",
                    overhead);
        log.write(a.workDir + "/spans-" + a.workload + "-" +
                  std::to_string(a.seed) + ".json");
    }
    std::printf("}}\n");
    return 0;
}
