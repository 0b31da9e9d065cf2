/**
 * @file
 * Trace-replay throughput (google-benchmark): text parse vs mmap
 * batched replay.
 *
 * A synthetic workload is recorded once — as a text trace
 * (trace_io.hh) and as the binary block format (trace_binary.hh) —
 * then replayed through every frontend:
 *
 *   BM_ReplayTextParse     the status-quo per-record decode path
 *                          (istringstream per line)
 *   BM_ReplayMmapPerRecord MmapTraceStream::next() over the mapping
 *   BM_ReplayMmapBatched   whole-block AccessBatch spans
 *   BM_FuncReplayScalar    runFunctional over MmapTraceStream
 *   BM_FuncReplayBatched   runFunctionalBatched over block spans
 *
 * The fixture defaults to 1M references so the perf_smoke ctest entry
 * stays fast; DIR2B_TRACE_REPLAY_REFS scales it up (docs/PERFORMANCE.md
 * quotes 100M-reference runs).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "proto/protocol_factory.hh"
#include "system/func_system.hh"
#include "trace/synthetic.hh"
#include "trace/trace_binary.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"

namespace
{

using namespace dir2b;

/** Workload fixture: one recording shared by every benchmark. */
struct TraceFixture
{
    std::string textPath;
    std::string binPath;
    std::uint64_t refs = 0;
    ProcId procs = 8;

    static const TraceFixture &
    get()
    {
        static TraceFixture f;
        return f;
    }

  private:
    TraceFixture()
    {
        refs = 1000000;
        if (const char *env = std::getenv("DIR2B_TRACE_REPLAY_REFS"))
            refs = std::strtoull(env, nullptr, 10);
        const char *tmp = std::getenv("TMPDIR");
        const std::string dir = tmp && *tmp ? tmp : "/tmp";
        textPath = dir + "/dir2b_bench_replay.trc";
        binPath = dir + "/dir2b_bench_replay.d2t";

        SyntheticConfig scfg;
        scfg.numProcs = procs;
        scfg.q = 0.05;
        scfg.w = 0.3;
        SyntheticStream stream(scfg);

        std::ofstream text(textPath);
        TraceWriter bin(binPath);
        std::vector<MemRef> chunk;
        chunk.reserve(1 << 16);
        for (std::uint64_t n = 0; n < refs;) {
            chunk.clear();
            while (chunk.size() < chunk.capacity() && n < refs) {
                chunk.push_back(*stream.next());
                ++n;
            }
            writeTrace(text, chunk);
            bin.append(chunk.data(), chunk.size());
        }
        bin.finish();
    }
};

/** Cheap record consumer: decode cost must dominate, not work. */
inline std::uint64_t
fold(std::uint64_t h, ProcId proc, Addr addr, bool write)
{
    h ^= addr + proc + (write ? 1 : 0);
    h *= 0x100000001b3ULL;
    return h;
}

/** The per-record text decode path every sweep used before the
 *  binary format existed. */
void
BM_ReplayTextParse(benchmark::State &state)
{
    const TraceFixture &f = TraceFixture::get();
    std::uint64_t h = 0;
    for (auto _ : state) {
        std::ifstream in(f.textPath);
        const std::vector<MemRef> refs = readTrace(in);
        for (const MemRef &r : refs)
            h = fold(h, r.proc, r.addr, r.write);
    }
    benchmark::DoNotOptimize(h);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * f.refs));
}
BENCHMARK(BM_ReplayTextParse);

void
BM_ReplayMmapPerRecord(benchmark::State &state)
{
    const TraceFixture &f = TraceFixture::get();
    TraceReader reader(f.binPath);
    MmapTraceStream stream(reader);
    std::uint64_t h = 0;
    for (auto _ : state) {
        stream.rewind();
        while (const auto r = stream.next())
            h = fold(h, r->proc, r->addr, r->write);
    }
    benchmark::DoNotOptimize(h);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * f.refs));
}
BENCHMARK(BM_ReplayMmapPerRecord);

void
BM_ReplayMmapBatched(benchmark::State &state)
{
    const TraceFixture &f = TraceFixture::get();
    TraceReader reader(f.binPath);
    TraceBatchStream batches(reader);
    std::uint64_t h = 0;
    for (auto _ : state) {
        batches.rewind();
        for (AccessBatch b = batches.nextBatch(); !b.empty();
             b = batches.nextBatch())
            for (const TraceRecord &rec : b)
                h = fold(h, rec.proc, rec.addr, rec.write());
    }
    benchmark::DoNotOptimize(h);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * f.refs));
}
BENCHMARK(BM_ReplayMmapBatched);

ProtoConfig
replayProtoConfig(ProcId procs)
{
    ProtoConfig cfg;
    cfg.numProcs = procs;
    cfg.cacheGeom.sets = 32;
    cfg.cacheGeom.ways = 4;
    cfg.numModules = 4;
    cfg.nonCacheableBase = sharedRegionBase;
    return cfg;
}

/** Full functional tier fed one reference at a time. */
void
BM_FuncReplayScalar(benchmark::State &state)
{
    const TraceFixture &f = TraceFixture::get();
    TraceReader reader(f.binPath);
    std::uint64_t refs = 0;
    for (auto _ : state) {
        auto proto = makeProtocol("two_bit",
                                  replayProtoConfig(f.procs));
        MmapTraceStream stream(reader);
        RunOptions opts;
        opts.numRefs = f.refs;
        opts.checkCoherence = false;
        const RunResult r = runFunctional(*proto, stream, opts);
        refs += r.counts.refs();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}
BENCHMARK(BM_FuncReplayScalar);

/** Full functional tier fed whole blocks. */
void
BM_FuncReplayBatched(benchmark::State &state)
{
    const TraceFixture &f = TraceFixture::get();
    TraceReader reader(f.binPath);
    std::uint64_t refs = 0;
    for (auto _ : state) {
        auto proto = makeProtocol("two_bit",
                                  replayProtoConfig(f.procs));
        TraceBatchStream batches(reader);
        RunOptions opts;
        opts.numRefs = f.refs;
        opts.checkCoherence = false;
        const RunResult r = runFunctionalBatched(*proto, batches,
                                                 opts);
        refs += r.counts.refs();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}
BENCHMARK(BM_FuncReplayBatched);

} // namespace

#ifndef DIR2B_BUILD_TYPE
#define DIR2B_BUILD_TYPE "unknown"
#endif

int
main(int argc, char **argv)
{
    // Same stamping contract as bench_throughput.cc: record the
    // simulator's own build configuration, the code actually
    // measured.
    benchmark::AddCustomContext("dir2b_build_type", DIR2B_BUILD_TYPE);
#ifdef __OPTIMIZE__
    benchmark::AddCustomContext("dir2b_optimized", "true");
#else
    benchmark::AddCustomContext("dir2b_optimized", "false");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
