/**
 * @file
 * Tests for the functional system runner: measured model parameters
 * (q, w, h), state-occupancy sampling, and the Table 4-1 metric
 * arithmetic — the plumbing bench_sim_validation depends on.
 */

#include <gtest/gtest.h>

#include <memory>

#include "proto/protocol_factory.hh"
#include "system/func_system.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"

namespace dir2b
{
namespace
{

ProtoConfig
config(ProcId n = 4)
{
    ProtoConfig cfg;
    cfg.numProcs = n;
    cfg.cacheGeom.sets = 16;
    cfg.cacheGeom.ways = 4;
    cfg.numModules = 2;
    return cfg;
}

TEST(FuncSystem, RunsExactlyRequestedReferences)
{
    auto proto = makeProtocol("two_bit", config());
    SyntheticConfig scfg;
    scfg.numProcs = 4;
    SyntheticStream stream(scfg);
    RunOptions opts;
    opts.numRefs = 1234;
    const RunResult r = runFunctional(*proto, stream, opts);
    EXPECT_EQ(r.counts.refs(), 1234u);
}

TEST(FuncSystem, StopsWhenStreamEnds)
{
    auto proto = makeProtocol("two_bit", config());
    VectorStream stream({{0, 1, false}, {1, 2, true}, {2, 3, false}});
    RunOptions opts;
    opts.numRefs = 1000000;
    const RunResult r = runFunctional(*proto, stream, opts);
    EXPECT_EQ(r.counts.refs(), 3u);
}

TEST(FuncSystem, StreamContinuesWhereTheRunStopped)
{
    auto proto = makeProtocol("two_bit", config());
    SyntheticConfig scfg;
    scfg.numProcs = 4;
    SyntheticStream stream(scfg);
    RunOptions opts;
    opts.numRefs = 1000;
    runFunctional(*proto, stream, opts);

    SyntheticStream fresh(scfg);
    for (int i = 0; i < 1000; ++i)
        fresh.next();
    EXPECT_EQ(*stream.next(), *fresh.next());
}

TEST(FuncSystem, FiniteStreamEndingMidBlockRunsItsLength)
{
    // 300 references end inside the second block the run pulls.
    std::vector<MemRef> refs;
    for (Addr a = 0; a < 300; ++a)
        refs.push_back({static_cast<ProcId>(a % 4), a % 40, a % 5 == 0});
    auto proto = makeProtocol("two_bit", config());
    VectorStream stream(refs);
    RunOptions opts;
    opts.numRefs = 1000000;
    const RunResult r = runFunctional(*proto, stream, opts);
    EXPECT_EQ(r.counts.refs(), 300u);
    EXPECT_FALSE(stream.next().has_value());
}

TEST(FuncSystem, MeasuredQAndWTrackTheStream)
{
    auto proto = makeProtocol("two_bit", config());
    SyntheticConfig scfg;
    scfg.numProcs = 4;
    scfg.q = 0.2;
    scfg.w = 0.35;
    scfg.seed = 9;
    SyntheticStream stream(scfg);
    RunOptions opts;
    opts.numRefs = 60000;
    const RunResult r = runFunctional(*proto, stream, opts);
    EXPECT_NEAR(r.measuredQ(opts.numRefs), 0.2, 0.01);
    EXPECT_NEAR(r.measuredW(), 0.35, 0.02);
}

TEST(FuncSystem, SharedHitRatioRisesWithLocality)
{
    auto run = [](double locality) {
        auto proto = makeProtocol("two_bit", config());
        SyntheticConfig scfg;
        scfg.numProcs = 4;
        scfg.q = 0.3;
        scfg.w = 0.2;
        scfg.sharedBlocks = 64;
        scfg.sharedLocality = locality;
        scfg.seed = 4;
        SyntheticStream stream(scfg);
        RunOptions opts;
        opts.numRefs = 40000;
        return runFunctional(*proto, stream, opts).measuredH();
    };
    const double h0 = run(0.0);
    const double h9 = run(0.9);
    EXPECT_GT(h9, h0 + 0.2);
}

TEST(FuncSystem, OccupancySamplingSumsToOne)
{
    auto proto = makeProtocol("two_bit", config());
    SyntheticConfig scfg;
    scfg.numProcs = 4;
    scfg.q = 0.3;
    scfg.sharedBlocks = 8;
    SyntheticStream stream(scfg);
    RunOptions opts;
    opts.numRefs = 20000;
    opts.sampleEvery = 50;
    opts.sharedBlocks = 8;
    const RunResult r = runFunctional(*proto, stream, opts);
    EXPECT_GT(r.stateSamples, 0u);
    double sum = 0.0;
    for (double p : r.stateOccupancy)
        sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // With writes flowing, PresentM must show up.
    EXPECT_GT(
        r.stateOccupancy[static_cast<int>(GlobalState::PresentM)], 0.0);
}

TEST(FuncSystem, TableSchemeSamplesIdenticalOccupancy)
{
    // The table-driven re-expression exposes its directory state
    // through the same sampler; on the same stream it must produce
    // exactly the occupancy profile of the hand-written scheme.
    auto run = [](const std::string &name) {
        auto proto = makeProtocol(name, config());
        SyntheticConfig scfg;
        scfg.numProcs = 4;
        scfg.q = 0.3;
        scfg.sharedBlocks = 8;
        scfg.seed = 11;
        SyntheticStream stream(scfg);
        RunOptions opts;
        opts.numRefs = 20000;
        opts.sampleEvery = 50;
        opts.sharedBlocks = 8;
        return runFunctional(*proto, stream, opts);
    };
    const RunResult hand = run("two_bit");
    const RunResult tab = run("two_bit_table");
    ASSERT_GT(tab.stateSamples, 0u);
    EXPECT_EQ(tab.stateSamples, hand.stateSamples);
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_DOUBLE_EQ(tab.stateOccupancy[s], hand.stateOccupancy[s])
            << "state " << s;
}

TEST(FuncSystem, PerCacheMetricMatchesDefinition)
{
    auto proto = makeProtocol("two_bit", config(4));
    SyntheticConfig scfg;
    scfg.numProcs = 4;
    scfg.q = 0.3;
    scfg.w = 0.5;
    scfg.sharedBlocks = 8;
    SyntheticStream stream(scfg);
    RunOptions opts;
    opts.numRefs = 10000;
    const RunResult r = runFunctional(*proto, stream, opts);
    const double tSum = static_cast<double>(r.counts.uselessCmds) /
                        static_cast<double>(r.counts.refs());
    EXPECT_NEAR(r.perCacheUselessPerRef, 3.0 * tSum, 1e-12);
}

TEST(FuncSystem, OracleCatchesInjectedCorruption)
{
    // White-box: run a two-bit system, then corrupt memory behind the
    // protocol's back and verify the next read trips the oracle.
    // (Achieved by replaying a mismatched trace against a *different*
    // protocol instance whose writes differ — the oracle must reject.)
    auto proto = makeProtocol("two_bit", config());
    CoherenceOracle oracle;
    const Value v1 = oracle.freshValue();
    proto->access(0, 5, true, v1);
    oracle.onWrite(5, v1);
    // A second write the oracle does not see:
    proto->access(1, 5, true, oracle.freshValue());
    EXPECT_DEATH(oracle.onRead(5, proto->access(2, 5, false)),
                 "coherence violation");
}

TEST(FuncSystem, RefsPerProcessorBalanced)
{
    auto proto = makeProtocol("two_bit", config(4));
    SyntheticConfig scfg;
    scfg.numProcs = 4;
    SyntheticStream stream(scfg);
    RunOptions opts;
    opts.numRefs = 4000;
    runFunctional(*proto, stream, opts);
    for (ProcId p = 0; p < 4; ++p)
        EXPECT_EQ(proto->refsIssuedBy(p), 1000u);
}

} // namespace
} // namespace dir2b
