/**
 * @file
 * Cross-validation of the analytic tier against the simulator: the
 * two-bit directory-state Markov chain (model/sharing_chain) must
 * predict what the live protocol actually does under the same
 * uniform-reference model — state occupancies P(P1)/P(P*)/P(PM) and
 * the useless-command rate T_SUM.
 *
 * This closes the loop between the three methods the repository uses
 * (closed form, Markov chain, simulation), mirroring the paper's own
 * two-method comparison in §4.3.  Measured agreement at commit time:
 * T_SUM within ~3%, occupancies within a few points.
 */

#include <gtest/gtest.h>

#include <memory>

#include "model/sharing_chain.hh"
#include "proto/protocol_factory.hh"
#include "system/func_system.hh"
#include "trace/synthetic.hh"

namespace dir2b
{
namespace
{

struct Agreement
{
    TwoBitChainResult chain;
    RunResult sim;
};

Agreement
crossValidate(unsigned n, double q, double w)
{
    Agreement out;

    ChainParams cp;
    cp.n = n;
    cp.q = q;
    cp.w = w;
    cp.sharedBlocks = 16;
    cp.evictRate = evictRateFromGeometry(n, 128);
    out.chain = solveTwoBitChain(cp);

    ProtoConfig cfg;
    cfg.numProcs = n;
    cfg.cacheGeom.sets = 32;
    cfg.cacheGeom.ways = 4; // 128 blocks, matching evictRate's input
    cfg.numModules = 2;
    auto proto = makeProtocol("two_bit", cfg);

    SyntheticConfig scfg;
    scfg.numProcs = n;
    scfg.q = q;
    scfg.w = w;
    scfg.sharedBlocks = 16;
    scfg.sharedLocality = 0.0; // the chain's uniform-1/S assumption
    scfg.privateBlocks = 96;
    scfg.hotBlocks = 24;
    scfg.seed = 3;
    SyntheticStream stream(scfg);

    RunOptions opts;
    opts.numRefs = 300000;
    opts.sampleEvery = 64;
    opts.sharedBlocks = 16;
    out.sim = runFunctional(*proto, stream, opts);
    return out;
}

class ChainVsSim
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(ChainVsSim, OccupanciesAndOverheadAgree)
{
    const auto [q, w] = GetParam();
    const Agreement a = crossValidate(8, q, w);

    const double simP1 = a.sim.stateOccupancy[1];
    const double simStar = a.sim.stateOccupancy[2];
    const double simPM = a.sim.stateOccupancy[3];

    EXPECT_NEAR(a.chain.pPStar, simStar, 0.06);
    EXPECT_NEAR(a.chain.pPM, simPM, 0.06);
    EXPECT_NEAR(a.chain.pP1, simP1, 0.04);

    const double simTSum = a.sim.counts.uselessPerRef();
    ASSERT_GT(simTSum, 0.0);
    EXPECT_NEAR(a.chain.tSum / simTSum, 1.0, 0.15)
        << "chain tSum " << a.chain.tSum << " vs sim " << simTSum;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChainVsSim,
    ::testing::Values(std::make_pair(0.02, 0.2),
                      std::make_pair(0.02, 0.4),
                      std::make_pair(0.05, 0.2),
                      std::make_pair(0.05, 0.4)),
    [](const ::testing::TestParamInfo<std::pair<double, double>> &i) {
        std::string name = "q";
        name += std::to_string(static_cast<int>(i.param.first * 100));
        name += "_w";
        name += std::to_string(static_cast<int>(i.param.second * 100));
        return name;
    });

} // namespace
} // namespace dir2b
