/**
 * @file
 * Tests for the execution engines and the hardware cache profiler:
 * timeline recording, simulator integration, the Fig. 8
 * hardware-vs-simulator measurement paths, and bit-identical outputs
 * and statistics at every worker-lane count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "engine/ExecutionEngine.hpp"
#include "graph/Generators.hpp"
#include "kernels/IndexSelect.hpp"
#include "kernels/Scatter.hpp"
#include "kernels/Sgemm.hpp"
#include "models/GnnModel.hpp"
#include "profiler/HwProfiler.hpp"
#include "util/Random.hpp"
#include "util/ThreadPool.hpp"

using namespace gsuite;

namespace {

Graph
smallGraph(uint64_t seed = 3)
{
    Rng rng(seed);
    Graph g = generateErdosRenyi(120, 500, rng);
    fillFeatures(g, 16, rng);
    return g;
}

SimEngine::Options
fastSimOptions()
{
    SimEngine::Options opts;
    opts.gpu = GpuConfig::testTiny();
    opts.gpu.smSampleFactor = 1;
    return opts;
}

/**
 * Bytes of every node's outputs after a run: the ioSpans() of the
 * buffers its kernel writes, in span order.
 */
std::vector<std::vector<char>>
nodeOutputs(const GnnPipeline &p)
{
    std::vector<std::vector<char>> out;
    for (const OpNode &n : p.opGraph().nodes()) {
        const KernelIo io = n.kernel->io();
        std::vector<char> bytes;
        for (const IoSpan &s : n.kernel->ioSpans()) {
            if (std::find(io.writes.begin(), io.writes.end(),
                          s.buffer) == io.writes.end())
                continue;
            const char *d = static_cast<const char *>(s.data);
            bytes.insert(bytes.end(), d, d + s.bytes);
        }
        out.push_back(std::move(bytes));
    }
    return out;
}

/** A functional or sim engine on @p lanes worker lanes, profiling. */
std::unique_ptr<ExecutionEngine>
laneEngine(bool sim, int lanes)
{
    HwProfilerConfig hw;
    hw.maxCtas = 64;
    hw.numThreads = lanes;
    if (!sim) {
        FunctionalEngine::Options opts;
        opts.profileCaches = true;
        opts.hwConfig = hw;
        return std::make_unique<FunctionalEngine>(opts);
    }
    SimEngine::Options opts = fastSimOptions();
    opts.sim.maxCtas = 64;
    opts.profileCaches = true;
    opts.hwConfig = hw;
    opts.parallelLaunches = lanes;
    return std::make_unique<SimEngine>(opts);
}

} // namespace

TEST(FunctionalEngineTest, RecordsTimeline)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    FunctionalEngine engine;
    GnnPipeline p(g, cfg);
    p.run(engine);
    ASSERT_EQ(engine.timeline().size(), p.numKernels());
    for (const auto &rec : engine.timeline()) {
        EXPECT_FALSE(rec.name.empty());
        EXPECT_GE(rec.wallUs, 0.0);
        EXPECT_FALSE(rec.hasSim);
        EXPECT_FALSE(rec.hasHw);
    }
    EXPECT_GT(engine.totalWallUs(), 0.0);
}

TEST(FunctionalEngineTest, ClearTimeline)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    FunctionalEngine engine;
    GnnPipeline p(g, cfg);
    p.run(engine);
    engine.clearTimeline();
    EXPECT_TRUE(engine.timeline().empty());
    EXPECT_EQ(engine.totalWallUs(), 0.0);
}

TEST(FunctionalEngineTest, CacheProfilingFillsHwRecords)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    FunctionalEngine::Options opts;
    opts.profileCaches = true;
    FunctionalEngine engine(opts);
    GnnPipeline p(g, cfg);
    p.run(engine);
    for (const auto &rec : engine.timeline()) {
        EXPECT_TRUE(rec.hasHw);
        EXPECT_GT(rec.hw.l1Hits + rec.hw.l1Misses, 0u);
    }
}

TEST(SimEngineTest, FillsSimulatorStats)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    SimEngine engine(fastSimOptions());
    GnnPipeline p(g, cfg);
    p.run(engine);
    for (const auto &rec : engine.timeline()) {
        EXPECT_TRUE(rec.hasSim);
        EXPECT_GT(rec.sim.cycles, 0u);
        EXPECT_GT(rec.sim.warpInstrs, 0u);
        EXPECT_EQ(rec.sim.name, rec.name);
    }
}

TEST(SimEngineTest, SimAndFunctionalProduceSameOutput)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    FunctionalEngine fe;
    GnnPipeline p1(g, cfg);
    p1.run(fe);
    SimEngine se(fastSimOptions());
    GnnPipeline p2(g, cfg);
    p2.run(se);
    EXPECT_EQ(DenseMatrix::maxAbsDiff(p1.output(), p2.output()), 0.0);
}

TEST(EngineDeterminismTest, OutputsAndStatsBitIdenticalAtAnyLaneCount)
{
    // Big enough that every row-parallel kernel class splits its
    // output over the lanes (nodes x width >= kParallelGrain), and
    // wide enough input features that layer 0's sgemm has more than
    // one 64-wide k block.
    Rng rng(5);
    Graph g = generateErdosRenyi(5000, 20000, rng);
    fillFeatures(g, 96, rng);
    ASSERT_GE(g.numNodes() * 16, kParallelGrain);
    const std::pair<GnnModelKind, CompModel> pipelines[] = {
        {GnnModelKind::Gcn, CompModel::Mp},
        {GnnModelKind::Gcn, CompModel::Spmm},
        {GnnModelKind::Gin, CompModel::Mp},
        {GnnModelKind::Gin, CompModel::Spmm},
        {GnnModelKind::Sage, CompModel::Mp},
        {GnnModelKind::Sage, CompModel::Spmm},
        {GnnModelKind::Gat, CompModel::Mp}};
    for (const auto &[model, comp] : pipelines) {
        ModelConfig cfg;
        cfg.model = model;
        cfg.comp = comp;
        cfg.hidden = 16;
        cfg.outDim = 16;
        cfg.allowSpmmSage = true;
        for (const bool sim : {false, true}) {
            std::vector<std::vector<char>> baseOut;
            std::vector<KernelRecord> baseRecs;
            for (int lanes = 1; lanes <= 4; ++lanes) {
                const std::string what =
                    std::string(gnnModelName(model)) + "/" +
                    compModelName(comp) + (sim ? " sim" : " func") +
                    " lanes " + std::to_string(lanes);
                const auto engine = laneEngine(sim, lanes);
                GnnPipeline p(g, cfg);
                p.run(*engine);
                const auto outs = nodeOutputs(p);
                const std::vector<KernelRecord> recs =
                    engine->timeline();
                if (lanes == 1) {
                    baseOut = outs;
                    baseRecs = recs;
                    continue;
                }
                ASSERT_EQ(outs.size(), baseOut.size()) << what;
                for (size_t i = 0; i < outs.size(); ++i) {
                    ASSERT_EQ(outs[i].size(), baseOut[i].size())
                        << what << " node " << i;
                    EXPECT_TRUE(outs[i].empty() ||
                                std::memcmp(outs[i].data(),
                                            baseOut[i].data(),
                                            outs[i].size()) == 0)
                        << what << " node " << i;
                }
                ASSERT_EQ(recs.size(), baseRecs.size()) << what;
                for (size_t i = 0; i < recs.size(); ++i) {
                    const KernelRecord &a = recs[i];
                    const KernelRecord &b = baseRecs[i];
                    const std::string at = what + " " + a.name;
                    EXPECT_EQ(a.name, b.name) << at;
                    ASSERT_EQ(a.hasSim, sim) << at;
                    ASSERT_EQ(b.hasSim, sim) << at;
                    const StatSet sa = a.sim.toStatSet();
                    const StatSet sb = b.sim.toStatSet();
                    ASSERT_EQ(sa.names(), sb.names()) << at;
                    for (const std::string &name : sa.names())
                        EXPECT_EQ(sa.get(name), sb.get(name))
                            << at << " " << name;
                    ASSERT_TRUE(a.hasHw && b.hasHw) << at;
                    EXPECT_EQ(a.hw.l1Hits, b.hw.l1Hits) << at;
                    EXPECT_EQ(a.hw.l1Misses, b.hw.l1Misses) << at;
                    EXPECT_EQ(a.hw.l2Hits, b.hw.l2Hits) << at;
                    EXPECT_EQ(a.hw.l2Misses, b.hw.l2Misses) << at;
                }
            }
        }
    }
}

TEST(HwProfilerTest, StreamingKernelHasLowL1HitRate)
{
    // sgemm over a large matrix: mostly streaming with tile reuse.
    DenseMatrix a(256, 256), b(256, 16), c;
    Rng rng(4);
    a.fillUniform(rng, -1, 1);
    b.fillUniform(rng, -1, 1);
    SgemmKernel k("sg", a, b, c);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    HwProfiler prof;
    const HwProfileResult res = prof.profile(l);
    EXPECT_GT(res.l1Hits + res.l1Misses, 0u);
    EXPECT_GE(res.l1HitRate(), 0.0);
    EXPECT_LE(res.l1HitRate(), 1.0);
    EXPECT_GE(res.l2HitRate(), 0.0);
}

TEST(HwProfilerTest, LineGranularityGivesSpatialHits)
{
    // Full-line L2 fills mean 4 consecutive 32B sectors produce one
    // miss + three hits; the sectored L1 misses all four.
    DenseMatrix a(64, 64), b(64, 64), c;
    Rng rng(5);
    a.fillUniform(rng, -1, 1);
    b.fillUniform(rng, -1, 1);
    SgemmKernel k("sg", a, b, c);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    HwProfiler prof;
    const HwProfileResult res = prof.profile(l);
    EXPECT_GT(res.l2HitRate(), 0.4);
}

TEST(HwProfilerTest, SamplingLimitsCtas)
{
    DenseMatrix a(2048, 16), b(16, 16), c;
    Rng rng(6);
    a.fillUniform(rng, -1, 1);
    b.fillUniform(rng, -1, 1);
    SgemmKernel k("sg", a, b, c);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    HwProfilerConfig cfg;
    cfg.maxCtas = 2;
    HwProfiler small(cfg);
    HwProfiler big; // default cap
    const auto rs = small.profile(l);
    const auto rb = big.profile(l);
    EXPECT_LT(rs.l1Hits + rs.l1Misses, rb.l1Hits + rb.l1Misses);
}

TEST(HwProfilerTest, ParallelReplayIsBitIdentical)
{
    // The slice-parallel replay (per-SM L1 lanes + ordered shared-L2
    // pass) must reproduce the serial replay's counters exactly, for
    // a kernel mix with loads, stores and atomics.
    const Graph g = smallGraph(9);
    DenseMatrix msg;
    IndexSelectKernel gather("is", g.features, g.src, msg);
    gather.execute();
    DenseMatrix out(g.numNodes(), g.featureLen());
    ScatterKernel k("sc", msg, g.dst, out);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);

    HwProfilerConfig serial_cfg;
    serial_cfg.numThreads = 1;
    HwProfilerConfig parallel_cfg;
    parallel_cfg.numThreads = 4;
    const HwProfileResult serial =
        HwProfiler(serial_cfg).profile(l);
    const HwProfileResult parallel =
        HwProfiler(parallel_cfg).profile(l);
    EXPECT_GT(serial.l1Hits + serial.l1Misses, 0u);
    EXPECT_EQ(serial.l1Hits, parallel.l1Hits);
    EXPECT_EQ(serial.l1Misses, parallel.l1Misses);
    EXPECT_EQ(serial.l2Hits, parallel.l2Hits);
    EXPECT_EQ(serial.l2Misses, parallel.l2Misses);
}
