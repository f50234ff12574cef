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
#include "kernels/Elementwise.hpp"
#include "kernels/IndexSelect.hpp"
#include "kernels/Scatter.hpp"
#include "kernels/Sgemm.hpp"
#include "models/GnnModel.hpp"
#include "profiler/HwProfiler.hpp"
#include "simgpu/MemorySystem.hpp"
#include "util/Random.hpp"
#include "util/ThreadPool.hpp"

#include "LineCache.hpp"

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

/**
 * The profiler's replay as one serial loop over the CTAs: every
 * sector goes through its SM's L1 and, if it reaches L2, at once
 * through the shared L2, all on the one-struct-per-line cache model.
 */
HwProfileResult
serialReplay(const KernelLaunch &launch, const HwProfilerConfig &cfg)
{
    const int64_t ctas = std::min(
        launch.dims.ctaShare(cfg.smSampleFactor), cfg.maxCtas);
    const uint64_t sector = static_cast<uint64_t>(cfg.l1.sectorBytes);
    std::vector<LineCache> l1(static_cast<size_t>(cfg.numSms),
                              LineCache(cfg.l1));
    std::vector<uint64_t> l1_now(static_cast<size_t>(cfg.numSms), 0);
    LineCache l2(cfg.l2);
    uint64_t l2_now = 0;
    HwProfileResult res;
    WarpTrace trace;
    for (int64_t cta = 0; cta < ctas; ++cta) {
        const size_t sm = static_cast<size_t>(cta % cfg.numSms);
        for (int w = 0; w < launch.dims.warpsPerCta(); ++w) {
            WarpTraceStream stream = launch.makeStream(cta, w);
            uint8_t reg_cursor = 0;
            bool done = false;
            while (!done) {
                trace.clear();
                TraceBuilder tb(trace, 512, reg_cursor);
                done = stream(tb);
                for (const SimInstr &in : trace.instrs) {
                    if (!isGlobalMemOp(in.op))
                        continue;
                    uint64_t sectors[32];
                    const int ns = coalesceSectors(trace.addrsOf(in),
                                                   sector, sectors);
                    for (int i = 0; i < ns; ++i) {
                        const uint64_t addr = sectors[i] * sector;
                        const uint64_t now = ++l1_now[sm];
                        if (in.op != Op::ATOM) {
                            const bool hit =
                                l1[sm].probe(addr, now).hit;
                            ++(hit ? res.l1Hits : res.l1Misses);
                            if (in.op == Op::LDG) {
                                if (hit)
                                    continue;
                                l1[sm].fill(addr, now, now);
                            }
                        }
                        ++l2_now;
                        if (l2.probe(addr, l2_now).hit) {
                            ++res.l2Hits;
                        } else {
                            ++res.l2Misses;
                            l2.fill(addr, l2_now, l2_now);
                        }
                    }
                }
            }
        }
    }
    return res;
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

TEST(HwProfilerTest, LinesOneTwentyEightKiBApartDoNotAliasInL2)
{
    // Two loads 128 KiB (1,024 lines) apart: with 3,072 L2 sets the
    // set mask dropped bit 10 of the line address and the second
    // load hit the first one's line. Both must miss.
    KernelLaunch l;
    l.name = "alias";
    l.dims.numCtas = 1;
    l.dims.threadsPerCta = 32;
    l.streamTrace = [](int64_t, int) -> WarpTraceStream {
        return [](TraceBuilder &b) {
            for (const uint64_t addr : {uint64_t{0}, uint64_t{131072}})
                b.load({&addr, 1});
            b.exit();
            return true;
        };
    };
    const HwProfileResult res = HwProfiler().profile(l);
    EXPECT_EQ(res.l1Misses, 2u);
    EXPECT_EQ(res.l2Hits, 0u);
    EXPECT_EQ(res.l2Misses, 2u);
}

TEST(HwProfilerTest, ParallelReplayIsBitIdentical)
{
    // The window replay (one SM's L1 per lane, then one range of L2
    // sets per lane) must reproduce a serial CTA-by-CTA replay on the
    // one-struct-per-line cache model exactly, at every lane count,
    // for loads, stores and atomics. Three SMs and no CTA sampling
    // give windows of 96 CTAs: every launch (375-750 CTAs) spans
    // several and ends in a partial one, and its buffers span every
    // L2 set. The smaller caches make both levels evict.
    Rng rng(9);
    Graph g = generateErdosRenyi(2000, 12000, rng);
    fillFeatures(g, 16, rng);
    DenseMatrix msg;
    IndexSelectKernel gather("is", g.features, g.src, msg);
    gather.execute();
    DenseMatrix agg(g.numNodes(), g.featureLen());
    ScatterKernel scatter("sc", msg, g.dst, agg);
    scatter.execute();
    DenseMatrix weight(16, 48), h;
    weight.fillUniform(rng, -1, 1);
    SgemmKernel sgemm("sg", agg, weight, h);
    sgemm.execute();
    DenseMatrix act;
    ElementwiseKernel relu("relu", ElementwiseKernel::EwOp::Relu, h,
                           act);
    relu.execute();
    DeviceAllocator alloc;
    // Plus loads, stores and atomics of random sectors of 48 lines:
    // consecutive L2 accesses often fall in one set of the tiny L2
    // below and come back just as their set evicts them.
    KernelLaunch mixed;
    mixed.name = "mixed";
    mixed.dims.numCtas = 400;
    mixed.dims.threadsPerCta = 64;
    mixed.streamTrace = [](int64_t cta, int warp) -> WarpTraceStream {
        return [cta, warp](TraceBuilder &b) {
            Rng r(static_cast<uint64_t>(cta) * 131 +
                  static_cast<uint64_t>(warp));
            uint64_t addrs[8];
            for (const Op op : {Op::LDG, Op::LDG, Op::STG, Op::LDG,
                                Op::ATOM, Op::LDG}) {
                for (uint64_t &a : addrs)
                    a = r.nextBelow(48) * 128 + r.nextBelow(4) * 32;
                if (op == Op::LDG)
                    b.load(addrs);
                else if (op == Op::STG)
                    b.store(addrs, 0);
                else
                    b.atomic(addrs, 0);
            }
            b.exit();
            return true;
        };
    };
    const std::vector<KernelLaunch> launches = {
        gather.makeLaunch(alloc), scatter.makeLaunch(alloc),
        sgemm.makeLaunch(alloc), relu.makeLaunch(alloc), mixed};

    HwProfilerConfig volta;
    volta.numSms = 3;
    volta.smSampleFactor = 1;
    HwProfilerConfig small = volta;
    small.l1 = CacheGeometry{8 * 1024, 128, 32, 4};
    small.l2 = CacheGeometry{64 * 1024, 128, 128, 8};
    // Four 8-way L2 sets, one per part at four lanes, behind a
    // 16-line L1.
    HwProfilerConfig tiny = volta;
    tiny.l1 = CacheGeometry{2 * 1024, 128, 32, 4};
    tiny.l2 = CacheGeometry{4 * 1024, 128, 128, 8};
    std::vector<std::unique_ptr<ThreadPool>> pools;
    for (int lanes = 1; lanes <= 4; ++lanes)
        pools.push_back(std::make_unique<ThreadPool>(lanes));
    const auto expectEqual = [](const HwProfileResult &got,
                                const HwProfileResult &want,
                                const std::string &at) {
        EXPECT_EQ(got.l1Hits, want.l1Hits) << at;
        EXPECT_EQ(got.l1Misses, want.l1Misses) << at;
        EXPECT_EQ(got.l2Hits, want.l2Hits) << at;
        EXPECT_EQ(got.l2Misses, want.l2Misses) << at;
    };
    for (HwProfilerConfig cfg : {volta, small, tiny}) {
        for (const KernelLaunch &l : launches) {
            ASSERT_GT(l.dims.numCtas, 3 * 96) << l.name;
            const HwProfileResult want = serialReplay(l, cfg);
            const std::string at =
                l.name + " l2 " + std::to_string(cfg.l2.sizeBytes);
            EXPECT_GT(want.l1Hits + want.l1Misses, 0u) << at;
            EXPECT_GT(want.l2Hits, 0u) << at;
            EXPECT_GT(want.l2Misses, 0u) << at;
            expectEqual(HwProfiler(cfg).profile(l, nullptr), want,
                        at + " serial");
            for (const auto &pool : pools)
                expectEqual(HwProfiler(cfg).profile(l, pool.get()),
                            want,
                            at + " lanes " +
                                std::to_string(pool->lanes()));
            cfg.numThreads = 4;
            expectEqual(HwProfiler(cfg).profile(l), want,
                        at + " own pool");
        }
    }
}
