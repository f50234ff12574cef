/**
 * @file
 * Determinism regression tests for the simulation engine: KernelStats
 * must be bit-identical regardless of how many launches simulate
 * concurrently, trace-chunk size, and whether a stream emits its
 * trace whole or suspends at the chunk budget. These invariants are
 * what lets the suite use however many cores the host offers without
 * changing any figure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "engine/ExecutionEngine.hpp"
#include "graph/Generators.hpp"
#include "kernels/Elementwise.hpp"
#include "models/GnnModel.hpp"
#include "kernels/IndexSelect.hpp"
#include "kernels/Scatter.hpp"
#include "kernels/Sgemm.hpp"
#include "kernels/Spgemm.hpp"
#include "kernels/Spmm.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "simgpu/Trace.hpp"
#include "sparse/Csr.hpp"
#include "tensor/DenseMatrix.hpp"
#include "util/Random.hpp"
#include "util/ThreadPool.hpp"

using namespace gsuite;

namespace {

/**
 * Field-by-field equality of everything a launch's stats report.
 *
 * @param compare_trace_peak Off for comparisons across trace-chunk
 *        sizes (the resident footprint legitimately differs).
 * @param compare_classify_evals Off for fast-vs-reference issue-path
 *        comparisons: classifyEvals is the one diagnostic that
 *        intentionally differs (it measures the work saved).
 */
void
expectStatsEqual(const KernelStats &a, const KernelStats &b,
                 bool compare_trace_peak = true,
                 bool compare_classify_evals = true)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ctasSimulated, b.ctasSimulated);
    EXPECT_EQ(a.warpsSimulated, b.warpsSimulated);
    EXPECT_EQ(a.warpInstrs, b.warpInstrs);
    EXPECT_EQ(a.threadInstrs, b.threadInstrs);
    for (size_t i = 0; i < a.instrByClass.size(); ++i)
        EXPECT_EQ(a.instrByClass[i], b.instrByClass[i]) << "class " << i;
    for (size_t i = 0; i < a.stallCycles.size(); ++i)
        EXPECT_EQ(a.stallCycles[i], b.stallCycles[i]) << "stall " << i;
    for (size_t i = 0; i < a.occCycles.size(); ++i)
        EXPECT_EQ(a.occCycles[i], b.occCycles[i]) << "occ " << i;
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.memInstrs, b.memInstrs);
    EXPECT_EQ(a.memSectors, b.memSectors);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.dramBusyCycles, b.dramBusyCycles);
    EXPECT_EQ(a.aluBusyCycles, b.aluBusyCycles);
    EXPECT_EQ(a.schedulerSlots, b.schedulerSlots);
    EXPECT_EQ(a.fastForwardCycles, b.fastForwardCycles);
    if (compare_trace_peak) {
        EXPECT_EQ(a.traceBytesPeak, b.traceBytesPeak);
    }
    if (compare_classify_evals) {
        EXPECT_EQ(a.classifyEvals, b.classifyEvals);
    }
}

/** A skewed SpMM workload (the paper's irregular-access archetype). */
struct SpmmWorkload {
    CsrMatrix adj;
    DenseMatrix features;
    DenseMatrix out;
    SpmmKernel kernel;

    SpmmWorkload()
        : adj(makeAdj()), features(makeFeatures()),
          kernel("spmm_det", adj, features, out)
    {
        kernel.execute();
    }

    static CsrMatrix
    makeAdj()
    {
        // Heavy-tailed row lengths: a few hub rows, many short ones.
        Rng rng(123);
        SparseBuilder bld(300, 300);
        for (int64_t r = 0; r < 300; ++r) {
            const int64_t deg = r % 37 == 0 ? 60 : 1 + r % 7;
            for (int64_t k = 0; k < deg; ++k)
                bld.add(r,
                        static_cast<int64_t>(rng.nextBelow(300)),
                        rng.nextFloat(-1.0f, 1.0f));
        }
        return bld.finish();
    }

    static DenseMatrix
    makeFeatures()
    {
        DenseMatrix f(300, 48);
        Rng rng(7);
        f.fillUniform(rng, -1.0f, 1.0f);
        return f;
    }
};

/**
 * A synthetic launch exercising barriers, atomics, shared memory and
 * divergent loads together (the hardest interleavings to keep
 * deterministic).
 */
KernelLaunch
mixedSyntheticLaunch()
{
    KernelLaunch l;
    l.name = "mixed";
    l.kind = KernelClass::Aux;
    l.dims.numCtas = 24;
    l.dims.threadsPerCta = 128;
    l.streamTrace = [](int64_t cta, int warp) -> WarpTraceStream {
        return [cta, warp](TraceBuilder &b) {
            b.aluChain(Op::INT, 3 + warp);
            std::array<uint64_t, 32> a{};
            for (int i = 0; i < 32; ++i)
                a[static_cast<size_t>(i)] =
                    0x10000ull +
                    static_cast<uint64_t>((cta * 7 + warp * 5 + i) %
                                          97) *
                        256ull;
            const Reg r = b.load({a.data(), 32});
            b.alu(Op::FP32, r);
            b.barrier();
            b.sharedStore(b.sharedLoad());
            for (int i = 0; i < 32; ++i)
                a[static_cast<size_t>(i)] =
                    0x40000ull + static_cast<uint64_t>(cta % 5) * 4;
            const Reg v = b.alu(Op::FP32);
            b.atomic({a.data(), 32}, v);
            b.aluChain(Op::FP32, 4);
            b.store({a.data(), 8}, v);
            b.exit();
            return true;
        };
    };
    return l;
}

GpuConfig
detConfig()
{
    GpuConfig cfg = GpuConfig::v100Sim();
    cfg.smSampleFactor = 1;
    return cfg;
}

} // namespace

TEST(SimDeterminism, ConcurrentLaunchLanesMatchSerialSimulation)
{
    // Launch lanes (SimEngine::sync) run independent launches on one
    // simulator per lane. Interleaving an irregular SpMM with a
    // barrier/atomic-heavy launch, every lane must reproduce the
    // serial run bit for bit.
    SpmmWorkload w;
    DeviceAllocator alloc;
    const KernelLaunch spmm = w.kernel.makeLaunch(alloc);
    const KernelLaunch mixed = mixedSyntheticLaunch();
    const std::vector<const KernelLaunch *> launches = {
        &spmm, &mixed, &spmm, &mixed, &spmm, &mixed};

    SimOptions opts;
    opts.maxCtas = 96;
    std::vector<KernelStats> serial;
    GpuSimulator serial_sim(detConfig());
    for (const KernelLaunch *l : launches)
        serial.push_back(serial_sim.run(*l, opts));

    std::vector<KernelStats> lanes(launches.size());
    std::vector<std::unique_ptr<GpuSimulator>> lane_sims;
    for (int i = 0; i < 4; ++i)
        lane_sims.push_back(std::make_unique<GpuSimulator>(detConfig()));
    ThreadPool(4).parallelFor(launches.size(), [&](size_t i, int lane) {
        lanes[i] = lane_sims[static_cast<size_t>(lane)]->run(
            *launches[i], opts);
    });
    for (size_t i = 0; i < launches.size(); ++i) {
        SCOPED_TRACE(launches[i]->name);
        expectStatsEqual(serial[i], lanes[i]);
    }
    // Sanity: the workloads are non-trivial.
    EXPECT_GT(serial[0].warpInstrs, 1000u);
    EXPECT_GT(serial[0].l2Misses, 0u);
    EXPECT_GT(serial[1].stallCycles[static_cast<size_t>(
                  StallReason::Synchronization)],
              0u);
}

TEST(SimDeterminism, ReusedSimulatorMatchesFreshSimulator)
{
    // SimEngine reuses one simulator across launches; state from a
    // previous launch must never leak into the next.
    SpmmWorkload w;
    DeviceAllocator alloc;
    const KernelLaunch launch = w.kernel.makeLaunch(alloc);
    SimOptions opts;
    opts.maxCtas = 64;

    GpuSimulator reused(detConfig());
    const KernelStats first = reused.run(launch, opts);
    const KernelStats second = reused.run(launch, opts);
    GpuSimulator fresh(detConfig());
    const KernelStats clean = fresh.run(launch, opts);
    expectStatsEqual(first, second);
    expectStatsEqual(first, clean);
}

TEST(SimDeterminism, ChunkSizeInvariant)
{
    SpmmWorkload w;
    DeviceAllocator alloc;
    const KernelLaunch launch = w.kernel.makeLaunch(alloc);

    SimOptions opts;
    opts.maxCtas = 64;
    std::vector<KernelStats> results;
    for (const int chunk : {32, 128, 1 << 20}) {
        GpuSimulator sim(detConfig());
        opts.traceChunkInstrs = chunk;
        results.push_back(sim.run(launch, opts));
    }
    // Timing and counters are chunk-invariant; only the resident
    // trace footprint may differ.
    for (size_t i = 1; i < results.size(); ++i)
        expectStatsEqual(results[0], results[i],
                         /*compare_trace_peak=*/false);
    // Smaller chunks must bound trace memory at least as tightly.
    EXPECT_LE(results[0].traceBytesPeak, results[2].traceBytesPeak);
}

TEST(SimDeterminism, ParallelLaunchEngineMatchesSerialEngine)
{
    // SimEngine's deferred concurrent launch simulation must produce
    // the same per-kernel stats as inline serial simulation.
    auto run_engine = [](int parallel) {
        SimEngine::Options eopts;
        eopts.gpu = detConfig();
        eopts.sim.maxCtas = 48;
        eopts.parallelLaunches = parallel;
        SimEngine engine(eopts);

        SpmmWorkload w;
        DenseMatrix relu_out;
        ElementwiseKernel ew("relu", ElementwiseKernel::EwOp::Relu,
                             w.out, relu_out);
        engine.run(w.kernel);
        engine.run(ew);
        engine.sync(); // before the workload dies

        std::vector<KernelStats> stats;
        for (const auto &rec : engine.timeline()) {
            EXPECT_TRUE(rec.hasSim);
            stats.push_back(rec.sim);
        }
        return stats;
    };

    const std::vector<KernelStats> serial = run_engine(1);
    const std::vector<KernelStats> parallel = run_engine(3);
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        expectStatsEqual(serial[i], parallel[i]);
}

TEST(SimDeterminism, GraphScheduledRunMatchesSerialOnAllFourModels)
{
    // run(OpGraph&) — the dependency-scheduled path every pipeline
    // now takes — must keep every launch's stats bit-identical to
    // the degenerate per-kernel run(Kernel&) path, for every model
    // and for serial vs deferred concurrent simulation.
    Rng rng(99);
    Graph g = generateErdosRenyi(90, 360, rng);
    fillFeatures(g, 12, rng);

    const std::vector<std::pair<GnnModelKind, CompModel>> models = {
        {GnnModelKind::Gcn, CompModel::Spmm},
        {GnnModelKind::Gin, CompModel::Mp},
        {GnnModelKind::Sage, CompModel::Mp},
        {GnnModelKind::Gat, CompModel::Mp}};
    for (const auto &[model, comp] : models) {
        ModelConfig cfg;
        cfg.model = model;
        cfg.comp = comp;
        cfg.layers = 2;
        cfg.hidden = 12;
        cfg.outDim = 6;

        auto run_one = [&](bool graph_path, int parallel) {
            SimEngine::Options eopts;
            eopts.gpu = detConfig();
            eopts.sim.maxCtas = 48;
            eopts.parallelLaunches = parallel;
            SimEngine engine(eopts);
            GnnPipeline p(g, cfg);
            if (graph_path) {
                p.run(engine);
            } else {
                for (const OpNode &n : p.opGraph().nodes())
                    engine.run(*n.kernel);
                engine.sync();
            }
            std::vector<KernelStats> stats;
            for (const auto &rec : engine.timeline()) {
                EXPECT_TRUE(rec.hasSim);
                stats.push_back(rec.sim);
            }
            return stats;
        };

        const auto serial = run_one(false, 1);
        for (const int parallel : {1, 4}) {
            const auto graphed = run_one(true, parallel);
            ASSERT_EQ(serial.size(), graphed.size())
                << gnnModelName(model);
            for (size_t i = 0; i < serial.size(); ++i)
                expectStatsEqual(serial[i], graphed[i]);
        }
    }
}

TEST(SimDeterminism, FastIssuePathMatchesReferenceOnAllSixKernels)
{
    // The SoA issue fast path must be bit-identical to the pre-SoA
    // per-warp reference path (GpuConfig::referenceIssue) on every
    // Table II kernel class — the contract that let the hot-loop
    // rewrite ship without regenerating a single golden counter.
    Rng rng(99);
    const int64_t n = 160, e = 640, f = 24;

    // Shared operands.
    DenseMatrix feat(n, f);
    feat.fillUniform(rng, -1.0f, 1.0f);
    std::vector<int64_t> idx(static_cast<size_t>(e));
    for (auto &v : idx)
        v = static_cast<int64_t>(
            rng.nextBelow(static_cast<uint64_t>(n)));
    SparseBuilder badj(n, n);
    for (int64_t r = 0; r < n; ++r) {
        const int64_t deg = r % 23 == 0 ? 40 : 1 + r % 5;
        for (int64_t k = 0; k < deg; ++k)
            badj.add(r,
                     static_cast<int64_t>(
                         rng.nextBelow(static_cast<uint64_t>(n))),
                     rng.nextFloat(-1.0f, 1.0f));
    }
    const CsrMatrix adj = badj.finish();

    // One launch per kernel class.
    DeviceAllocator alloc;
    std::vector<KernelLaunch> launches;

    DenseMatrix is_out;
    IndexSelectKernel is("is", feat, idx, is_out);
    is.execute();
    launches.push_back(is.makeLaunch(alloc));

    DenseMatrix msgs(e, f);
    msgs.fillUniform(rng, -1.0f, 1.0f);
    DenseMatrix sc_out(n, f);
    ScatterKernel sc("sc", msgs, idx, sc_out,
                     ScatterKernel::Reduce::Sum);
    sc.execute();
    launches.push_back(sc.makeLaunch(alloc));

    DenseMatrix b(f, 32);
    b.fillUniform(rng, -1.0f, 1.0f);
    DenseMatrix sg_out;
    SgemmKernel sg("sg", feat, b, sg_out);
    sg.execute();
    launches.push_back(sg.makeLaunch(alloc));

    CsrMatrix spg_out;
    SpgemmKernel spg("spg", adj, adj, spg_out);
    spg.execute();
    launches.push_back(spg.makeLaunch(alloc));

    DenseMatrix sp_out;
    SpmmKernel sp("sp", adj, feat, sp_out);
    sp.execute();
    launches.push_back(sp.makeLaunch(alloc));

    DenseMatrix ew_out;
    ElementwiseKernel ew("ew", ElementwiseKernel::EwOp::Sigmoid,
                         feat, ew_out);
    ew.execute();
    launches.push_back(ew.makeLaunch(alloc));
    ASSERT_EQ(launches.size(), 6u);

    // A second machine: one SM with 96 warp slots, so every launch's
    // CTAs share one SM and slots 64-95 hold resident warps (the
    // expiry scan must not assume at most 64 slots).
    GpuConfig wide = detConfig();
    wide.numSms = 1;
    wide.maxWarpsPerSm = 96;
    wide.maxThreadsPerSm = 3072;
    bool wide_fills_past_64 = false;
    for (const KernelLaunch &launch : launches) {
        const int wpc = launch.dims.warpsPerCta();
        const int64_t resident_ctas = std::min<int64_t>(
            {wide.maxCtasPerSm, wide.maxWarpsPerSm / wpc,
             wide.maxThreadsPerSm / launch.dims.threadsPerCta,
             launch.dims.numCtas});
        wide_fills_past_64 |= resident_ctas * wpc > 64;
    }
    ASSERT_TRUE(wide_fills_past_64);

    SimOptions opts;
    opts.maxCtas = 96;
    for (const GpuConfig &machine : {detConfig(), wide}) {
        for (const SchedulerPolicy pol :
             {SchedulerPolicy::Gto, SchedulerPolicy::Lrr}) {
            GpuConfig fast_cfg = machine;
            fast_cfg.scheduler = pol;
            GpuConfig ref_cfg = fast_cfg;
            ref_cfg.referenceIssue = true;
            GpuSimulator fast_sim(fast_cfg);
            GpuSimulator ref_sim(ref_cfg);
            for (const KernelLaunch &launch : launches) {
                const KernelStats fast = fast_sim.run(launch, opts);
                const KernelStats ref = ref_sim.run(launch, opts);
                SCOPED_TRACE(std::string(launch.name) + " / " +
                             schedulerPolicyName(pol) + " / " +
                             std::to_string(machine.maxWarpsPerSm) +
                             " warps per SM");
                expectStatsEqual(fast, ref,
                                 /*compare_trace_peak=*/true,
                                 /*compare_classify_evals=*/false);
                // The fast path must actually be lazier than
                // re-deriving every resident warp every cycle: about
                // one re-derivation per state change, so a bounded
                // multiple of the issued instructions.
                EXPECT_LT(fast.classifyEvals, ref.classifyEvals)
                    << launch.name;
                EXPECT_LE(fast.classifyEvals, 2 * fast.warpInstrs)
                    << launch.name;
                // Every case must exercise the L1 MSHR gate, or a
                // preset change could silently drop its coverage.
                EXPECT_GT(ref.stallCycles[static_cast<size_t>(
                              StallReason::MshrFull)],
                          0u)
                    << launch.name;
            }
        }
    }
}

TEST(SimDeterminism, OneChunkAndChunkedStreamsMatch)
{
    // The same logical trace, emitted whole as one chunk and as a
    // stream that suspends at the chunk budget, must simulate
    // identically.
    const int64_t iters = 200;
    auto body = [](TraceBuilder &b, int64_t i) {
        std::array<uint64_t, 8> a{};
        for (int l = 0; l < 8; ++l)
            a[static_cast<size_t>(l)] =
                0x20000ull +
                static_cast<uint64_t>((i * 8 + l) % 513) * 32ull;
        const Reg r = b.load({a.data(), 8});
        b.alu(Op::FP32, r);
        b.control();
    };
    auto launch = [body](const char *name, bool chunked) {
        KernelLaunch l;
        l.name = name;
        l.dims.numCtas = 4;
        l.dims.threadsPerCta = 64;
        l.streamTrace = [body, chunked](int64_t,
                                        int) -> WarpTraceStream {
            int64_t i = 0;
            return [body, chunked, i](TraceBuilder &b) mutable {
                while (i < iters && !(chunked && b.full()))
                    body(b, i++);
                if (i < iters)
                    return false;
                b.exit();
                return true;
            };
        };
        return l;
    };

    SimOptions opts;
    opts.traceChunkInstrs = 64;
    GpuSimulator sim_whole(detConfig());
    GpuSimulator sim_chunked(detConfig());
    const KernelStats st_w =
        sim_whole.run(launch("one_chunk", false), opts);
    const KernelStats st_c =
        sim_chunked.run(launch("chunked", true), opts);
    expectStatsEqual(st_w, st_c, /*compare_trace_peak=*/false);
    // Suspending at the budget must actually cap resident trace
    // memory.
    EXPECT_LT(st_c.traceBytesPeak, st_w.traceBytesPeak);
}
