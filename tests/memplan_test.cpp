/**
 * @file
 * Memory-planner tests: happens-before lifetime intervals and region
 * reuse on hand-built graphs, plan determinism across build calls and
 * execution thread counts, bit-identical simulation statistics between
 * naive and plan-backed placement on every pipeline (including the
 * GAT level-parallelism pin), budget wave-packing of merged batches,
 * spill/reload slicing under a single-pipeline budget, and the
 * merged-plan arithmetic (the shared arena plus per-replica part
 * peaks predict a larger batch's peak exactly).
 */

#include <gtest/gtest.h>

#include <vector>

#include "engine/ExecutionEngine.hpp"
#include "graph/Generators.hpp"
#include "hwdb/HwPresets.hpp"
#include "ir/OpGraph.hpp"
#include "kernels/Elementwise.hpp"
#include "memplan/MemPlan.hpp"
#include "models/GnnModel.hpp"
#include "tensor/DenseMatrix.hpp"
#include "util/Random.hpp"

using namespace gsuite;

namespace {

Graph
smallGraph(uint64_t seed = 11, int64_t nodes = 80, int64_t edges = 320,
           int64_t flen = 12)
{
    Rng rng(seed);
    Graph g = generateErdosRenyi(nodes, edges, rng);
    fillFeatures(g, flen, rng);
    return g;
}

ModelConfig
cfgFor(GnnModelKind model, CompModel comp)
{
    ModelConfig cfg;
    cfg.model = model;
    cfg.comp = comp;
    cfg.layers = 2;
    cfg.hidden = 12;
    cfg.outDim = 6;
    cfg.allowSpmmSage = true;
    return cfg;
}

const std::vector<std::pair<GnnModelKind, CompModel>> &
allPipelines()
{
    static const std::vector<std::pair<GnnModelKind, CompModel>> all =
        {{GnnModelKind::Gcn, CompModel::Mp},
         {GnnModelKind::Gcn, CompModel::Spmm},
         {GnnModelKind::Gin, CompModel::Mp},
         {GnnModelKind::Gin, CompModel::Spmm},
         {GnnModelKind::Sage, CompModel::Mp},
         {GnnModelKind::Sage, CompModel::Spmm},
         {GnnModelKind::Gat, CompModel::Mp}};
    return all;
}

SimEngine::Options
tinySimOpts()
{
    SimEngine::Options opts;
    opts.gpu = hwPresetByName("test-tiny").config;
    opts.sim.maxCtas = 64;
    return opts;
}

/**
 * Full bit-identity including the planned device high-water mark —
 * deviceBytesPeak is a pure function of the graph's canonical replay
 * and must not depend on placement mode or thread counts.
 */
void
expectStatsEqual(const KernelStats &a, const KernelStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.name, b.name) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.warpInstrs, b.warpInstrs) << what;
    EXPECT_EQ(a.threadInstrs, b.threadInstrs) << what;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << what;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
    EXPECT_EQ(a.memSectors, b.memSectors) << what;
    EXPECT_EQ(a.dramBytes, b.dramBytes) << what;
    for (size_t i = 0; i < a.stallCycles.size(); ++i)
        EXPECT_EQ(a.stallCycles[i], b.stallCycles[i])
            << what << " stall " << i;
    for (size_t i = 0; i < a.occCycles.size(); ++i)
        EXPECT_EQ(a.occCycles[i], b.occCycles[i])
            << what << " occ " << i;
    EXPECT_EQ(a.traceBytesPeak, b.traceBytesPeak) << what;
    EXPECT_EQ(a.deviceBytesPeak, b.deviceBytesPeak) << what;
}

/**
 * What the naive bump layout really allocates: replay every node's
 * makeLaunch() against a fresh allocator in schedule order — the
 * ground truth MemPlan::naiveBytes() must reproduce.
 */
uint64_t
naiveLaunchBytes(const OpGraph &g)
{
    DeviceAllocator da;
    for (const OpNode &n : g.nodes())
        n.kernel->makeLaunch(da);
    return da.bytesPeak();
}

const PlannedWindow *
windowOf(const MemPlan &plan, const void *host, size_t occurrence = 0)
{
    size_t seen = 0;
    for (const PlannedWindow &w : plan.windows())
        if (w.host == host && seen++ == occurrence)
            return &w;
    return nullptr;
}

/** A kernel that declares no IO and no spans (external fallback). */
class OpaqueKernel : public Kernel
{
  public:
    explicit OpaqueKernel(std::string n) : label(std::move(n)) {}
    std::string name() const override { return label; }
    KernelClass kind() const override { return KernelClass::Aux; }
    void execute() override {}
    KernelLaunch makeLaunch(DeviceAllocator &) const override
    {
        return {};
    }

  private:
    std::string label;
};

} // namespace

// A four-node relu chain a -> b -> c -> d: the planner must derive
// the exact happens-before lifetimes and reuse dead regions — c can
// take a's region (a's only accessor is a strict ancestor of c's
// writer) and d can take b's, halving the footprint.
TEST(MemPlanLifetime, ChainLifetimesAndRegionReuseAreExact)
{
    DenseMatrix a(32, 8), b(32, 8), c(32, 8), d(32, 8);
    Rng rng(7);
    a.fillUniform(rng, -1.0f, 1.0f);
    ElementwiseKernel k0("relu0", ElementwiseKernel::EwOp::Relu, a, b);
    ElementwiseKernel k1("relu1", ElementwiseKernel::EwOp::Relu, b, c);
    ElementwiseKernel k2("relu2", ElementwiseKernel::EwOp::Relu, c, d);

    OpGraph g;
    g.addNode(k0);
    g.addNode(k1);
    g.addNode(k2);
    g.validate();

    FunctionalEngine engine;
    engine.run(g);

    const MemPlan plan = MemPlan::build(g);
    plan.verify(g);
    ASSERT_TRUE(plan.fullSpanCoverage());
    ASSERT_EQ(plan.windows().size(), 4u);

    // Each matrix is 32*8*4 = 1024 bytes, already 256-aligned.
    const uint64_t f = 1024;
    const PlannedWindow *wa = windowOf(plan, &a);
    const PlannedWindow *wb = windowOf(plan, &b);
    const PlannedWindow *wc = windowOf(plan, &c);
    const PlannedWindow *wd = windowOf(plan, &d);
    ASSERT_TRUE(wa && wb && wc && wd);

    EXPECT_TRUE(wa->input);
    EXPECT_FALSE(wb->input);
    EXPECT_FALSE(wc->input);
    EXPECT_FALSE(wd->input);

    // Lifetime intervals: first to last accessor in schedule order.
    EXPECT_EQ(wa->firstNode, 0u);
    EXPECT_EQ(wa->lastNode, 0u);
    EXPECT_EQ(wb->firstNode, 0u);
    EXPECT_EQ(wb->lastNode, 1u);
    EXPECT_EQ(wc->firstNode, 1u);
    EXPECT_EQ(wc->lastNode, 2u);
    EXPECT_EQ(wd->firstNode, 2u);
    EXPECT_EQ(wd->lastNode, 2u);

    // Reuse: c takes a's region, d takes b's.
    EXPECT_EQ(wa->offset, 0u);
    EXPECT_EQ(wb->offset, f);
    EXPECT_EQ(wc->offset, wa->offset);
    EXPECT_EQ(wd->offset, wb->offset);

    EXPECT_EQ(plan.peakBytes(), 2 * f);
    EXPECT_EQ(plan.naiveBytes(), 4 * f);
    EXPECT_EQ(plan.naiveBytes(), naiveLaunchBytes(g));
    EXPECT_EQ(engine.lastGraphReport().memPeakPlannedBytes, 2 * f);
    EXPECT_EQ(engine.lastGraphReport().memPeakNaiveBytes, 4 * f);

    // Per-node accounting: two live windows at every node; the naive
    // bump cursor grows by one new span per node after the first.
    const std::vector<uint64_t> hw = plan.nodeHighWater();
    ASSERT_EQ(hw.size(), 3u);
    EXPECT_EQ(hw[0], 2 * f);
    EXPECT_EQ(hw[1], 2 * f);
    EXPECT_EQ(hw[2], 2 * f);
    const std::vector<uint64_t> nhw = plan.nodeNaiveHighWater();
    ASSERT_EQ(nhw.size(), 3u);
    EXPECT_EQ(nhw[0], 2 * f);
    EXPECT_EQ(nhw[1], 3 * f);
    EXPECT_EQ(nhw[2], 4 * f);
}

// The plan is a pure function of the graph: repeated builds are
// bit-identical, and plan-backed runs produce the same report and
// functional output at every execution thread count. GAT is the
// interesting pipeline: its attention halves sit on the same
// dependency level, so the plan-backed run is genuinely parallel
// (maxLevelWidth >= 2).
TEST(MemPlanDeterminism, GatPlanIsStableAcrossThreadCounts)
{
    const Graph g = smallGraph();
    const ModelConfig cfg = cfgFor(GnnModelKind::Gat, CompModel::Mp);

    // Reference: naive in-order run.
    GnnPipeline ref(g, cfg);
    FunctionalEngine refEngine;
    ref.run(refEngine);
    const MemPlan planA = MemPlan::build(ref.opGraph());
    const MemPlan planB = MemPlan::build(ref.opGraph());
    planA.verify(ref.opGraph());
    ASSERT_TRUE(planA.fullSpanCoverage());
    EXPECT_EQ(planA.peakBytes(), planB.peakBytes());
    ASSERT_EQ(planA.windows().size(), planB.windows().size());
    for (size_t i = 0; i < planA.windows().size(); ++i) {
        const PlannedWindow &x = planA.windows()[i];
        const PlannedWindow &y = planB.windows()[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.offset, y.offset);
        EXPECT_EQ(x.bytes, y.bytes);
        EXPECT_EQ(x.firstNode, y.firstNode);
        EXPECT_EQ(x.lastNode, y.lastNode);
    }
    EXPECT_LE(planA.peakBytes(), planA.naiveBytes());
    EXPECT_EQ(planA.naiveBytes(), naiveLaunchBytes(ref.opGraph()));

    const DenseMatrix refOut = ref.output();
    for (const int threads : {1, 2, 5}) {
        GnnPipeline p(g, cfg);
        FunctionalEngine engine;
        engine.setMemPlanMode(true, threads);
        p.run(engine);
        const GraphRunReport &rep = engine.lastGraphReport();
        EXPECT_TRUE(rep.planned) << threads;
        EXPECT_GE(rep.maxLevelWidth, 2u) << threads;
        EXPECT_EQ(rep.memPeakPlannedBytes, planA.peakBytes())
            << threads;
        EXPECT_EQ(rep.memPeakNaiveBytes, planA.naiveBytes())
            << threads;
        ASSERT_EQ(p.output().size(), refOut.size());
        for (int64_t i = 0; i < refOut.rows(); ++i)
            for (int64_t j = 0; j < refOut.cols(); ++j)
                ASSERT_EQ(p.output().at(i, j), refOut.at(i, j))
                    << threads << " @" << i << "," << j;
    }
}

// The acceptance pin: plan-backed placement must leave every
// simulated statistic bit-identical to the naive in-order run on
// every supported pipeline — the frozen canonical layout IS the naive
// layout, so level-parallel execution cannot perturb addresses.
TEST(MemPlanEquivalence, PlanBackedSimStatsBitIdenticalOnAllPipelines)
{
    const Graph g = smallGraph();
    for (const auto &[model, comp] : allPipelines()) {
        const ModelConfig cfg = cfgFor(model, comp);
        const std::string what =
            std::string(gnnModelName(model)) + "/" +
            compModelName(comp);

        GnnPipeline naive(g, cfg);
        SimEngine naiveEngine(tinySimOpts());
        naive.run(naiveEngine);

        GnnPipeline planned(g, cfg);
        SimEngine::Options popts = tinySimOpts();
        popts.parallelLaunches = 3; // deferred-simulation path
        SimEngine planEngine(popts);
        planEngine.setMemPlanMode(true, 3);
        planned.run(planEngine);

        EXPECT_FALSE(naiveEngine.lastGraphReport().planned) << what;
        EXPECT_TRUE(planEngine.lastGraphReport().planned) << what;
        EXPECT_LE(planEngine.lastGraphReport().memPeakPlannedBytes,
                  planEngine.lastGraphReport().memPeakNaiveBytes)
            << what;

        const auto &a = naiveEngine.timeline();
        const auto &b = planEngine.timeline();
        ASSERT_EQ(a.size(), b.size()) << what;
        for (size_t i = 0; i < a.size(); ++i) {
            ASSERT_TRUE(a[i].hasSim) << what;
            ASSERT_TRUE(b[i].hasSim) << what;
            expectStatsEqual(a[i].sim, b[i].sim,
                             what + "/" + a[i].name);
        }

        // The stamped device high-water is the canonical replay's
        // cumulative footprint — cross-check against the plan.
        const MemPlan plan = MemPlan::build(naive.opGraph());
        plan.verify(naive.opGraph());
        const std::vector<uint64_t> &nhw = plan.nodeNaiveHighWater();
        ASSERT_EQ(nhw.size(), a.size()) << what;
        for (size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i].sim.deviceBytesPeak, nhw[i])
                << what << " node " << i;
        EXPECT_EQ(nhw.back(), plan.naiveBytes()) << what;
    }
}

// Merged batches: shared read-only inputs land in a shared arena
// placed once, each replica gets a private arena, and the planned
// peak decomposes exactly — so a two-replica plan predicts the peak
// of a batch of any size. Under a budget the parts pack into waves.
TEST(MemPlanMerge, MergedPeakIsSharedArenaPlusPartPeaks)
{
    const Graph g = smallGraph();
    const ModelConfig cfg = cfgFor(GnnModelKind::Gcn, CompModel::Spmm);
    GnnPipeline p0(g, cfg), p1(g, cfg), p2(g, cfg);
    FunctionalEngine e0, e1, e2;
    p0.run(e0);
    p1.run(e1);
    p2.run(e2);

    const OpGraph merged =
        OpGraph::merge({&p0.opGraph(), &p1.opGraph()});
    const MemPlan plan = MemPlan::build(merged);
    plan.verify(merged);
    ASSERT_TRUE(plan.fullSpanCoverage());

    // Both replicas read the same dataset: a non-empty shared arena.
    EXPECT_GT(plan.sharedArenaBytes(), 0u);
    // Symmetric replicas plan symmetric private arenas.
    EXPECT_EQ(plan.partPeakBytes(0), plan.partPeakBytes(1));
    EXPECT_EQ(plan.peakBytes(), plan.sharedArenaBytes() +
                                    plan.partPeakBytes(0) +
                                    plan.partPeakBytes(1));
    EXPECT_LE(plan.peakBytes(), plan.naiveBytes());
    EXPECT_EQ(plan.numWaves(), 1u);

    // The shared arena is placed once and each further replica adds
    // one part peak: the two-replica plan predicts three replicas.
    const OpGraph merged3 = OpGraph::merge(
        {&p0.opGraph(), &p1.opGraph(), &p2.opGraph()});
    const MemPlan plan3 = MemPlan::build(merged3);
    plan3.verify(merged3);
    ASSERT_TRUE(plan3.fullSpanCoverage());
    EXPECT_EQ(plan3.sharedArenaBytes(), plan.sharedArenaBytes());
    EXPECT_EQ(plan3.peakBytes(),
              plan.sharedArenaBytes() + 3 * plan.partPeakBytes(0));

    // A budget below the two-replica peak but big enough for one
    // replica forces two sequential waves, and the budgeted plan
    // fits by construction.
    const uint64_t budget =
        plan.sharedArenaBytes() + plan.partPeakBytes(0) + 256;
    ASSERT_LT(budget, plan.peakBytes());
    MemPlan::Options opts;
    opts.budgetBytes = budget;
    const MemPlan sliced = MemPlan::build(merged, opts);
    sliced.verify(merged);
    EXPECT_TRUE(sliced.fitsBudget());
    EXPECT_LE(sliced.peakBytes(), budget);
    EXPECT_EQ(sliced.numWaves(), 2u);
    EXPECT_EQ(sliced.waveOf(0), 0);
    EXPECT_EQ(sliced.waveOf(1), 1);
}

// Budget slicing of a single pipeline: a large buffer idles across a
// wide-footprint middle section; spillToBudget must evict it into
// host staging for the gap, the rebuilt graph must still validate and
// compute bit-identical results, and the final Serial-model plan must
// fit the budget.
TEST(MemPlanBudget, SpillToBudgetRoundTripsAndFits)
{
    const int64_t big = 256, med = 128;
    DenseMatrix a(big, 64), b(big, 64), w(big, 64); // 64 KiB each
    DenseMatrix s(med, 96), m1(med, 96), m2(med, 96),
        m3(med, 96); // 48 KiB each
    Rng rng(13);
    a.fillUniform(rng, -1.0f, 1.0f);
    s.fillUniform(rng, 0.5f, 1.5f);

    ElementwiseKernel k0("mk-b", ElementwiseKernel::EwOp::Relu, a, b);
    ElementwiseKernel k1("mk-m1", ElementwiseKernel::EwOp::Relu, s,
                         m1);
    ElementwiseKernel k2("mk-m2", ElementwiseKernel::EwOp::Mul, m1, s,
                         m2);
    ElementwiseKernel k3("mk-m3", ElementwiseKernel::EwOp::Mul, m2,
                         m1, m3);
    ElementwiseKernel k4("use-b", ElementwiseKernel::EwOp::Relu, b,
                         w);

    OpGraph g;
    g.addNode(k0);
    g.addNode(k1);
    g.addNode(k2);
    g.addNode(k3);
    g.addNode(k4);
    g.validate();

    FunctionalEngine sizer;
    sizer.run(g);
    const DenseMatrix expected = w; // reference output

    MemPlan::Options serial;
    serial.lifetime = LifetimeModel::Serial;
    const MemPlan unbudgeted = MemPlan::build(g, serial);
    ASSERT_TRUE(unbudgeted.fullSpanCoverage());

    // b (64 KiB) idles across the 144 KiB m-chain: spilling it must
    // bring the peak under a budget no gap-free plan can meet.
    const uint64_t budget = 200 * 1024;
    ASSERT_GT(unbudgeted.peakBytes(), budget);

    SpilledGraph out = spillToBudget(g, budget);
    EXPECT_GE(out.spills, 1u);
    out.graph.validate();
    EXPECT_TRUE(out.plan.fitsBudget());
    EXPECT_LE(out.plan.peakBytes(), budget);
    EXPECT_EQ(out.graph.numNodes(),
              g.numNodes() + 2 * out.spills);
    out.plan.verify(out.graph);

    // The spilled buffer's lifetime is split into multiple windows.
    size_t bWindows = 0;
    for (const PlannedWindow &win : out.plan.windows())
        if (win.host == static_cast<const void *>(&b))
            ++bWindows;
    EXPECT_GE(bWindows, 2u);

    // Functional round trip: the reload restores b bit-exactly, so
    // the final output matches the un-spilled reference.
    w.setZero();
    FunctionalEngine rerun;
    rerun.run(out.graph);
    for (int64_t i = 0; i < expected.rows(); ++i)
        for (int64_t j = 0; j < expected.cols(); ++j)
            ASSERT_EQ(w.at(i, j), expected.at(i, j))
                << i << "," << j;

    // The copy nodes carry a real timing face: simulate the spilled
    // graph end to end.
    SimEngine sim(tinySimOpts());
    sim.run(out.graph);
    for (const KernelRecord &rec : sim.timeline())
        EXPECT_TRUE(rec.hasSim) << rec.name;
}

// Graphs containing span-less nodes (external kernels, barriers)
// cannot be planned; mem-plan mode must fall back to naive placement
// and report it instead of mis-planning around the opaque node.
TEST(MemPlanFallback, OpaqueNodesFallBackToNaivePlacement)
{
    DenseMatrix a(32, 8), b(32, 8), c(32, 8);
    Rng rng(3);
    a.fillUniform(rng, -1.0f, 1.0f);
    ElementwiseKernel k0("pre", ElementwiseKernel::EwOp::Relu, a, b);
    OpaqueKernel mid("opaque");
    ElementwiseKernel k1("post", ElementwiseKernel::EwOp::Relu, b, c);

    OpGraph g;
    g.addNode(k0);
    g.addNode(mid);
    g.addNode(k1);
    g.validate();

    FunctionalEngine engine;
    engine.setMemPlanMode(true, 2);
    engine.run(g);
    const GraphRunReport &rep = engine.lastGraphReport();
    EXPECT_FALSE(rep.planned);
    EXPECT_EQ(rep.memPeakPlannedBytes, 0u);
    EXPECT_EQ(rep.memPeakNaiveBytes, 0u);
    EXPECT_EQ(engine.timeline().size(), 3u);

    const MemPlan plan = MemPlan::build(g);
    EXPECT_FALSE(plan.fullSpanCoverage());
    EXPECT_EQ(plan.peakBytes(), 0u);
    EXPECT_TRUE(plan.fitsBudget());
}
