/**
 * @file
 * Memory-planner tests: happens-before lifetime intervals and region
 * reuse on hand-built graphs, plan determinism across build calls,
 * the ioSpans() contract checked against every pipeline's launches
 * (declared spans are exactly what makeLaunch() maps, node by node),
 * the merged-plan arithmetic (the shared arena plus per-replica part
 * peaks predict a larger batch's peak exactly), and the empty plan of
 * a graph with an opaque node.
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

// The plan is a pure function of the graph: repeated builds over the
// same GAT graph (the pipeline with the widest dependency levels) are
// bit-identical.
TEST(MemPlanDeterminism, GatPlanIsStableAcrossBuilds)
{
    const Graph g = smallGraph();
    const ModelConfig cfg = cfgFor(GnnModelKind::Gat, CompModel::Mp);

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
    EXPECT_EQ(refEngine.lastGraphReport().memPeakPlannedBytes,
              planA.peakBytes());
    EXPECT_EQ(refEngine.lastGraphReport().memPeakNaiveBytes,
              planA.naiveBytes());
}

// The ioSpans() contract, checked against the launches themselves:
// on every pipeline, replaying node i's makeLaunch() on a fresh
// allocator maps every span node i declares, and the allocator's
// peak right after node i equals the planner's naive high water. A
// span makeLaunch() maps without declaring it, or declares with the
// wrong size, moves the peak off the plan. The sim engine stamps the
// same figure into deviceBytesPeak.
TEST(MemPlanSpans, LaunchesMapExactlyTheDeclaredSpansOnAllPipelines)
{
    const Graph g = smallGraph();
    for (const auto &[model, comp] : allPipelines()) {
        const ModelConfig cfg = cfgFor(model, comp);
        const std::string what =
            std::string(gnnModelName(model)) + "/" +
            compModelName(comp);

        GnnPipeline p(g, cfg);
        SimEngine engine(tinySimOpts());
        p.run(engine);
        const OpGraph &ops = p.opGraph();
        const MemPlan plan = MemPlan::build(ops);
        plan.verify(ops);
        ASSERT_TRUE(plan.fullSpanCoverage()) << what;
        const std::vector<uint64_t> &nhw = plan.nodeNaiveHighWater();
        const auto &timeline = engine.timeline();
        ASSERT_EQ(nhw.size(), ops.numNodes()) << what;
        ASSERT_EQ(timeline.size(), ops.numNodes()) << what;

        DeviceAllocator da;
        for (size_t i = 0; i < ops.numNodes(); ++i) {
            const Kernel &k = *ops.node(i).kernel;
            const std::string node = what + "/" + k.name();
            k.makeLaunch(da);
            for (const IoSpan &s : k.ioSpans())
                EXPECT_TRUE(da.isMapped(s.data)) << node;
            EXPECT_EQ(da.bytesPeak(), nhw[i]) << node;
            ASSERT_TRUE(timeline[i].hasSim) << node;
            EXPECT_EQ(timeline[i].sim.deviceBytesPeak, nhw[i]) << node;
        }
        EXPECT_EQ(nhw.back(), plan.naiveBytes()) << what;
    }
}

// Merged batches: shared read-only inputs land in a shared arena
// placed once, each replica gets a private arena, and the planned
// peak decomposes exactly — so a two-replica plan predicts the peak
// of a batch of any size.
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

}

// Graphs containing span-less nodes (external kernels, barriers)
// cannot be planned: the graph still runs, and reports no plan
// instead of mis-planning around the opaque node.
TEST(MemPlanFallback, OpaqueNodeGraphReportsNoPlan)
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
    engine.run(g);
    const GraphRunReport &rep = engine.lastGraphReport();
    EXPECT_EQ(rep.memPeakPlannedBytes, 0u);
    EXPECT_EQ(rep.memPeakNaiveBytes, 0u);
    EXPECT_EQ(engine.timeline().size(), 3u);

    const MemPlan plan = MemPlan::build(g);
    EXPECT_FALSE(plan.fullSpanCoverage());
    EXPECT_EQ(plan.peakBytes(), 0u);
    EXPECT_EQ(plan.naiveBytes(), 0u);
}
