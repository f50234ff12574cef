/**
 * @file
 * Op-graph IR tests: construction invariants (acyclic dependency
 * edges, every read produced or external), deterministic schedules,
 * merge disjointness, engine equivalence (run(OpGraph&) vs the
 * serial per-kernel path, bit-identical KernelStats on all four
 * models), and the batched-inference contract (per-replica stats
 * bit-identical to unbatched runs; the lane-makespan model shows
 * multi-launch overlap).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "engine/ExecutionEngine.hpp"
#include "frameworks/FrameworkAdapter.hpp"
#include "graph/Generators.hpp"
#include "hwdb/HwPresets.hpp"
#include "ir/OpGraph.hpp"
#include "kernels/Elementwise.hpp"
#include "memplan/MemPlan.hpp"
#include "models/GnnModel.hpp"
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

/** Every supported (model, comp) combination. */
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

void
expectSimStatsEqual(const KernelStats &a, const KernelStats &b,
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
}

/** A kernel that declares no IO (external-author fallback). */
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

TEST(OpGraphStructure, EveryPipelineIsAValidDataflowGraph)
{
    const Graph g = smallGraph();
    for (const auto &[model, comp] : allPipelines()) {
        GnnPipeline p(g, cfgFor(model, comp));
        const OpGraph &ops = p.opGraph();
        ops.validate();
        ASSERT_EQ(ops.numNodes(), p.numKernels());
        for (const OpNode &n : ops.nodes()) {
            // Dependency edges point strictly backwards: the
            // insertion order is a topological order (no cycles).
            for (const size_t d : n.deps)
                EXPECT_LT(d, n.index);
            // Every read has a producer among the deps or is an
            // external input at the time of the read.
            for (const BufferId b : n.reads) {
                const size_t w = ops.buffer(b).firstWriter;
                if (w == kNoNode || w >= n.index)
                    continue; // input (never or later written)
                // The most recent writer must be a dependency;
                // validate() checks the exact writer, here we
                // check the weaker public-API property.
                EXPECT_FALSE(n.deps.empty());
            }
            EXPECT_FALSE(n.barrier)
                << "core kernels all declare IO";
        }
        EXPECT_GT(ops.numEdges(), 0u);
        EXPECT_GE(ops.numNodes(), ops.numLevels());
    }
}

TEST(OpGraphStructure, ScheduleIsDeterministicAcrossRebuilds)
{
    const Graph g = smallGraph();
    for (const auto &[model, comp] : allPipelines()) {
        GnnPipeline a(g, cfgFor(model, comp));
        GnnPipeline b(g, cfgFor(model, comp));
        EXPECT_EQ(a.opGraph().kernelNames(),
                  b.opGraph().kernelNames());
        ASSERT_EQ(a.opGraph().numNodes(), b.opGraph().numNodes());
        for (size_t i = 0; i < a.opGraph().numNodes(); ++i) {
            EXPECT_EQ(a.opGraph().node(i).deps,
                      b.opGraph().node(i).deps);
            EXPECT_EQ(a.opGraph().node(i).level,
                      b.opGraph().node(i).level);
        }
    }
}

TEST(OpGraphStructure, SageSelfAndNeighborBranchesAreParallel)
{
    // Eq. (5)'s W1*h_v is independent of the aggregation chain: it
    // reads only external inputs, so its level must be 0 even
    // though it is issued fourth — the dataflow graph exposes the
    // parallelism the flat kernel list hid.
    const Graph g = smallGraph();
    GnnPipeline p(g, cfgFor(GnnModelKind::Sage, CompModel::Mp));
    const OpGraph &ops = p.opGraph();
    const auto names = ops.kernelNames();
    const auto self_it =
        std::find(names.begin(), names.end(), "sgemm_self_l0");
    ASSERT_NE(self_it, names.end());
    const size_t self_idx =
        static_cast<size_t>(self_it - names.begin());
    EXPECT_GT(self_idx, 0u); // issued after the aggregation started
    EXPECT_EQ(ops.node(self_idx).level, 0);
    EXPECT_TRUE(ops.node(self_idx).deps.empty());
    // The graph is strictly deeper than a chain would be wide.
    EXPECT_LT(ops.numLevels(), ops.numNodes());
}

TEST(OpGraphStructure, GatAttentionHalvesAreParallel)
{
    const Graph g = smallGraph();
    ModelConfig cfg = cfgFor(GnnModelKind::Gat, CompModel::Mp);
    cfg.layers = 1;
    GnnPipeline p(g, cfg);
    const OpGraph &ops = p.opGraph();
    const auto names = ops.kernelNames();
    auto idx = [&](const char *n) {
        const auto it = std::find(names.begin(), names.end(), n);
        EXPECT_NE(it, names.end()) << n;
        return static_cast<size_t>(it - names.begin());
    };
    // Both attention-half GEMMs read z and an input weight: same
    // level, neither depends on the other.
    const size_t src = idx("sgemm_attsrc_l0");
    const size_t dst = idx("sgemm_attdst_l0");
    EXPECT_EQ(ops.node(src).level, ops.node(dst).level);
    EXPECT_EQ(std::count(ops.node(dst).deps.begin(),
                         ops.node(dst).deps.end(), src),
              0);
}

TEST(OpGraphStructure, UndeclaredIoBecomesABarrier)
{
    DenseMatrix a(4, 4), b1;
    a.fill(1.0f);
    ElementwiseKernel relu("relu", ElementwiseKernel::EwOp::Relu, a,
                           b1);
    OpaqueKernel mystery("mystery");
    DenseMatrix c1;
    ElementwiseKernel relu2("relu2", ElementwiseKernel::EwOp::Relu,
                            a, c1);

    OpGraph g;
    g.addNode(relu);
    g.addNode(mystery); // no declared IO
    g.addNode(relu2);   // independent of relu — but barrier-ordered
    g.validate();
    EXPECT_TRUE(g.node(1).barrier);
    EXPECT_EQ(g.node(1).deps, std::vector<size_t>{0});
    EXPECT_EQ(g.node(2).deps, std::vector<size_t>{1});
    EXPECT_EQ(g.numLevels(), 3u);
}

TEST(OpGraphMerge, SharesInputsKeepsWritesDisjoint)
{
    const Graph g = smallGraph();
    const ModelConfig cfg = cfgFor(GnnModelKind::Gcn, CompModel::Mp);
    GnnPipeline a(g, cfg), b(g, cfg);
    const OpGraph merged =
        OpGraph::merge({&a.opGraph(), &b.opGraph()});
    merged.validate();

    ASSERT_EQ(merged.numParts(), 2u);
    ASSERT_EQ(merged.parts().size(), 2u);
    EXPECT_EQ(merged.parts()[0].label, "g0");
    EXPECT_EQ(merged.parts()[1].label, "g1");
    EXPECT_EQ(merged.parts()[0].endNode, a.opGraph().numNodes());
    EXPECT_EQ(merged.numNodes(),
              a.opGraph().numNodes() + b.opGraph().numNodes());

    // The replicas share the read-only feature matrix (one interned
    // buffer), so the merged buffer count is below the sum.
    EXPECT_LT(merged.numBuffers(),
              a.opGraph().numBuffers() + b.opGraph().numBuffers());

    // No cross-part dependency edges: the parts' roots issue
    // concurrently.
    for (const OpNode &n : merged.nodes())
        for (const size_t d : n.deps)
            EXPECT_EQ(merged.node(d).part, n.part);

    // Part-major schedule: part 1's kernel names equal pipeline
    // b's, in order.
    const auto names = merged.kernelNames();
    const auto bnames = b.opGraph().kernelNames();
    for (size_t i = 0; i < bnames.size(); ++i)
        EXPECT_EQ(names[merged.parts()[1].beginNode + i], bnames[i]);
}

TEST(OpGraphMerge, OverlappingWritesAreFatal)
{
    DenseMatrix in(4, 4), out;
    in.fill(1.0f);
    ElementwiseKernel k1("w1", ElementwiseKernel::EwOp::Relu, in,
                         out);
    ElementwiseKernel k2("w2", ElementwiseKernel::EwOp::Relu, in,
                         out); // same output buffer
    OpGraph g1, g2;
    g1.addNode(k1);
    g2.addNode(k2);
    EXPECT_EXIT({ OpGraph::merge({&g1, &g2}); },
                ::testing::ExitedWithCode(1), "");
}

TEST(OpGraphCosts, SerialCriticalPathAndMakespanAreConsistent)
{
    const Graph g = smallGraph();
    GnnPipeline p(g, cfgFor(GnnModelKind::Gat, CompModel::Mp));
    const OpGraph &ops = p.opGraph();
    std::vector<uint64_t> costs(ops.numNodes());
    for (size_t i = 0; i < costs.size(); ++i)
        costs[i] = 100 + i; // distinct, deterministic
    const uint64_t serial = ops.serialCost(costs);
    const uint64_t cp = ops.criticalPathCost(costs);
    for (const int lanes : {1, 2, 4, 8}) {
        const uint64_t ms = ops.makespan(costs, lanes);
        EXPECT_GE(ms, cp) << lanes;
        EXPECT_LE(ms, serial) << lanes;
        if (lanes == 1) {
            EXPECT_EQ(ms, serial);
        }
        // Deterministic: same inputs, same answer.
        EXPECT_EQ(ms, ops.makespan(costs, lanes)) << lanes;
    }
    // GAT exposes real branch parallelism: more lanes must help.
    EXPECT_LT(ops.makespan(costs, 4), serial);
}

TEST(OpGraphEngine, GraphRunMatchesSerialPerKernelOnAllFourModels)
{
    const Graph g = smallGraph();
    for (const auto &[model, comp] : allPipelines()) {
        const ModelConfig cfg = cfgFor(model, comp);
        const std::string what =
            std::string(gnnModelName(model)) + "/" +
            compModelName(comp);

        // Graph-scheduled path.
        SimEngine graphEngine(tinySimOpts());
        GnnPipeline p1(g, cfg);
        p1.run(graphEngine);

        // Degenerate serial path: one run(Kernel&) per node, in the
        // same deterministic schedule order.
        SimEngine serialEngine(tinySimOpts());
        GnnPipeline p2(g, cfg);
        for (const OpNode &n : p2.opGraph().nodes())
            serialEngine.run(*n.kernel);

        const auto &ta = graphEngine.timeline();
        const auto &tb = serialEngine.timeline();
        ASSERT_EQ(ta.size(), tb.size()) << what;
        for (size_t i = 0; i < ta.size(); ++i) {
            ASSERT_TRUE(ta[i].hasSim && tb[i].hasSim) << what;
            expectSimStatsEqual(ta[i].sim, tb[i].sim,
                                what + "#" + std::to_string(i));
        }
    }
}

TEST(OpGraphEngine, BatchedPerReplicaStatsBitIdenticalToUnbatched)
{
    const Graph g = smallGraph();
    const ModelConfig cfg = cfgFor(GnnModelKind::Gcn, CompModel::Mp);
    const FrameworkAdapter adapter(Framework::Gsuite);

    SimEngine single(tinySimOpts());
    const FrameworkRunResult one = adapter.run(g, cfg, single);

    SimEngine::Options batchOpts = tinySimOpts();
    batchOpts.parallelLaunches = 3;
    SimEngine batched(batchOpts);
    const FrameworkRunResult three =
        adapter.run(g, cfg, batched, /*batch=*/3);

    const size_t k = one.timeline.size();
    ASSERT_EQ(three.timeline.size(), 3 * k);
    for (size_t part = 0; part < 3; ++part)
        for (size_t i = 0; i < k; ++i) {
            ASSERT_TRUE(three.timeline[part * k + i].hasSim);
            expectSimStatsEqual(
                three.timeline[part * k + i].sim,
                one.timeline[i].sim,
                "part " + std::to_string(part) + " kernel " +
                    std::to_string(i));
        }
    EXPECT_EQ(three.graph.serialCycles, 3 * one.graph.serialCycles);
}

TEST(OpGraphEngine, BatchedMakespanShowsMultiLaunchOverlap)
{
    const Graph g = smallGraph();
    const ModelConfig cfg = cfgFor(GnnModelKind::Gcn, CompModel::Mp);
    const FrameworkAdapter adapter(Framework::Gsuite);

    SimEngine::Options opts = tinySimOpts();
    opts.parallelLaunches = 4;
    SimEngine single(opts);
    const FrameworkRunResult one = adapter.run(g, cfg, single);
    SimEngine batched(opts);
    const FrameworkRunResult four =
        adapter.run(g, cfg, batched, /*batch=*/4);

    ASSERT_TRUE(four.graph.hasSim);
    EXPECT_EQ(four.graph.lanes, 4);
    // Four independent replicas over four lanes: the modeled
    // makespan must beat 4x the single-graph time — the batched
    // inference acceptance property.
    EXPECT_LT(four.graph.makespanCycles,
              4 * one.graph.makespanCycles);
    EXPECT_LT(four.graph.makespanCycles, four.graph.serialCycles);
    EXPECT_GE(four.graph.makespanCycles,
              four.graph.criticalPathCycles);
}

TEST(OpGraphEngine, FunctionalEngineRunsGraphsToo)
{
    // The degenerate case: the functional engine schedules the same
    // graph order; output equals the reference pipeline contract.
    const Graph g = smallGraph();
    const ModelConfig cfg = cfgFor(GnnModelKind::Gin, CompModel::Mp);
    FunctionalEngine e1;
    GnnPipeline p1(g, cfg);
    p1.run(e1);
    EXPECT_EQ(e1.timeline().size(), p1.numKernels());
    EXPECT_FALSE(e1.lastGraphReport().hasSim);
}

TEST(OpGraphInterning, AliasedContainersShareOneBufferIdentity)
{
    // Interning is by host-container address: every mention of the
    // same container — across kernels, and across the read and write
    // sides of an in-place update — must resolve to one BufferId,
    // while distinct containers stay distinct even when their
    // contents are identical.
    DenseMatrix x(16, 4), y(16, 4), z(16, 4);
    Rng rng(5);
    x.fillUniform(rng, -1.0f, 1.0f);
    ElementwiseKernel k0("mk-y", ElementwiseKernel::EwOp::Relu, x, y);
    // In-place: y is both input and output of the same kernel.
    ElementwiseKernel k1("inplace", ElementwiseKernel::EwOp::Relu, y,
                         y);
    ElementwiseKernel k2("use", ElementwiseKernel::EwOp::Mul, y, x,
                         z);

    OpGraph g;
    g.addNode(k0);
    g.addNode(k1);
    g.addNode(k2);
    g.validate();

    const OpNode &n0 = g.node(0);
    const OpNode &n1 = g.node(1);
    const OpNode &n2 = g.node(2);

    // One identity for y everywhere it appears.
    ASSERT_EQ(n0.writes.size(), 1u);
    const BufferId yId = n0.writes[0];
    EXPECT_EQ(n1.reads[0], yId);
    EXPECT_EQ(n1.writes[0], yId);
    EXPECT_EQ(n2.reads[0], yId);
    // x read by two kernels: same id both times, distinct from y/z.
    const BufferId xId = n0.reads[0];
    EXPECT_EQ(n2.reads[1], xId);
    EXPECT_NE(xId, yId);
    EXPECT_NE(n2.writes[0], yId);
    EXPECT_NE(n2.writes[0], xId);

    // The in-place chain is fully ordered: n1 RAW-depends on y's
    // writer, and n2 RAW-depends on y's *latest* writer n1 (reading
    // via the stale alias n0 would reorder the update).
    EXPECT_EQ(n1.deps, (std::vector<size_t>{0}));
    ASSERT_FALSE(n2.deps.empty());
    EXPECT_EQ(n2.deps.back(), 1u);
    EXPECT_EQ(g.buffer(yId).firstWriter, 0u);

    // Aliasing must collapse in the span-level footprint too: the
    // in-place node mentions y's bytes twice (input and output face)
    // but the planner counts the container once.
    FunctionalEngine engine;
    engine.run(g);
    const MemPlan plan = MemPlan::build(g);
    plan.verify(g);
    ASSERT_TRUE(plan.fullSpanCoverage());
    EXPECT_EQ(plan.naiveBytes(), 3u * 16 * 4 * 4);
    size_t yWindows = 0;
    for (const PlannedWindow &w : plan.windows())
        yWindows += w.id == yId;
    EXPECT_EQ(yWindows, 1u);
    const PlannedWindow *wy = nullptr;
    for (const PlannedWindow &w : plan.windows())
        if (w.id == yId)
            wy = &w;
    ASSERT_TRUE(wy);
    EXPECT_EQ(wy->firstNode, 0u);
    EXPECT_EQ(wy->lastNode, 2u);
    EXPECT_FALSE(wy->input);
}
