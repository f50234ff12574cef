/**
 * @file
 * Tests for the graph module: the Graph container, preprocessing
 * transforms, synthetic dataset generators (Table IV statistics,
 * determinism, degree skew) and edge-list I/O.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_set>

#include "graph/Datasets.hpp"
#include "graph/EdgeListIo.hpp"
#include "graph/Generators.hpp"
#include "graph/Graph.hpp"
#include "graph/Transforms.hpp"
#include "sparse/Convert.hpp"
#include "sparse/SparseOps.hpp"

using namespace gsuite;

namespace {

Graph
triangleGraph()
{
    // 0 -> 1, 1 -> 2, 2 -> 0, 0 -> 2
    Graph g(3, 2);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 0);
    g.addEdge(0, 2);
    return g;
}

/**
 * R-MAT one draw at a time: a branching descent on nextDouble() and a
 * std::unordered_set of keys. generateRmat must give the same edges
 * and leave the Rng in the same state.
 */
Graph
rmatOneDrawAtATime(const RmatParams &params, Rng &rng)
{
    Graph g(params.nodes, 0);
    std::vector<int64_t> perm(static_cast<size_t>(params.nodes));
    std::iota(perm.begin(), perm.end(), int64_t{0});
    rng.shuffle(perm);
    std::unordered_set<uint64_t> seen;
    const int64_t max_attempts = params.edges * 20 + 1000;
    int64_t attempts = 0;
    while (g.numEdges() < params.edges && attempts < max_attempts) {
        ++attempts;
        int64_t row_lo = 0, row_hi = params.nodes;
        int64_t col_lo = 0, col_hi = params.nodes;
        while (row_hi - row_lo > 1 || col_hi - col_lo > 1) {
            const double r = rng.nextDouble();
            const int64_t row_mid = (row_lo + row_hi) / 2;
            const int64_t col_mid = (col_lo + col_hi) / 2;
            bool top = true, left = true;
            if (r < params.a) {
                // top-left
            } else if (r < params.a + params.b) {
                left = false;
            } else if (r < params.a + params.b + params.c) {
                top = false;
            } else {
                top = false;
                left = false;
            }
            if (row_hi - row_lo > 1)
                (top ? row_hi : row_lo) = row_mid;
            if (col_hi - col_lo > 1)
                (left ? col_hi : col_lo) = col_mid;
        }
        if (!params.allowSelfLoops && row_lo == col_lo)
            continue;
        const int64_t u = perm[static_cast<size_t>(row_lo)];
        const int64_t v = perm[static_cast<size_t>(col_lo)];
        if (params.dedup &&
            !seen.insert(static_cast<uint64_t>(u) *
                             static_cast<uint64_t>(params.nodes) +
                         static_cast<uint64_t>(v))
                 .second)
            continue;
        g.addEdge(u, v);
    }
    return g;
}

/** Erdos-Renyi one draw at a time, as generateErdosRenyi must match. */
Graph
erdosRenyiOneDrawAtATime(int64_t nodes, int64_t edges, Rng &rng)
{
    Graph g(nodes, 0);
    std::unordered_set<uint64_t> seen;
    const int64_t max_attempts = edges * 20 + 1000;
    int64_t attempts = 0;
    while (g.numEdges() < edges && attempts < max_attempts) {
        ++attempts;
        const int64_t u = static_cast<int64_t>(
            rng.nextBelow(static_cast<uint64_t>(nodes)));
        const int64_t v = static_cast<int64_t>(
            rng.nextBelow(static_cast<uint64_t>(nodes)));
        if (u == v ||
            !seen.insert(static_cast<uint64_t>(u) *
                             static_cast<uint64_t>(nodes) +
                         static_cast<uint64_t>(v))
                 .second)
            continue;
        g.addEdge(u, v);
    }
    return g;
}

/**
 * A seeded node count in [1, 5000], log-uniform so small graphs are
 * common; every eighth is a power of two.
 */
int64_t
pickNodes(Rng &pick, int set)
{
    if (set % 8 == 0)
        return int64_t{1} << pick.nextBelow(13);
    return std::lround(std::pow(5000.0, pick.nextDouble()));
}

/**
 * A seeded edge count from 0 to 1.5x the node pairs, capped at 8,000:
 * small graphs run past saturation and hit the attempt cap.
 */
int64_t
pickEdges(Rng &pick, int64_t nodes)
{
    const double pairs = static_cast<double>(nodes) *
                         static_cast<double>(nodes);
    return std::min<int64_t>(
        8000, static_cast<int64_t>(pick.nextDouble() * 1.5 * pairs));
}

/** FNV-1a over @p bytes bytes, continuing from @p h. */
uint64_t
fnv1a(uint64_t h, const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** FNV-1a over a graph's src, dst and feature bytes, in that order. */
uint64_t
graphDigest(const Graph &g)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    h = fnv1a(h, g.src.data(), g.src.size() * sizeof(int64_t));
    h = fnv1a(h, g.dst.data(), g.dst.size() * sizeof(int64_t));
    return fnv1a(h, g.features.data(),
                 static_cast<size_t>(g.features.size()) * sizeof(float));
}

} // namespace

TEST(Graph, DegreeCounting)
{
    const Graph g = triangleGraph();
    const auto in = g.inDegrees();
    const auto out = g.outDegrees();
    EXPECT_EQ(in[0], 1);
    EXPECT_EQ(in[2], 2);
    EXPECT_EQ(out[0], 2);
    EXPECT_EQ(out[1], 1);
    const auto self = g.selfLoopDegrees();
    EXPECT_EQ(self[0], 2);
    EXPECT_EQ(self[2], 3);
}

TEST(Graph, AdjacencyOrientation)
{
    // Edge u -> v must land at row v (dst aggregates src).
    const Graph g = triangleGraph();
    const DenseMatrix a = csrToDense(g.adjacencyCsr());
    EXPECT_EQ(a.at(1, 0), 1.0f); // 0 -> 1
    EXPECT_EQ(a.at(2, 1), 1.0f); // 1 -> 2
    EXPECT_EQ(a.at(0, 2), 1.0f); // 2 -> 0
    EXPECT_EQ(a.at(0, 1), 0.0f);
}

TEST(Graph, SummaryMentionsCounts)
{
    Graph g = triangleGraph();
    g.name = "tri";
    const std::string s = g.summary();
    EXPECT_NE(s.find("tri"), std::string::npos);
    EXPECT_NE(s.find("4"), std::string::npos);
}

TEST(Transforms, SelfLoopAdjacencyHasDiagonal)
{
    const Graph g = triangleGraph();
    const DenseMatrix a = csrToDense(adjacencyWithSelfLoops(g));
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_EQ(a.at(i, i), 1.0f);
}

TEST(Transforms, GcnNormalizationValues)
{
    // For edge u -> v the normalized weight is 1/sqrt(d_u d_v) with
    // self-loop degrees.
    const Graph g = triangleGraph();
    const auto deg = g.selfLoopDegrees();
    const DenseMatrix a = csrToDense(gcnNormalizedAdjacency(g));
    const float expected =
        1.0f / std::sqrt(static_cast<float>(deg[0] * deg[1]));
    EXPECT_NEAR(a.at(1, 0), expected, 1e-6f);
    const float self0 = 1.0f / static_cast<float>(deg[0]);
    EXPECT_NEAR(a.at(0, 0), self0, 1e-6f);
}

TEST(Transforms, SageMeanRowsSumToOne)
{
    const Graph g = triangleGraph();
    const CsrMatrix mean = sageMeanAdjacency(g);
    for (int64_t r = 0; r < mean.rows(); ++r) {
        float sum = 0.0f;
        for (int64_t i = mean.rowPtr[static_cast<size_t>(r)];
             i < mean.rowPtr[static_cast<size_t>(r) + 1]; ++i)
            sum += mean.vals[static_cast<size_t>(i)];
        EXPECT_NEAR(sum, 1.0f, 1e-6f);
    }
}

TEST(Transforms, GinAdjacencyDiagonal)
{
    const Graph g = triangleGraph();
    const DenseMatrix a = csrToDense(ginAdjacency(g, 0.25f));
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_NEAR(a.at(i, i), 1.25f, 1e-6f);
    EXPECT_EQ(a.at(1, 0), 1.0f);
}

TEST(Generators, RmatProducesRequestedCounts)
{
    Rng rng(3);
    RmatParams p;
    p.nodes = 256;
    p.edges = 1000;
    const Graph g = generateRmat(p, rng);
    EXPECT_EQ(g.numNodes(), 256);
    EXPECT_EQ(g.numEdges(), 1000);
    g.checkInvariants();
}

TEST(Generators, RmatIsDeterministic)
{
    RmatParams p;
    p.nodes = 128;
    p.edges = 400;
    Rng r1(9), r2(9);
    const Graph a = generateRmat(p, r1);
    const Graph b = generateRmat(p, r2);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
}

TEST(Generators, RmatNoSelfLoopsByDefault)
{
    Rng rng(4);
    RmatParams p;
    p.nodes = 64;
    p.edges = 300;
    const Graph g = generateRmat(p, rng);
    for (int64_t i = 0; i < g.numEdges(); ++i)
        EXPECT_NE(g.src[static_cast<size_t>(i)],
                  g.dst[static_cast<size_t>(i)]);
}

TEST(Generators, RmatIsSkewedVsErdosRenyi)
{
    Rng r1(5), r2(5);
    RmatParams p;
    p.nodes = 2048;
    p.edges = 8192;
    p.a = 0.62;
    p.b = (1 - 0.62) * 0.45;
    p.c = p.b;
    const Graph rmat = generateRmat(p, r1);
    const Graph er = generateErdosRenyi(2048, 8192, r2);

    auto max_deg = [](const Graph &g) {
        const auto d = g.inDegrees();
        return *std::max_element(d.begin(), d.end());
    };
    // The heavy tail must show up as a much larger max degree.
    EXPECT_GT(max_deg(rmat), 2 * max_deg(er));
}

TEST(Generators, RmatMatchesOneDrawAtATimeLoop)
{
    const double skews[] = {0.25, 0.57, 0.62, 0.9};
    Rng pick(2024);
    int saturated = 0;
    testing::internal::CaptureStderr();
    for (int set = 0; set < 300; ++set) {
        RmatParams p;
        p.nodes = pickNodes(pick, set);
        p.edges = set % 25 == 0 ? 0 : pickEdges(pick, p.nodes);
        p.a = skews[(set / 4) % 4];
        p.b = (1.0 - p.a) * 0.45;
        p.c = p.b;
        p.dedup = set % 2 == 0;
        p.allowSelfLoops = set / 2 % 2 == 0;
        const uint64_t seed = pick.next();
        Rng r1(seed), r2(seed);
        const Graph want = rmatOneDrawAtATime(p, r1);
        const Graph got = generateRmat(p, r2);
        ASSERT_EQ(got.src, want.src) << "set " << set;
        ASSERT_EQ(got.dst, want.dst) << "set " << set;
        ASSERT_EQ(r2.next(), r1.next()) << "set " << set;
        saturated += want.numEdges() < p.edges;
    }
    const std::string log = testing::internal::GetCapturedStderr();
    // The attempt cap fires, and warns once for each graph it cuts.
    EXPECT_GT(saturated, 30);
    int warnings = 0;
    for (size_t at = log.find("saturated"); at != std::string::npos;
         at = log.find("saturated", at + 1))
        ++warnings;
    EXPECT_EQ(warnings, saturated);
}

TEST(Generators, ErdosRenyiMatchesOneDrawAtATimeLoop)
{
    Rng pick(2025);
    int saturated = 0;
    for (int set = 0; set < 300; ++set) {
        const int64_t nodes = pickNodes(pick, set);
        const int64_t edges =
            set % 25 == 0 ? 0 : pickEdges(pick, nodes);
        const uint64_t seed = pick.next();
        Rng r1(seed), r2(seed);
        const Graph want = erdosRenyiOneDrawAtATime(nodes, edges, r1);
        const Graph got = generateErdosRenyi(nodes, edges, r2);
        ASSERT_EQ(got.src, want.src) << "set " << set;
        ASSERT_EQ(got.dst, want.dst) << "set " << set;
        ASSERT_EQ(r2.next(), r1.next()) << "set " << set;
        saturated += want.numEdges() < edges;
    }
    EXPECT_GT(saturated, 30);
}

TEST(Generators, FeaturesSparseForWideRows)
{
    Rng rng(6);
    Graph g = generateErdosRenyi(50, 100, rng);
    fillFeatures(g, 512, rng);
    int64_t nonzero = 0;
    for (int64_t i = 0; i < g.features.size(); ++i)
        nonzero += g.features.data()[i] != 0.0f;
    // Bag-of-words style: sparse but nonempty.
    EXPECT_GT(nonzero, 0);
    EXPECT_LT(nonzero, g.features.size() / 10);
}

TEST(Datasets, TableIvStatistics)
{
    const auto &all = allDatasets();
    ASSERT_EQ(all.size(), 5u);
    const DatasetInfo &cora = datasetInfo(DatasetId::Cora);
    EXPECT_EQ(cora.nodes, 2708);
    EXPECT_EQ(cora.featureLen, 1433);
    EXPECT_EQ(cora.edges, 5429);
    const DatasetInfo &lj = datasetInfo(DatasetId::LiveJournal);
    EXPECT_EQ(lj.nodes, 4847571);
    EXPECT_EQ(lj.edges, 68993773);
    EXPECT_EQ(lj.featureLen, 1);
    const DatasetInfo &rd = datasetInfo(DatasetId::Reddit);
    EXPECT_EQ(rd.nodes, 232965);
    EXPECT_EQ(rd.edges, 11606919);
    EXPECT_EQ(rd.featureLen, 602);
}

TEST(Datasets, LookupByNameAndShortForm)
{
    EXPECT_EQ(datasetInfoByName("cora").id, DatasetId::Cora);
    EXPECT_EQ(datasetInfoByName("CR").id, DatasetId::Cora);
    EXPECT_EQ(datasetInfoByName("LJ").id, DatasetId::LiveJournal);
    EXPECT_EQ(datasetInfoByName(" PubMed ").id, DatasetId::PubMed);
    EXPECT_TRUE(isKnownDataset("reddit"));
    EXPECT_FALSE(isKnownDataset("imagenet"));
}

TEST(Datasets, FullScaleCoraMatchesTableIv)
{
    const Graph g =
        loadDataset(DatasetId::Cora, DatasetScale::full(), 7);
    EXPECT_EQ(g.numNodes(), 2708);
    EXPECT_EQ(g.numEdges(), 5429);
    EXPECT_EQ(g.featureLen(), 1433);
    g.checkInvariants();
}

TEST(Datasets, ScalingDividesCounts)
{
    const DatasetScale s{4, 8, 100};
    const Graph g = loadDataset(DatasetId::PubMed, s, 7);
    EXPECT_EQ(g.numNodes(), 19717 / 4);
    EXPECT_EQ(g.numEdges(), 44438 / 8);
    EXPECT_EQ(g.featureLen(), 100);
}

TEST(Datasets, DeterministicAcrossLoads)
{
    const Graph a = loadDataset(DatasetId::CiteSeer,
                                DatasetScale::full(), 11);
    const Graph b = loadDataset(DatasetId::CiteSeer,
                                DatasetScale::full(), 11);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(DenseMatrix::maxAbsDiff(a.features, b.features), 0.0);
}

TEST(Datasets, SeedChangesGraph)
{
    const Graph a =
        loadDataset(DatasetId::Cora, DatasetScale::full(), 1);
    const Graph b =
        loadDataset(DatasetId::Cora, DatasetScale::full(), 2);
    EXPECT_NE(a.src, b.src);
}

TEST(Datasets, GeneratedGraphsMatchPinnedDigests)
{
    // The graphs of the host_perf workloads at seed 7: every dataset
    // at sim scale (paper-grid), Reddit and LiveJournal at functional
    // scale (hw-profile) and the web-sampled R-MAT spec. fillFeatures
    // draws after the generator, so the feature bytes also pin the
    // Rng state the generator leaves.
    struct Pin {
        DatasetId id;
        bool sim;
        uint64_t digest;
    };
    const Pin pins[] = {
        {DatasetId::Cora, true, 0xe71788080d85c7c8ULL},
        {DatasetId::CiteSeer, true, 0xd1cc6cb3c481e165ULL},
        {DatasetId::PubMed, true, 0x2dfbd1471023b7dfULL},
        {DatasetId::Reddit, true, 0x8d0695290893abc0ULL},
        {DatasetId::LiveJournal, true, 0x385cdd79ef767b70ULL},
        {DatasetId::Reddit, false, 0x386277d4def75f1fULL},
        {DatasetId::LiveJournal, false, 0x132e84408ba7dce9ULL},
    };
    for (const Pin &pin : pins) {
        const DatasetScale scale = pin.sim
                                       ? defaultSimScale(pin.id)
                                       : defaultFunctionalScale(pin.id);
        const uint64_t digest = graphDigest(loadDataset(pin.id, scale, 7));
        EXPECT_EQ(digest, pin.digest)
            << datasetInfo(pin.id).name << " " << scale.describe()
            << ": 0x" << std::hex << digest;
    }
    const uint64_t web = graphDigest(loadRmatDataset(
        parseRmatSpec("rmat:scale=16,ef=8,seed=7"), DatasetScale::full()));
    EXPECT_EQ(web, 0x751a44e9ed1cd856ULL) << "web-sampled: 0x" << std::hex << web;
}

TEST(Datasets, ScaleDescribe)
{
    EXPECT_EQ(DatasetScale::full().describe(), "full");
    EXPECT_EQ((DatasetScale{16, 64, 64}).describe(),
              "V/16 E/64 f<=64");
    EXPECT_EQ((DatasetScale{8, 16, 0}).describe(), "V/8 E/16");
}

TEST(Datasets, DefaultScalesKeepSmallGraphsFull)
{
    EXPECT_TRUE(defaultSimScale(DatasetId::Cora).isFull());
    EXPECT_TRUE(defaultSimScale(DatasetId::CiteSeer).isFull());
    EXPECT_FALSE(defaultSimScale(DatasetId::Reddit).isFull());
    EXPECT_TRUE(
        defaultFunctionalScale(DatasetId::PubMed).isFull());
    EXPECT_FALSE(
        defaultFunctionalScale(DatasetId::LiveJournal).isFull());
}

TEST(RmatSpec, ParseCanonicalRoundTrip)
{
    EXPECT_TRUE(isRmatDataset("rmat:scale=10,ef=4"));
    EXPECT_FALSE(isRmatDataset("cora"));
    EXPECT_FALSE(isRmatDataset("file:edges.txt"));

    const RmatSpec spec =
        parseRmatSpec("rmat:ef=4,scale=10,seed=9");
    EXPECT_EQ(spec.scale, 10);
    EXPECT_EQ(spec.edgeFactor, 4);
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_EQ(spec.featureLen, 16); // default
    EXPECT_EQ(spec.nodes(), 1024);
    EXPECT_EQ(spec.edges(), 4096);

    // canonical() always spells out every key in a fixed order, and
    // re-parsing it is the identity.
    EXPECT_EQ(spec.canonical(), "rmat:scale=10,ef=4,seed=9,flen=16");
    const RmatSpec again = parseRmatSpec(spec.canonical());
    EXPECT_EQ(again.canonical(), spec.canonical());
}

TEST(RmatSpec, GenerationIsAPureFunctionOfTheSpec)
{
    const RmatSpec spec = parseRmatSpec("rmat:scale=9,ef=6,seed=5");
    const Graph a = loadRmatDataset(spec, DatasetScale::full());
    const Graph b = loadRmatDataset(spec, DatasetScale::full());
    EXPECT_EQ(a.numNodes(), 512);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(DenseMatrix::maxAbsDiff(a.features, b.features), 0.0);
    EXPECT_EQ(a.name, spec.canonical());

    RmatSpec reseeded = spec;
    reseeded.seed = 6;
    const Graph c = loadRmatDataset(reseeded, DatasetScale::full());
    EXPECT_NE(a.src, c.src);

    // Scale divisors apply on top of the spec'd size.
    const Graph d = loadRmatDataset(spec, DatasetScale{2, 4, 8});
    EXPECT_EQ(d.numNodes(), 256);
    EXPECT_EQ(d.features.cols(), 8);
}

TEST(RmatSpec, SplitDatasetListKeepsSpecCommasAttached)
{
    const std::vector<std::string> parts = splitDatasetList(
        "cora,rmat:scale=10,ef=4,seed=2,pubmed,file:edges.txt");
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "cora");
    EXPECT_EQ(parts[1], "rmat:scale=10,ef=4,seed=2");
    EXPECT_EQ(parts[2], "pubmed");
    EXPECT_EQ(parts[3], "file:edges.txt");
}

TEST(EdgeListIo, RoundTrip)
{
    Graph g = triangleGraph();
    g.name = "tri";
    const std::string path = "/tmp/gsuite_test_edges.txt";
    saveEdgeList(g, path);
    const Graph back = loadEdgeList(path, 2);
    EXPECT_EQ(back.numNodes(), 3);
    EXPECT_EQ(back.numEdges(), 4);
    EXPECT_EQ(back.featureLen(), 2);
    EXPECT_EQ(back.src, g.src);
    EXPECT_EQ(back.dst, g.dst);
    std::remove(path.c_str());
}

TEST(EdgeListIo, BareFileInfersNodeCount)
{
    const std::string path = "/tmp/gsuite_test_bare.txt";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        std::fputs("0 5\n3 2\n", f);
        std::fclose(f);
    }
    const Graph g = loadEdgeList(path, 4);
    EXPECT_EQ(g.numNodes(), 6);
    EXPECT_EQ(g.numEdges(), 2);
    std::remove(path.c_str());
}

TEST(EdgeListIo, SnapFormatLoads)
{
    // Real SNAP dumps: '#' prose comments and tab-separated ids.
    const std::string path = "/tmp/gsuite_test_snap.txt";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        std::fputs("# Directed graph (each unordered pair once)\n"
                   "# FromNodeId\tToNodeId\n"
                   "0\t1\n"
                   "0\t2\n"
                   "2\t1\n",
                   f);
        std::fclose(f);
    }
    const Graph g = loadEdgeList(path, 8);
    EXPECT_EQ(g.numNodes(), 3);
    EXPECT_EQ(g.numEdges(), 3);
    EXPECT_EQ(g.featureLen(), 8);
    g.checkInvariants();
    std::remove(path.c_str());
}

TEST(EdgeListIo, RoundTripPreservesFeatureLenViaHeader)
{
    // saveEdgeList records flen; loadEdgeList honours it over the
    // caller's default (unless it is 0: featureless graphs reload
    // at the default width so pipelines stay runnable).
    Graph g = triangleGraph();
    const std::string path = "/tmp/gsuite_test_flen.txt";
    saveEdgeList(g, path);
    EXPECT_EQ(loadEdgeList(path, 64).featureLen(), 2);
    Graph bare(3, 0);
    bare.addEdge(0, 1);
    saveEdgeList(bare, path);
    EXPECT_EQ(loadEdgeList(path, 64).featureLen(), 64);
    std::remove(path.c_str());
}

/** Parameterized: every dataset generates at its sim scale and keeps
 *  the heavy-tail property. */
class DatasetSweep : public ::testing::TestWithParam<DatasetId>
{
};

TEST_P(DatasetSweep, GeneratesAtSimScale)
{
    const DatasetId id = GetParam();
    const Graph g = loadDataset(id, defaultSimScale(id), 7);
    g.checkInvariants();
    EXPECT_GT(g.numNodes(), 0);
    EXPECT_GT(g.numEdges(), 0);
    EXPECT_GT(g.featureLen(), 0);
    // Degree skew: max in-degree well above the mean.
    const auto deg = g.inDegrees();
    const int64_t max_deg =
        *std::max_element(deg.begin(), deg.end());
    const double mean =
        static_cast<double>(g.numEdges()) / g.numNodes();
    EXPECT_GT(max_deg, 4 * mean);
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, DatasetSweep,
    ::testing::Values(DatasetId::Cora, DatasetId::CiteSeer,
                      DatasetId::PubMed, DatasetId::Reddit,
                      DatasetId::LiveJournal));
