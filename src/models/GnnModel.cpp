#include "models/GnnModel.hpp"

#include <cmath>

#include "graph/Transforms.hpp"
#include "kernels/Elementwise.hpp"
#include "kernels/IndexSelect.hpp"
#include "kernels/Scatter.hpp"
#include "kernels/Sgemm.hpp"
#include "kernels/Spgemm.hpp"
#include "kernels/Spmm.hpp"
#include "util/Logging.hpp"
#include "util/Random.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

GnnModelKind
gnnModelFromName(const std::string &name)
{
    const std::string n = toLower(trim(name));
    if (n == "gcn")
        return GnnModelKind::Gcn;
    if (n == "gin")
        return GnnModelKind::Gin;
    if (n == "sage" || n == "sag" || n == "graphsage")
        return GnnModelKind::Sage;
    if (n == "gat")
        return GnnModelKind::Gat;
    fatal("unknown GNN model '%s' (known: gcn, gin, sage, gat)",
          name.c_str());
}

CompModel
compModelFromName(const std::string &name)
{
    const std::string n = toLower(trim(name));
    if (n == "mp" || n == "messagepassing")
        return CompModel::Mp;
    if (n == "spmm")
        return CompModel::Spmm;
    fatal("unknown computational model '%s' (known: mp, spmm)",
          name.c_str());
}

const char *
gnnModelName(GnnModelKind m)
{
    switch (m) {
      case GnnModelKind::Gcn: return "gcn";
      case GnnModelKind::Gin: return "gin";
      case GnnModelKind::Sage: return "sage";
      case GnnModelKind::Gat: return "gat";
    }
    panic("unknown GnnModelKind");
}

const char *
compModelName(CompModel c)
{
    return c == CompModel::Mp ? "mp" : "spmm";
}

GnnPipeline::GnnPipeline(const Graph &graph, const ModelConfig &cfg)
    : graph(graph), cfg(cfg)
{
    if (cfg.layers < 1)
        fatal("a GNN pipeline needs at least one layer");
    if (cfg.hidden < 1 || cfg.outDim < 1)
        fatal("hidden/out dimensions must be positive");

    switch (cfg.model) {
      case GnnModelKind::Gcn:
        cfg.comp == CompModel::Mp ? buildGcnMp() : buildGcnSpmm();
        break;
      case GnnModelKind::Gin:
        cfg.comp == CompModel::Mp ? buildGinMp() : buildGinSpmm();
        break;
      case GnnModelKind::Sage:
        if (cfg.comp == CompModel::Spmm && !cfg.allowSpmmSage) {
            fatal("GraphSAGE has no SpMM implementation in gSuite "
                  "(Section II-C); use the MP computational model");
        }
        cfg.comp == CompModel::Mp ? buildSageMp() : buildSageSpmm();
        break;
      case GnnModelKind::Gat:
        if (cfg.comp == CompModel::Spmm) {
            fatal("GAT's edge-softmax attention has no SpMM "
                  "formulation; use the MP computational model");
        }
        buildGatMp();
        break;
    }
    panicIf(outBuf == nullptr, "pipeline built without an output");
}

void
GnnPipeline::run(ExecutionEngine &engine)
{
    // Graph-order scheduling; run(OpGraph&) sync()s before
    // returning, because deferred simulations reference the
    // pipeline's operand buffers and must finish while it is alive.
    engine.run(ops);
}

std::vector<std::string>
GnnPipeline::kernelNames() const
{
    return ops.kernelNames();
}

void
GnnPipeline::add(std::unique_ptr<Kernel> k)
{
    kernels.push_back(std::move(k));
    ops.addNode(*kernels.back());
}

DenseMatrix *
GnnPipeline::newMat(int64_t r, int64_t c)
{
    mats.push_back(std::make_unique<DenseMatrix>());
    mats.back()->resizeForOverwrite(r, c);
    return mats.back().get();
}

CsrMatrix *
GnnPipeline::newCsr()
{
    csrs.push_back(std::make_unique<CsrMatrix>());
    return csrs.back().get();
}

std::vector<int64_t> *
GnnPipeline::newIdx(std::vector<int64_t> idx)
{
    idxVecs.push_back(
        std::make_unique<std::vector<int64_t>>(std::move(idx)));
    return idxVecs.back().get();
}

std::vector<float> *
GnnPipeline::newVec()
{
    fVecs.push_back(std::make_unique<std::vector<float>>());
    return fVecs.back().get();
}

DenseMatrix *
GnnPipeline::newWeight(int64_t in, int64_t out, Rng &rng)
{
    DenseMatrix *w = newMat(in, out);
    w->fillGlorot(rng);
    weightPtrs.push_back(w);
    return w;
}

int64_t
GnnPipeline::layerInDim(int k) const
{
    return k == 0 ? graph.featureLen() : cfg.hidden;
}

int64_t
GnnPipeline::layerOutDim(int k) const
{
    return k == cfg.layers - 1 ? cfg.outDim : cfg.hidden;
}

namespace {

/**
 * One endpoint array of an edge index extended with a self loop per
 * node: @p ends followed by 0..n-1, allocated once.
 */
std::vector<int64_t>
withSelfLoops(const std::vector<int64_t> &ends, int64_t n)
{
    std::vector<int64_t> out;
    out.reserve(ends.size() + static_cast<size_t>(n));
    out.assign(ends.begin(), ends.end());
    for (int64_t v = 0; v < n; ++v)
        out.push_back(v);
    return out;
}

/** Layer-suffixed kernel label, e.g. "indexSelect_l1". */
std::string
lbl(const char *base, int layer)
{
    return std::string(base) + "_l" + std::to_string(layer);
}

} // namespace

void
GnnPipeline::buildGcnMp()
{
    Rng rng(cfg.seed);
    const int64_t n = graph.numNodes();

    // Self-loop-extended edge index (Fig. 2's edgeIndex) and the
    // fused normalization weights 1/sqrt(d_u d_v) of Eq. (1).
    auto *src = newIdx(withSelfLoops(graph.src, n));
    auto *dst = newIdx(withSelfLoops(graph.dst, n));
    auto *norm = newVec();
    const std::vector<float> inv = invSqrtDegrees(graph);
    norm->reserve(src->size());
    for (size_t i = 0; i < src->size(); ++i) {
        norm->push_back(inv[static_cast<size_t>((*src)[i])] *
                        inv[static_cast<size_t>((*dst)[i])]);
    }

    const DenseMatrix *x = &graph.features;
    for (int k = 0; k < cfg.layers; ++k) {
        const int64_t out_dim = layerOutDim(k);
        DenseMatrix *w = newWeight(layerInDim(k), out_dim, rng);

        // sgemm: linear transform first (Fig. 2 order).
        DenseMatrix *lin = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm", k), *x, *w, *lin));

        // indexSelect: gather the transformed features along edges.
        DenseMatrix *msg = newMat();
        add(std::make_unique<IndexSelectKernel>(
            lbl("indexSelect", k), *lin, *src, *msg));

        // scatter: normalized sum into destination nodes.
        DenseMatrix *agg = newMat(n, out_dim);
        add(std::make_unique<ScatterKernel>(
            lbl("scatter", k), *msg, *dst, *agg,
            ScatterKernel::Reduce::Sum, norm));

        if (k != cfg.layers - 1) {
            DenseMatrix *act = newMat();
            add(std::make_unique<ElementwiseKernel>(
                lbl("relu", k), ElementwiseKernel::EwOp::Relu, *agg,
                *act));
            x = act;
        } else {
            x = agg;
        }
    }
    outBuf = const_cast<DenseMatrix *>(x);
}

void
GnnPipeline::buildGcnSpmm()
{
    Rng rng(cfg.seed);

    // Fig. 2 right side: D^-1/2 * A-hat * D^-1/2 via two SpGEMMs.
    auto *a_hat = newCsr();
    *a_hat = adjacencyWithSelfLoops(graph);
    auto *d_half = newCsr();
    *d_half = CsrMatrix::diagonal(invSqrtDegrees(graph));

    auto *t1 = newCsr();
    add(std::make_unique<SpgemmKernel>(
        "spgemm_dA", *d_half, *a_hat, *t1));
    auto *a_norm = newCsr();
    add(std::make_unique<SpgemmKernel>(
        "spgemm_AD", *t1, *d_half, *a_norm));

    const DenseMatrix *x = &graph.features;
    for (int k = 0; k < cfg.layers; ++k) {
        DenseMatrix *w = newWeight(layerInDim(k), layerOutDim(k), rng);

        // SpMM: aggregate, then sgemm: transform.
        DenseMatrix *ax = newMat();
        add(std::make_unique<SpmmKernel>(
            lbl("spmm", k), *a_norm, *x, *ax));
        DenseMatrix *lin = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm", k), *ax, *w, *lin));

        if (k != cfg.layers - 1) {
            DenseMatrix *act = newMat();
            add(std::make_unique<ElementwiseKernel>(
                lbl("relu", k), ElementwiseKernel::EwOp::Relu, *lin,
                *act));
            x = act;
        } else {
            x = lin;
        }
    }
    outBuf = const_cast<DenseMatrix *>(x);
}

void
GnnPipeline::buildGinMp()
{
    Rng rng(cfg.seed);
    const int64_t n = graph.numNodes();

    const DenseMatrix *x = &graph.features;
    for (int k = 0; k < cfg.layers; ++k) {
        const int64_t in_dim = layerInDim(k);
        const int64_t out_dim = layerOutDim(k);

        // Neighbour sum over the raw edges (Eq. (3) has no
        // self-loops; the self term is the (1+eps) addition).
        DenseMatrix *msg = newMat();
        add(std::make_unique<IndexSelectKernel>(
            lbl("indexSelect", k), *x, graph.src, *msg));
        DenseMatrix *agg = newMat(n, in_dim);
        add(std::make_unique<ScatterKernel>(
            lbl("scatter", k), *msg, graph.dst, *agg,
            ScatterKernel::Reduce::Sum));

        // comb = (1 + eps) * x + agg.
        DenseMatrix *comb = newMat();
        add(std::make_unique<ElementwiseKernel>(
            lbl("ginAdd", k), *x, *agg, 1.0f + cfg.ginEps, 1.0f,
            *comb));

        // Theta: two-layer MLP.
        DenseMatrix *w1 = newWeight(in_dim, out_dim, rng);
        DenseMatrix *h1 = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm_mlp1", k), *comb, *w1, *h1));
        DenseMatrix *act1 = newMat();
        add(std::make_unique<ElementwiseKernel>(
            lbl("relu_mlp", k), ElementwiseKernel::EwOp::Relu, *h1,
            *act1));
        DenseMatrix *w2 = newWeight(out_dim, out_dim, rng);
        DenseMatrix *h2 = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm_mlp2", k), *act1, *w2, *h2));

        if (k != cfg.layers - 1) {
            DenseMatrix *act = newMat();
            add(std::make_unique<ElementwiseKernel>(
                lbl("relu", k), ElementwiseKernel::EwOp::Relu, *h2,
                *act));
            x = act;
        } else {
            x = h2;
        }
    }
    outBuf = const_cast<DenseMatrix *>(x);
}

void
GnnPipeline::buildGinSpmm()
{
    Rng rng(cfg.seed);

    // Eq. (4): (A + (1 + eps) I) X, with the operand built once.
    auto *a_gin = newCsr();
    *a_gin = ginAdjacency(graph, cfg.ginEps);

    const DenseMatrix *x = &graph.features;
    for (int k = 0; k < cfg.layers; ++k) {
        const int64_t in_dim = layerInDim(k);
        const int64_t out_dim = layerOutDim(k);

        DenseMatrix *ax = newMat();
        add(std::make_unique<SpmmKernel>(
            lbl("spmm", k), *a_gin, *x, *ax));

        DenseMatrix *w1 = newWeight(in_dim, out_dim, rng);
        DenseMatrix *h1 = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm_mlp1", k), *ax, *w1, *h1));
        DenseMatrix *act1 = newMat();
        add(std::make_unique<ElementwiseKernel>(
            lbl("relu_mlp", k), ElementwiseKernel::EwOp::Relu, *h1,
            *act1));
        DenseMatrix *w2 = newWeight(out_dim, out_dim, rng);
        DenseMatrix *h2 = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm_mlp2", k), *act1, *w2, *h2));

        if (k != cfg.layers - 1) {
            DenseMatrix *act = newMat();
            add(std::make_unique<ElementwiseKernel>(
                lbl("relu", k), ElementwiseKernel::EwOp::Relu, *h2,
                *act));
            x = act;
        } else {
            x = h2;
        }
    }
    outBuf = const_cast<DenseMatrix *>(x);
}

void
GnnPipeline::buildSageMp()
{
    Rng rng(cfg.seed);
    const int64_t n = graph.numNodes();

    // Mean over N(v) and v itself: aggregate over the self-loop-
    // extended edge index, then divide by d-hat_v.
    auto *src = newIdx(withSelfLoops(graph.src, n));
    auto *dst = newIdx(withSelfLoops(graph.dst, n));
    auto *inv_deg = newVec();
    const std::vector<int64_t> deg = graph.selfLoopDegrees();
    inv_deg->reserve(deg.size());
    for (int64_t d : deg)
        inv_deg->push_back(1.0f / static_cast<float>(d));

    const DenseMatrix *x = &graph.features;
    for (int k = 0; k < cfg.layers; ++k) {
        const int64_t in_dim = layerInDim(k);
        const int64_t out_dim = layerOutDim(k);

        DenseMatrix *msg = newMat();
        add(std::make_unique<IndexSelectKernel>(
            lbl("indexSelect", k), *x, *src, *msg));
        DenseMatrix *sum = newMat(n, in_dim);
        add(std::make_unique<ScatterKernel>(
            lbl("scatter", k), *msg, *dst, *sum,
            ScatterKernel::Reduce::Sum));
        DenseMatrix *mean = newMat();
        add(std::make_unique<ElementwiseKernel>(
            lbl("meanDiv", k), *sum, *inv_deg, *mean));

        // W1 * h_v + W2 * mean (Eq. (5)).
        DenseMatrix *w1 = newWeight(in_dim, out_dim, rng);
        DenseMatrix *self_lin = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm_self", k), *x, *w1, *self_lin));
        DenseMatrix *w2 = newWeight(in_dim, out_dim, rng);
        DenseMatrix *neigh_lin = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm_neigh", k), *mean, *w2, *neigh_lin));
        DenseMatrix *combined = newMat();
        add(std::make_unique<ElementwiseKernel>(
            lbl("sageAdd", k), *self_lin, *neigh_lin, 1.0f, 1.0f,
            *combined));

        if (k != cfg.layers - 1) {
            DenseMatrix *act = newMat();
            add(std::make_unique<ElementwiseKernel>(
                lbl("relu", k), ElementwiseKernel::EwOp::Relu,
                *combined, *act));
            x = act;
        } else {
            x = combined;
        }
    }
    outBuf = const_cast<DenseMatrix *>(x);
}

void
GnnPipeline::buildGatMp()
{
    Rng rng(cfg.seed);
    const int64_t n = graph.numNodes();

    // GAT attends over N(v) and v itself: extend the edge index with
    // self loops, as PyG's GATConv does by default.
    auto *src = newIdx(withSelfLoops(graph.src, n));
    auto *dst = newIdx(withSelfLoops(graph.dst, n));

    const DenseMatrix *x = &graph.features;
    for (int k = 0; k < cfg.layers; ++k) {
        const int64_t out_dim = layerOutDim(k);
        DenseMatrix *w = newWeight(layerInDim(k), out_dim, rng);
        DenseMatrix *a_src = newWeight(out_dim, 1, rng);
        DenseMatrix *a_dst = newWeight(out_dim, 1, rng);

        // z = X W, and the per-node attention halves z.a1, z.a2.
        DenseMatrix *z = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm", k), *x, *w, *z));
        DenseMatrix *s_src = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm_attsrc", k), *z, *a_src, *s_src));
        DenseMatrix *s_dst = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm_attdst", k), *z, *a_dst, *s_dst));

        // Per-edge raw score: LeakyReLU(s_src[u] + s_dst[v]).
        DenseMatrix *g_src = newMat();
        add(std::make_unique<IndexSelectKernel>(
            lbl("indexSelect_src", k), *s_src, *src, *g_src));
        DenseMatrix *g_dst = newMat();
        add(std::make_unique<IndexSelectKernel>(
            lbl("indexSelect_dst", k), *s_dst, *dst, *g_dst));
        DenseMatrix *raw = newMat();
        add(std::make_unique<ElementwiseKernel>(
            lbl("attAdd", k), *g_src, *g_dst, 1.0f, 1.0f, *raw));
        DenseMatrix *score = newMat();
        add(std::make_unique<ElementwiseKernel>(
            lbl("leakyRelu", k), ElementwiseKernel::EwOp::LeakyRelu,
            *raw, *score, cfg.gatSlope));

        // Edge softmax over each destination's incoming edges. The
        // max shift uses scatter-max from a zero floor; softmax is
        // invariant to the per-destination shift, so clamping the
        // shift at zero only aids numerics.
        DenseMatrix *m = newMat(n, 1);
        add(std::make_unique<ScatterKernel>(
            lbl("scatter_max", k), *score, *dst, *m,
            ScatterKernel::Reduce::Max));
        DenseMatrix *m_g = newMat();
        add(std::make_unique<IndexSelectKernel>(
            lbl("indexSelect_max", k), *m, *dst, *m_g));
        DenseMatrix *shifted = newMat();
        add(std::make_unique<ElementwiseKernel>(
            lbl("attSub", k), ElementwiseKernel::EwOp::Sub, *score,
            *m_g, *shifted));
        DenseMatrix *expsc = newMat();
        add(std::make_unique<ElementwiseKernel>(
            lbl("attExp", k), ElementwiseKernel::EwOp::Exp, *shifted,
            *expsc));
        DenseMatrix *denom = newMat(n, 1);
        add(std::make_unique<ScatterKernel>(
            lbl("scatter_denom", k), *expsc, *dst, *denom,
            ScatterKernel::Reduce::Sum));
        DenseMatrix *denom_g = newMat();
        add(std::make_unique<IndexSelectKernel>(
            lbl("indexSelect_denom", k), *denom, *dst, *denom_g));
        DenseMatrix *rden = newMat();
        add(std::make_unique<ElementwiseKernel>(
            lbl("attRecip", k), ElementwiseKernel::EwOp::Recip,
            *denom_g, *rden));
        DenseMatrix *alpha = newMat();
        add(std::make_unique<ElementwiseKernel>(
            lbl("attMul", k), ElementwiseKernel::EwOp::Mul, *expsc,
            *rden, *alpha));

        // Attention-weighted aggregation of the transformed rows.
        DenseMatrix *msg = newMat();
        add(std::make_unique<IndexSelectKernel>(
            lbl("indexSelect", k), *z, *src, *msg));
        DenseMatrix *agg = newMat(n, out_dim);
        add(std::make_unique<ScatterKernel>(
            lbl("scatter", k), *msg, *dst, *agg,
            ScatterKernel::Reduce::Sum, *alpha));

        if (k != cfg.layers - 1) {
            DenseMatrix *act = newMat();
            add(std::make_unique<ElementwiseKernel>(
                lbl("relu", k), ElementwiseKernel::EwOp::Relu, *agg,
                *act));
            x = act;
        } else {
            x = agg;
        }
    }
    outBuf = const_cast<DenseMatrix *>(x);
}

void
GnnPipeline::buildSageSpmm()
{
    Rng rng(cfg.seed);

    // DGL-style lowering: the mean aggregation is an SpMM with the
    // row-normalized self-loop adjacency.
    auto *a_mean = newCsr();
    *a_mean = sageMeanAdjacency(graph);

    const DenseMatrix *x = &graph.features;
    for (int k = 0; k < cfg.layers; ++k) {
        const int64_t in_dim = layerInDim(k);
        const int64_t out_dim = layerOutDim(k);

        DenseMatrix *mean = newMat();
        add(std::make_unique<SpmmKernel>(
            lbl("spmm", k), *a_mean, *x, *mean));

        DenseMatrix *w1 = newWeight(in_dim, out_dim, rng);
        DenseMatrix *self_lin = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm_self", k), *x, *w1, *self_lin));
        DenseMatrix *w2 = newWeight(in_dim, out_dim, rng);
        DenseMatrix *neigh_lin = newMat();
        add(std::make_unique<SgemmKernel>(
            lbl("sgemm_neigh", k), *mean, *w2, *neigh_lin));
        DenseMatrix *combined = newMat();
        add(std::make_unique<ElementwiseKernel>(
            lbl("sageAdd", k), *self_lin, *neigh_lin, 1.0f, 1.0f,
            *combined));

        if (k != cfg.layers - 1) {
            DenseMatrix *act = newMat();
            add(std::make_unique<ElementwiseKernel>(
                lbl("relu", k), ElementwiseKernel::EwOp::Relu,
                *combined, *act));
            x = act;
        } else {
            x = combined;
        }
    }
    outBuf = const_cast<DenseMatrix *>(x);
}

} // namespace gsuite
