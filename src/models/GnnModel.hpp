/**
 * @file
 * GNN inference pipelines: GCN, GIN, GraphSAGE and GAT in the MP
 * and SpMM computational models, composed from the Table II core
 * kernels exactly as Fig. 2 lays out.
 *
 * Construction performs the paper's preprocessing (self-loop
 * insertion, degree normalization, CSR assembly, weight init) and
 * builds the model's op-graph IR (src/ir/OpGraph): each kernel is a
 * dataflow node whose dependencies are derived from the buffers it
 * reads and writes, so independent branches (per-layer weight
 * transforms, GAT's attention halves, SAGE's self/neighbor GEMMs)
 * stay visible as parallel structure. run() hands the graph to an
 * ExecutionEngine, which schedules it in deterministic graph order.
 */

#ifndef GSUITE_MODELS_GNNMODEL_HPP
#define GSUITE_MODELS_GNNMODEL_HPP

#include <memory>
#include <string>
#include <vector>

#include "engine/ExecutionEngine.hpp"
#include "graph/Graph.hpp"
#include "ir/OpGraph.hpp"
#include "kernels/Kernel.hpp"
#include "sparse/Csr.hpp"
#include "tensor/DenseMatrix.hpp"

namespace gsuite {

/**
 * The models the suite ships: the paper's three — GCN, GIN and
 * GraphSAGE (Section II-C) — plus GAT (parsed as "gat"), added
 * through the extendability path (Table III lists GAT among the
 * framework model zoos; its edge-softmax attention exercises a
 * kernel composition none of the other models need).
 */
enum class GnnModelKind {
    Gcn,
    Gin,
    Sage,
    Gat,
};

/** The two computational models (Section II-A). */
enum class CompModel {
    Mp,
    Spmm,
};

/**
 * Parse "gcn"/"gin"/"gat"/"sage" (also "sag" and "graphsage");
 * fatal() on unknown names.
 */
GnnModelKind gnnModelFromName(const std::string &name);

/** Parse "mp"/"spmm"; fatal() on unknown names. */
CompModel compModelFromName(const std::string &name);

/** Canonical lowercase name. */
const char *gnnModelName(GnnModelKind m);

/** Canonical lowercase name. */
const char *compModelName(CompModel c);

/** Pipeline hyperparameters. */
struct ModelConfig {
    GnnModelKind model = GnnModelKind::Gcn;
    CompModel comp = CompModel::Mp;
    int layers = 2;      ///< L, the GNN depth
    int hidden = 16;     ///< hidden embedding width
    int outDim = 8;      ///< final embedding width
    float ginEps = 0.1f; ///< GIN's epsilon
    float gatSlope = 0.2f; ///< GAT's LeakyReLU negative slope
    uint64_t seed = 42;  ///< weight-init seed
    /**
     * Allow the SpMM formulation of GraphSAGE. The paper found no
     * SpMM SAG implementation, so gSuite proper rejects it; the DGL
     * emulator enables it because DGL's SAGEConv lowers the mean
     * aggregation to an SpMM.
     */
    bool allowSpmmSage = false;
};

/** A fully-built, runnable GNN inference pipeline. */
class GnnPipeline
{
  public:
    /**
     * Build the pipeline for @p graph. The graph must outlive the
     * pipeline. fatal() on unsupported (model, comp) combinations.
     */
    GnnPipeline(const Graph &graph, const ModelConfig &cfg);

    /**
     * Execute the pipeline's op-graph on @p engine (deterministic
     * graph-order scheduling; see ExecutionEngine::run(OpGraph&)).
     */
    void run(ExecutionEngine &engine);

    /**
     * The pipeline as a dataflow graph. Valid for the pipeline's
     * lifetime; feed it to ExecutionEngine::run or compose batches
     * with OpGraph::merge (the pipeline must outlive the merge).
     */
    const OpGraph &opGraph() const { return ops; }

    /** Final node embeddings [n x outDim]; valid after run(). */
    const DenseMatrix &output() const { return *outBuf; }

    /** Number of kernels in the pipeline. */
    size_t numKernels() const { return ops.numNodes(); }

    /** Kernel names in execution order (for tests/reports). */
    std::vector<std::string> kernelNames() const;

    /** Per-layer weight matrices (for the reference validator). */
    const std::vector<const DenseMatrix *> &weights() const
    {
        return weightPtrs;
    }

    const ModelConfig &config() const { return cfg; }

  private:
    const Graph &graph;
    ModelConfig cfg;

    // Stable storage for everything the kernels reference.
    std::vector<std::unique_ptr<DenseMatrix>> mats;
    std::vector<std::unique_ptr<CsrMatrix>> csrs;
    std::vector<std::unique_ptr<std::vector<int64_t>>> idxVecs;
    std::vector<std::unique_ptr<std::vector<float>>> fVecs;
    std::vector<std::unique_ptr<Kernel>> kernels;
    OpGraph ops; ///< dataflow over `kernels`, built by add()
    std::vector<const DenseMatrix *> weightPtrs;
    DenseMatrix *outBuf = nullptr;

    /**
     * An [r x c] buffer left unwritten: each caller sizes it for a
     * writer that overwrites every element (a scatter's output, or
     * newWeight's Glorot fill); the other kernels resize their own.
     */
    DenseMatrix *newMat(int64_t r = 0, int64_t c = 0);
    CsrMatrix *newCsr();
    std::vector<int64_t> *newIdx(std::vector<int64_t> idx);
    std::vector<float> *newVec();
    DenseMatrix *newWeight(int64_t in, int64_t out, Rng &rng);

    /** Take ownership of @p k and append it as an op-graph node. */
    void add(std::unique_ptr<Kernel> k);

    /** Width of layer k's input. */
    int64_t layerInDim(int k) const;
    /** Width of layer k's output. */
    int64_t layerOutDim(int k) const;

    void buildGcnMp();
    void buildGcnSpmm();
    void buildGinMp();
    void buildGinSpmm();
    void buildSageMp();
    void buildSageSpmm();
    void buildGatMp();
};

} // namespace gsuite

#endif // GSUITE_MODELS_GNNMODEL_HPP
