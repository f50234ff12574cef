/**
 * @file
 * Framework adapters: run a GNN pipeline the way PyG, DGL or gSuite
 * itself would — the paper's Fig. 1 framework selection.
 *
 * PyG's GNN models all inherit from MessagePassing, so the PyG path
 * always uses the MP computational model. DGL lowers aggregation to
 * SpMM, so the DGL path always uses SpMM (including SAGEConv, whose
 * mean-reduce is an SpMM with the row-normalized adjacency). The
 * gSuite path honours the user's requested computational model.
 */

#ifndef GSUITE_FRAMEWORKS_FRAMEWORKADAPTER_HPP
#define GSUITE_FRAMEWORKS_FRAMEWORKADAPTER_HPP

#include <string>
#include <vector>

#include "engine/ExecutionEngine.hpp"
#include "frameworks/Overheads.hpp"
#include "graph/Graph.hpp"
#include "models/GnnModel.hpp"

namespace gsuite {

/** Parse "gsuite"/"pyg"/"dgl"; fatal() on unknown names. */
Framework frameworkFromName(const std::string &name);

/** Canonical display name ("gSuite-MP" style labels are built by
 *  benches; this returns "gsuite"/"pyg"/"dgl"). */
const char *frameworkName(Framework fw);

/** Result of one framework-wrapped inference run. */
struct FrameworkRunResult {
    double endToEndUs = 0.0; ///< init + dispatch + inflated kernels
    double kernelUs = 0.0;   ///< raw (uninflated) kernel time
    std::vector<KernelRecord> timeline;
    /**
     * Dependency/overlap summary of the executed op-graph (its
     * dependency depth, modeled lanes and planned/naive memory
     * peaks, and for sim engines the deterministic serial /
     * critical-path / lane-makespan cycle model). For batched runs
     * the graph is the merge over all replicas.
     */
    GraphRunReport graph;
};

/** Runs pipelines under a framework's overhead model. */
class FrameworkAdapter
{
  public:
    explicit FrameworkAdapter(Framework fw);

    /**
     * The computational model this framework would use for @p kind,
     * given the user asked for @p requested (only honoured by the
     * gSuite path).
     */
    CompModel resolveCompModel(GnnModelKind kind,
                               CompModel requested) const;

    /**
     * Build and run the pipeline on @p engine (whose timeline is
     * cleared first), returning framework-adjusted timings.
     *
     * @param batch Independent inference requests composed into one
     *        op-graph via OpGraph::merge (>= 1). Each replica is a
     *        full pipeline instance whose roots issue concurrently;
     *        the timeline holds the replicas' kernels back to back
     *        in graph order, each replica's statistics bit-identical
     *        to an unbatched run.
     */
    FrameworkRunResult run(const Graph &graph, ModelConfig cfg,
                           ExecutionEngine &engine,
                           int batch = 1) const;

    Framework framework() const { return fw; }
    const FrameworkOverheads &overheads() const { return ov; }

  private:
    Framework fw;
    FrameworkOverheads ov;
};

} // namespace gsuite

#endif // GSUITE_FRAMEWORKS_FRAMEWORKADAPTER_HPP
