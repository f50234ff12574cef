/**
 * @file
 * The op-graph IR: a GNN pipeline as an explicit dataflow graph.
 *
 * The paper's core claim is that GNN inference decomposes into a
 * small set of reusable kernels composed per model (Fig. 2 /
 * Table II). OpGraph makes that composition explicit: each OpNode
 * wraps one Kernel and declares the buffers it reads and writes
 * (Kernel::io()); the graph derives true/anti/output dependencies
 * from those declarations, so independent branches (per-head
 * attention, SAGE's self/neighbor transforms, per-layer weight
 * GEMMs) are visible as genuinely parallel structure instead of an
 * arbitrary serialization.
 *
 * Scheduling contract (see src/ir/README.md): nodes are appended in
 * a producer-before-consumer order, so insertion order IS the
 * deterministic topological schedule. Engines execute functional
 * semantics and build launches in that order (device-address
 * assignment must stay deterministic); only the timing simulations
 * — which are independent per launch — overlap across lanes.
 */

#ifndef GSUITE_IR_OPGRAPH_HPP
#define GSUITE_IR_OPGRAPH_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/Kernel.hpp"

namespace gsuite {

/** Dense index of a logical buffer within one OpGraph. */
using BufferId = int32_t;
constexpr BufferId kNoBuffer = -1;
constexpr size_t kNoNode = static_cast<size_t>(-1);

/**
 * One logical buffer: a host container (DenseMatrix, CsrMatrix,
 * std::vector) interned by address. A buffer no node writes is an
 * external input (graph features, edge indices, pre-built CSRs,
 * initialized weights).
 */
struct BufferRef {
    BufferId id = kNoBuffer;
    const void *host = nullptr; ///< interning key (host identity)
    size_t firstWriter = kNoNode; ///< kNoNode = external input
    bool isInput() const { return firstWriter == kNoNode; }
};

/** One kernel launch in the dataflow graph. */
struct OpNode {
    size_t index = 0; ///< position in the deterministic schedule
    Kernel *kernel = nullptr;
    std::vector<BufferId> reads;
    std::vector<BufferId> writes;
    /**
     * Nodes that must complete first (ascending, deduplicated):
     * the last writer of every read buffer (RAW), the previous
     * writer (WAW) and intervening readers (WAR) of every written
     * buffer, plus any active barrier.
     */
    std::vector<size_t> deps;
    int part = 0;     ///< merge provenance (0 for un-merged graphs)
    int level = 0;    ///< longest dependency chain to a root
    bool barrier = false; ///< undeclared IO: conservatively ordered
};

/**
 * A dataflow graph of kernel launches. Non-owning: kernels and the
 * buffers they reference must outlive the graph (GnnPipeline owns
 * both for model graphs; merged graphs additionally require every
 * source pipeline to stay alive).
 */
class OpGraph
{
  public:
    /**
     * Append one kernel, deriving its dependencies from
     * Kernel::io(). Producers must be added before consumers (the
     * natural construction order); the resulting insertion order is
     * the graph's deterministic topological schedule. A kernel with
     * no declared IO becomes a barrier: ordered after every earlier
     * node and before every later one of the same part.
     */
    size_t addNode(Kernel &kernel);

    /**
     * Open a new part (a disjoint sub-pipeline; used by merge and
     * by hand-built batched graphs). Must be called before the
     * first addNode or after a previous beginPart. Barriers only
     * scope within their part; parts share no written buffers.
     */
    void beginPart(const std::string &label);

    size_t numNodes() const { return nodeList.size(); }
    const OpNode &node(size_t i) const { return nodeList.at(i); }
    /** All nodes in the deterministic schedule order. */
    const std::vector<OpNode> &nodes() const { return nodeList; }

    size_t numBuffers() const { return bufferList.size(); }
    const BufferRef &buffer(BufferId b) const
    {
        return bufferList.at(static_cast<size_t>(b));
    }

    /** Total dependency-edge count. */
    size_t numEdges() const { return edgeCount; }
    /** Depth of the graph: 1 + the maximum node level. */
    size_t numLevels() const
    {
        return nodeList.empty()
                   ? 0
                   : static_cast<size_t>(maxLevel) + 1;
    }

    /** Kernel names in schedule order. */
    std::vector<std::string> kernelNames() const;

    /** One merged sub-pipeline (contiguous node range). */
    struct Part {
        std::string label;
        size_t beginNode = 0;
        size_t endNode = 0; ///< one past the last node
    };
    /** Parts of a merged graph (empty for plain pipeline graphs). */
    const std::vector<Part> &parts() const { return partList; }
    /** Number of parts (1 for plain pipeline graphs). */
    size_t numParts() const
    {
        return partList.empty() ? 1 : partList.size();
    }

    /**
     * Check the structural invariants, fatal() on violation:
     * dependency edges point strictly backwards (acyclic), every
     * read's producer is a dependency (or the buffer is an external
     * input at that point), and parts write disjoint buffer sets.
     */
    void validate() const;

    /**
     * Compose independent graphs into one whose parts' roots all
     * issue concurrently — the batched-inference composition. Node
     * order is part-major (part i's schedule is a contiguous slice,
     * identical to its source graph's), so per-part statistics are
     * directly comparable to running each source graph alone.
     * Buffers are re-interned by host identity: read-only inputs
     * may be shared across parts (N replicas over one dataset);
     * a buffer *written* by one part must not be touched by
     * another (fatal() otherwise — merge requires write-disjoint
     * graphs).
     *
     * @param labels Optional per-part labels (default "g0", "g1"...).
     */
    static OpGraph merge(const std::vector<const OpGraph *> &graphs,
                         const std::vector<std::string> &labels = {});

    // --- cost-weighted overlap analysis --------------------------------
    // costs[i] is node i's cost (typically simulated cycles).

    /** Sum of all node costs: the strictly serial execution time. */
    uint64_t serialCost(const std::vector<uint64_t> &costs) const;

    /**
     * Longest dependency chain by cost: the lower bound no amount
     * of launch-level concurrency can beat.
     */
    uint64_t
    criticalPathCost(const std::vector<uint64_t> &costs) const;

    /**
     * Deterministic list-schedule makespan over @p lanes concurrent
     * launch lanes: nodes issue in schedule order, each on the
     * earliest-free lane once its dependencies finish. This is the
     * engine's model of multi-launch overlap (SimEngine's lanes are
     * order-independent, so the model is exact up to lane count).
     */
    uint64_t makespan(const std::vector<uint64_t> &costs,
                      int lanes) const;

    /**
     * The per-node finish times of the makespan() list schedule (the
     * makespan is their maximum). The engine-trace lane replay
     * (obs/GraphTrace's laneSchedule) mirrors this schedule; exposing
     * the ground truth lets tests pin that replay to the IR exactly.
     */
    std::vector<uint64_t>
    finishTimes(const std::vector<uint64_t> &costs, int lanes) const;

  private:
    struct BufferState {
        size_t lastWriter = kNoNode;
        std::vector<size_t> readersSinceWrite;
    };

    BufferId intern(const void *host);
    int currentPart() const
    {
        return partList.empty()
                   ? 0
                   : static_cast<int>(partList.size()) - 1;
    }
    size_t currentPartStart() const
    {
        return partList.empty() ? 0 : partList.back().beginNode;
    }

    std::vector<OpNode> nodeList;
    std::vector<BufferRef> bufferList;
    std::vector<BufferState> bufferState;
    std::vector<Part> partList;
    size_t edgeCount = 0;
    int maxLevel = 0;
    size_t lastBarrier = kNoNode; ///< of the current part
};

} // namespace gsuite

#endif // GSUITE_IR_OPGRAPH_HPP
