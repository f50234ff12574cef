/**
 * @file
 * Graph-wide memory accounting over the op-graph IR.
 *
 * DeviceAllocator assigns addresses in execution order and never
 * frees, so the footprint it reports is the naive bump total. MemPlan
 * consumes the sized span declarations (Kernel::ioSpans()) of an
 * OpGraph and derives, from graph structure alone:
 *
 *  - buffer lifetimes (first-writer → last-accessor, happens-before
 *    precise under any dependency-respecting execution order),
 *  - a best-fit lifetime-reuse layout: one window per buffer with an
 *    arena offset; peakBytes() is the exact footprint a
 *    lifetime-aware allocator would need, always <= the naive bump
 *    total (naiveBytes()),
 *  - per-node high-water curves for both layouts (the engines stamp
 *    the naive one into KernelStats::deviceBytesPeak).
 *
 * Execution always uses the naive on-demand layout; the plan is
 * accounting. Everything here is a pure function of the graph: two
 * builds over the same graph produce bit-identical plans.
 */

#ifndef GSUITE_MEMPLAN_MEMPLAN_HPP
#define GSUITE_MEMPLAN_MEMPLAN_HPP

#include <cstdint>
#include <vector>

#include "ir/OpGraph.hpp"
#include "kernels/Kernel.hpp"

namespace gsuite {

/**
 * The placed lifetime window of one buffer: its first to last
 * accessor in schedule order.
 */
struct PlannedWindow {
    BufferId id = kNoBuffer;
    const void *host = nullptr; ///< io() container identity
    uint64_t bytes = 0;  ///< aligned footprint (sum of its spans)
    uint64_t offset = 0; ///< planned arena offset
    size_t firstNode = 0; ///< first accessing node (schedule index)
    size_t lastNode = 0;  ///< last accessing node (schedule index)
    int part = 0;         ///< owning part; -1 = shared across parts
    bool input = false;   ///< external input (no writer in graph)
};

/**
 * A deterministic memory plan for one OpGraph. Immutable once built.
 */
class MemPlan
{
  public:
    /**
     * Analyze @p graph and build the plan. Kernels' ioSpans() must be
     * valid, i.e. the graph must have been functionally executed at
     * least once (span sizes can be data-dependent). A graph with any
     * node that declares no spans (barriers, external kernels) yields
     * a coverage-less plan: peaks and high water are zero, windows
     * and the naive curve empty (fullSpanCoverage() tells).
     */
    static MemPlan build(const OpGraph &graph);

    /** Planned peak footprint: the top of the placed arena. */
    uint64_t peakBytes() const { return peak; }

    /**
     * What the naive bump layout allocates: per part, every distinct
     * span once, summed over parts (merged graphs give each part its
     * own address space, so cross-part shared inputs count once per
     * part there — exactly what DeviceAllocator::bytesPeak() reports).
     */
    uint64_t naiveBytes() const { return naiveTotal; }

    /** Bytes of the shared arena (buffers accessed by >1 part). */
    uint64_t sharedArenaBytes() const { return sharedArena; }

    /** Planned peak of one part's private arena. */
    uint64_t partPeakBytes(size_t part) const;

    /**
     * Per-node high water: planned bytes live at each schedule index
     * (windows whose [firstNode, lastNode] covers it).
     */
    const std::vector<uint64_t> &nodeHighWater() const
    {
        return highWater;
    }

    /**
     * Per-node naive high water: the bump allocator's bytesPeak()
     * right after node i's launch maps its spans (within the node's
     * part). A pure function of the schedule-order replay, so it is
     * identical across runs and warm allocators — the engines stamp
     * it into KernelStats::deviceBytesPeak.
     */
    const std::vector<uint64_t> &nodeNaiveHighWater() const
    {
        return naiveHW;
    }

    const std::vector<PlannedWindow> &windows() const
    {
        return windowList;
    }

    /** True if every node declared spans (the plan has numbers). */
    bool fullSpanCoverage() const { return coverage; }

    /**
     * Check the plan's safety invariant — two windows whose planned
     * regions overlap must belong to the same part (or the shared
     * arena) and have provably disjoint lifetimes — and that the
     * planned peak never exceeds the naive total. panic()s on
     * violation. Cheap enough for tests and the fuzzer; O(W^2).
     */
    void verify(const OpGraph &graph) const;

  private:
    uint64_t peak = 0;
    uint64_t naiveTotal = 0;
    uint64_t sharedArena = 0;
    bool coverage = false;
    std::vector<PlannedWindow> windowList;
    std::vector<uint64_t> highWater;
    std::vector<uint64_t> naiveHW;
    std::vector<uint64_t> partPeaks; ///< per part private-arena peak
};

} // namespace gsuite

#endif // GSUITE_MEMPLAN_MEMPLAN_HPP
