/**
 * @file
 * Base interface of the gSuite core kernels (Table II).
 *
 * Every kernel has two faces:
 *  - execute(): the functional (bit-accurate) semantics, run on the
 *    host CPU; this is what the correctness tests and the wall-clock
 *    profiler measure. Engines pass their worker lanes
 *    (execute(workers)), so the wall-clock profiler times the
 *    parallel run; its outputs are bit-identical to the calling
 *    thread alone for any worker count.
 *  - makeLaunch(): the timing face — a CUDA-style launch descriptor
 *    whose per-warp instruction traces (with real per-lane memory
 *    addresses derived from the operand data) feed the GPU simulator.
 *
 * Engines always call execute() before makeLaunch(), so trace
 * generators may reference the kernel's *output* data as well (needed
 * by SpGEMM, whose output structure is data-dependent).
 */

#ifndef GSUITE_KERNELS_KERNEL_HPP
#define GSUITE_KERNELS_KERNEL_HPP

#include <string>
#include <vector>

#include "simgpu/DeviceAllocator.hpp"
#include "simgpu/KernelLaunch.hpp"

namespace gsuite {

class ThreadPool;

/**
 * The buffers a kernel touches, by host identity. This is the
 * declaration the op-graph IR (src/ir/OpGraph) derives dataflow
 * dependencies from: a node reading a buffer depends on the node
 * that last wrote it. Identity is the address of the host container
 * (DenseMatrix, CsrMatrix, std::vector) — the same key
 * DeviceAllocator maps.
 */
struct KernelIo {
    std::vector<const void *> reads;
    std::vector<const void *> writes;
};

/**
 * One device-mapped span of a kernel operand, sized. `buffer` is the
 * io() container key the span belongs to (a container may map
 * several spans — a CSR maps rowPtr/colIdx/vals separately); `data`
 * and `bytes` are exactly what makeLaunch() passes to
 * DeviceAllocator::map for that span. The memory planner
 * (src/memplan) replays these declarations in schedule order for its
 * naive high-water accounting and places buffers in first-span
 * order, so a kernel's ioSpans() MUST list every span makeLaunch()
 * maps, in map order, with makeLaunch()'s exact byte sizes.
 * memplan_test replays every pipeline's launches on a fresh
 * allocator and checks each declared span is mapped and the
 * allocator's peak equals the planner's naive high water, node by
 * node.
 */
struct IoSpan {
    const void *buffer = nullptr; ///< owning io() container key
    const void *data = nullptr;   ///< map key (span base pointer)
    uint64_t bytes = 0;           ///< exact mapped size
};

/** Abstract core kernel. */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** Unique launch name, e.g. "indexSelect_l0". */
    virtual std::string name() const = 0;

    /** Table II kernel class. */
    virtual KernelClass kind() const = 0;

    /** Run the functional semantics on the calling thread alone. */
    virtual void execute() = 0;

    /**
     * Run the functional semantics on @p workers' lanes (nullptr: the
     * calling thread alone). Row-parallel kernels give each lane
     * disjoint output rows and compute every element with the same
     * floating-point operations, in the same order, as execute(), so
     * outputs are bit-identical for any lane count; each lane also
     * makes the first write of a fresh output's rows it owns. The
     * default ignores @p workers and calls execute(). The caller must
     * not be running another job on @p workers.
     */
    virtual void
    execute(ThreadPool *workers)
    {
        (void)workers;
        execute();
    }

    /**
     * Build the timing launch. Must be called after execute().
     * The kernel object must outlive any use of the returned launch
     * (trace generators reference its operand buffers).
     */
    virtual KernelLaunch makeLaunch(DeviceAllocator &alloc) const = 0;

    /**
     * Declare the buffers execute() reads and writes. The suite's
     * six core kernels all implement this; the default (empty)
     * declaration is the conservative fallback for external custom
     * kernels: OpGraph treats a node with no declared IO as a
     * barrier, ordered after every earlier node and before every
     * later one.
     */
    virtual KernelIo io() const { return {}; }

    /**
     * Declare the device spans makeLaunch() will map, in map order
     * with exact sizes. Valid only after execute() (span sizes may
     * be data-dependent, e.g. SpGEMM's output). The default (empty)
     * declaration marks the kernel as opaque to the memory planner:
     * graphs containing such a node get no plan (zero accounting).
     */
    virtual std::vector<IoSpan> ioSpans() const { return {}; }
};

/** Threads per CTA used by all 1D-grid gsuite kernels. */
constexpr int kCtaThreads = 256;
/** Warps per CTA at kCtaThreads. */
constexpr int kCtaWarps = kCtaThreads / 32;

/** ceil(a / b) for positive operands. */
constexpr int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

} // namespace gsuite

#endif // GSUITE_KERNELS_KERNEL_HPP
