/**
 * @file
 * Kernel launch descriptor: grid geometry plus a streaming per-warp
 * trace generator.
 *
 * Traces materialize chunk by chunk while a warp is resident on an
 * SM, so the simulator's footprint is O(resident warps x chunk size)
 * rather than O(total dynamic instructions). Every launch provides a
 * resumable WarpTraceStream per warp; a tiny synthetic launch may
 * emit its whole trace in one chunk and return true.
 */

#ifndef GSUITE_SIMGPU_KERNELLAUNCH_HPP
#define GSUITE_SIMGPU_KERNELLAUNCH_HPP

#include <cstdint>
#include <functional>
#include <string>

#include "simgpu/Trace.hpp"

namespace gsuite {

/**
 * Core kernel identities of Table II (plus the auxiliary elementwise
 * ops the pipelines need, reported as "other" in Fig. 4).
 */
enum class KernelClass {
    IndexSelect,
    Scatter,
    Sgemm,
    SpGemm,
    SpMM,
    Elementwise,
    Aux,
};

/** Short-form label used in the paper's figures (is/sc/sg/sp). */
const char *kernelClassShortForm(KernelClass k);

/** Long name of the kernel class. */
const char *kernelClassName(KernelClass k);

/** CUDA-style launch geometry. */
struct LaunchDims {
    int64_t numCtas = 0;
    int threadsPerCta = 0;

    int
    warpsPerCta() const
    {
        return (threadsPerCta + 31) / 32;
    }
    int64_t totalWarps() const { return numCtas * warpsPerCta(); }
    /**
     * The CTAs a simulated SM subset processes: a 1/smSampleFactor
     * share of the grid, rounded up, so each simulated SM keeps the
     * occupancy it would have on the full GPU. The simulator and the
     * hardware cache profiler both run this share.
     */
    int64_t
    ctaShare(int smSampleFactor) const
    {
        return (numCtas + smSampleFactor - 1) / smSampleFactor;
    }
    int64_t
    totalThreads() const
    {
        return numCtas * static_cast<int64_t>(threadsPerCta);
    }
};

/**
 * Resumable per-warp trace stream.
 *
 * Each call appends a further chunk of the warp's dynamic instruction
 * stream through the (budgeted) builder and returns true once the
 * stream is complete. Contract for generators:
 *  - every call must emit at least one instruction;
 *  - the final call must end the stream with an EXIT instruction, and
 *    EXIT must not appear earlier;
 *  - generators should stop emitting once builder.full() turns true
 *    (checked between logical instruction groups; a group may
 *    overshoot the budget slightly);
 *  - register ids obtained from the builder remain valid across
 *    chunks (the rotation cursor is persisted by the simulator).
 */
using WarpTraceStream = std::function<bool(TraceBuilder &)>;

/**
 * A recorded kernel launch. streamTrace returns the resumable trace
 * stream of warp @p warp of CTA @p cta.
 */
struct KernelLaunch {
    std::string name;
    KernelClass kind = KernelClass::Aux;
    LaunchDims dims;

    /** Streaming trace generator (bounded memory). */
    std::function<WarpTraceStream(int64_t cta, int warp)> streamTrace;

    /** True if a trace generator is set. */
    bool hasTraceGen() const { return static_cast<bool>(streamTrace); }

    /** The warp's trace stream. panic()s if no generator is set. */
    WarpTraceStream makeStream(int64_t cta, int warp) const;

    /**
     * Materialize the warp's full trace into @p out (cleared first).
     * Intended for tests and offline analysis, not the simulation
     * hot path.
     */
    void buildFullTrace(int64_t cta, int warp, WarpTrace &out) const;

    /**
     * Optional per-CTA cost hint (relative trace length, any unit)
     * for CTA-sampled simulation: CtaSampler stratifies the grid by
     * this ranking so heavy and light CTAs are both represented in
     * the sample. Must be cheap (called once per CTA at plan build)
     * and deterministic. Absent = uniform cost.
     */
    std::function<uint64_t(int64_t cta)> ctaCostHint;
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_KERNELLAUNCH_HPP
