/**
 * @file
 * Per-launch statistics: everything the paper reads from GPGPU-Sim.
 */

#ifndef GSUITE_SIMGPU_KERNELSTATS_HPP
#define GSUITE_SIMGPU_KERNELSTATS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "simgpu/Isa.hpp"
#include "simgpu/KernelLaunch.hpp"
#include "util/Stats.hpp"

namespace gsuite {

/**
 * Per-warp, per-cycle issue states — the categories of Fig. 6.
 * "Issued" means the warp issued an instruction that cycle; the rest
 * explain why an active warp could not issue.
 */
enum class StallReason : int {
    Issued = 0,
    MemoryDependency,
    ExecutionDependency,
    InstructionFetch,
    Synchronization,
    MshrFull, ///< L1 MSHR table full: LSU back-pressure
    NotSelected,
};
constexpr int kNumStallReasons = 7;

/** Paper-facing label for a stall reason (Fig. 6 legend). */
const char *stallReasonName(StallReason r);

/**
 * Per-scheduler-slot, per-cycle occupancy buckets — Fig. 7. Stall:
 * a ready warp existed but the pipeline could not accept it. Idle:
 * warps were resident but none ready. W8/W20/W32: an instruction
 * issued with <=8, <=20, <=32 active threads.
 */
enum class OccBucket : int {
    Stall = 0,
    Idle,
    W8,
    W20,
    W32,
};
constexpr int kNumOccBuckets = 5;

/** Paper-facing label for an occupancy bucket (Fig. 7 legend). */
const char *occBucketName(OccBucket b);

/**
 * One sampled warp-scheduler snapshot of the trace sampling core
 * (hwdb `trace.sampling_core`): that SM's *cumulative* stall and
 * occupancy counters as of `cycle`. Collected read-only by the
 * simulator's control phase at a fixed stepped-cycle interval when
 * SM tracing is enabled, so sampling can never perturb a
 * deterministic counter; rides along in KernelStats but is excluded
 * from merge() and from every golden/stat rendering.
 */
struct SmSchedSample {
    uint64_t cycle = 0;
    std::array<uint64_t, kNumStallReasons> stallCycles{};
    std::array<uint64_t, kNumOccBuckets> occCycles{};
};

/**
 * One extrapolated counter of a CTA-sampled run: the estimated
 * full-population total and an absolute error bound (both in the
 * counter's own unit). Produced by extrapolateCtaSample(); the bound
 * is 3x the stratified standard error plus a small floor, so full-run
 * values land inside [est - err, est + err] with high probability.
 */
struct SampleEstimate {
    std::string name; ///< toStatSet() counter name, e.g. "cycles"
    double est = 0.0;
    double err = 0.0;
};

/** All statistics collected for one kernel launch. */
struct KernelStats {
    std::string name;
    KernelClass kind = KernelClass::Aux;

    // --- timing ---------------------------------------------------------
    uint64_t cycles = 0;
    int64_t ctasTotal = 0;    ///< CTAs in the launch (full GPU)
    /**
     * CTAs the simulated SM subset should process to mirror the full
     * GPU's per-SM load: ceil(ctasTotal / smSampleFactor).
     */
    int64_t ctasExpected = 0;
    int64_t ctasSimulated = 0; ///< CTAs actually simulated (<= cap)
    int64_t warpsSimulated = 0;

    // --- instruction mix (warp-level dynamic counts) ---------------------
    std::array<uint64_t, kNumInstrClasses> instrByClass{};
    uint64_t warpInstrs = 0;
    uint64_t threadInstrs = 0;

    // --- issue-stall attribution (warp-cycles) ---------------------------
    std::array<uint64_t, kNumStallReasons> stallCycles{};

    // --- scheduler occupancy (scheduler-cycles) ---------------------------
    std::array<uint64_t, kNumOccBuckets> occCycles{};

    // --- memory system -----------------------------------------------------
    uint64_t l1Hits = 0;
    uint64_t l1Misses = 0;
    uint64_t l2Hits = 0;
    uint64_t l2Misses = 0;
    uint64_t memInstrs = 0;
    uint64_t memSectors = 0;
    uint64_t dramBytes = 0;
    /** Bus-busy cycles summed over every DRAM channel. */
    uint64_t dramBusyCycles = 0;
    /**
     * DRAM channels the launch ran on (one per L2 slice, each with
     * 1/dramChannels of the bandwidth). Machine shape, not a counter:
     * toStatSet() does not export it.
     */
    int dramChannels = 1;
    uint64_t dramRowHits = 0;   ///< DRAM reads hitting an open row
    uint64_t dramRowMisses = 0; ///< activates (closed bank/conflict)
    /**
     * High-water mark of any slice's DRAM scheduler queue (max-merged
     * across launches, filled once per run by the simulator).
     */
    uint64_t dramQueuePeak = 0;

    // --- pipe utilization --------------------------------------------------
    uint64_t aluBusyCycles = 0;   ///< scheduler ALU port busy cycles
    uint64_t schedulerSlots = 0;  ///< cycles * schedulers * SMs

    // --- issue-loop diagnostics --------------------------------------------
    /**
     * Warp classifications actually computed. The SoA fast path only
     * re-classifies a warp when its cached classification can change,
     * so this is far below warps x cycles; the reference issue path
     * (GpuConfig::referenceIssue) recomputes every resident warp
     * every stepped cycle. Deterministic for a fixed issue path, but
     * intentionally different between the two paths — exclude it when
     * comparing fast-vs-reference runs.
     */
    uint64_t classifyEvals = 0;

    /**
     * Cycles this SM fast-forwarded through accountExtra (per-SM
     * idle replay plus the simulator's global stall skip), each
     * attributed to the stall classes of the last computed
     * classification. Identical between issue paths.
     */
    uint64_t fastForwardCycles = 0;

    // --- simulator footprint -----------------------------------------------
    /**
     * High-water mark of resident decoded-trace bytes (sum over SMs
     * of each SM's peak). Streaming trace generation caps this at
     * O(resident warps x chunk size) regardless of kernel size.
     */
    uint64_t traceBytesPeak = 0;

    /**
     * Device-allocator high-water mark (bytes mapped) as of this
     * kernel's launch construction: the per-node naive placement
     * peak. Filled by the engines, not the simulator.
     */
    uint64_t deviceBytesPeak = 0;

    // --- trace sampling ------------------------------------------------------
    /**
     * Warp-scheduler samples of the trace sampling core; empty
     * unless SM tracing is enabled (hwdb `trace.enabled` +
     * `trace.components` containing "sm"). Deterministic (sampled
     * in the control phase), untouched by merge(), absent from
     * goldens.
     */
    std::vector<SmSchedSample> smSamples;

    // --- CTA-sampled extrapolation -------------------------------------------
    /**
     * CTAs cycle-simulated under sample.mode=cta; 0 when sampling was
     * off or did not engage (small launch). When positive, the raw
     * counters above cover only the sampled CTAs and `estimates`
     * carries the extrapolated full-population totals.
     */
    int64_t sampledCtas = 0;
    int sampleStrata = 0; ///< strata the sample was drawn from

    /**
     * Extrapolated counters (est_* / err_* in toStatSet()). Empty
     * unless sampling engaged. merge() combines them with the other
     * side's estimates — or its exact raw counters when that side was
     * unsampled — so aggregates stay comparable to full runs.
     */
    std::vector<SampleEstimate> estimates;

    /** Estimated value for a toStatSet() name; raw value if absent. */
    double estimate(const std::string &stat) const;
    /** Error bound for a toStatSet() name; 0 if absent. */
    double estimateErr(const std::string &stat) const;

    // --- derived metrics ----------------------------------------------------
    double l1HitRate() const;
    double l2HitRate() const;
    /** Share (0..1) of warp-cycles in the given state. */
    double stallShare(StallReason r) const;
    /** Share (0..1) of scheduler-cycles in the given bucket. */
    double occShare(OccBucket b) const;
    /** Share (0..1) of dynamic warp instructions of the given class. */
    double instrShare(InstrClass c) const;
    /** Fraction of scheduler slots doing ALU work (Fig. 9 compute). */
    double computeUtilization() const;
    /** Fraction of DRAM bandwidth consumed (Fig. 9 memory): busy
     *  channel-cycles over dramChannels x cycles, so at most 1. */
    double memoryUtilization() const;
    /** Average sectors per global memory instruction (divergence). */
    double divergence() const;

    /** Merge another launch's counters into this one. */
    void merge(const KernelStats &other);

    /** Export every metric as named stats for generic reporting. */
    StatSet toStatSet() const;
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_KERNELSTATS_HPP
