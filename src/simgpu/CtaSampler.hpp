/**
 * @file
 * Deterministic stratified CTA sampling with statistical
 * extrapolation.
 *
 * Under sample.mode=cta the simulator cycle-simulates only a sample
 * of the CTA population it would otherwise run (the usual
 * ceil(ctasTotal / smSampleFactor) prefix) and extrapolates every
 * additive counter to the full population with an error bound.
 *
 * The plan is a pure function of (GpuConfig sample.* keys, kernel
 * identity, launch shape): CTAs are ranked by an optional per-CTA
 * cost hint (trace length proxy; uniform when absent), cut into up to
 * eight equal strata of the ranked order, and sampled systematically
 * inside each stratum with a seeded fractional start — so heavy and
 * light CTAs are both represented and reruns pick byte-identical
 * samples. The sample is fed to the machine in grid order, so the
 * sampled subset sees the full run's CTA arrival mix.
 *
 * Extrapolation measures per sampled CTA its residency duration and
 * issued warp instructions, forms stratified expansion estimators for
 * total CTA-cycles and total work, and scales the raw counters:
 * work-proportional counters (instructions, cache traffic, DRAM
 * bytes) by the work expansion, cycle-domain counters (stall and
 * occupancy cycles, scheduler slots) by the estimated-cycle
 * expansion. Error bounds are 3x the stratified standard error (with
 * finite-population correction) plus a small floor. Peaks
 * (dram_queue_peak, trace_bytes_peak) are not extrapolated: the raw
 * sampled values stand.
 */

#ifndef GSUITE_SIMGPU_CTASAMPLER_HPP
#define GSUITE_SIMGPU_CTASAMPLER_HPP

#include <cstdint>
#include <vector>

#include "simgpu/GpuConfig.hpp"
#include "simgpu/KernelLaunch.hpp"
#include "simgpu/KernelStats.hpp"

namespace gsuite {

/** Completion record of one sampled CTA, collected by its SM. */
struct CtaSampleRecord {
    int64_t ctaId = -1;
    uint64_t startCycle = 0; ///< cycle the CTA became resident
    uint64_t endCycle = 0;   ///< cycle its last warp exited
    uint64_t instrs = 0;     ///< warp instructions it issued
};

/** Deterministic sampling plan for one launch. */
struct CtaSamplePlan {
    /**
     * False when sampling is off or did not engage (population at or
     * below the requested sample size): the simulator then runs the
     * usual full prefix and reports no estimates.
     */
    bool engaged = false;
    int64_t population = 0; ///< CTAs a full run would simulate

    /** Sampled CTA ids in assignment order (ascending grid id). */
    std::vector<int64_t> order;
    /** Stratum of order[i] (parallel to order). */
    std::vector<int> stratumOf;
    /** Population size of each stratum. */
    std::vector<int64_t> stratumSize;
    /** Planned sample count of each stratum. */
    std::vector<int64_t> stratumSampled;

    int numStrata() const
    {
        return static_cast<int>(stratumSize.size());
    }
};

/**
 * Build the sampling plan for @p launch over a population of
 * @p population CTAs (ids [0, population)), capping the sample at
 * @p maxSampled CTAs (<= 0 means uncapped). Deterministic: depends
 * only on the arguments, never on global state or wall clock.
 */
CtaSamplePlan buildCtaSamplePlan(const GpuConfig &cfg,
                                 const KernelLaunch &launch,
                                 int64_t population,
                                 int64_t maxSampled);

/**
 * Extrapolate @p stats (raw counters of the sampled run) to the plan
 * population using the per-CTA completion @p records, filling
 * stats.sampledCtas / sampleStrata / estimates. @p records must be
 * sorted by ctaId (the canonical cross-SM order); CTAs cut off by
 * a cycle limit may be absent and simply shrink the effective sample.
 */
void extrapolateCtaSample(const CtaSamplePlan &plan,
                          const std::vector<CtaSampleRecord> &records,
                          KernelStats &stats);

} // namespace gsuite

#endif // GSUITE_SIMGPU_CTASAMPLER_HPP
