/**
 * @file
 * The hardware-profiler stand-in ("nvprof" in the paper's setup).
 *
 * Real counters come from a real V100; here we replay the same kernel
 * memory traces through an *independent* cache model configured like
 * the actual Volta hardware (128 KB sectored L1 per SM, 6 MB L2 with
 * full-line fills) rather than like GPGPU-Sim's V100 model (3 MB
 * sectored L2). Fig. 8's hardware-vs-simulator comparison needs these
 * two genuinely different measurement paths.
 */

#ifndef GSUITE_PROFILER_HWPROFILER_HPP
#define GSUITE_PROFILER_HWPROFILER_HPP

#include <cstdint>

#include "simgpu/Cache.hpp"
#include "simgpu/GpuConfig.hpp"
#include "simgpu/KernelLaunch.hpp"

namespace gsuite {

/** Configuration of the hardware cache model. */
struct HwProfilerConfig {
    /**
     * SMs to spread CTAs over. Must match the simulated machine so
     * hardware-vs-simulator hit-rate deltas (Fig. 8) reflect
     * cache-geometry differences, not differences in how many CTAs
     * share an L1. The suite layer (Runner::makeEngine) derives this
     * from the resolved GpuConfig; the default only covers direct
     * construction and matches the v100-sim preset.
     */
    int numSms = 8;
    /**
     * Grid-share divisor matching GpuConfig::smSampleFactor, so the
     * profiler replays exactly the CTA subset the simulator runs.
     * Derived from the resolved GpuConfig by Runner::makeEngine,
     * like numSms.
     */
    int smSampleFactor = 10;
    /** Volta L1: 128 KB, 128 B lines, 32 B sectors. */
    CacheGeometry l1{128 * 1024, 128, 32, 64};
    /**
     * Volta L2: 6 MB; modeled with full-line fills (sectorBytes ==
     * lineBytes), the behaviour nvprof's l2 counters reflect.
     */
    CacheGeometry l2{6 * 1024 * 1024, 128, 128, 16};
    /** CTA sampling cap, matching the simulator's default. */
    int64_t maxCtas = 2048;

    /**
     * Worker threads replaying per-SM L1 slices (0 = auto,
     * 1 = serial); FunctionalEngine also executes its kernels on
     * this many lanes (0 = host lanes). Results are bit-identical
     * for every value: each
     * modeled SM's L1 only ever sees its own CTAs' accesses in CTA
     * order, and the shared L2 is replayed afterwards in the global
     * CTA order the serial replay uses.
     */
    int numThreads = 1;
};

/** nvprof-style cache hit-rate measurements for one launch. */
struct HwProfileResult {
    uint64_t l1Hits = 0;
    uint64_t l1Misses = 0;
    uint64_t l2Hits = 0;
    uint64_t l2Misses = 0;

    double
    l1HitRate() const
    {
        const uint64_t t = l1Hits + l1Misses;
        return t ? static_cast<double>(l1Hits) / t : 0.0;
    }
    double
    l2HitRate() const
    {
        const uint64_t t = l2Hits + l2Misses;
        return t ? static_cast<double>(l2Hits) / t : 0.0;
    }
};

/** Trace-replay cache profiler. */
class HwProfiler
{
  public:
    explicit HwProfiler(HwProfilerConfig cfg = {});

    /**
     * Replay @p launch's global-memory accesses through the hardware
     * cache model and return hit rates. CTAs are distributed
     * round-robin across the modeled SMs' L1s.
     */
    HwProfileResult profile(const KernelLaunch &launch);

  private:
    HwProfilerConfig cfg;
};

} // namespace gsuite

#endif // GSUITE_PROFILER_HWPROFILER_HPP
