/**
 * @file
 * Configuration of the timing-detailed GPU model.
 *
 * The default models an NVIDIA V100 (Volta) the way the paper's
 * GPGPU-Sim 4.0 configuration does. For tractability on a CPU host we
 * simulate a sampled subset of SMs (smSampleFactor); all reported
 * statistics are ratios (hit rates, stall shares, occupancy), which
 * are unaffected by homogeneous SM sampling.
 */

#ifndef GSUITE_SIMGPU_GPUCONFIG_HPP
#define GSUITE_SIMGPU_GPUCONFIG_HPP

#include <cstdint>
#include <string>

namespace gsuite {

/** Warp scheduler arbitration policy. */
enum class SchedulerPolicy {
    Gto, ///< greedy-then-oldest (GPGPU-Sim default)
    Lrr, ///< loose round-robin
};

/** Parse "gto"/"lrr"; fatal() on unknown names. */
SchedulerPolicy schedulerPolicyFromName(const std::string &name);

/** Canonical lowercase name. */
const char *schedulerPolicyName(SchedulerPolicy p);

/** DRAM request-scheduler arbitration per slice channel. */
enum class DramSchedPolicy {
    Frfcfs, ///< first-ready (open-row hits first), then oldest
    Fcfs,   ///< strictly oldest-first
};

/** Parse "frfcfs"/"fcfs"; fatal() on unknown names. */
DramSchedPolicy dramSchedPolicyFromName(const std::string &name);

/** Canonical lowercase name. */
const char *dramSchedPolicyName(DramSchedPolicy p);

/**
 * CTA-sampled cycle simulation. Off simulates the usual CTA prefix;
 * Cta cycle-simulates only a deterministic stratified sample of that
 * prefix and extrapolates counters with error bounds (see
 * CtaSampler.hpp).
 */
enum class CtaSampleMode {
    Off, ///< full prefix, today's behaviour (default)
    Cta, ///< stratified CTA sample + extrapolation
};

/** Parse "off"/"cta"; fatal() on unknown names. */
CtaSampleMode ctaSampleModeFromName(const std::string &name);

/** Canonical lowercase name. */
const char *ctaSampleModeName(CtaSampleMode m);

/**
 * Finite miss-status-holding-register table of one cache level
 * (gpgpusim's -gpgpu_cache:dl1 ...,A:<entries>:<merges> vocabulary).
 */
struct MshrConfig {
    int entries = 32;  ///< outstanding-miss table entries
    int maxMerges = 8; ///< same-line accesses merged into one entry
    /**
     * Busy entries tolerated before the level stops accepting new
     * accesses (<= entries; equal means "stall only when full").
     * At the L1 this is the SM back-pressure point, surfaced as the
     * MshrFull stall class.
     */
    int hitUnderMiss = 32;

    bool operator==(const MshrConfig &) const = default;
};

/**
 * Banked DRAM timing and scheduling of one L2-slice channel
 * (gpgpusim's -gpgpu_dram_timing_opt nbk=..:CCD=..:RCD=..:RAS=..:RP=..
 * and -gpgpu_frfcfs_dram_sched_queue_size vocabulary).
 */
struct DramConfig {
    int numBanks = 16;  ///< nbk: banks per channel (power of two)
    int rowBytes = 2048; ///< row-buffer footprint per bank
    int tRcd = 14; ///< activate -> column command (cycles)
    int tRas = 33; ///< activate -> precharge minimum
    int tRp = 14;  ///< precharge -> activate
    int tCcd = 2;  ///< column -> column on one bank
    DramSchedPolicy scheduler = DramSchedPolicy::Frfcfs;
    /**
     * Bounded request queue: sectors a slice admits per cycle. A
     * full queue rejects the sector, which keeps its SM's access
     * parked (multi-cycle back-pressure all the way to the LSU).
     */
    int schedQueueSize = 64;

    bool operator==(const DramConfig &) const = default;
};

/** Geometry of one cache level. */
struct CacheGeometry {
    uint64_t sizeBytes = 0;
    int lineBytes = 128;
    int sectorBytes = 32;
    int assoc = 4;
    /** Allocate a line on write miss (L2) or write around it (L1). */
    bool allocateOnWrite = false;

    int numSets() const
    {
        return static_cast<int>(sizeBytes /
                                (static_cast<uint64_t>(lineBytes) *
                                 static_cast<uint64_t>(assoc)));
    }
    int sectorsPerLine() const { return lineBytes / sectorBytes; }

    bool operator==(const CacheGeometry &) const = default;
};

/** Full GPU model configuration. */
struct GpuConfig {
    std::string name = "v100-sim";

    // --- core geometry -------------------------------------------------
    int numSms = 8;          ///< simulated SMs (sampled subset)
    int smSampleFactor = 10; ///< modeled GPU has numSms * this SMs
    int warpSize = 32;
    int maxWarpsPerSm = 64;
    int maxThreadsPerSm = 2048;
    int maxCtasPerSm = 32;
    int numSchedulers = 4; ///< warp schedulers per SM

    SchedulerPolicy scheduler = SchedulerPolicy::Gto;

    /**
     * Test oracle: use the pre-SoA per-warp issue path (classify
     * every resident warp every cycle) instead of the cached SoA
     * fast path. Both paths produce bit-identical statistics except
     * the classifyEvals diagnostic. Only the A/B regression tests
     * set it, directly; it has no hwdb key.
     */
    bool referenceIssue = false;

    // --- execution latencies -------------------------------------------
    int aluLatency = 4;  ///< FP32/INT result latency (cycles)
    int sfuLatency = 16; ///< transcendental latency
    int aluInitiationInterval = 2; ///< 32-wide warp over 16-lane SIMD
    int ldsLatency = 24; ///< shared-memory load latency

    // --- instruction fetch ----------------------------------------------
    int icacheColdLatency = 60; ///< first fetch after warp activation
    int ifetchLatency = 1;      ///< steady-state i-buffer refill

    // --- memory system ---------------------------------------------------
    int lsuPortsPerSm = 1;  ///< memory instructions accepted per cycle
    int l1Latency = 28;     ///< L1 hit latency (Volta ~28 cycles)
    int l2Latency = 190;    ///< L1-miss/L2-hit round trip
    int dramLatency = 360;  ///< L2-miss round trip before queueing
    bool l1BypassLoads = false; ///< ablation: global loads skip L1

    /**
     * DRAM bandwidth available to the sampled SM subset, in bytes per
     * core cycle. V100: 900 GB/s at 1.38 GHz core clock ~ 652 B/cyc
     * for 80 SMs => 8.15 B/cyc per SM.
     */
    double dramBytesPerCyclePerSm = 8.15;

    CacheGeometry l1d{128 * 1024, 128, 32, 64, false};
    CacheGeometry l2{3 * 1024 * 1024, 128, 32, 24, true};

    /**
     * Finite MSHR tables. The L1 table tracks every in-flight sector
     * an SM has outstanding toward its slice (loads, stores and
     * atomics alike — the miss path is one queue); the L2 table is
     * per slice. A full L1 table back-pressures the SM's LSU
     * (StallReason::MshrFull).
     */
    MshrConfig l1Mshr{32, 8, 32};
    MshrConfig l2Mshr{64, 8, 64};

    /** Banked DRAM model behind each L2 slice. */
    DramConfig dram{};

    /**
     * Address-sliced L2/DRAM banking: line addresses are distributed
     * round-robin over this many independent slices, each owning
     * 1/numL2Slices of the L2 capacity and DRAM bandwidth; the
     * simulator resolves them in index order every cycle. Must be a
     * power of two and divide l2's set count.
     */
    int numL2Slices = 4;

    double coreClockGhz = 1.38;

    // --- sampled simulation ----------------------------------------------
    /**
     * CTA-sampled cycle simulation (hwdb keys sample.mode /
     * sample.fraction / sample.min_ctas / sample.seed). Off by
     * default: every deterministic counter is byte-identical to the
     * pre-sampling simulator. In Cta mode the simulator picks a
     * deterministic stratified sample of the CTA population it would
     * otherwise simulate, runs only those CTAs through the cycle
     * model, and reports extrapolated est_* counters with err_*
     * bounds alongside the raw sampled counters.
     */
    CtaSampleMode sampleMode = CtaSampleMode::Off;
    /** Target sampled fraction of the CTA population, in (0, 1]. */
    double sampleFraction = 0.125;
    /**
     * Sampling never engages below this many CTAs: populations of at
     * most sampleMinCtas (after fraction rounding) run in full, so
     * small launches stay exact even in Cta mode.
     */
    int64_t sampleMinCtas = 256;
    /** Seed mixed with kernel identity + launch shape. */
    uint64_t sampleSeed = 1;

    // --- tracing (src/obs) ----------------------------------------------
    /**
     * gpgpusim-style trace knobs (-trace_enabled, -trace_components,
     * -trace_sampling_core), exposed as the hwdb keys trace.enabled /
     * trace.components / trace.sampling_core. Tracing is observation
     * only: enabling it changes no deterministic counter (pinned by
     * golden_stats_test). traceComponents is the canonical comma list
     * accepted by parseTraceComponents ("all", "engine,sm", ...);
     * traceSamplingCore picks the SM whose warp-scheduler state the
     * "sm" component samples.
     */
    bool traceEnabled = false;
    std::string traceComponents = "all";
    int traceSamplingCore = 0;

    /** Total DRAM bytes/cycle for the simulated subset. */
    double
    dramBytesPerCycle() const
    {
        return dramBytesPerCyclePerSm * numSms;
    }

    /** The paper's GPGPU-Sim-like V100 model (default values). */
    static GpuConfig v100Sim();

    /**
     * A small configuration for unit tests: 2 SMs, tiny caches, so
     * cache behaviour is observable with small footprints.
     */
    static GpuConfig testTiny();

    /** Sanity-check parameter consistency; fatal() on bad config. */
    void validate() const;

    /** Field-wise equality (hwdb round-trip guarantee). */
    bool operator==(const GpuConfig &) const = default;
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_GPUCONFIG_HPP
