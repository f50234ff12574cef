/**
 * @file
 * Top-level timing simulator: dispatches a KernelLaunch's CTAs across
 * the SMs and runs the cycle loop with stall fast-forwarding.
 *
 * This is the stand-in for GPGPU-Sim 4.0 in the paper's methodology.
 *
 * A launch simulates on the calling thread. Each cycle runs three
 * phases in order:
 *   step     — every SM, in index order (classify + issue + L1);
 *   resolve  — every L2/DRAM address slice, in index order;
 *   control  — fast-forward stalls, assign CTAs, decide termination.
 * Independent launches run concurrently on separate simulator
 * instances (SimEngine launch lanes, sweep lanes), never inside one.
 */

#ifndef GSUITE_SIMGPU_GPUSIMULATOR_HPP
#define GSUITE_SIMGPU_GPUSIMULATOR_HPP

#include <memory>
#include <vector>

#include "simgpu/GpuConfig.hpp"
#include "simgpu/KernelLaunch.hpp"
#include "simgpu/KernelStats.hpp"
#include "simgpu/MemorySystem.hpp"
#include "simgpu/Sm.hpp"

namespace gsuite {

/** Per-run simulation options. */
struct SimOptions {
    /**
     * CTA cap: launches bigger than this simulate only the first
     * maxCtas CTAs (several full waves across the SM subset), and
     * KernelStats::ctasSimulated < ctasExpected marks the run as
     * capped. Ratio statistics are representative under
     * homogeneous-CTA sampling; cycle counts cover the simulated
     * CTAs only and are never scaled up. Under CTA sampling the cap
     * bounds the sample size instead.
     */
    int64_t maxCtas = 2048;

    /**
     * Ignored: a launch always simulates on the calling thread. Only
     * bench/host_perf still assigns it; it goes at that benchmark's
     * next change.
     */
    int numThreads = 0;

    /**
     * Instruction budget per streamed trace chunk. Smaller chunks cap
     * trace memory harder; larger chunks amortize generator calls.
     * Statistics are invariant to this value.
     */
    int traceChunkInstrs = 256;

    /**
     * Per-SM idle fast-forwarding: an SM that cannot issue before a
     * known future cycle replays its last classification instead of
     * recomputing it. Statistics are invariant. Only
     * fuzz_test.CycleSkipNeverOvershootsWarpWakeup turns it off: the
     * every-SM-every-cycle stepping is its per-cycle oracle for the
     * skip.
     */
    bool perSmFastForward = true;

    /**
     * Watchdog ceiling: a kernel that reaches this many cycles fails
     * with RunException(RunError::Timeout) instead of completing.
     * 0 disables. Unlike the 50 M-cycle safety limit — which
     * truncates the run with a warning and still reports stats — the
     * ceiling is an error, so sweeps can bound runaway points
     * deterministically.
     */
    uint64_t cycleCeiling = 0;

    /**
     * Warp-scheduler trace sampling (src/obs, hwdb trace.* keys):
     * when enabled, the control phase snapshots the cumulative
     * stall/occupancy counters of SM smSampleCore at the first
     * stepped cycle at or past each 1024-cycle boundary, into
     * KernelStats::smSamples. Pure observation — the samples are
     * read in the control phase and no simulated state is touched,
     * so every deterministic counter is bit-identical with sampling
     * on or off.
     */
    bool smSampleEnabled = false;
    int smSampleCore = 0;
};

/** Timing-detailed GPU simulator. */
class GpuSimulator
{
  public:
    explicit GpuSimulator(GpuConfig config = GpuConfig::v100Sim());

    /** Run one kernel to completion and return its statistics. */
    KernelStats run(const KernelLaunch &launch,
                    const SimOptions &opts = {});

    const GpuConfig &config() const { return cfg; }

  private:
    /** Per-run control state, owned by the control phase. */
    struct RunControl {
        int64_t ctasToSim = 0;
        int64_t nextCta = 0;
        uint64_t cycle = 0;
        uint64_t cycleCeiling = 0;
        bool done = false;
        bool hitLimit = false;
        bool hitCeiling = false;
        /**
         * CTA-sampled runs assign the plan's CTA ids instead of the
         * dense prefix; nextCta then indexes this order. nullptr in
         * full runs.
         */
        const std::vector<int64_t> *sampleOrder = nullptr;
        // Trace sampling (control phase only).
        bool sampleEnabled = false;
        int sampleCore = 0;
        uint64_t nextSampleCycle = 0;
        std::vector<SmSchedSample> samples;
    };

    GpuConfig cfg;
    MemorySystem mem;
    std::vector<std::unique_ptr<Sm>> sms;
    std::vector<KernelStats> smStats;

    void assignCtas(RunControl &ctl);
    /** @p issued / @p next_event: the step phase's reductions. */
    void controlPhase(RunControl &ctl, bool issued,
                      uint64_t next_event);
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_GPUSIMULATOR_HPP
