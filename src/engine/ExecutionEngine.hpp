/**
 * @file
 * Execution engines: where a GNN pipeline's kernels actually run.
 *
 * FunctionalEngine runs the functional semantics with wall-clock
 * timing (the "real GPU card + nvprof" measurement path); SimEngine
 * additionally feeds every launch through the timing simulator (the
 * "GPGPU-Sim" path). Both record a per-kernel timeline that the
 * benches aggregate into the paper's figures.
 */

#ifndef GSUITE_ENGINE_EXECUTIONENGINE_HPP
#define GSUITE_ENGINE_EXECUTIONENGINE_HPP

#include <memory>
#include <string>
#include <vector>

#include "ir/OpGraph.hpp"
#include "kernels/Kernel.hpp"
#include "profiler/HwProfiler.hpp"
#include "simgpu/DeviceAllocator.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "simgpu/KernelStats.hpp"
#include "util/ThreadPool.hpp"

namespace gsuite {

class TraceSink;

/** One executed kernel in an engine's timeline. */
struct KernelRecord {
    std::string name;
    KernelClass kind = KernelClass::Aux;
    double wallUs = 0.0; ///< functional host execution time

    bool hasSim = false;
    KernelStats sim; ///< populated by SimEngine

    bool hasHw = false;
    HwProfileResult hw; ///< populated when cache profiling is on
};

/**
 * Dependency/overlap summary of one ExecutionEngine::run(OpGraph&)
 * call. The cycle fields model launch-level concurrency over the
 * engine's simulation lanes (OpGraph::makespan); they are derived
 * from deterministic per-launch cycle counts and the deterministic
 * schedule, so they are themselves deterministic.
 */
struct GraphRunReport {
    size_t nodes = 0;
    size_t levels = 0; ///< dependency depth of the graph
    size_t parts = 1;  ///< merged sub-pipelines (batch size)
    int lanes = 1;     ///< concurrent launch lanes modeled

    bool hasSim = false; ///< cycle fields valid (sim engine only)
    uint64_t serialCycles = 0;       ///< sum of launch cycles
    uint64_t criticalPathCycles = 0; ///< longest dependency chain
    uint64_t makespanCycles = 0;     ///< list-schedule over lanes

    /** MemPlan::peakBytes() of the graph (0 without coverage). */
    uint64_t memPeakPlannedBytes = 0;
    /** Naive bump-layout total (0 without coverage). */
    uint64_t memPeakNaiveBytes = 0;
};

/** Abstract engine. */
class ExecutionEngine
{
  public:
    virtual ~ExecutionEngine() = default;

    /** Execute one kernel and append a record to the timeline. */
    void run(Kernel &kernel) { runKernel(kernel, alloc); }

    /**
     * Execute a dataflow graph. Every node runs in the graph's
     * deterministic schedule order (so the timeline — and on the sim
     * engine every launch's device-address layout and stats — is
     * bit-identical to running the kernels serially one by one),
     * then sync()s so deferred simulations overlap across the
     * engine's lanes. Merged graphs give each part its own device
     * address space, making per-part statistics bit-identical to
     * running that part's pipeline alone on a fresh engine. A
     * MemPlan of the graph supplies the memory accounting. Fills
     * lastGraphReport().
     */
    void run(const OpGraph &graph);

    /**
     * Wait for any deferred measurement work (e.g. concurrently
     * simulated launches) to finish. Must be called before operand
     * buffers referenced by recorded launches are destroyed; reading
     * the timeline does it implicitly.
     */
    virtual void sync() {}

    /**
     * Attach a trace sink (src/obs; nullptr detaches). Each
     * run(OpGraph&) call then appends its engine/sm/memplan tracks
     * (per-lane node spans, sampled warp-scheduler counters on the
     * sim engine, memory high-water curves) to the
     * sink, and the sim engine turns on SM warp-scheduler sampling
     * for its launches. Observation only: every deterministic
     * counter is bit-identical with a sink attached or not (pinned
     * by golden_stats_test). The sink must outlive the engine's last
     * run; the caller owns export.
     */
    void setTraceSink(TraceSink *sink) { trace = sink; }

    /** Summary of the most recent run(OpGraph&) call. */
    const GraphRunReport &lastGraphReport() const
    {
        return graphReport;
    }

    /** All kernels executed so far, in order (sync()s first). */
    const std::vector<KernelRecord> &
    timeline()
    {
        sync();
        return records;
    }

    /** Drop the timeline (new measurement run; sync()s first). */
    void
    clearTimeline()
    {
        sync();
        records.clear();
    }

    /** Sum of functional wall-clock times, microseconds. */
    double totalWallUs() const;

    /** Device address space shared by all launches of this engine. */
    DeviceAllocator &allocator() { return alloc; }

  protected:
    /**
     * Execute one kernel against an explicit device address space
     * and append a record (functional execution + measurement).
     * run(Kernel&) passes the engine's shared allocator;
     * run(OpGraph&) passes a per-part allocator for merged graphs so
     * each part's address layout matches a standalone run.
     */
    void runKernel(Kernel &kernel, DeviceAllocator &kernelAlloc);

    /**
     * Measurement face of one already-executed kernel: build its
     * launch against @p kernelAlloc and fill records[recordIndex]'s
     * sim/hw fields; runKernel() calls it right after execute().
     * Default: no measurement.
     */
    virtual void measureKernel(size_t recordIndex, Kernel &kernel,
                               DeviceAllocator &kernelAlloc)
    {
        (void)recordIndex;
        (void)kernel;
        (void)kernelAlloc;
    }

    /**
     * Launch lanes the makespan model of run(OpGraph&) uses; the
     * sim engine reports its concurrent-launch lane count.
     */
    virtual int concurrentLaneCount() const { return 1; }

    std::vector<KernelRecord> records;
    DeviceAllocator alloc;
    GraphRunReport graphReport;
    TraceSink *trace = nullptr;
};

/** Host-execution engine with optional hardware cache profiling. */
class FunctionalEngine : public ExecutionEngine
{
  public:
    struct Options {
        bool profileCaches = false; ///< fill KernelRecord::hw
        HwProfilerConfig hwConfig;
    };

    FunctionalEngine() = default;
    explicit FunctionalEngine(Options opts);

  protected:
    void measureKernel(size_t recordIndex, Kernel &kernel,
                       DeviceAllocator &kernelAlloc) override;

  private:
    Options opts;
};

/** Timing-simulation engine (functional execution + GPGPU-Sim-like). */
class SimEngine : public ExecutionEngine
{
  public:
    struct Options {
        GpuConfig gpu = GpuConfig::v100Sim();
        SimOptions sim;
        bool profileCaches = false; ///< also fill KernelRecord::hw
        HwProfilerConfig hwConfig;

        /**
         * Independent launches simulated concurrently, each on its
         * own GpuSimulator instance. Launch timing is
         * independent of launch order (every launch starts from a
         * flushed device), so results are identical to serial
         * simulation. 1 = inline/serial; 0 = auto.
         */
        int parallelLaunches = 1;
    };

    SimEngine() : SimEngine(Options{}) {}
    explicit SimEngine(Options opts);

    void sync() override;

  protected:
    void measureKernel(size_t recordIndex, Kernel &kernel,
                       DeviceAllocator &kernelAlloc) override;
    int concurrentLaneCount() const override
    {
        return effectiveParallel();
    }

  private:
    struct PendingSim {
        size_t recordIndex;
        KernelLaunch launch;
        uint64_t deviceBytesPeak = 0;
    };

    Options opts;
    GpuSimulator sim;
    std::vector<PendingSim> pending;
    std::unique_ptr<ThreadPool> simPool;
    std::vector<std::unique_ptr<GpuSimulator>> laneSims;

    int effectiveParallel() const;
    /** Turn on SM warp-scheduler sampling when the attached sink
     *  selects the sm component. */
    void applySmSampling(SimOptions &runOpts) const;
};

} // namespace gsuite

#endif // GSUITE_ENGINE_EXECUTIONENGINE_HPP
