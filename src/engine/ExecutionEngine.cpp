#include "engine/ExecutionEngine.hpp"

#include <algorithm>
#include <exception>

#include "memplan/MemPlan.hpp"
#include "obs/GraphTrace.hpp"
#include "obs/TraceSink.hpp"
#include "util/Timer.hpp"

namespace gsuite {

double
ExecutionEngine::totalWallUs() const
{
    double total = 0.0;
    for (const auto &r : records)
        total += r.wallUs;
    return total;
}

void
ExecutionEngine::runKernel(Kernel &kernel,
                           DeviceAllocator &kernelAlloc)
{
    KernelRecord rec;
    rec.name = kernel.name();
    rec.kind = kernel.kind();

    Timer t;
    kernel.execute(&workers);
    rec.wallUs = t.elapsedUs();

    records.push_back(std::move(rec));
    measureKernel(records.size() - 1, kernel, kernelAlloc);
}

void
ExecutionEngine::run(const OpGraph &graph)
{
    graph.validate();
    const size_t firstRecord = records.size();

    // Merged graphs: each part gets its own device address space so
    // its launches see exactly the addresses a standalone run of
    // that pipeline would (launch simulations start from a flushed
    // device, so cross-part address relationships never matter).
    // Plain pipeline graphs keep the engine's shared allocator —
    // byte-identical behavior to the serial per-kernel path.
    std::vector<std::unique_ptr<DeviceAllocator>> partAllocs;
    if (graph.numParts() > 1)
        for (size_t p = 0; p < graph.numParts(); ++p)
            partAllocs.push_back(
                std::make_unique<DeviceAllocator>());
    const auto allocFor = [&](const OpNode &n) -> DeviceAllocator & {
        return partAllocs.empty()
                   ? alloc
                   : *partAllocs[static_cast<size_t>(n.part)];
    };

    // Functional execution, launch construction and on-demand
    // address assignment interleave in the deterministic schedule
    // order; only the deferred timing simulations overlap, joined by
    // sync().
    for (const OpNode &n : graph.nodes()) {
        try {
            runKernel(*n.kernel, allocFor(n));
        } catch (...) {
            // Deferred simulations reference operand buffers the
            // caller may destroy while unwinding; drain them before
            // propagating the node's failure. A secondary sync
            // failure must not mask the original error.
            try {
                sync();
            } catch (...) {
            }
            throw;
        }
    }
    // Memory accounting: peaks are a pure function of the graph.
    const MemPlan plan = MemPlan::build(graph);
    sync();

    // Stamp the per-node naive placement high-water into the sim
    // stats. Derived from the plan's schedule-order replay — not from
    // the live allocator — so it is identical across runs on a warm
    // engine.
    if (plan.fullSpanCoverage())
        for (size_t i = 0; i < graph.numNodes(); ++i) {
            KernelRecord &rec = records[firstRecord + i];
            if (rec.hasSim)
                rec.sim.deviceBytesPeak =
                    plan.nodeNaiveHighWater()[i];
        }

    GraphRunReport report;
    report.levels = graph.numLevels();
    report.lanes = std::max(1, concurrentLaneCount());
    report.memPeakPlannedBytes = plan.peakBytes();
    report.memPeakNaiveBytes = plan.naiveBytes();
    std::vector<uint64_t> costs;
    costs.reserve(graph.numNodes());
    report.hasSim = graph.numNodes() > 0;
    for (size_t i = 0; i < graph.numNodes(); ++i) {
        const KernelRecord &rec = records.at(firstRecord + i);
        report.hasSim = report.hasSim && rec.hasSim;
        costs.push_back(rec.hasSim ? rec.sim.cycles : 0);
    }
    if (report.hasSim) {
        report.serialCycles = graph.serialCost(costs);
        report.criticalPathCycles = graph.criticalPathCost(costs);
        report.makespanCycles =
            graph.makespan(costs, report.lanes);
    }
    graphReport = report;

    // Observation only — emitted from the deterministic schedule
    // replay and the already-final records, after every counter
    // above is computed.
    if (trace && trace->enabled())
        emitGraphTrace(*trace, graph, plan, records, firstRecord,
                       report.lanes);
}

FunctionalEngine::FunctionalEngine(Options opts)
    : ExecutionEngine(opts.hwConfig.numThreads > 0
                          ? opts.hwConfig.numThreads
                          : ThreadPool::defaultLanes()),
      opts(opts)
{
}

void
FunctionalEngine::measureKernel(size_t recordIndex, Kernel &kernel,
                                DeviceAllocator &kernelAlloc)
{
    if (!opts.profileCaches)
        return;
    const KernelLaunch launch = kernel.makeLaunch(kernelAlloc);
    HwProfiler prof(opts.hwConfig);
    records[recordIndex].hw = prof.profile(launch, &workers);
    records[recordIndex].hasHw = true;
}

SimEngine::SimEngine(Options opts_in)
    : ExecutionEngine(opts_in.parallelLaunches > 0
                          ? opts_in.parallelLaunches
                          : std::min(4, ThreadPool::defaultLanes())),
      opts(std::move(opts_in)), sim(opts.gpu)
{
}

void
SimEngine::applySmSampling(SimOptions &runOpts) const
{
    if (!trace || !trace->enabled(TraceSm))
        return;
    runOpts.smSampleEnabled = true;
    runOpts.smSampleCore = std::clamp(trace->samplingCore(), 0,
                                      opts.gpu.numSms - 1);
}

void
SimEngine::measureKernel(size_t recordIndex, Kernel &kernel,
                         DeviceAllocator &kernelAlloc)
{
    KernelLaunch launch = kernel.makeLaunch(kernelAlloc);
    KernelRecord &rec = records[recordIndex];

    if (opts.profileCaches) {
        HwProfiler prof(opts.hwConfig);
        rec.hw = prof.profile(launch, &workers);
        rec.hasHw = true;
    }

    // Fallback value for single-kernel runs; graph runs overwrite it
    // with the plan-derived (warmth-independent) figure.
    const uint64_t devPeak = kernelAlloc.bytesPeak();

    if (workers.lanes() <= 1) {
        SimOptions run_opts = opts.sim;
        applySmSampling(run_opts);
        rec.sim = sim.run(launch, run_opts);
        rec.sim.deviceBytesPeak = devPeak;
        rec.hasSim = true;
        return;
    }

    // Defer the timing simulation: launches are mutually independent
    // (each starts from a flushed device), so they can run
    // concurrently at the next sync(). The launch's trace closures
    // reference the kernel's operand buffers — callers must sync()
    // before those die (GnnPipeline::run and timeline() do).
    pending.push_back(
        PendingSim{recordIndex, std::move(launch), devPeak});
}

void
SimEngine::sync()
{
    if (pending.empty())
        return;
    // Lane 0 reuses the engine's own simulator; each extra lane owns
    // one more.
    while (static_cast<int>(laneSims.size()) < workers.lanes() - 1)
        laneSims.push_back(std::make_unique<GpuSimulator>(opts.gpu));
    SimOptions lane_opts = opts.sim;
    applySmSampling(lane_opts);
    // ThreadPool workers must not unwind; capture per-launch errors
    // and rethrow the lowest launch index on the calling thread so
    // the reported failure is independent of lane scheduling.
    std::vector<std::exception_ptr> errors(pending.size());
    workers.parallelFor(
        pending.size(), [&](size_t i, int lane) {
            GpuSimulator &lane_sim =
                lane == 0 ? sim
                          : *laneSims[static_cast<size_t>(lane - 1)];
            PendingSim &p = pending[i];
            try {
                records[p.recordIndex].sim =
                    lane_sim.run(p.launch, lane_opts);
                records[p.recordIndex].sim.deviceBytesPeak =
                    p.deviceBytesPeak;
                records[p.recordIndex].hasSim = true;
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    pending.clear();
    for (std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace gsuite
