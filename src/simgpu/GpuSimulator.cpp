#include "simgpu/GpuSimulator.hpp"

#include <algorithm>
#include <cinttypes>

#include "simgpu/CtaSampler.hpp"
#include "util/Logging.hpp"
#include "util/RunError.hpp"

namespace gsuite {

namespace {

/**
 * Hard safety limit: a launch still running at this cycle stops, its
 * parked memory accesses drain, and the run reports the stats so far
 * with a warning.
 */
constexpr uint64_t kSimCycleLimit = 50'000'000;

/** Cycle interval between warp-scheduler trace samples. */
constexpr uint64_t kSmSampleIntervalCycles = 1024;

/** Validate before any member (MemorySystem divides by slice count). */
GpuConfig
validated(GpuConfig cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

GpuSimulator::GpuSimulator(GpuConfig config)
    : cfg(validated(std::move(config))), mem(cfg)
{
    sms.reserve(static_cast<size_t>(cfg.numSms));
    for (int i = 0; i < cfg.numSms; ++i)
        sms.push_back(std::make_unique<Sm>(cfg, i, mem));
    smStats.resize(static_cast<size_t>(cfg.numSms));
}

void
GpuSimulator::assignCtas(RunControl &ctl)
{
    // Assign pending CTAs to SMs with free slots (round-robin by
    // free-slot discovery order). Sampled runs walk the plan's CTA
    // order instead of the dense prefix.
    for (auto &sm : sms) {
        while (ctl.nextCta < ctl.ctasToSim && sm->hasFreeCtaSlot()) {
            const int64_t id =
                ctl.sampleOrder
                    ? (*ctl.sampleOrder)[static_cast<size_t>(
                          ctl.nextCta)]
                    : ctl.nextCta;
            ++ctl.nextCta;
            sm->assignCta(id, ctl.cycle);
        }
    }
}

void
GpuSimulator::controlPhase(RunControl &ctl, bool issued,
                           uint64_t next_event)
{
    constexpr uint64_t kNoEvent = ~uint64_t{0};

    // The watchdog ceiling stops the clock exactly like the cycle
    // limit (so fast-forwarding cannot overshoot it), but is reported
    // as an error instead of a truncation.
    const uint64_t hard_stop =
        ctl.cycleCeiling ? std::min(kSimCycleLimit, ctl.cycleCeiling)
                         : kSimCycleLimit;

    // Advance first, then re-assign and re-check: the reported cycle
    // count includes the cycle in which the last instruction issued
    // (matching the original serial loop, which broke at the top of
    // the iteration after the final issue).
    if (issued || next_event <= ctl.cycle + 1 ||
        next_event == kNoEvent) {
        ctl.cycle += 1;
    } else {
        // Fast-forward: nothing can issue until next_event, so
        // repeat each SM's current classification for the gap.
        const uint64_t target = std::min(next_event, hard_stop);
        const uint64_t delta = target - ctl.cycle - 1;
        if (delta > 0) {
            for (auto &sm : sms)
                sm->accountExtra(delta);
        }
        ctl.cycle = target;
    }

    // Trace sampling: snapshot the sampling core's cumulative
    // scheduler counters at the first stepped cycle at or past each
    // interval boundary. Reads only, after every SM stepped and every
    // slice resolved — every deterministic counter is invariant to
    // sampling.
    if (ctl.sampleEnabled && ctl.cycle >= ctl.nextSampleCycle) {
        ctl.samples.push_back(
            sms[static_cast<size_t>(ctl.sampleCore)]
                ->sampleSchedState(ctl.cycle));
        ctl.nextSampleCycle =
            (ctl.cycle / kSmSampleIntervalCycles + 1) *
            kSmSampleIntervalCycles;
    }

    if (ctl.cycle >= hard_stop) {
        ctl.done = true;
        if (ctl.cycleCeiling && ctl.cycle >= ctl.cycleCeiling)
            ctl.hitCeiling = true;
        else
            ctl.hitLimit = true;
        return;
    }

    assignCtas(ctl);

    bool busy = ctl.nextCta < ctl.ctasToSim;
    for (auto &sm : sms)
        busy = busy || sm->busy();
    if (!busy)
        ctl.done = true;
}

KernelStats
GpuSimulator::run(const KernelLaunch &launch, const SimOptions &opts)
{
    panicIf(!launch.hasTraceGen(),
            "KernelLaunch without a trace generator");
    panicIf(launch.dims.numCtas <= 0 || launch.dims.threadsPerCta <= 0,
            "KernelLaunch with empty grid");

    const size_t chunk_instrs = static_cast<size_t>(
        std::max(32, opts.traceChunkInstrs));

    // SM-subset sampling: the simulated numSms SMs stand for a GPU
    // with numSms * smSampleFactor SMs, so each should process a
    // 1/smSampleFactor share of the grid — this preserves per-SM
    // occupancy (small launches underfill the machine exactly as
    // they would the real one). The maxCtas cap bounds runtime for
    // huge grids on top of that.
    const int64_t expected = launch.dims.ctaShare(cfg.smSampleFactor);

    // CTA sampling (sample.mode=cta): cycle-simulate a deterministic
    // stratified sample of that per-SM share and extrapolate. When
    // the plan does not engage (off, or the launch is small) the run
    // below is byte-identical to the pre-sampling simulator.
    CtaSamplePlan plan;
    if (cfg.sampleMode == CtaSampleMode::Cta)
        plan = buildCtaSamplePlan(cfg, launch, expected, opts.maxCtas);
    std::vector<std::vector<CtaSampleRecord>> sm_records;
    if (plan.engaged)
        sm_records.resize(sms.size());

    mem.reset();
    for (auto &st : smStats)
        st = KernelStats{};
    for (size_t i = 0; i < sms.size(); ++i)
        sms[i]->beginLaunch(&launch, &smStats[i], chunk_instrs,
                            opts.perSmFastForward,
                            plan.engaged ? &sm_records[i] : nullptr);

    RunControl ctl;
    ctl.ctasToSim = plan.engaged
                        ? static_cast<int64_t>(plan.order.size())
                        : std::min(expected, opts.maxCtas);
    ctl.sampleOrder = plan.engaged ? &plan.order : nullptr;
    ctl.cycleCeiling = opts.cycleCeiling;
    if (opts.smSampleEnabled) {
        ctl.sampleEnabled = true;
        ctl.sampleCore = std::clamp(opts.smSampleCore, 0,
                                    cfg.numSms - 1);
        ctl.nextSampleCycle = kSmSampleIntervalCycles;
    }

    assignCtas(ctl); // initial CTA wave at cycle 0

    const int num_slices = mem.numSlices();
    while (!ctl.done) {
        bool issued = false;
        uint64_t next_event = ~uint64_t{0};
        for (auto &sm : sms)
            issued = sm->stepCycle(ctl.cycle, next_event) || issued;
        for (int s = 0; s < num_slices; ++s)
            mem.resolveSlice(s);
        controlPhase(ctl, issued, next_event);
    }

    if (ctl.hitCeiling)
        throw RunException(
            RunError::Timeout,
            "kernel '" + launch.name + "' exceeded the " +
                std::to_string(ctl.cycleCeiling) +
                "-cycle watchdog ceiling");

    // A truncated run (cycle limit) can stop the clock while a parked
    // access is still back-pressured mid-resolution; give the slices
    // as many further service rounds as they need first, so the drain
    // below only ever folds complete results.
    uint64_t drain_rounds = 0;
    while (mem.anyParkedIncomplete()) {
        for (int s = 0; s < num_slices; ++s)
            mem.resolveSlice(s);
        panicIf(++drain_rounds > 1000000,
                "parked memory accesses failed to drain (livelock?)");
    }
    // Flush any still-parked memory access so its counters land.
    for (auto &sm : sms)
        sm->drainParkedMem();

    // Closing sample so the trace covers the tail of the run (after
    // the parked-memory drain, whose counters belong to the launch).
    if (ctl.sampleEnabled &&
        (ctl.samples.empty() ||
         ctl.samples.back().cycle < ctl.cycle))
        ctl.samples.push_back(
            sms[static_cast<size_t>(ctl.sampleCore)]
                ->sampleSchedState(ctl.cycle));

    // Deterministic reduction: per-SM stats merge in SM-index order,
    // then the launch-global fields overwrite the zero-initialized
    // slots the per-SM stats never touch.
    KernelStats stats;
    for (const auto &st : smStats)
        stats.merge(st);
    // SMs hold their chunks concurrently: the launch footprint is the
    // sum of per-SM peaks (merge() combines peaks as max, which is
    // right across launches but not across SMs of one launch).
    stats.traceBytesPeak = 0;
    for (const auto &st : smStats)
        stats.traceBytesPeak += st.traceBytesPeak;
    stats.name = launch.name;
    stats.kind = launch.kind;
    stats.ctasTotal = launch.dims.numCtas;
    stats.ctasExpected = expected;
    stats.ctasSimulated = ctl.ctasToSim;
    stats.cycles = ctl.cycle;
    stats.dramBusyCycles =
        static_cast<uint64_t>(mem.dramBusyCycles());
    stats.dramChannels = cfg.numL2Slices;
    stats.dramQueuePeak = mem.dramQueuePeak();
    stats.smSamples = std::move(ctl.samples);

    if (plan.engaged) {
        // Gather per-SM completion records into the canonical order
        // (each CTA completes on exactly one SM, so sorting by CTA id
        // is independent of SM assignment), then extrapolate.
        std::vector<CtaSampleRecord> records;
        for (const auto &v : sm_records)
            records.insert(records.end(), v.begin(), v.end());
        std::sort(records.begin(), records.end(),
                  [](const CtaSampleRecord &a,
                     const CtaSampleRecord &b) {
                      return a.ctaId < b.ctaId;
                  });
        extrapolateCtaSample(plan, records, stats);
    }

    if (ctl.hitLimit) {
        warn("kernel '%s' hit the %" PRIu64
             "-cycle simulation limit after %" PRIu64
             " of %" PRIu64 " CTAs (expected %" PRIu64 ")",
             launch.name.c_str(), kSimCycleLimit,
             static_cast<uint64_t>(ctl.nextCta),
             static_cast<uint64_t>(ctl.ctasToSim),
             static_cast<uint64_t>(expected));
    }
    return stats;
}

} // namespace gsuite
