#include "simgpu/KernelStats.hpp"

#include <algorithm>

#include "util/Logging.hpp"

namespace gsuite {

const char *
stallReasonName(StallReason r)
{
    switch (r) {
      case StallReason::Issued: return "InstructionIssued";
      case StallReason::MemoryDependency: return "MemoryDependency";
      case StallReason::ExecutionDependency:
        return "ExecutionDependency";
      case StallReason::InstructionFetch: return "InstructionFetch";
      case StallReason::Synchronization: return "Synchronization";
      case StallReason::MshrFull: return "MshrFull";
      case StallReason::NotSelected: return "NotSelected";
    }
    panic("unknown StallReason");
}

const char *
occBucketName(OccBucket b)
{
    switch (b) {
      case OccBucket::Stall: return "Stall";
      case OccBucket::Idle: return "Idle";
      case OccBucket::W8: return "W8";
      case OccBucket::W20: return "W20";
      case OccBucket::W32: return "W32";
    }
    panic("unknown OccBucket");
}

double
KernelStats::l1HitRate() const
{
    const uint64_t total = l1Hits + l1Misses;
    return total ? static_cast<double>(l1Hits) / total : 0.0;
}

double
KernelStats::l2HitRate() const
{
    const uint64_t total = l2Hits + l2Misses;
    return total ? static_cast<double>(l2Hits) / total : 0.0;
}

double
KernelStats::stallShare(StallReason r) const
{
    uint64_t total = 0;
    for (uint64_t v : stallCycles)
        total += v;
    return total ? static_cast<double>(
                       stallCycles[static_cast<size_t>(r)]) /
                       total
                 : 0.0;
}

double
KernelStats::occShare(OccBucket b) const
{
    uint64_t total = 0;
    for (uint64_t v : occCycles)
        total += v;
    return total ? static_cast<double>(
                       occCycles[static_cast<size_t>(b)]) /
                       total
                 : 0.0;
}

double
KernelStats::instrShare(InstrClass c) const
{
    return warpInstrs ? static_cast<double>(
                            instrByClass[static_cast<size_t>(c)]) /
                            warpInstrs
                      : 0.0;
}

double
KernelStats::computeUtilization() const
{
    return schedulerSlots
               ? static_cast<double>(aluBusyCycles) / schedulerSlots
               : 0.0;
}

double
KernelStats::memoryUtilization() const
{
    return cycles ? static_cast<double>(dramBusyCycles) /
                        (static_cast<double>(dramChannels) * cycles)
                  : 0.0;
}

double
KernelStats::divergence() const
{
    return memInstrs ? static_cast<double>(memSectors) / memInstrs : 0.0;
}

double
KernelStats::estimate(const std::string &stat) const
{
    for (const SampleEstimate &e : estimates)
        if (e.name == stat)
            return e.est;
    return toStatSet().get(stat);
}

double
KernelStats::estimateErr(const std::string &stat) const
{
    for (const SampleEstimate &e : estimates)
        if (e.name == stat)
            return e.err;
    return 0.0;
}

void
KernelStats::merge(const KernelStats &other)
{
    // Estimates combine estimated-or-exact totals per counter, so
    // they must read each side's raw counters before the counter
    // merge below mixes them. An unsampled side contributes its exact
    // value with zero error.
    if (!estimates.empty() || !other.estimates.empty()) {
        const StatSet mine = toStatSet();
        const StatSet theirs = other.toStatSet();
        auto side = [](const KernelStats &ks, const StatSet &raw,
                       const std::string &n) {
            for (const SampleEstimate &e : ks.estimates)
                if (e.name == n)
                    return std::pair<double, double>{e.est, e.err};
            return std::pair<double, double>{raw.get(n), 0.0};
        };
        std::vector<std::string> names;
        for (const SampleEstimate &e : estimates)
            names.push_back(e.name);
        for (const SampleEstimate &e : other.estimates)
            if (std::find(names.begin(), names.end(), e.name) ==
                names.end())
                names.push_back(e.name);
        std::vector<SampleEstimate> merged;
        merged.reserve(names.size());
        for (const std::string &n : names) {
            const auto [ea, ra] = side(*this, mine, n);
            const auto [eb, rb] = side(other, theirs, n);
            merged.push_back({n, ea + eb, ra + rb});
        }
        estimates = std::move(merged);
    }
    sampledCtas += other.sampledCtas;
    sampleStrata = std::max(sampleStrata, other.sampleStrata);

    cycles += other.cycles;
    ctasTotal += other.ctasTotal;
    ctasExpected += other.ctasExpected;
    ctasSimulated += other.ctasSimulated;
    warpsSimulated += other.warpsSimulated;
    for (size_t i = 0; i < instrByClass.size(); ++i)
        instrByClass[i] += other.instrByClass[i];
    warpInstrs += other.warpInstrs;
    threadInstrs += other.threadInstrs;
    for (size_t i = 0; i < stallCycles.size(); ++i)
        stallCycles[i] += other.stallCycles[i];
    for (size_t i = 0; i < occCycles.size(); ++i)
        occCycles[i] += other.occCycles[i];
    l1Hits += other.l1Hits;
    l1Misses += other.l1Misses;
    l2Hits += other.l2Hits;
    l2Misses += other.l2Misses;
    memInstrs += other.memInstrs;
    memSectors += other.memSectors;
    dramBytes += other.dramBytes;
    dramBusyCycles += other.dramBusyCycles;
    // Launches merged together ran on one machine.
    dramChannels = std::max(dramChannels, other.dramChannels);
    dramRowHits += other.dramRowHits;
    dramRowMisses += other.dramRowMisses;
    // Queue depth does not accumulate across sequential launches.
    dramQueuePeak = std::max(dramQueuePeak, other.dramQueuePeak);
    aluBusyCycles += other.aluBusyCycles;
    schedulerSlots += other.schedulerSlots;
    classifyEvals += other.classifyEvals;
    fastForwardCycles += other.fastForwardCycles;
    // Launches run one after another, so the aggregate footprint is a
    // high-water mark, not a sum (the per-SM sum within one launch is
    // computed by the simulator's reduction instead).
    traceBytesPeak = std::max(traceBytesPeak, other.traceBytesPeak);
    deviceBytesPeak =
        std::max(deviceBytesPeak, other.deviceBytesPeak);
}

StatSet
KernelStats::toStatSet() const
{
    StatSet s;
    s.set("cycles", static_cast<double>(cycles));
    s.set("ctas_total", static_cast<double>(ctasTotal));
    s.set("ctas_expected", static_cast<double>(ctasExpected));
    s.set("ctas_simulated", static_cast<double>(ctasSimulated));
    s.set("warps", static_cast<double>(warpsSimulated));
    s.set("warp_instrs", static_cast<double>(warpInstrs));
    s.set("thread_instrs", static_cast<double>(threadInstrs));
    for (int c = 0; c < kNumInstrClasses; ++c) {
        s.set(std::string("instr_") +
                  instrClassName(static_cast<InstrClass>(c)),
              static_cast<double>(instrByClass[static_cast<size_t>(c)]));
    }
    for (int r = 0; r < kNumStallReasons; ++r) {
        s.set(std::string("stall_") +
                  stallReasonName(static_cast<StallReason>(r)),
              static_cast<double>(stallCycles[static_cast<size_t>(r)]));
    }
    for (int b = 0; b < kNumOccBuckets; ++b) {
        s.set(std::string("occ_") +
                  occBucketName(static_cast<OccBucket>(b)),
              static_cast<double>(occCycles[static_cast<size_t>(b)]));
    }
    s.set("l1_hits", static_cast<double>(l1Hits));
    s.set("l1_misses", static_cast<double>(l1Misses));
    s.set("l2_hits", static_cast<double>(l2Hits));
    s.set("l2_misses", static_cast<double>(l2Misses));
    s.set("l1_hit_rate", l1HitRate());
    s.set("l2_hit_rate", l2HitRate());
    s.set("mem_instrs", static_cast<double>(memInstrs));
    s.set("mem_sectors", static_cast<double>(memSectors));
    s.set("dram_bytes", static_cast<double>(dramBytes));
    s.set("dram_busy_cycles", static_cast<double>(dramBusyCycles));
    s.set("dram_row_hits", static_cast<double>(dramRowHits));
    s.set("dram_row_misses", static_cast<double>(dramRowMisses));
    s.set("dram_queue_peak", static_cast<double>(dramQueuePeak));
    // Alias of stall_MshrFull under the deterministic *_cycles
    // naming so bench comparisons treat it as blocking-exact.
    s.set("mshr_stall_cycles",
          static_cast<double>(stallCycles[static_cast<size_t>(
              StallReason::MshrFull)]));
    s.set("alu_busy_cycles", static_cast<double>(aluBusyCycles));
    s.set("scheduler_slots", static_cast<double>(schedulerSlots));
    s.set("compute_util", computeUtilization());
    s.set("memory_util", memoryUtilization());
    s.set("divergence", divergence());
    s.set("trace_bytes_peak", static_cast<double>(traceBytesPeak));
    s.set("device_bytes_peak",
          static_cast<double>(deviceBytesPeak));
    s.set("classify_evals", static_cast<double>(classifyEvals));
    s.set("fast_forward_cycles",
          static_cast<double>(fastForwardCycles));
    if (sampledCtas > 0) {
        s.set("sampled_ctas", static_cast<double>(sampledCtas));
        s.set("sample_strata", static_cast<double>(sampleStrata));
        for (const SampleEstimate &e : estimates) {
            s.set("est_" + e.name, e.est);
            s.set("err_" + e.name, e.err);
        }
    }
    return s;
}

} // namespace gsuite
