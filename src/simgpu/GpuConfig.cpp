#include "simgpu/GpuConfig.hpp"

#include "obs/TraceSink.hpp"
#include "util/Logging.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

SchedulerPolicy
schedulerPolicyFromName(const std::string &name)
{
    const std::string n = toLower(trim(name));
    if (n == "gto" || n == "greedy")
        return SchedulerPolicy::Gto;
    if (n == "lrr" || n == "rr" || n == "round-robin")
        return SchedulerPolicy::Lrr;
    fatal("unknown scheduler '%s' (known: gto, lrr)", name.c_str());
}

const char *
schedulerPolicyName(SchedulerPolicy p)
{
    switch (p) {
      case SchedulerPolicy::Gto: return "gto";
      case SchedulerPolicy::Lrr: return "lrr";
    }
    panic("unknown SchedulerPolicy");
}

const char *
dramSchedPolicyName(DramSchedPolicy p)
{
    switch (p) {
      case DramSchedPolicy::Frfcfs: return "frfcfs";
      case DramSchedPolicy::Fcfs: return "fcfs";
    }
    panic("unknown DramSchedPolicy");
}

CtaSampleMode
ctaSampleModeFromName(const std::string &name)
{
    const std::string n = toLower(trim(name));
    if (n == "off" || n == "full" || n == "none")
        return CtaSampleMode::Off;
    if (n == "cta")
        return CtaSampleMode::Cta;
    fatal("unknown sample mode '%s' (known: off, cta)", name.c_str());
}

const char *
ctaSampleModeName(CtaSampleMode m)
{
    switch (m) {
      case CtaSampleMode::Off: return "off";
      case CtaSampleMode::Cta: return "cta";
    }
    panic("unknown CtaSampleMode");
}

GpuConfig
GpuConfig::v100Sim()
{
    return GpuConfig{};
}

GpuConfig
GpuConfig::testTiny()
{
    GpuConfig cfg;
    cfg.name = "test-tiny";
    cfg.numSms = 2;
    cfg.smSampleFactor = 1;
    cfg.maxWarpsPerSm = 8;
    cfg.maxThreadsPerSm = 256;
    cfg.maxCtasPerSm = 4;
    cfg.numSchedulers = 2;
    cfg.l1d = {4 * 1024, 128, 32, 4};
    cfg.l2 = {16 * 1024, 128, 32, 8};
    // Small enough that unit tests can drive the machine into MSHR
    // back-pressure and queue rejection with modest footprints.
    cfg.l1Mshr = {8, 4, 8};
    cfg.l2Mshr = {16, 4, 16};
    cfg.dram = {4, 512, 12, 28, 12, 2, DramSchedPolicy::Frfcfs, 8};
    return cfg;
}

void
GpuConfig::validate() const
{
    if (numSms <= 0)
        fatal("GpuConfig: numSms must be positive");
    if (maxWarpsPerSm <= 0 || numSchedulers <= 0)
        fatal("GpuConfig: bad SM geometry");
    if (maxWarpsPerSm % numSchedulers != 0)
        fatal("GpuConfig: maxWarpsPerSm must divide by numSchedulers");
    if (smSampleFactor <= 0 || maxThreadsPerSm <= 0 ||
        maxCtasPerSm <= 0)
        fatal("GpuConfig: SM capacities must be positive");
    if (aluLatency <= 0 || sfuLatency <= 0 ||
        aluInitiationInterval <= 0 || ldsLatency <= 0 ||
        icacheColdLatency <= 0 || ifetchLatency <= 0 ||
        l1Latency <= 0 || l2Latency <= 0 || dramLatency <= 0)
        fatal("GpuConfig: latencies must be positive cycles");
    if (coreClockGhz <= 0.0)
        fatal("GpuConfig: core clock must be positive");
    auto check_cache = [](const CacheGeometry &g, const char *label) {
        if (g.lineBytes <= 0 || g.sectorBytes <= 0 || g.assoc <= 0 ||
            g.lineBytes % g.sectorBytes != 0)
            fatal("GpuConfig: %s line/sector geometry invalid", label);
        if (g.numSets() <= 0)
            fatal("GpuConfig: %s too small for its associativity",
                  label);
        if ((g.numSets() & (g.numSets() - 1)) != 0)
            fatal("GpuConfig: %s set count must be a power of two",
                  label);
    };
    check_cache(l1d, "L1D");
    check_cache(l2, "L2");
    // The coalescer forms sectors at L1 granularity and the L2/DRAM
    // accounting reuses those same addresses at L2 granularity; a
    // mismatch would silently skew every L2 hit-rate and dramBytes
    // counter, so it is fatal rather than a warning.
    if (l1d.sectorBytes != l2.sectorBytes)
        fatal("GpuConfig: l1d.sector_bytes (%d) must equal "
              "l2.sector_bytes (%d): coalescing happens at L1 sector "
              "granularity and L2/DRAM accounting reuses it",
              l1d.sectorBytes, l2.sectorBytes);
    auto check_mshr = [](const MshrConfig &m, const char *label) {
        if (m.entries <= 0 || m.maxMerges <= 0)
            fatal("GpuConfig: %s MSHR entries/merges must be "
                  "positive", label);
        if (m.hitUnderMiss <= 0 || m.hitUnderMiss > m.entries)
            fatal("GpuConfig: %s MSHR hit-under-miss must be in "
                  "[1, entries]", label);
    };
    check_mshr(l1Mshr, "L1");
    check_mshr(l2Mshr, "L2");
    if (dram.numBanks < 1 ||
        (dram.numBanks & (dram.numBanks - 1)) != 0)
        fatal("GpuConfig: mem.dram_banks must be a positive power "
              "of two");
    if (dram.rowBytes < l2.sectorBytes ||
        dram.rowBytes % l2.sectorBytes != 0 ||
        (dram.rowBytes & (dram.rowBytes - 1)) != 0)
        fatal("GpuConfig: mem.dram_row_bytes must be a power of two "
              "multiple of the L2 sector size");
    if (dram.tRcd <= 0 || dram.tRas <= 0 || dram.tRp <= 0 ||
        dram.tCcd <= 0)
        fatal("GpuConfig: DRAM timing parameters must be positive "
              "cycles");
    if (dram.schedQueueSize <= 0)
        fatal("GpuConfig: mem.dram_sched_queue_size must be "
              "positive");
    if (dramBytesPerCyclePerSm <= 0)
        fatal("GpuConfig: DRAM bandwidth must be positive");
    if (numL2Slices < 1 ||
        (numL2Slices & (numL2Slices - 1)) != 0)
        fatal("GpuConfig: numL2Slices must be a positive power of two");
    if (l2.numSets() % numL2Slices != 0 ||
        l2.numSets() / numL2Slices < 1)
        fatal("GpuConfig: numL2Slices must divide the L2 set count");
    CacheGeometry slice = l2;
    slice.sizeBytes = l2.sizeBytes / static_cast<uint64_t>(numL2Slices);
    check_cache(slice, "L2 slice");
    if (!(sampleFraction > 0.0) || sampleFraction > 1.0)
        fatal("GpuConfig: sample.fraction must be in (0, 1]");
    if (sampleMinCtas < 1)
        fatal("GpuConfig: sample.min_ctas must be at least 1");
    if (traceSamplingCore < 0 || traceSamplingCore >= numSms)
        fatal("GpuConfig: trace.sampling_core must be in [0,%d)",
              numSms);
    unsigned mask = 0;
    if (!tryParseTraceComponents(traceComponents, mask))
        fatal("GpuConfig: bad trace.components '%s'",
              traceComponents.c_str());
}

} // namespace gsuite
