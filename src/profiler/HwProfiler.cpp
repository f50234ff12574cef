#include "profiler/HwProfiler.hpp"

#include <algorithm>
#include <vector>

#include "simgpu/MemorySystem.hpp"
#include "util/Logging.hpp"
#include "util/ThreadPool.hpp"

namespace gsuite {

namespace {

/** One sector bound for the shared L2. */
struct L2Access {
    uint64_t addr;
    /** Index among the L2 accesses of its CTA, in issue order. */
    uint32_t pos;
};

/** One window's L2 accesses of one SM that fall in one L2 part. */
struct L2Part {
    std::vector<L2Access> accesses;
    /** End of each of the SM's CTAs (in window order) in accesses. */
    std::vector<uint32_t> ctaEnd;
};

/**
 * Replay state of one modeled SM. Aligned so that the lanes
 * replaying neighbouring SMs never write the same host cache line.
 */
struct alignas(64) SmReplay {
    explicit SmReplay(const CacheGeometry &g) : l1(g) {}

    Cache l1;
    uint64_t now = 0; ///< L1 pseudo-clock, one tick per sector
    uint64_t l1Hits = 0;
    uint64_t l1Misses = 0;
    WarpTrace trace;
    /** L2 accesses of each of the SM's window CTAs (in order). */
    std::vector<uint32_t> ctaL2;
    std::vector<L2Part> parts; ///< one per L2 part
};

/** Lane-private L2 counters of one part. */
struct alignas(64) PartCount {
    uint64_t hits = 0;
    uint64_t misses = 0;
};

} // namespace

HwProfiler::HwProfiler(HwProfilerConfig cfg) : cfg(cfg)
{
}

HwProfileResult
HwProfiler::profile(const KernelLaunch &launch)
{
    int threads = cfg.numThreads > 0
                      ? cfg.numThreads
                      : std::min(ThreadPool::defaultLanes(), cfg.numSms);
    threads = std::clamp(threads, 1, cfg.numSms);
    if (threads == 1)
        return profile(launch, nullptr);
    ThreadPool pool(threads);
    return profile(launch, &pool);
}

HwProfileResult
HwProfiler::profile(const KernelLaunch &launch, ThreadPool *pool)
{
    panicIf(!launch.hasTraceGen(), "profiling a launch without traces");

    const int64_t ctas = std::min(
        launch.dims.ctaShare(cfg.smSampleFactor), cfg.maxCtas);
    const int warps = launch.dims.warpsPerCta();
    const uint64_t sector =
        static_cast<uint64_t>(cfg.l1.sectorBytes);
    const int num_sms = cfg.numSms;

    Cache l2(cfg.l2);
    const uint64_t l2_sets = static_cast<uint64_t>(l2.numSets());
    const int parts = static_cast<int>(std::min<uint64_t>(
        static_cast<uint64_t>(pool ? pool->lanes() : 1), l2_sets));
    std::vector<SmReplay> sms;
    sms.reserve(static_cast<size_t>(num_sms));
    for (int i = 0; i < num_sms; ++i) {
        sms.emplace_back(cfg.l1);
        sms.back().parts.resize(static_cast<size_t>(parts));
    }

    // Phase 1 replays each SM's L1 over the window's CTAs. CTAs are
    // distributed round-robin (cta % numSms), so each L1 sees the
    // access sequence of the serial replay, in its order. Accesses
    // that reach L2 are filed under the part owning their L2 set.
    int64_t window_begin = 0;
    int64_t window_end = 0;
    auto replaySm = [&](size_t sm_index, int /*lane*/) {
        SmReplay &sm = sms[sm_index];
        sm.ctaL2.clear();
        for (L2Part &part : sm.parts) {
            part.accesses.clear();
            part.ctaEnd.clear();
        }
        uint64_t now = sm.now;
        uint64_t hits = 0;
        uint64_t misses = 0;
        // Windows start at multiples of numSms, so SM k's first CTA
        // in the window is window_begin + k.
        for (int64_t cta =
                 window_begin + static_cast<int64_t>(sm_index);
             cta < window_end; cta += num_sms) {
            uint32_t pos = 0;
            for (int w = 0; w < warps; ++w) {
                // Stream the warp's trace in bounded chunks; the
                // replay only needs one chunk resident at a time.
                WarpTraceStream stream = launch.makeStream(cta, w);
                uint8_t reg_cursor = 0;
                bool stream_done = false;
                while (!stream_done) {
                    sm.trace.clear();
                    TraceBuilder tb(sm.trace, 512, reg_cursor);
                    stream_done = stream(tb);
                    panicIf(sm.trace.instrs.empty(),
                            "trace stream made no progress");
                    for (const SimInstr &in : sm.trace.instrs) {
                        if (!isGlobalMemOp(in.op))
                            continue;
                        uint64_t sectors[32];
                        const int ns = coalesceSectors(
                            sm.trace.addrsOf(in), sector, sectors);
                        for (int i = 0; i < ns; ++i) {
                            const uint64_t addr =
                                sectors[i] * sector;
                            ++now;
                            if (in.op == Op::LDG) {
                                // Loads allocate in L1 on a miss;
                                // a hit is served there.
                                if (sm.l1.access(addr, now)) {
                                    ++hits;
                                    continue;
                                }
                                ++misses;
                            } else if (in.op == Op::STG) {
                                // Stores write through without
                                // allocating.
                                if (sm.l1.probe(addr, now).hit)
                                    ++hits;
                                else
                                    ++misses;
                            }
                            // The access reaches L2 (atomics land
                            // there directly).
                            const size_t part = static_cast<size_t>(
                                static_cast<uint64_t>(l2.setOf(addr)) *
                                static_cast<uint64_t>(parts) / l2_sets);
                            sm.parts[part].accesses.push_back(
                                {addr, pos++});
                        }
                    }
                }
            }
            sm.ctaL2.push_back(pos);
            for (L2Part &part : sm.parts)
                part.ctaEnd.push_back(
                    static_cast<uint32_t>(part.accesses.size()));
        }
        sm.now = now;
        sm.l1Hits += hits;
        sm.l1Misses += misses;
    };

    // Phase 2 replays the window's L2 accesses one part per lane.
    // Every part walks the window's CTAs in global order and stamps
    // each access with the serial replay's clock (the L2 accesses
    // before the window, then those of earlier CTAs in the window,
    // then the access's position in its CTA), so each L2 set sees
    // the serial replay's accesses, order and lastUse values.
    std::vector<uint64_t> cta_first; // window CTA -> first L2 tick
    std::vector<PartCount> counts(static_cast<size_t>(parts));
    auto replayPart = [&](size_t part, int /*lane*/) {
        PartCount c = counts[part];
        const int64_t n = window_end - window_begin;
        for (int64_t i = 0; i < n; ++i) {
            const L2Part &p = sms[static_cast<size_t>(i % num_sms)]
                                  .parts[part];
            const size_t slot = static_cast<size_t>(i / num_sms);
            const uint64_t first = cta_first[static_cast<size_t>(i)];
            for (uint32_t j = slot ? p.ctaEnd[slot - 1] : 0;
                 j < p.ctaEnd[slot]; ++j) {
                const L2Access &a = p.accesses[j];
                if (l2.access(a.addr, first + a.pos))
                    ++c.hits;
                else
                    ++c.misses;
            }
        }
        counts[part] = c;
    };

    // Windows bound the L2 buffers for large launches.
    const int64_t window_ctas = static_cast<int64_t>(num_sms) * 32;
    uint64_t l2_now = 0;
    for (window_begin = 0; window_begin < ctas;
         window_begin += window_ctas) {
        window_end = std::min(window_begin + window_ctas, ctas);
        if (pool)
            pool->parallelFor(sms.size(), replaySm);
        else
            for (size_t sm = 0; sm < sms.size(); ++sm)
                replaySm(sm, 0);

        cta_first.clear();
        for (int64_t i = 0; i < window_end - window_begin; ++i) {
            cta_first.push_back(l2_now + 1);
            l2_now += sms[static_cast<size_t>(i % num_sms)]
                          .ctaL2[static_cast<size_t>(i / num_sms)];
        }
        if (pool)
            pool->parallelFor(counts.size(), replayPart);
        else
            replayPart(0, 0);
    }

    HwProfileResult res;
    for (const SmReplay &sm : sms) {
        res.l1Hits += sm.l1Hits;
        res.l1Misses += sm.l1Misses;
    }
    for (const PartCount &c : counts) {
        res.l2Hits += c.hits;
        res.l2Misses += c.misses;
    }
    return res;
}

} // namespace gsuite
