#include "profiler/HwProfiler.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "simgpu/MemorySystem.hpp"
#include "util/Logging.hpp"
#include "util/ThreadPool.hpp"

namespace gsuite {

namespace {

/** L1-side replay state and output of one modeled SM. */
struct SmReplay {
    uint64_t l1Hits = 0;
    uint64_t l1Misses = 0;
    /**
     * Addresses this SM forwards to the shared L2, grouped by CTA so
     * the L2 replay can reconstruct the global (CTA-major) order.
     */
    std::vector<std::vector<uint64_t>> l2AddrsByCta;
};

} // namespace

HwProfiler::HwProfiler(HwProfilerConfig cfg) : cfg(cfg)
{
}

HwProfileResult
HwProfiler::profile(const KernelLaunch &launch)
{
    panicIf(!launch.hasTraceGen(), "profiling a launch without traces");

    const int64_t ctas = std::min(
        launch.dims.ctaShare(cfg.smSampleFactor), cfg.maxCtas);
    const int warps = launch.dims.warpsPerCta();
    const uint64_t sector =
        static_cast<uint64_t>(cfg.l1.sectorBytes);
    const int num_sms = cfg.numSms;

    // CTAs replay in bounded windows so the per-window L2 address
    // buffers never grow with launch size (PR 1's trace-memory goal
    // holds). Within a window, phase 1 replays each modeled SM's L1
    // slice (parallel across SMs): CTAs are distributed round-robin
    // (cta % numSms), so each SM's L1 sees exactly the access
    // sequence the serial replay would feed it, and LRU state only
    // depends on that per-cache relative order. L1 caches and
    // pseudo-clocks persist across windows.
    const int64_t window_ctas =
        static_cast<int64_t>(num_sms) * 4;
    std::vector<SmReplay> sms(static_cast<size_t>(num_sms));
    std::vector<Cache> l1;
    l1.reserve(static_cast<size_t>(num_sms));
    for (int i = 0; i < num_sms; ++i)
        l1.emplace_back(cfg.l1);
    std::vector<uint64_t> l1Now(static_cast<size_t>(num_sms), 0);

    int64_t window_begin = 0;
    int64_t window_end = 0;
    auto replaySm = [&](size_t sm_index, int /*lane*/) {
        SmReplay &out = sms[sm_index];
        out.l2AddrsByCta.clear();
        Cache &myL1 = l1[sm_index];
        uint64_t &now = l1Now[sm_index];
        WarpTrace trace;
        // Windows start at multiples of numSms, so SM k's first CTA
        // in the window is window_begin + k.
        for (int64_t cta =
                 window_begin + static_cast<int64_t>(sm_index);
             cta < window_end; cta += num_sms) {
            out.l2AddrsByCta.emplace_back();
            std::vector<uint64_t> &l2_addrs =
                out.l2AddrsByCta.back();
            for (int w = 0; w < warps; ++w) {
                // Stream the warp's trace in bounded chunks; the
                // replay only needs one chunk resident at a time.
                WarpTraceStream stream = launch.makeStream(cta, w);
                uint8_t reg_cursor = 0;
                bool stream_done = false;
                while (!stream_done) {
                    trace.clear();
                    TraceBuilder tb(trace, 512, reg_cursor);
                    stream_done = stream(tb);
                    panicIf(trace.instrs.empty(),
                            "trace stream made no progress");
                    for (const SimInstr &in : trace.instrs) {
                        if (!isGlobalMemOp(in.op))
                            continue;
                        uint64_t sectors[32];
                        const int ns = coalesceSectors(
                            trace.addrsOf(in), sector, sectors);
                        for (int i = 0; i < ns; ++i) {
                            const uint64_t addr =
                                sectors[i] * sector;
                            ++now;
                            const bool use_l1 = in.op != Op::ATOM;
                            bool l1_hit = false;
                            if (use_l1) {
                                l1_hit =
                                    myL1.probe(addr, now).hit;
                                if (l1_hit)
                                    ++out.l1Hits;
                                else
                                    ++out.l1Misses;
                                if (l1_hit && in.op == Op::LDG)
                                    continue; // served by L1
                            }
                            // The access reaches L2 (stores write
                            // through; atomics land there directly).
                            l2_addrs.push_back(addr);
                            if (use_l1 && in.op == Op::LDG &&
                                !l1_hit)
                                myL1.fill(addr, now, now);
                        }
                    }
                }
            }
        }
    };

    int threads = cfg.numThreads > 0
                      ? cfg.numThreads
                      : std::min(ThreadPool::defaultLanes(), num_sms);
    threads = std::clamp(threads, 1, num_sms);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<ThreadPool>(threads);

    HwProfileResult res;
    Cache l2(cfg.l2);
    uint64_t l2Now = 0;
    for (window_begin = 0; window_begin < ctas;
         window_begin += window_ctas) {
        window_end = std::min(window_begin + window_ctas, ctas);
        if (pool)
            pool->parallelFor(sms.size(), replaySm);
        else
            for (size_t sm = 0; sm < sms.size(); ++sm)
                replaySm(sm, 0);

        // Phase 2 — shared-L2 replay of the window in global CTA
        // order (the order the serial replay issues), keeping L2
        // LRU decisions identical.
        for (int64_t cta = window_begin; cta < window_end; ++cta) {
            const SmReplay &sm =
                sms[static_cast<size_t>(cta % num_sms)];
            const size_t slot =
                static_cast<size_t>((cta - window_begin) / num_sms);
            for (const uint64_t addr : sm.l2AddrsByCta[slot]) {
                ++l2Now;
                if (l2.probe(addr, l2Now).hit)
                    ++res.l2Hits;
                else {
                    ++res.l2Misses;
                    l2.fill(addr, l2Now, l2Now);
                }
            }
        }
    }
    for (const SmReplay &sm : sms) {
        res.l1Hits += sm.l1Hits;
        res.l1Misses += sm.l1Misses;
    }
    return res;
}

} // namespace gsuite
