#include "simgpu/MemorySystem.hpp"

#include <algorithm>

#include "util/Logging.hpp"

namespace gsuite {

MemorySystem::MemorySystem(const GpuConfig &cfg) : cfg(cfg)
{
    L1 sm_l1{Cache(cfg.l1d), {}};
    sm_l1.mshr.configure(cfg.l1Mshr);
    l1.assign(static_cast<size_t>(cfg.numSms), sm_l1);

    CacheGeometry slice_geo = cfg.l2;
    slice_geo.sizeBytes =
        cfg.l2.sizeBytes / static_cast<uint64_t>(cfg.numL2Slices);

    // Each slice owns an equal share of the DRAM bandwidth, so its
    // bus is busy a fractional number of cycles per sector.
    const double cycles_per_sector =
        static_cast<double>(cfg.l2.sectorBytes) /
        (cfg.dramBytesPerCycle() / cfg.numL2Slices);

    Slice slice{Cache(slice_geo), {},
                DramChannel(cfg.dram, cfg.dramLatency,
                            cycles_per_sector)};
    slice.mshr.configure(cfg.l2Mshr);
    slices.assign(static_cast<size_t>(cfg.numL2Slices), slice);

    parked.assign(static_cast<size_t>(cfg.numSms), ParkedReq{});
}

int
MemorySystem::sliceOf(uint64_t addr) const
{
    const uint64_t line =
        addr / static_cast<uint64_t>(cfg.l2.lineBytes);
    return static_cast<int>(
        line & static_cast<uint64_t>(cfg.numL2Slices - 1));
}

uint64_t
MemorySystem::sliceLocalAddr(uint64_t addr) const
{
    const uint64_t line_bytes =
        static_cast<uint64_t>(cfg.l2.lineBytes);
    const uint64_t line = addr / line_bytes;
    return (line / static_cast<uint64_t>(cfg.numL2Slices)) *
               line_bytes +
           addr % line_bytes;
}

bool
MemorySystem::l1MshrReady(int sm, uint64_t cycle) const
{
    return l1[static_cast<size_t>(sm)].mshr.ready(cycle);
}

uint64_t
MemorySystem::l1MshrNextRelease(int sm, uint64_t cycle) const
{
    return l1[static_cast<size_t>(sm)].mshr.nextRelease(cycle);
}

bool
MemorySystem::beginAccess(int sm, uint64_t cycle,
                          std::span<const uint64_t> lane_addrs,
                          MemAccessKind kind, KernelStats &stats,
                          MemAccessResult &out)
{
    panicIf(sm < 0 || sm >= cfg.numSms, "SM index out of range");
    ParkedReq &req = parked[static_cast<size_t>(sm)];
    panicIf(req.active, "SM issued a second access with one parked");
    L1 &sm_l1 = l1[static_cast<size_t>(sm)];

    // --- coalescer: collapse lane addresses into unique sectors -------
    const uint64_t sector_bytes =
        static_cast<uint64_t>(cfg.l1d.sectorBytes);
    uint64_t sectors[32];
    const int num_sectors =
        coalesceSectors(lane_addrs, sector_bytes, sectors);
    int max_conflict = 1;
    if (kind == MemAccessKind::Atomic) {
        // Conflicting lanes (same 4-byte word) serialize the RMW.
        for (size_t i = 0; i < lane_addrs.size(); ++i) {
            int conflicts = 1;
            for (size_t j = 0; j < i; ++j) {
                if (lane_addrs[j] / 4 == lane_addrs[i] / 4)
                    ++conflicts;
            }
            max_conflict = std::max(max_conflict, conflicts);
        }
    }

    stats.memInstrs += 1;
    stats.memSectors += static_cast<uint64_t>(num_sectors);

    out.sectors = num_sectors;
    // The LSU pumps up to 4 sector transactions per cycle; a partial
    // last group still occupies a full pump cycle.
    out.lsuCycles = std::max(1, (num_sectors + 3) / 4);
    out.completion = cycle + 1;

    // --- phase-1 L1 stage --------------------------------------------
    const bool use_l1 =
        kind == MemAccessKind::Load
            ? !cfg.l1BypassLoads
            : kind == MemAccessKind::Store; // atomics bypass L1

    req.cycle = cycle;
    req.kind = kind;
    req.maxConflict = max_conflict;
    req.numSectors = num_sectors;
    bool any_pending = false;
    for (int i = 0; i < num_sectors; ++i) {
        SectorReq &q = req.sectors[i];
        const uint64_t addr = sectors[i] * sector_bytes;
        q = SectorReq{};
        q.addr = addr;
        q.issueAt = cycle + static_cast<uint64_t>(i / 4);
        q.slice = sliceOf(addr);
        q.needsL2 = true;

        if (use_l1) {
            const CacheProbe p = sm_l1.cache.probe(addr, q.issueAt);
            if (p.hit) {
                ++stats.l1Hits;
                if (kind == MemAccessKind::Load) {
                    // Served by L1; no L2 traffic for this sector.
                    q.needsL2 = false;
                    q.done = std::max(
                        q.issueAt +
                            static_cast<uint64_t>(cfg.l1Latency),
                        p.ready);
                }
                // Stores write through: the L1 copy stays coherent at
                // no extra cost, but the sector still updates L2.
            } else {
                ++stats.l1Misses;
                if (kind == MemAccessKind::Load)
                    q.fillL1 = true;
            }
        }

        if (q.needsL2) {
            // Every sector headed past the L1 holds an L1 MSHR entry
            // until finishAccess() — the one miss queue that loads,
            // stores and atomics share. A same-line entry merges (no
            // new entry, same tracking); a full table delays the
            // sector to the earliest known release; if every entry is
            // busy with an unknown release (entries claimed by this
            // very access), the sector spills untracked (-1) — the
            // issue-time l1MshrReady() gate keeps this rare.
            const uint64_t line =
                addr / static_cast<uint64_t>(cfg.l1d.lineBytes);
            uint64_t at = q.issueAt;
            q.l1Entry = sm_l1.mshr.acquire(line, at);
            q.issueAt = at;
            any_pending = true;
        }
    }

    if (!any_pending) {
        // Pure L1-hit load: complete without touching the slices.
        for (int i = 0; i < num_sectors; ++i)
            out.completion =
                std::max(out.completion, req.sectors[i].done);
        return true;
    }
    req.active = true;
    ++numParked;
    return false;
}

void
MemorySystem::resolveSlice(int slice)
{
    if (numParked == 0)
        return; // no sector to service, no ticket to redeem
    Slice &sl = slices[static_cast<size_t>(slice)];
    sl.dram.beginCycle();
    const uint64_t line_bytes = static_cast<uint64_t>(cfg.l2.lineBytes);

    // Pass 1: probe the slice's L2 for every pending sector, in
    // (SM, sector) order. Hits resolve here. A miss needs room in the
    // DRAM queue before it claims an L2 MSHR entry (a full table
    // delays it to the earliest known release), then takes a DRAM
    // ticket; a sector refused by either slips one cycle and retries
    // on the next resolveSlice() call.
    for (auto &req : parked) {
        if (!req.active)
            continue;
        const uint64_t rmw_extra =
            req.kind == MemAccessKind::Atomic ? 4 : 0;
        for (int i = 0; i < req.numSectors; ++i) {
            SectorReq &q = req.sectors[i];
            if (q.slice != slice || !q.needsL2 || q.resolved)
                continue;
            const uint64_t local = sliceLocalAddr(q.addr);
            const CacheProbe p = sl.l2.probe(local, q.issueAt);
            if (p.hit) {
                const uint64_t hit_at =
                    q.issueAt + static_cast<uint64_t>(cfg.l2Latency);
                q.l2Hit = true;
                q.done = std::max(hit_at, p.ready) + rmw_extra;
                q.resolved = true;
                continue;
            }
            uint64_t at = q.issueAt;
            const int entry =
                sl.dram.canAccept()
                    ? sl.mshr.acquire(local / line_bytes, at)
                    : -1;
            if (entry < 0) {
                q.issueAt += 1; // retry next cycle
                continue;
            }
            q.l2Entry = entry;
            q.ticket = sl.dram.request(local, at);
            panicIf(q.ticket < 0, "DRAM queue refused after canAccept");
        }
    }

    // Pass 2: the DRAM scheduler drains this cycle's queue.
    sl.dram.service();

    // Pass 3: redeem tickets — install L2 fills, release L2 MSHR
    // entries, record completions and row-locality outcomes.
    for (auto &req : parked) {
        if (!req.active)
            continue;
        const uint64_t rmw_extra =
            req.kind == MemAccessKind::Atomic ? 4 : 0;
        for (int i = 0; i < req.numSectors; ++i) {
            SectorReq &q = req.sectors[i];
            if (q.slice != slice || q.resolved || q.ticket < 0)
                continue;
            const uint64_t ready = sl.dram.readyOf(q.ticket);
            q.rowHit = sl.dram.rowHitOf(q.ticket);
            q.dramServed = true;
            sl.l2.fill(sliceLocalAddr(q.addr), q.issueAt, ready);
            sl.mshr.release(q.l2Entry, ready);
            q.done = ready + rmw_extra;
            q.resolved = true;
        }
    }
}

bool
MemorySystem::parkedComplete(int sm) const
{
    const ParkedReq &req = parked[static_cast<size_t>(sm)];
    if (!req.active)
        return true;
    for (int i = 0; i < req.numSectors; ++i) {
        const SectorReq &q = req.sectors[i];
        if (q.needsL2 && !q.resolved)
            return false;
    }
    return true;
}

bool
MemorySystem::anyParkedIncomplete() const
{
    for (int sm = 0; sm < cfg.numSms; ++sm) {
        if (hasParked(sm) && !parkedComplete(sm))
            return true;
    }
    return false;
}

uint64_t
MemorySystem::finishAccess(int sm, KernelStats &stats)
{
    ParkedReq &req = parked[static_cast<size_t>(sm)];
    panicIf(!req.active, "finishAccess without a parked request");
    panicIf(!parkedComplete(sm),
            "finishAccess with unresolved sectors");
    L1 &sm_l1 = l1[static_cast<size_t>(sm)];

    uint64_t completion = req.cycle + 1;
    for (int i = 0; i < req.numSectors; ++i) {
        SectorReq &q = req.sectors[i];
        completion = std::max(completion, q.done);
        if (!q.needsL2)
            continue;
        if (q.l2Hit) {
            ++stats.l2Hits;
        } else {
            ++stats.l2Misses;
            stats.dramBytes +=
                static_cast<uint64_t>(cfg.l2.sectorBytes);
        }
        if (q.dramServed) {
            if (q.rowHit)
                ++stats.dramRowHits;
            else
                ++stats.dramRowMisses;
        }
        if (q.l1Entry >= 0)
            sm_l1.mshr.release(q.l1Entry, q.done);
        if (q.fillL1)
            sm_l1.cache.fill(q.addr, q.issueAt, q.done);
    }
    if (req.kind == MemAccessKind::Atomic)
        completion += 2 * static_cast<uint64_t>(req.maxConflict);
    req.active = false;
    --numParked;
    return completion;
}

MemAccessResult
MemorySystem::warpAccess(int sm, uint64_t cycle,
                         std::span<const uint64_t> lane_addrs,
                         MemAccessKind kind, KernelStats &stats)
{
    MemAccessResult res;
    if (beginAccess(sm, cycle, lane_addrs, kind, stats, res)) {
        stats.dramBusyCycles =
            static_cast<uint64_t>(dramBusyCycles());
        return res;
    }
    // Slices may back-pressure (MSHRs / queue bounds): keep running
    // resolve rounds — each round is one simulated cycle of slice
    // service — until every sector has an answer.
    uint64_t rounds = 0;
    while (!parkedComplete(sm)) {
        for (int s = 0; s < numSlices(); ++s)
            resolveSlice(s);
        panicIf(++rounds > 1000000,
                "memory request failed to drain (livelock?)");
    }
    res.completion = finishAccess(sm, stats);
    stats.dramBusyCycles = static_cast<uint64_t>(dramBusyCycles());
    return res;
}

double
MemorySystem::dramBusyCycles() const
{
    double total = 0.0;
    for (const Slice &sl : slices)
        total += sl.dram.busyCycles();
    return total;
}

uint64_t
MemorySystem::dramQueuePeak() const
{
    uint64_t peak = 0;
    for (const Slice &sl : slices)
        peak = std::max(peak, sl.dram.queuePeak());
    return peak;
}

void
MemorySystem::reset()
{
    for (L1 &sm_l1 : l1) {
        sm_l1.cache.flush();
        sm_l1.mshr.reset();
    }
    for (Slice &sl : slices) {
        sl.l2.flush();
        sl.mshr.reset();
        sl.dram.reset();
    }
    for (auto &req : parked)
        req = ParkedReq{};
    numParked = 0;
}

} // namespace gsuite
