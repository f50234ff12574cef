/**
 * @file
 * The GPU memory hierarchy: per-SM sectored L1D caches with finite
 * MSHR tables and an address-sliced L2, each slice a share of the L2
 * with its own MSHR table and banked DRAM channel, fed through a
 * memory-access coalescer. MemorySystem owns every cache, table and
 * channel and routes each access through them itself.
 *
 * The interface is split into three phases that the simulator runs
 * in order each cycle, so every SM issues against the same L2/DRAM
 * state regardless of its index:
 *
 *  1. beginAccess() — called while the issuing SM steps. Coalesces
 *     lanes into sectors, probes that SM's L1 and claims L1 MSHR
 *     entries for every sector headed past the L1. Pure L1-hit loads
 *     complete immediately; anything that needs L2/DRAM is parked (at
 *     most one request per SM, enforced by the LSU port).
 *  2. resolveSlice() — called once per slice per cycle, after every
 *     SM has stepped, slices in index order. Walks the parked
 *     requests in SM-index order and services the sectors this slice
 *     owns through the slice's L2 and DRAM channel, so the L2/DRAM
 *     ordering is a deterministic function of
 *     (cycle, slice, sm). A sector can be back-pressured (L2 MSHRs
 *     exhausted or the DRAM queue full); it then retries on the next
 *     resolveSlice() call, which keeps its SM parked across cycles.
 *     While no SM has a parked request the phase returns at once:
 *     there is no sector to service and no DRAM ticket to redeem.
 *  3. finishAccess() — called while the owning SM steps, once
 *     parkedComplete(). Merges per-sector completions, applies L1
 *     fills, releases L1 MSHR entries, and folds the slice-side
 *     counters into the SM's stats.
 *
 * warpAccess() bundles the three phases for serial callers (unit
 * tests, offline tools); the simulator drives the phases directly.
 */

#ifndef GSUITE_SIMGPU_MEMORYSYSTEM_HPP
#define GSUITE_SIMGPU_MEMORYSYSTEM_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "simgpu/Cache.hpp"
#include "simgpu/GpuConfig.hpp"
#include "simgpu/KernelStats.hpp"
#include "simgpu/MemLevel.hpp"

namespace gsuite {

/** Kinds of global accesses with distinct cache policies. */
enum class MemAccessKind {
    Load,   ///< LDG: allocates in L1 and L2
    Store,  ///< STG: write-through, no L1 allocate, L2 allocate
    Atomic, ///< ATOM: performed at L2, bypasses L1
};

/**
 * The coalescer: collapse a warp's lane addresses into the unique
 * sectors they touch, in first-touch order. Writes each sector's
 * index (address / @p sector_bytes) to @p sectors and returns how
 * many there are (at most one per lane). The simulator's
 * beginAccess() and the hardware cache profiler both coalesce
 * through it.
 */
inline int
coalesceSectors(std::span<const uint64_t> lane_addrs,
                uint64_t sector_bytes, uint64_t (&sectors)[32])
{
    int n = 0;
    for (const uint64_t a : lane_addrs) {
        const uint64_t s = a / sector_bytes;
        bool found = false;
        for (int i = 0; i < n; ++i) {
            if (sectors[i] == s) {
                found = true;
                break;
            }
        }
        if (!found)
            sectors[n++] = s;
    }
    return n;
}

/** Result of one warp-level memory instruction. */
struct MemAccessResult {
    uint64_t completion = 0; ///< cycle when the value is usable
    int sectors = 0;         ///< unique 32B sectors touched
    int lsuCycles = 1;       ///< LSU occupancy charged for the access
};

/**
 * Orchestrates coalescing, the caches, their MSHR tables and the DRAM
 * channels. All per-launch counters are written into per-SM
 * KernelStats passed by the caller, so SMs never share a counter.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const GpuConfig &cfg);

    /**
     * Phase 1: coalesce and probe L1 for one warp-level access.
     *
     * @param sm Issuing SM index (selects the L1).
     * @param cycle Issue cycle.
     * @param lane_addrs Per-lane byte addresses (inactive lanes absent).
     * @param kind Load / store / atomic.
     * @param stats The issuing SM's statistics.
     * @param out Filled with sectors/lsuCycles always; completion only
     *        when the access completed in L1.
     * @return True if complete; false if parked for slice resolution.
     */
    bool beginAccess(int sm, uint64_t cycle,
                     std::span<const uint64_t> lane_addrs,
                     MemAccessKind kind, KernelStats &stats,
                     MemAccessResult &out);

    /**
     * Phase 2: service every parked sector owned by @p slice, in
     * SM-index order, through the slice's L2 and DRAM channel. Each
     * slice must be resolved by exactly one caller per cycle.
     * Back-pressured sectors stay pending for the next call.
     */
    void resolveSlice(int slice);

    /**
     * Phase 3: complete the SM's parked request — apply L1 fills,
     * release L1 MSHR entries, fold L2/DRAM counters into @p stats —
     * and return the warp-level completion cycle. Must only be
     * called when parkedComplete(sm).
     */
    uint64_t finishAccess(int sm, KernelStats &stats);

    /** True while @p sm has a parked (unfinished) request. */
    bool
    hasParked(int sm) const
    {
        return parked[static_cast<size_t>(sm)].active;
    }

    /**
     * True when every sector of @p sm's parked request has been
     * resolved by its slice (finishAccess may run). Also true when
     * nothing is parked.
     */
    bool parkedComplete(int sm) const;

    /**
     * True while any SM's parked request still has unresolved
     * sectors — the simulator must keep calling resolveSlice() every
     * cycle (no fast-forward) until this clears.
     */
    bool anyParkedIncomplete() const;

    /**
     * True when @p sm's L1 MSHR table can admit a new memory
     * instruction at @p cycle (busy entries below the hit-under-miss
     * limit). The SM's issue stage gates memory instructions on this
     * and reports StallReason::MshrFull otherwise.
     */
    bool l1MshrReady(int sm, uint64_t cycle) const;

    /**
     * Earliest cycle after @p cycle at which a busy L1 MSHR entry of
     * @p sm releases, for stall-event scheduling.
     * MshrTable::kPendingRelease (all ones, like the SM's kNoEvent)
     * when some busy entry's release is not yet known (its request
     * is still in flight); its parked access pins the SM meanwhile.
     */
    uint64_t l1MshrNextRelease(int sm, uint64_t cycle) const;

    /**
     * Serial convenience wrapper running all three phases, looping
     * resolveSlice() until back-pressure drains (unit tests /
     * non-simulator callers).
     */
    MemAccessResult warpAccess(int sm, uint64_t cycle,
                               std::span<const uint64_t> lane_addrs,
                               MemAccessKind kind, KernelStats &stats);

    /** Flush all caches and reset MSHR/DRAM state (between launches). */
    void reset();

    /** Number of independent L2/DRAM slices. */
    int
    numSlices() const
    {
        return static_cast<int>(slices.size());
    }

    /** DRAM busy cycles (sum over slices) since the last reset(). */
    double dramBusyCycles() const;

    /** High-water mark of any slice's DRAM queue since reset(). */
    uint64_t dramQueuePeak() const;

  private:
    /** One coalesced sector of a parked request. */
    struct SectorReq {
        uint64_t addr = 0;    ///< sector base address
        uint64_t issueAt = 0; ///< cycle the sector enters its slice
        uint64_t done = 0;    ///< completion (filled by its slice)
        int slice = 0;
        bool needsL2 = false; ///< false: satisfied by L1 in phase 1
        bool fillL1 = false;  ///< load that missed L1: fill on finish
        bool l2Hit = false;   ///< slice-side outcome, for stats
        bool resolved = false; ///< slice produced `done`
        bool dramServed = false; ///< went all the way to DRAM
        bool rowHit = false;   ///< DRAM open-row hit, for stats
        int l1Entry = -1;      ///< L1 MSHR entry (-1: spilled/none)
        int l2Entry = -1;      ///< L2 MSHR entry while in flight
        int ticket = -1;       ///< DRAM ticket within this cycle
    };

    /** At most one parked request per SM (LSU-port invariant). */
    struct ParkedReq {
        bool active = false;
        uint64_t cycle = 0;
        MemAccessKind kind = MemAccessKind::Load;
        int maxConflict = 1;
        int numSectors = 0;
        SectorReq sectors[32];
    };

    /** One SM's L1D and its miss table. */
    struct L1 {
        Cache cache;
        MshrTable mshr;
    };

    /** One address slice: its share of the L2, miss table and DRAM. */
    struct Slice {
        Cache l2;
        MshrTable mshr;
        DramChannel dram;
    };

    const GpuConfig &cfg;
    std::vector<L1> l1;            ///< one per SM
    std::vector<Slice> slices;     ///< one per L2 slice
    std::vector<ParkedReq> parked; ///< one slot per SM
    int numParked = 0;             ///< SMs with an active request

    int sliceOf(uint64_t addr) const;
    /** Remap @p addr into a slice-local address (slice bits removed). */
    uint64_t sliceLocalAddr(uint64_t addr) const;
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_MEMORYSYSTEM_HPP
