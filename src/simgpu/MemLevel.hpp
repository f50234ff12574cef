/**
 * @file
 * The bounded resources behind MemorySystem's caches: MshrTable, the
 * finite table of in-flight misses of one cache (an SM's L1 or a
 * slice's L2), and DramChannel, the banked DRAM channel behind one L2
 * slice, with per-bank row state and a selectable FR-FCFS/FCFS
 * scheduler over a bounded request queue.
 *
 * Determinism: every object here belongs to one SM or one slice, and
 * all service decisions are functions of request content and arrival
 * order, never of wall-clock.
 */

#ifndef GSUITE_SIMGPU_MEMLEVEL_HPP
#define GSUITE_SIMGPU_MEMLEVEL_HPP

#include <cstdint>
#include <vector>

#include "simgpu/GpuConfig.hpp"

namespace gsuite {

/**
 * Finite table of in-flight misses. An entry is busy while its fill
 * is outstanding (release pending) or until its release cycle
 * passes; freeing is lazy — acquire() treats any entry whose
 * release is <= the access time as reusable.
 *
 * Entries are stored as parallel arrays, so every query is a short
 * scan of one or two contiguous arrays. A never-claimed entry reads
 * releaseAt == 0 and merges == 0; "busy at cycle c" is therefore
 * releaseAt > c (kPendingRelease exceeds every cycle), and "claimed
 * since reset" is merges > 0, which stays true for an entry released
 * at cycle 0. Merges and free entries are taken lowest index first.
 */
class MshrTable
{
  public:
    static constexpr uint64_t kPendingRelease = ~uint64_t{0};

    void configure(const MshrConfig &cfg);
    void reset();

    /**
     * True when a new access may enter the cache at @p cycle: the
     * number of busy entries is below the hit-under-miss limit.
     */
    bool ready(uint64_t cycle) const;

    /**
     * Earliest cycle after @p cycle at which a busy entry releases,
     * or 0 when no entry is busy. kPendingRelease when there are
     * busy entries whose release is not yet known (fill still being
     * resolved); that implies a parked access, which pins its SM to
     * real time, so no caller can skip past the release.
     */
    uint64_t nextRelease(uint64_t cycle) const;

    /**
     * Claim an entry for a miss on @p line at time @p at. Merges
     * into a busy same-line entry when under the merge cap;
     * otherwise takes a free entry; otherwise delays @p at to the
     * earliest known release and retries. Returns the entry index,
     * or -1 when no entry can be claimed yet (every entry busy with
     * an unknown release) — the caller must retry later.
     */
    int acquire(uint64_t line, uint64_t &at);

    /**
     * Record (or extend) the release cycle of @p entry once its
     * fill completion is known. Merged fills extend monotonically.
     */
    void release(int entry, uint64_t release_at);

  private:
    std::vector<uint64_t> lines;
    std::vector<uint64_t> releaseAt; ///< kPendingRelease while unknown
    std::vector<int> merges;         ///< 0 = not claimed since reset
    MshrConfig cfg;
};

/**
 * Banked DRAM channel: per-bank open-row state with RCD/RAS/RP/CCD
 * timing, a shared data bus carrying the configured bandwidth share,
 * and a bounded per-cycle request queue drained by an FR-FCFS or
 * FCFS scheduler. Tickets are per-cycle: MemorySystem calls
 * beginCycle() before admitting, service() once all requests of the
 * cycle are queued, then redeems every ticket the same cycle.
 */
class DramChannel
{
  public:
    /**
     * @param dram Timing/scheduling parameters.
     * @param dram_latency Fixed round-trip pipe latency (cycles)
     *        charged on top of the bank/bus schedule.
     * @param cycles_per_sector Data-bus occupancy of one sector
     *        (fractional: bandwidth is sub-cycle per 32 B).
     */
    DramChannel(const DramConfig &dram, int dram_latency,
                double cycles_per_sector);

    /** Start a cycle: recycle the previous cycle's tickets. */
    void beginCycle();

    /** Drop all bank, queue and bus state (between launches). */
    void reset();

    /** True while this cycle's request queue has room. */
    bool canAccept() const;

    /**
     * Queue a request for the sector at @p addr arriving at @p at.
     * Returns a ticket redeemable after service(), or -1 when the
     * queue is full.
     */
    int request(uint64_t addr, uint64_t at);

    /** Serve everything queued since beginCycle(). */
    void service();

    /** Data-ready cycle of a ticket (after service()). */
    uint64_t readyOf(int ticket) const;

    /** Whether the ticket's request hit an open row (after service). */
    bool rowHitOf(int ticket) const;

    /** Data-bus busy cycles since reset() (fractional). */
    double busyCycles() const { return busy; }

    /** High-water mark of the request queue since reset(). */
    uint64_t queuePeak() const { return peak; }

  private:
    struct Bank {
        bool open = false;
        uint64_t openRow = 0;
        uint64_t readyAt = 0;    ///< earliest next column command
        uint64_t activateAt = 0; ///< last activate (tRAS fence)
    };

    struct Request {
        uint64_t addr = 0;
        uint64_t at = 0;
        int ticket = -1;
    };

    struct Result {
        uint64_t ready = 0;
        bool rowHit = false;
    };

    DramConfig cfg;
    int dramLatency;
    double cyclesPerSector;

    std::vector<Bank> banks;
    std::vector<Request> queue; ///< this cycle's admissions, in order
    std::vector<Result> results;
    double busNextFree = 0.0;
    double busy = 0.0;
    uint64_t peak = 0;

    int bankOf(uint64_t addr) const;
    uint64_t rowOf(uint64_t addr) const;
    void serve(const Request &r);
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_MEMLEVEL_HPP
