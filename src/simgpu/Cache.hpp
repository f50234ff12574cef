/**
 * @file
 * Sectored set-associative cache model (GPGPU-Sim style).
 *
 * Lines are 128 B with 32 B sectors and per-sector valid bits; misses
 * install the sector with a "ready" cycle so later accesses that
 * arrive before the fill completes behave like MSHR merges (they hit,
 * but observe the remaining fill latency).
 */

#ifndef GSUITE_SIMGPU_CACHE_HPP
#define GSUITE_SIMGPU_CACHE_HPP

#include <cstdint>
#include <vector>

#include "simgpu/GpuConfig.hpp"

namespace gsuite {

/** Result of a cache probe. */
struct CacheProbe {
    bool hit = false;
    uint64_t ready = 0; ///< cycle at which the sector's data is valid
};

/**
 * One level of sectored, LRU, set-associative cache.
 *
 * Each set is a contiguous row in each of four arrays (tags, lastUse,
 * sector-valid bits, per-sector ready cycles) plus a count of the
 * ways filled since the last flush. Lines are only ever invalidated
 * all at once by flush(), so a set fills its ways in a fixed order:
 * 1, 2, ..., assoc-1 and then 0. Once every way is valid the victim
 * is the lowest way with the smallest lastUse. Accesses to different
 * sets touch disjoint memory, so threads may share one cache as long
 * as each set is used by one thread at a time.
 */
class Cache
{
  public:
    /** panic()s unless @p geometry's set count is a power of two. */
    explicit Cache(const CacheGeometry &geometry);

    /**
     * Look up the sector containing @p addr at time @p now. On a hit
     * the LRU state is updated; on a miss nothing changes (the caller
     * decides whether to fill).
     */
    CacheProbe probe(uint64_t addr, uint64_t now);

    /**
     * Install the sector containing @p addr, with its data becoming
     * valid at @p ready. Evicts the set's LRU line when the line is
     * not already resident.
     */
    void fill(uint64_t addr, uint64_t now, uint64_t ready);

    /**
     * probe(addr, now) and, on a miss, fill(addr, now, now), with one
     * scan of the set. Returns whether the probe hit.
     */
    bool access(uint64_t addr, uint64_t now);

    /** Invalidate everything (between kernel launches). */
    void flush();

    /** Set that @p addr maps to, in [0, numSets()). */
    int
    setOf(uint64_t addr) const
    {
        return static_cast<int>(lineOf(addr) &
                                static_cast<uint64_t>(sets - 1));
    }
    int numSets() const { return sets; }

    const CacheGeometry &geometry() const { return geo; }

  private:
    static constexpr int kMaxSectors = 8;

    CacheGeometry geo;
    int sets; ///< a power of two
    int setBits = 0; ///< log2(sets)
    int assoc;
    int sectors; ///< sectors per line
    std::vector<uint64_t> tags;        ///< sets x assoc
    std::vector<uint64_t> lastUse;     ///< sets x assoc
    std::vector<uint8_t> sectorValid;  ///< sets x assoc, one bit each
    std::vector<uint64_t> sectorReady; ///< sets x assoc x sectors
    /** Ways filled since the last flush, per set (0 ... assoc). */
    std::vector<int> filled;

    uint64_t
    lineOf(uint64_t addr) const
    {
        return addr / static_cast<uint64_t>(geo.lineBytes);
    }

    /** Where the sector containing an address lives. */
    struct Slot {
        size_t row;   ///< first way of the set in the way arrays
        int set;
        uint64_t tag;
        int sector;
    };
    Slot slotOf(uint64_t addr) const;

    /**
     * Way holding @p s's tag, or -1. When the tag is absent, *victim
     * receives the way a fill replaces.
     */
    int find(const Slot &s, int *victim) const;
    /**
     * Index in the way arrays of @p s's line, installed over the
     * victim (all sectors invalid) when absent.
     */
    size_t wayFor(const Slot &s);
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_CACHE_HPP
