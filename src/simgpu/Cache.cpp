#include "simgpu/Cache.hpp"

#include <algorithm>
#include <bit>

#include "util/Logging.hpp"

namespace gsuite {

Cache::Cache(const CacheGeometry &geometry)
    : geo(geometry), sets(geometry.numSets()), assoc(geometry.assoc),
      sectors(geometry.sectorsPerLine())
{
    // The set index is the line address's low bits and the tag the
    // rest; any other set count would alias distinct lines.
    panicIf(sets <= 0 || !std::has_single_bit(static_cast<unsigned>(sets)),
            "cache set count is not a power of two");
    panicIf(sectors > kMaxSectors,
            "cache line has more sectors than the model supports");
    setBits = std::countr_zero(static_cast<unsigned>(sets));
    const size_t ways =
        static_cast<size_t>(sets) * static_cast<size_t>(assoc);
    tags.resize(ways);
    lastUse.resize(ways);
    sectorValid.resize(ways);
    sectorReady.resize(ways * static_cast<size_t>(sectors));
    filled.resize(static_cast<size_t>(sets));
}

Cache::Slot
Cache::slotOf(uint64_t addr) const
{
    const uint64_t line = lineOf(addr);
    const int set =
        static_cast<int>(line & static_cast<uint64_t>(sets - 1));
    return {static_cast<size_t>(set) * static_cast<size_t>(assoc), set,
            line >> setBits,
            static_cast<int>((addr % static_cast<uint64_t>(geo.lineBytes)) /
                             static_cast<uint64_t>(geo.sectorBytes))};
}

int
Cache::find(const Slot &s, int *victim) const
{
    const uint64_t *tag = &tags[s.row];
    const int k = filled[static_cast<size_t>(s.set)];
    if (k < assoc) {
        // Ways 1 ... k are valid; the next fill takes way k + 1, and
        // way 0 last.
        if (victim)
            *victim = k + 1 < assoc ? k + 1 : 0;
        for (int w = 1; w <= k; ++w)
            if (tag[w] == s.tag)
                return w;
        return -1;
    }
    if (!victim) {
        for (int w = 0; w < assoc; ++w)
            if (tag[w] == s.tag)
                return w;
        return -1;
    }
    // A full set: the lowest way with the smallest lastUse, found in
    // the same scan as the tag.
    const uint64_t *use = &lastUse[s.row];
    int lru = 0;
    for (int w = 0; w < assoc; ++w) {
        if (tag[w] == s.tag)
            return w;
        if (use[w] < use[lru])
            lru = w;
    }
    *victim = lru;
    return -1;
}

size_t
Cache::wayFor(const Slot &s)
{
    int victim = 0;
    const int w = find(s, &victim);
    if (w >= 0)
        return s.row + static_cast<size_t>(w);
    const size_t i = s.row + static_cast<size_t>(victim);
    tags[i] = s.tag;
    sectorValid[i] = 0;
    int &k = filled[static_cast<size_t>(s.set)];
    if (k < assoc)
        ++k;
    return i;
}

CacheProbe
Cache::probe(uint64_t addr, uint64_t now)
{
    const Slot s = slotOf(addr);
    const int w = find(s, nullptr);
    if (w < 0)
        return {};
    const size_t i = s.row + static_cast<size_t>(w);
    if (!(sectorValid[i] & (1u << s.sector)))
        return {};
    lastUse[i] = now;
    return {true, sectorReady[i * static_cast<size_t>(sectors) +
                              static_cast<size_t>(s.sector)]};
}

void
Cache::fill(uint64_t addr, uint64_t now, uint64_t ready)
{
    const Slot s = slotOf(addr);
    const size_t i = wayFor(s);
    sectorValid[i] |= static_cast<uint8_t>(1u << s.sector);
    sectorReady[i * static_cast<size_t>(sectors) +
                static_cast<size_t>(s.sector)] = ready;
    lastUse[i] = now;
}

bool
Cache::access(uint64_t addr, uint64_t now)
{
    const Slot s = slotOf(addr);
    const size_t i = wayFor(s);
    lastUse[i] = now;
    const uint8_t bit = static_cast<uint8_t>(1u << s.sector);
    if (sectorValid[i] & bit)
        return true;
    sectorValid[i] |= bit;
    sectorReady[i * static_cast<size_t>(sectors) +
                static_cast<size_t>(s.sector)] = now;
    return false;
}

void
Cache::flush()
{
    // Ways past a set's fill count are never read, so forgetting the
    // counts invalidates every line.
    std::fill(filled.begin(), filled.end(), 0);
}

} // namespace gsuite
