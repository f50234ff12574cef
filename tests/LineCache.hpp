/**
 * @file
 * Test oracle for the sectored cache: one struct per line, a tag scan
 * per probe, and a second scan per fill to pick the victim (the first
 * invalid way among 1 ... assoc-1, else the lowest way with the
 * smallest lastUse). Cache must make every decision this model makes.
 */

#ifndef GSUITE_TESTS_LINECACHE_HPP
#define GSUITE_TESTS_LINECACHE_HPP

#include <cstdint>
#include <vector>

#include "simgpu/Cache.hpp"

namespace gsuite {

class LineCache
{
  public:
    explicit LineCache(const CacheGeometry &geometry)
        : geo(geometry), numSets(geometry.numSets()),
          lines(static_cast<size_t>(numSets) *
                static_cast<size_t>(geometry.assoc))
    {
    }

    CacheProbe
    probe(uint64_t addr, uint64_t now)
    {
        Line *line = findLine(addr);
        if (!line)
            return {};
        const int sector = sectorOf(addr);
        if (!(line->sectorValid & (1u << sector)))
            return {};
        line->lastUse = now;
        return {true, line->sectorReady[sector]};
    }

    void
    fill(uint64_t addr, uint64_t now, uint64_t ready)
    {
        Line *line = findLine(addr);
        if (!line) {
            Line *set = &lines[static_cast<size_t>(setOf(addr)) *
                               static_cast<size_t>(geo.assoc)];
            line = &set[0];
            for (int w = 1; w < geo.assoc; ++w) {
                if (set[w].tag == kInvalidTag) {
                    line = &set[w];
                    break;
                }
                if (set[w].lastUse < line->lastUse)
                    line = &set[w];
            }
            line->tag = tagOf(addr);
            line->sectorValid = 0;
        }
        const int sector = sectorOf(addr);
        line->sectorValid |= 1u << sector;
        line->sectorReady[sector] = ready;
        line->lastUse = now;
    }

    void
    flush()
    {
        for (Line &line : lines)
            line = Line{};
    }

  private:
    static constexpr uint64_t kInvalidTag = ~uint64_t{0};

    struct Line {
        uint64_t tag = kInvalidTag;
        uint32_t sectorValid = 0;
        uint64_t sectorReady[8] = {};
        uint64_t lastUse = 0;
    };

    CacheGeometry geo;
    int numSets;
    std::vector<Line> lines;

    uint64_t
    tagOf(uint64_t addr) const
    {
        return addr / static_cast<uint64_t>(geo.lineBytes) /
               static_cast<uint64_t>(numSets);
    }
    int
    setOf(uint64_t addr) const
    {
        return static_cast<int>(
            (addr / static_cast<uint64_t>(geo.lineBytes)) &
            static_cast<uint64_t>(numSets - 1));
    }
    int
    sectorOf(uint64_t addr) const
    {
        return static_cast<int>(
            (addr % static_cast<uint64_t>(geo.lineBytes)) /
            static_cast<uint64_t>(geo.sectorBytes));
    }
    Line *
    findLine(uint64_t addr)
    {
        const uint64_t tag = tagOf(addr);
        Line *set = &lines[static_cast<size_t>(setOf(addr)) *
                           static_cast<size_t>(geo.assoc)];
        for (int w = 0; w < geo.assoc; ++w)
            if (set[w].tag == tag)
                return &set[w];
        return nullptr;
    }
};

} // namespace gsuite

#endif // GSUITE_TESTS_LINECACHE_HPP
