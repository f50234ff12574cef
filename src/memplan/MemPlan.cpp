#include "memplan/MemPlan.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/Logging.hpp"

namespace gsuite {

namespace {

/** Must match DeviceAllocator: 256-byte aligned, 0-byte maps pad. */
constexpr uint64_t kPlanAlign = 256;

uint64_t
alignUp(uint64_t bytes)
{
    const uint64_t padded =
        (bytes + kPlanAlign - 1) / kPlanAlign * kPlanAlign;
    return padded == 0 ? kPlanAlign : padded;
}

/**
 * Everything the planner derives from a graph's io()/ioSpans()
 * declarations: per-buffer footprints and accessor lists, and the
 * dependency-ancestor closure used by the happens-before lifetime
 * model.
 */
struct GraphMem {
    size_t n = 0;
    size_t words = 0; ///< bitset words per ancestor row
    bool coverage = false;
    std::vector<std::vector<IoSpan>> nodeSpans;
    std::vector<uint64_t> footprint; ///< per buffer, spans deduped
    std::vector<size_t> firstSpanOrder; ///< global first appearance
    std::vector<std::vector<size_t>> accessors; ///< per buffer, asc
    std::vector<int> bufPart; ///< part, or -1 = shared across parts
    std::vector<uint64_t> anc; ///< n x words transitive closure

    bool ancestor(size_t node, size_t maybeAncestor) const
    {
        return (anc[node * words + maybeAncestor / 64] >>
                (maybeAncestor % 64)) &
               1u;
    }
};

GraphMem
analyze(const OpGraph &graph)
{
    GraphMem m;
    m.n = graph.numNodes();
    m.words = (m.n + 63) / 64;
    m.coverage = m.n > 0;
    m.nodeSpans.resize(m.n);
    const size_t nbuf = graph.numBuffers();
    m.footprint.assign(nbuf, 0);
    m.firstSpanOrder.assign(nbuf, static_cast<size_t>(-1));
    m.accessors.resize(nbuf);
    m.bufPart.assign(nbuf, -2);
    m.anc.assign(m.n * m.words, 0);

    std::unordered_map<const void *, BufferId> hostToBuf;
    for (size_t b = 0; b < nbuf; ++b)
        hostToBuf.emplace(graph.buffer(static_cast<BufferId>(b)).host,
                          static_cast<BufferId>(b));

    std::unordered_set<const void *> seenSpanData;
    size_t spanOrder = 0;
    for (size_t i = 0; i < m.n; ++i) {
        const OpNode &node = graph.node(i);
        m.nodeSpans[i] = node.kernel->ioSpans();
        if (m.nodeSpans[i].empty())
            m.coverage = false;

        for (const IoSpan &s : m.nodeSpans[i]) {
            const auto it = hostToBuf.find(s.buffer);
            panicIf(it == hostToBuf.end(),
                    "ioSpans() declares a span whose buffer is not "
                    "in the kernel's io() declaration");
            const size_t b = static_cast<size_t>(it->second);
            if (seenSpanData.insert(s.data).second) {
                m.footprint[b] += alignUp(s.bytes);
                if (m.firstSpanOrder[b] == static_cast<size_t>(-1))
                    m.firstSpanOrder[b] = spanOrder;
            }
            ++spanOrder;
        }

        std::vector<BufferId> touched;
        touched.insert(touched.end(), node.reads.begin(),
                       node.reads.end());
        touched.insert(touched.end(), node.writes.begin(),
                       node.writes.end());
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        for (BufferId b : touched) {
            m.accessors[static_cast<size_t>(b)].push_back(i);
            int &part = m.bufPart[static_cast<size_t>(b)];
            if (part == -2)
                part = node.part;
            else if (part != node.part)
                part = -1;
        }

        uint64_t *row = m.anc.data() + i * m.words;
        for (size_t d : node.deps) {
            const uint64_t *drow = m.anc.data() + d * m.words;
            for (size_t w = 0; w < m.words; ++w)
                row[w] |= drow[w];
            row[d / 64] |= 1ull << (d % 64);
        }
    }
    return m;
}

/**
 * True if every accessor of @p a is a strict dependency ancestor of
 * @p b's first writer — then a's region is provably dead before b
 * materializes, under any dependency-respecting execution order.
 * A buffer that is *read before* its first write (external-input
 * state early, overwritten in place later) materializes at that
 * first read, not at the writer, so it can never take another
 * region: its pre-write readers are not ordered through the writer.
 */
bool
deadBefore(const OpGraph &graph, const GraphMem &m,
           const PlannedWindow &a, const PlannedWindow &b)
{
    if (b.input)
        return false; // inputs live from graph start, never reuse
    const size_t writer = graph.buffer(b.id).firstWriter;
    for (size_t acc :
         m.accessors[static_cast<size_t>(b.id)]) {
        if (acc < writer)
            return false; // read-before-write: lives from the read
    }
    for (size_t acc :
         m.accessors[static_cast<size_t>(a.id)]) {
        if (acc == writer || !m.ancestor(writer, acc))
            return false;
    }
    return true;
}

bool
regionsOverlap(const PlannedWindow &a, const PlannedWindow &b)
{
    return a.offset < b.offset + b.bytes &&
           b.offset < a.offset + a.bytes;
}

bool
windowsConflict(const OpGraph &graph, const GraphMem &m,
                const PlannedWindow &a, const PlannedWindow &b)
{
    return !deadBefore(graph, m, a, b) &&
           !deadBefore(graph, m, b, a);
}

} // namespace

MemPlan
MemPlan::build(const OpGraph &graph)
{
    MemPlan plan;
    const size_t numParts = graph.numParts();
    plan.partPeaks.assign(numParts, 0);
    plan.highWater.assign(graph.numNodes(), 0);

    const GraphMem m = analyze(graph);
    plan.coverage = m.coverage;
    if (!m.coverage) {
        // A barrier / external kernel hides its spans: nothing to
        // plan. Accounting stays zero.
        return plan;
    }

    // Naive accounting: what the bump allocator maps, replaying the
    // spans in schedule order, per part, each distinct span once.
    plan.naiveHW.assign(m.n, 0);
    std::vector<std::unordered_set<const void *>> partSeen(numParts);
    std::vector<uint64_t> partCum(numParts, 0);
    for (size_t i = 0; i < m.n; ++i) {
        const size_t part =
            static_cast<size_t>(graph.node(i).part);
        for (const IoSpan &s : m.nodeSpans[i]) {
            if (partSeen[part].insert(s.data).second) {
                plan.naiveTotal += alignUp(s.bytes);
                partCum[part] += alignUp(s.bytes);
            }
        }
        plan.naiveHW[i] = partCum[part];
    }

    // Lifetime windows: one per buffer, first to last accessor.
    for (size_t b = 0; b < graph.numBuffers(); ++b) {
        if (m.footprint[b] == 0)
            continue;
        const BufferId id = static_cast<BufferId>(b);
        PlannedWindow w;
        w.id = id;
        w.host = graph.buffer(id).host;
        w.bytes = m.footprint[b];
        w.part = m.bufPart[b];
        w.input = graph.buffer(id).isInput();
        w.firstNode = m.accessors[b].front();
        w.lastNode = m.accessors[b].back();
        plan.windowList.push_back(w);
    }

    // Deterministic placement order: first span appearance in the
    // schedule-order replay (== naive map order). Each span belongs
    // to one buffer, so the keys are distinct.
    std::sort(plan.windowList.begin(), plan.windowList.end(),
              [&](const PlannedWindow &a, const PlannedWindow &b) {
                  return m.firstSpanOrder[static_cast<size_t>(a.id)] <
                         m.firstSpanOrder[static_cast<size_t>(b.id)];
              });

    // Greedy best-fit within one arena: each window takes the
    // smallest already-open gap among conflicting placed windows
    // (ties: lowest offset), else extends the arena. Placement order
    // is the deterministic sort above, so offsets are a pure function
    // of graph structure.
    const auto place =
        [&](const std::vector<size_t> &domain) -> uint64_t {
        uint64_t domPeak = 0;
        std::vector<size_t> placed;
        for (size_t wi : domain) {
            PlannedWindow &w = plan.windowList[wi];
            std::vector<std::pair<uint64_t, uint64_t>> busy;
            for (size_t pj : placed) {
                const PlannedWindow &q = plan.windowList[pj];
                if (windowsConflict(graph, m, w, q))
                    busy.emplace_back(q.offset,
                                      q.offset + q.bytes);
            }
            std::sort(busy.begin(), busy.end());
            uint64_t gapStart = 0;
            uint64_t bestOff = 0;
            uint64_t bestSize = ~0ull;
            bool found = false;
            for (const auto &iv : busy) {
                if (iv.first > gapStart) {
                    const uint64_t sz = iv.first - gapStart;
                    if (sz >= w.bytes && sz < bestSize) {
                        bestSize = sz;
                        bestOff = gapStart;
                        found = true;
                    }
                }
                gapStart = std::max(gapStart, iv.second);
            }
            w.offset = found ? bestOff : gapStart;
            placed.push_back(wi);
            domPeak = std::max(domPeak, w.offset + w.bytes);
        }
        return domPeak;
    };

    // Arena layout: shared buffers (read by several parts — merge()
    // guarantees they are never written cross-part) sit at the bottom
    // of the address space; each part's private arena stacks above,
    // so a merged plan's peak is exactly sharedArena + the sum of the
    // concurrent parts' peaks.
    std::vector<size_t> sharedDomain;
    std::vector<std::vector<size_t>> partDomain(numParts);
    for (size_t wi = 0; wi < plan.windowList.size(); ++wi) {
        const PlannedWindow &w = plan.windowList[wi];
        if (numParts > 1 && w.part < 0)
            sharedDomain.push_back(wi);
        else
            partDomain[static_cast<size_t>(std::max(w.part, 0))]
                .push_back(wi);
    }
    plan.sharedArena = place(sharedDomain);
    for (size_t p = 0; p < numParts; ++p)
        plan.partPeaks[p] = place(partDomain[p]);

    uint64_t base = plan.sharedArena;
    for (size_t p = 0; p < numParts; ++p) {
        for (size_t wi : partDomain[p])
            plan.windowList[wi].offset += base;
        base += plan.partPeaks[p];
    }
    plan.peak = base;

    for (const PlannedWindow &w : plan.windowList)
        for (size_t i = w.firstNode; i <= w.lastNode; ++i)
            plan.highWater[i] =
                std::max(plan.highWater[i], w.offset + w.bytes);

    return plan;
}

uint64_t
MemPlan::partPeakBytes(size_t part) const
{
    panicIf(part >= partPeaks.size(),
            "partPeakBytes: part out of range");
    return partPeaks[part];
}

void
MemPlan::verify(const OpGraph &graph) const
{
    const GraphMem m = analyze(graph);
    for (size_t i = 0; i < windowList.size(); ++i) {
        const PlannedWindow &a = windowList[i];
        for (size_t j = i + 1; j < windowList.size(); ++j) {
            const PlannedWindow &b = windowList[j];
            if (!regionsOverlap(a, b))
                continue;
            panicIf(a.part != b.part,
                    "memplan: windows of two arenas overlap");
            panicIf(windowsConflict(graph, m, a, b),
                    "memplan: overlapping regions with "
                    "non-disjoint lifetimes");
        }
    }
    panicIf(coverage && peak > naiveTotal,
            "memplan: planned peak exceeds the naive total");
}

} // namespace gsuite
