#include "ir/OpGraph.hpp"

#include <algorithm>
#include <map>

#include "util/Logging.hpp"

namespace gsuite {

BufferId
OpGraph::intern(const void *host)
{
    panicIf(host == nullptr, "OpGraph: kernel declared a null buffer");
    for (const BufferRef &b : bufferList)
        if (b.host == host)
            return b.id;
    BufferRef ref;
    ref.id = static_cast<BufferId>(bufferList.size());
    ref.host = host;
    bufferList.push_back(ref);
    bufferState.emplace_back();
    return bufferList.back().id;
}

void
OpGraph::beginPart(const std::string &label)
{
    panicIf(partList.empty() && !nodeList.empty(),
            "OpGraph::beginPart after part-less nodes were added");
    partList.push_back(Part{label, nodeList.size(), nodeList.size()});
    // Barriers scope within their part: a fresh part starts clean.
    lastBarrier = kNoNode;
}

size_t
OpGraph::addNode(Kernel &kernel)
{
    const size_t idx = nodeList.size();
    OpNode n;
    n.index = idx;
    n.kernel = &kernel;
    n.part = currentPart();

    const KernelIo io = kernel.io();
    std::vector<size_t> deps;
    if (io.reads.empty() && io.writes.empty()) {
        // Undeclared IO: conservative barrier over this part.
        n.barrier = true;
        for (size_t i = currentPartStart(); i < idx; ++i)
            deps.push_back(i);
    } else {
        for (const void *h : io.reads) {
            const BufferId b = intern(h);
            n.reads.push_back(b);
            const BufferState &st =
                bufferState[static_cast<size_t>(b)];
            if (st.lastWriter != kNoNode)
                deps.push_back(st.lastWriter); // RAW
        }
        for (const void *h : io.writes) {
            const BufferId b = intern(h);
            n.writes.push_back(b);
            const BufferState &st =
                bufferState[static_cast<size_t>(b)];
            if (st.lastWriter != kNoNode)
                deps.push_back(st.lastWriter); // WAW
            for (const size_t r : st.readersSinceWrite)
                deps.push_back(r); // WAR
        }
        if (lastBarrier != kNoNode)
            deps.push_back(lastBarrier);
    }

    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    // A node reading and writing the same buffer must not depend on
    // itself (it cannot: deps only reference earlier nodes).
    panicIf(!deps.empty() && deps.back() >= idx,
            "OpGraph: dependency on a not-yet-added node");

    for (const size_t d : deps)
        n.level = std::max(n.level, nodeList[d].level + 1);
    maxLevel = std::max(maxLevel, n.level);
    edgeCount += deps.size();
    n.deps = std::move(deps);

    // Update buffer state only after dependency collection so a
    // read+write of the same buffer sees the *previous* state.
    for (const BufferId b : n.reads)
        bufferState[static_cast<size_t>(b)]
            .readersSinceWrite.push_back(idx);
    for (const BufferId b : n.writes) {
        BufferState &st = bufferState[static_cast<size_t>(b)];
        st.lastWriter = idx;
        st.readersSinceWrite.clear();
        BufferRef &ref = bufferList[static_cast<size_t>(b)];
        if (ref.firstWriter == kNoNode)
            ref.firstWriter = idx;
    }
    if (n.barrier)
        lastBarrier = idx;

    nodeList.push_back(std::move(n));
    if (!partList.empty())
        partList.back().endNode = nodeList.size();
    return idx;
}

std::vector<std::string>
OpGraph::kernelNames() const
{
    std::vector<std::string> names;
    names.reserve(nodeList.size());
    for (const OpNode &n : nodeList)
        names.push_back(n.kernel->name());
    return names;
}

void
OpGraph::validate() const
{
    // Replay the schedule, tracking the writer each read must have
    // seen; dependency edges must point strictly backwards (the
    // graph is acyclic by construction — this guards API misuse).
    std::vector<size_t> writer(bufferList.size(), kNoNode);
    for (const OpNode &n : nodeList) {
        size_t prev = kNoNode;
        for (const size_t d : n.deps) {
            if (d >= n.index)
                fatal("OpGraph: node %zu ('%s') depends on node %zu "
                      "that does not precede it (cycle)",
                      n.index, n.kernel->name().c_str(), d);
            if (prev != kNoNode && d <= prev)
                fatal("OpGraph: node %zu has unsorted/duplicate "
                      "dependencies",
                      n.index);
            prev = d;
        }
        for (const BufferId b : n.reads) {
            const size_t w = writer[static_cast<size_t>(b)];
            if (w == kNoNode)
                continue; // external input at this point
            if (!std::binary_search(n.deps.begin(), n.deps.end(), w))
                fatal("OpGraph: node %zu ('%s') reads buffer %d "
                      "produced by node %zu without depending on it",
                      n.index, n.kernel->name().c_str(), b, w);
        }
        for (const BufferId b : n.writes)
            writer[static_cast<size_t>(b)] = n.index;
    }
    // Parts must be contiguous, ordered, and write-disjoint.
    if (!partList.empty()) {
        size_t expect = 0;
        for (const Part &p : partList) {
            if (p.beginNode != expect || p.endNode < p.beginNode)
                fatal("OpGraph: parts are not contiguous");
            expect = p.endNode;
        }
        if (expect != nodeList.size())
            fatal("OpGraph: parts do not cover every node");
        std::map<BufferId, int> writtenBy;
        for (const OpNode &n : nodeList)
            for (const BufferId b : n.writes) {
                const auto it = writtenBy.find(b);
                if (it == writtenBy.end())
                    writtenBy.emplace(b, n.part);
                else if (it->second != n.part)
                    fatal("OpGraph: buffer %d written by parts %d "
                          "and %d (merge requires write-disjoint "
                          "graphs)",
                          b, it->second, n.part);
            }
        for (const OpNode &n : nodeList)
            for (const BufferId b : n.reads) {
                const auto it = writtenBy.find(b);
                if (it != writtenBy.end() && it->second != n.part)
                    fatal("OpGraph: part %d reads buffer %d written "
                          "by part %d (merge requires write-"
                          "disjoint graphs)",
                          n.part, b, it->second);
            }
    }
}

OpGraph
OpGraph::merge(const std::vector<const OpGraph *> &graphs,
               const std::vector<std::string> &labels)
{
    panicIf(!labels.empty() && labels.size() != graphs.size(),
            "OpGraph::merge: one label per graph (or none)");
    OpGraph merged;
    for (size_t g = 0; g < graphs.size(); ++g) {
        panicIf(graphs[g] == nullptr, "OpGraph::merge: null graph");
        panicIf(!graphs[g]->partList.empty(),
                "OpGraph::merge: inputs must be un-merged graphs");
        std::string label = labels.empty() ? "g" : labels[g];
        if (labels.empty())
            label += std::to_string(g);
        merged.beginPart(label);
        // Re-adding through addNode re-derives identical
        // dependencies (Kernel::io() is stable) and re-interns
        // buffers, sharing read-only inputs across parts.
        for (const OpNode &n : graphs[g]->nodeList)
            merged.addNode(*n.kernel);
    }
    // fatal() if any part writes a buffer another part touches.
    merged.validate();
    return merged;
}

uint64_t
OpGraph::serialCost(const std::vector<uint64_t> &costs) const
{
    panicIf(costs.size() != nodeList.size(),
            "OpGraph: one cost per node required");
    uint64_t total = 0;
    for (const uint64_t c : costs)
        total += c;
    return total;
}

uint64_t
OpGraph::criticalPathCost(const std::vector<uint64_t> &costs) const
{
    panicIf(costs.size() != nodeList.size(),
            "OpGraph: one cost per node required");
    std::vector<uint64_t> finish(nodeList.size(), 0);
    uint64_t longest = 0;
    for (const OpNode &n : nodeList) {
        uint64_t start = 0;
        for (const size_t d : n.deps)
            start = std::max(start, finish[d]);
        finish[n.index] = start + costs[n.index];
        longest = std::max(longest, finish[n.index]);
    }
    return longest;
}

std::vector<LaneScheduleEntry>
OpGraph::laneSchedule(const std::vector<uint64_t> &costs,
                      int lanes) const
{
    panicIf(costs.size() != nodeList.size(),
            "OpGraph: one cost per node required");
    panicIf(lanes < 1, "OpGraph::laneSchedule needs at least one lane");
    // Best fit keeps a dependency chain on one lane instead of
    // smearing idle gaps across all of them (lanes are
    // work-conserving launch queues).
    std::vector<uint64_t> freeAt(static_cast<size_t>(lanes), 0);
    std::vector<uint64_t> finish(nodeList.size(), 0);
    std::vector<LaneScheduleEntry> out;
    out.reserve(nodeList.size());
    for (const OpNode &n : nodeList) {
        uint64_t ready = 0;
        for (const size_t d : n.deps)
            ready = std::max(ready, finish[d]);
        int best = -1;
        for (int l = 0; l < lanes; ++l) {
            const uint64_t f = freeAt[static_cast<size_t>(l)];
            if (f > ready)
                continue; // would not start at `ready` anyway
            if (best < 0 ||
                f > freeAt[static_cast<size_t>(best)])
                best = l;
        }
        if (best < 0) { // every lane busy past `ready`: earliest one
            best = 0;
            for (int l = 1; l < lanes; ++l)
                if (freeAt[static_cast<size_t>(l)] <
                    freeAt[static_cast<size_t>(best)])
                    best = l;
        }
        LaneScheduleEntry e;
        e.node = n.index;
        e.lane = best;
        e.start =
            std::max(ready, freeAt[static_cast<size_t>(best)]);
        e.finish = e.start + costs[n.index];
        freeAt[static_cast<size_t>(best)] = e.finish;
        finish[n.index] = e.finish;
        out.push_back(e);
    }
    return out;
}

uint64_t
OpGraph::makespan(const std::vector<uint64_t> &costs, int lanes) const
{
    uint64_t end = 0;
    for (const LaneScheduleEntry &e : laneSchedule(costs, lanes))
        end = std::max(end, e.finish);
    return end;
}

} // namespace gsuite
