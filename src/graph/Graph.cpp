#include "graph/Graph.hpp"

#include <cstdio>

#include "util/Logging.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

Graph::Graph(int64_t num_nodes, int64_t feature_len)
    : features(num_nodes, feature_len), nNodes(num_nodes)
{
    if (num_nodes < 0)
        panic("Graph with negative node count");
}

void
Graph::addEdge(int64_t u, int64_t v)
{
    if (u < 0 || u >= nNodes || v < 0 || v >= nNodes)
        panic("edge endpoint out of range");
    src.push_back(u);
    dst.push_back(v);
}

std::vector<int64_t>
Graph::inDegrees() const
{
    std::vector<int64_t> deg(static_cast<size_t>(nNodes), 0);
    for (int64_t v : dst)
        ++deg[static_cast<size_t>(v)];
    return deg;
}

std::vector<int64_t>
Graph::outDegrees() const
{
    std::vector<int64_t> deg(static_cast<size_t>(nNodes), 0);
    for (int64_t u : src)
        ++deg[static_cast<size_t>(u)];
    return deg;
}

std::vector<int64_t>
Graph::selfLoopDegrees() const
{
    std::vector<int64_t> deg = inDegrees();
    for (auto &d : deg)
        ++d;
    return deg;
}

CsrMatrix
Graph::adjacencyCsr() const
{
    SparseBuilder b(nNodes, nNodes);
    b.reserve(src.size());
    for (size_t i = 0; i < src.size(); ++i)
        b.add(dst[i], src[i], 1.0f); // row v aggregates from column u
    return b.finish();
}

void
Graph::checkInvariants() const
{
    panicIf(src.size() != dst.size(),
            "edge src/dst arrays have different lengths");
    panicIf(features.rows() != nNodes,
            "feature matrix row count != node count");
    for (size_t i = 0; i < src.size(); ++i) {
        panicIf(src[i] < 0 || src[i] >= nNodes, "edge src out of range");
        panicIf(dst[i] < 0 || dst[i] >= nNodes, "edge dst out of range");
    }
}

std::string
Graph::summary() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s: %s nodes, %s edges, f=%ld",
                  name.empty() ? "graph" : name.c_str(),
                  formatCount(static_cast<uint64_t>(nNodes)).c_str(),
                  formatCount(static_cast<uint64_t>(numEdges())).c_str(),
                  (long)featureLen());
    return buf;
}

} // namespace gsuite
