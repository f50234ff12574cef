/**
 * @file
 * The graph container consumed by GNN pipelines.
 *
 * Mirrors the paper's dataset structure: connectivity as a COO edge
 * index (src/dst arrays) plus a dense node-feature matrix X of shape
 * [|V| x f] (Section II, Table I notation).
 */

#ifndef GSUITE_GRAPH_GRAPH_HPP
#define GSUITE_GRAPH_GRAPH_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sparse/Csr.hpp"
#include "tensor/DenseMatrix.hpp"

namespace gsuite {

/**
 * A directed graph with node features. Edges are stored COO-style as
 * parallel src/dst arrays — the "edgeIndex" of Fig. 2. Edge u->v means
 * v aggregates u's features (u scatters to v).
 */
class Graph
{
  public:
    Graph() = default;

    /** Graph with n nodes, no edges, and an [n x f] zero feature X. */
    Graph(int64_t num_nodes, int64_t feature_len);

    int64_t numNodes() const { return nNodes; }
    int64_t numEdges() const { return static_cast<int64_t>(src.size()); }
    int64_t featureLen() const { return features.cols(); }

    /** Append a directed edge u -> v. */
    void addEdge(int64_t u, int64_t v);

    /** In-degree of each node (number of edges arriving at it). */
    std::vector<int64_t> inDegrees() const;

    /** Out-degree of each node. */
    std::vector<int64_t> outDegrees() const;

    /**
     * Degree with self-loop counted (d_v in Eq. (1)): in-degree + 1.
     * GCN normalization uses these.
     */
    std::vector<int64_t> selfLoopDegrees() const;

    /**
     * Adjacency as CSR with rows = dst, cols = src (A[v][u] = 1); a
     * repeated edge sums to its multiplicity.
     */
    CsrMatrix adjacencyCsr() const;

    /** Validate edge endpoints; panic() on violation. */
    void checkInvariants() const;

    /** Human-readable one-line summary. */
    std::string summary() const;

    std::string name;          ///< dataset label, e.g. "cora"
    std::vector<int64_t> src;  ///< edge source nodes
    std::vector<int64_t> dst;  ///< edge destination nodes
    DenseMatrix features;      ///< node feature matrix X [|V| x f]

  private:
    int64_t nNodes = 0;
};

} // namespace gsuite

#endif // GSUITE_GRAPH_GRAPH_HPP
