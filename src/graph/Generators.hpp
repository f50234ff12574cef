/**
 * @file
 * Synthetic graph generators.
 *
 * RMAT (recursive matrix) generation reproduces the heavy-tailed
 * degree distributions of real social/citation networks, which is the
 * property that drives the paper's memory-irregularity observations.
 * An Erdos-Renyi generator is provided for tests and as an ablation
 * baseline with uniform degrees.
 *
 * Both generators give the same edges, in the same order, and leave
 * their Rng in the same state as drawing one candidate edge at a time:
 * a candidate is dropped if it is a self loop (unless allowed) or
 * repeats an edge (when deduplicating), else appended, until the graph
 * has its edges or 20 * edges + 1000 candidates were drawn.
 */

#ifndef GSUITE_GRAPH_GENERATORS_HPP
#define GSUITE_GRAPH_GENERATORS_HPP

#include <cstdint>

#include "graph/Graph.hpp"
#include "util/Random.hpp"

namespace gsuite {

/** Parameters for RMAT generation. */
struct RmatParams {
    int64_t nodes = 0;
    int64_t edges = 0;
    /**
     * Probability of recursing into the top-left quadrant (parameter
     * "a" of RMAT). b and c are split evenly from the remainder and d
     * gets the rest: a + b + c + d = 1. Larger a => more skew.
     */
    double a = 0.57;
    double b = 0.19;
    double c = 0.19;
    bool allowSelfLoops = false;
    bool dedup = true; ///< drop duplicate edges (re-draws to keep |E|)
};

/**
 * Generate an RMAT graph. The node id space is randomly permuted so
 * high-degree hubs are scattered through memory like in real datasets
 * rather than clustered at low ids. A candidate takes one
 * nextDouble() per level of its recursive descent.
 */
Graph generateRmat(const RmatParams &params, Rng &rng);

/**
 * Generate a uniform random (Erdos-Renyi G(n, m)) graph without self
 * loops or repeated edges. A candidate is two nextBelow(nodes) draws,
 * source first.
 */
Graph generateErdosRenyi(int64_t nodes, int64_t edges, Rng &rng);

/**
 * Fill a graph's feature matrix [n x f]. Citation-style features are
 * sparse bags of words; we mimic that with mostly-zero rows with a few
 * uniform entries (density ~ 0.02) when f > 16, dense uniform values
 * otherwise.
 */
void fillFeatures(Graph &g, int64_t feature_len, Rng &rng);

} // namespace gsuite

#endif // GSUITE_GRAPH_GENERATORS_HPP
