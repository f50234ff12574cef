#include "graph/Generators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/Logging.hpp"

namespace gsuite {

namespace {

/**
 * Open-addressing set of edge keys u * nodes + v with linear probing.
 * Every key is below nodes², so ~0 can mark an empty slot.
 */
class EdgeKeySet
{
  public:
    /**
     * A table for up to @p keys keys. Its size is a power of two
     * >= 1.5 * keys, so a probe always meets an empty slot.
     */
    explicit EdgeKeySet(int64_t keys)
        : slots(std::bit_ceil(std::max<size_t>(
                    2, static_cast<size_t>(keys + (keys + 1) / 2))),
                kEmpty),
          mask(slots.size() - 1),
          shift(64 - std::countr_zero(slots.size()))
    {
    }

    /** Add @p key; true when it was not present yet. */
    bool
    insert(uint64_t key)
    {
        for (size_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift;;
             i = (i + 1) & mask) {
            if (slots[i] == key)
                return false;
            if (slots[i] == kEmpty) {
                slots[i] = key;
                return true;
            }
        }
    }

  private:
    static constexpr uint64_t kEmpty = ~uint64_t{0};
    std::vector<uint64_t> slots;
    size_t mask;
    int shift;
};

/**
 * Append candidate edges from @p draw to @p g until it has @p edges
 * edges or 20 * edges + 1000 candidates have been drawn. Self loops
 * are dropped unless @p self_loops, repeated edges when @p dedup.
 *
 * The result is that of drawing, filtering and appending one
 * candidate at a time, but candidates are drawn in rounds: each draw
 * adds at most one edge, so that loop would draw at least
 * min(edges left, attempts left) more, and a round draws exactly that
 * many. A round is written straight into the edge arrays' tail, then
 * deduplicated there in draw order.
 */
template <typename Draw>
void
addCandidates(Graph &g, int64_t edges, bool self_loops, bool dedup,
              Draw draw)
{
    if (edges <= 0)
        return;
    g.src.reserve(static_cast<size_t>(edges));
    g.dst.reserve(static_cast<size_t>(edges));
    EdgeKeySet seen(dedup ? edges : 0);
    const uint64_t nodes = static_cast<uint64_t>(g.numNodes());
    const int64_t max_attempts = edges * 20 + 1000;
    int64_t attempts = 0;
    while (g.numEdges() < edges && attempts < max_attempts) {
        const int64_t round =
            std::min(edges - g.numEdges(), max_attempts - attempts);
        attempts += round;
        const size_t first = g.src.size();
        g.src.resize(first + static_cast<size_t>(round));
        g.dst.resize(first + static_cast<size_t>(round));
        int64_t *src = g.src.data();
        int64_t *dst = g.dst.data();
        size_t end = first;
        for (int64_t i = 0; i < round; ++i) {
            const auto [u, v] = draw();
            src[end] = u;
            dst[end] = v;
            end += self_loops | (u != v);
        }
        if (dedup) {
            size_t kept = first;
            for (size_t i = first; i < end; ++i) {
                if (seen.insert(static_cast<uint64_t>(src[i]) * nodes +
                                static_cast<uint64_t>(dst[i]))) {
                    src[kept] = src[i];
                    dst[kept] = dst[i];
                    ++kept;
                }
            }
            end = kept;
        }
        g.src.resize(end);
        g.dst.resize(end);
    }
}

/**
 * The integer t with (next() >> 11) < t exactly when nextDouble() < p:
 * nextDouble() is (next() >> 11) * 2^-53.
 */
uint64_t
drawThreshold(double p)
{
    if (!(p > 0.0))
        return 0;
    return static_cast<uint64_t>(
        std::ceil(std::ldexp(std::min(p, 1.0), 53)));
}

/** drawThreshold of a, a + b and a + b + c. */
struct RmatThresholds {
    uint64_t a, ab, abc;
};

/**
 * Narrow [lo, lo + width) to its low half, width / 2 wide, when @p low
 * is 1, else (0) to the high half. Masks, not a branch: @p low is a
 * coin flip.
 */
void
halve(uint64_t &lo, uint64_t &width, uint64_t low)
{
    const uint64_t half = width / 2;
    lo += half & (0 - (low ^ 1));
    width = half + (width & (low ^ 1));
}

/**
 * Pick one RMAT cell coordinate within [0, n) by recursive descent.
 * Each level draws once and picks the quadrant: below a top-left,
 * below a + b top-right, below a + b + c bottom-left, else
 * bottom-right.
 */
std::pair<int64_t, int64_t>
rmatDraw(uint64_t n, const RmatThresholds &t, Rng &rng)
{
    uint64_t row = 0, rows = n; // [row, row + rows)
    uint64_t col = 0, cols = n;
    auto level = [&](uint64_t split_rows, uint64_t split_cols) {
        const uint64_t x = rng.next() >> 11;
        const uint64_t in_a = x < t.a, in_ab = x < t.ab;
        const uint64_t in_abc = x < t.abc;
        halve(row, rows, (in_a | in_ab) & split_rows);
        halve(col, cols, (in_a | (in_abc & (in_ab ^ 1))) & split_cols);
    };
    // Both ranges stay at least two wide for floor(log2 n) levels.
    // Each is then one or two wide, and one more level splits the
    // two-wide ones; a range one wide takes its high half, itself.
    for (int l = std::bit_width(n) - 1; l > 0; --l)
        level(1, 1);
    if (rows > 1 || cols > 1)
        level(rows > 1, cols > 1);
    return {static_cast<int64_t>(row), static_cast<int64_t>(col)};
}

} // namespace

Graph
generateRmat(const RmatParams &params, Rng &rng)
{
    if (params.nodes <= 0 || params.edges < 0)
        fatal("RMAT generator needs positive node count");
    if (params.a + params.b + params.c >= 1.0)
        fatal("RMAT probabilities must satisfy a + b + c < 1");

    Graph g(params.nodes, 0);

    // Random relabeling so hubs are spread across the id space.
    std::vector<int64_t> perm(static_cast<size_t>(params.nodes));
    std::iota(perm.begin(), perm.end(), int64_t{0});
    rng.shuffle(perm);

    const RmatThresholds t{
        drawThreshold(params.a), drawThreshold(params.a + params.b),
        drawThreshold(params.a + params.b + params.c)};
    const uint64_t n = static_cast<uint64_t>(params.nodes);
    addCandidates(g, params.edges, params.allowSelfLoops, params.dedup,
                  [&] { return rmatDraw(n, t, rng); });
    // perm is a bijection, so relabelling after the filters keeps and
    // drops the same candidates as relabelling each one as it is drawn.
    for (int64_t &u : g.src)
        u = perm[static_cast<size_t>(u)];
    for (int64_t &v : g.dst)
        v = perm[static_cast<size_t>(v)];
    if (g.numEdges() < params.edges) {
        warn("RMAT generator produced %ld of %ld requested edges "
             "(dense corner saturated)",
             (long)g.numEdges(), (long)params.edges);
    }
    return g;
}

Graph
generateErdosRenyi(int64_t nodes, int64_t edges, Rng &rng)
{
    if (nodes <= 0)
        fatal("Erdos-Renyi generator needs positive node count");
    Graph g(nodes, 0);
    addCandidates(g, edges, false, true, [&] {
        const int64_t u = static_cast<int64_t>(
            rng.nextBelow(static_cast<uint64_t>(nodes)));
        const int64_t v = static_cast<int64_t>(
            rng.nextBelow(static_cast<uint64_t>(nodes)));
        return std::pair{u, v};
    });
    return g;
}

void
fillFeatures(Graph &g, int64_t feature_len, Rng &rng)
{
    g.features.resize(g.numNodes(), feature_len);
    if (feature_len > 16) {
        // Sparse bag-of-words style: ~2% nonzero entries per row, at
        // least one per node so no row is all-zero.
        const int64_t nnz_per_row =
            std::max<int64_t>(1, feature_len / 50);
        for (int64_t v = 0; v < g.numNodes(); ++v) {
            for (int64_t k = 0; k < nnz_per_row; ++k) {
                const int64_t c = static_cast<int64_t>(rng.nextBelow(
                    static_cast<uint64_t>(feature_len)));
                g.features.at(v, c) = rng.nextFloat(0.1f, 1.0f);
            }
        }
    } else {
        g.features.fillUniform(rng, -1.0f, 1.0f);
    }
}

} // namespace gsuite
