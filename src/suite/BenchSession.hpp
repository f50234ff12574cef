/**
 * @file
 * BenchSession executes a SweepSpec: every expanded point runs
 * through a point runner (the default one reproduces the classic
 * BenchmarkRunner load-build-run-aggregate path), optionally
 * concurrently on a util/ThreadPool, with deterministic
 * index-ordered collection into a ResultStore and per-point failure
 * isolation — one throwing point reports its error; the sweep
 * continues.
 *
 * Threading-budget composition: with L concurrent sweep lanes and a
 * total worker budget B (default: max(L, host lanes)), the budget
 * goes to sweep lanes first: every point whose simParallelLaunches
 * or simThreads is "auto" (0) resolves it to max(1, B / L), so
 * sweep-level and launch-level parallelism never multiply past the
 * budget. A composed launch-lane count stays out of the point's
 * metrics, as an auto one does.
 */

#ifndef GSUITE_SUITE_BENCHSESSION_HPP
#define GSUITE_SUITE_BENCHSESSION_HPP

#include <functional>
#include <memory>

#include "suite/ResultStore.hpp"
#include "suite/SweepSpec.hpp"

namespace gsuite {

class GraphCache;

/** Executes SweepSpecs. */
class BenchSession
{
  public:
    /** Maps one point to its outcome; may throw to fail the point. */
    using PointRunner = std::function<RunOutcome(const SweepPoint &)>;

    /** Called after each point completes (under a session lock). */
    using Progress = std::function<void(const SweepResult &result,
                                        size_t done, size_t total)>;

    struct Options {
        /**
         * Concurrent sweep lanes: 1 = serial, 0 = auto (host lanes),
         * N = exactly N. ResultStore contents are identical for
         * every value when the point runner is deterministic (the
         * simulator path is; wall-clock fields always jitter).
         */
        int sweepThreads = 1;

        /**
         * Total worker budget, split over sweep lanes first: each
         * point's auto launch lanes and auto simThreads (functional
         * engine lanes) get budget / lanes.
         * 0 = auto: max(lanes, host lanes).
         */
        int threadBudget = 0;

        /**
         * Capacity (graphs) of the per-session dataset cache used
         * by the default runner: sweep points sharing a
         * (dataset, scale, seed) load their graph once per session
         * instead of once per point (multi-GPU and multi-framework
         * grids hit this hard). 0 disables caching. Results are
         * bit-identical either way (the graph is immutable input).
         */
        size_t graphCacheEntries = 8;

        Progress progress; ///< optional per-point callback
    };

    BenchSession();
    explicit BenchSession(Options opts);
    ~BenchSession();
    BenchSession(BenchSession &&) noexcept;
    BenchSession &operator=(BenchSession &&) noexcept;

    /**
     * Run every point with the default benchmark runner (through
     * the session's graph cache).
     */
    ResultStore run(const SweepSpec &spec) const;

    /** Run every point with a custom runner. */
    ResultStore run(const SweepSpec &spec,
                    const PointRunner &runner) const;

    /**
     * The default single-point runner: load the dataset, build the
     * engine and framework adapter, run params.runs times, and
     * aggregate (with per-run samples).
     */
    static RunOutcome runPoint(const UserParams &params);

    /** runPoint on an already-loaded graph (the cached path). */
    static RunOutcome runPoint(const UserParams &params,
                               const Graph &graph);

    /** Graph-cache effectiveness counters (cumulative). */
    struct CacheStats {
        size_t hits = 0;
        size_t misses = 0;
        size_t evictions = 0;
    };
    CacheStats cacheStats() const;

  private:
    Options opts;
    /** Lives across run() calls; shared by concurrent lanes. */
    std::unique_ptr<GraphCache> cache;
};

} // namespace gsuite

#endif // GSUITE_SUITE_BENCHSESSION_HPP
