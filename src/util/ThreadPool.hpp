/**
 * @file
 * A persistent worker pool for the embarrassingly parallel levels:
 * an engine's worker lanes (SimEngine launch lanes and
 * FunctionalEngine's kernel lanes, which also execute the kernels
 * and replay HwProfiler) and BenchSession sweep lanes.
 * Workers stay alive across invocations, so each job pays one
 * condition-variable wakeup. forEachRowRange() splits a functional
 * kernel's output rows over a pool's lanes.
 */

#ifndef GSUITE_UTIL_THREADPOOL_HPP
#define GSUITE_UTIL_THREADPOOL_HPP

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gsuite {

/**
 * Fixed-size pool of persistent workers. "Lanes" counts the calling
 * thread too: a pool with N lanes owns N-1 background threads, and
 * the caller runs lane 0.
 */
class ThreadPool
{
  public:
    /** @param lanes Total concurrent lanes (>= 1, includes caller). */
    explicit ThreadPool(int lanes);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int lanes() const { return numLanes; }

    /**
     * Dynamically-scheduled parallel loop: fn(i, lane) is called for
     * every i in [0, n), each index exactly once. Lane ids let callers
     * keep per-lane scratch (e.g. one simulator instance per lane).
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t i, int lane)> &fn);

    /** A sensible default lane count for this host (>= 1). */
    static int defaultLanes();

  private:
    int numLanes;
    std::vector<std::thread> threads;

    std::mutex mtx;
    std::condition_variable wake;
    std::condition_variable idle;
    const std::function<void(int)> *job = nullptr;
    uint64_t generation = 0;
    int running = 0;
    bool stopping = false;

    void workerMain(int lane);
    /**
     * Run @p fn on every lane and return once all lanes finish. The
     * caller executes lane 0. Not reentrant.
     */
    void runOnAll(const std::function<void(int lane)> &fn);
};

/**
 * Work below this many element operations runs on the calling
 * thread: waking the pool would cost about as much as the work it
 * splits.
 */
constexpr int64_t kParallelGrain = int64_t{1} << 16;

/**
 * Row-parallel loop: fn(begin, end) is called for disjoint contiguous
 * ranges that together cover [0, rows), as many as @p pool has lanes
 * (at most rows), each run on one lane. Runs fn(0, rows) on the
 * calling thread when @p pool is null or has one lane, or when
 * rows * rowCost (the element operations of one row: its output
 * width, or for a GEMM row block its multiply-adds) is below
 * kParallelGrain. fn must not throw: pool workers do not unwind.
 * Not reentrant, like ThreadPool::parallelFor.
 */
void forEachRowRange(ThreadPool *pool, int64_t rows, int64_t rowCost,
                     const std::function<void(int64_t begin,
                                              int64_t end)> &fn);

} // namespace gsuite

#endif // GSUITE_UTIL_THREADPOOL_HPP
