#include "util/ThreadPool.hpp"

#include <algorithm>
#include <atomic>

#include "util/Logging.hpp"

namespace gsuite {

ThreadPool::ThreadPool(int lanes) : numLanes(std::max(1, lanes))
{
    threads.reserve(static_cast<size_t>(numLanes - 1));
    for (int i = 1; i < numLanes; ++i)
        threads.emplace_back([this, i] { workerMain(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    wake.notify_all();
    for (auto &t : threads)
        t.join();
}

void
ThreadPool::workerMain(int lane)
{
    uint64_t seen = 0;
    for (;;) {
        const std::function<void(int)> *my_job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mtx);
            wake.wait(lock, [&] {
                return stopping || generation != seen;
            });
            if (stopping)
                return;
            seen = generation;
            my_job = job;
        }
        (*my_job)(lane);
        {
            std::lock_guard<std::mutex> lock(mtx);
            if (--running == 0)
                idle.notify_all();
        }
    }
}

void
ThreadPool::runOnAll(const std::function<void(int)> &fn)
{
    if (numLanes == 1) {
        fn(0);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mtx);
        panicIf(running != 0, "ThreadPool::runOnAll is not reentrant");
        job = &fn;
        running = numLanes - 1;
        ++generation;
    }
    wake.notify_all();
    fn(0);
    {
        std::unique_lock<std::mutex> lock(mtx);
        idle.wait(lock, [&] { return running == 0; });
        job = nullptr;
    }
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t, int)> &fn)
{
    if (n == 0)
        return;
    std::atomic<size_t> next{0};
    runOnAll([&](int lane) {
        for (;;) {
            const size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            fn(i, lane);
        }
    });
}

void
forEachRowRange(ThreadPool *pool, int64_t rows, int64_t rowCost,
                const std::function<void(int64_t, int64_t)> &fn)
{
    const int64_t parts =
        pool ? std::min<int64_t>(pool->lanes(), rows) : 1;
    if (parts <= 1 || rows * rowCost < kParallelGrain) {
        fn(0, rows);
        return;
    }
    pool->parallelFor(static_cast<size_t>(parts), [&](size_t p, int) {
        const int64_t i = static_cast<int64_t>(p);
        fn(rows * i / parts, rows * (i + 1) / parts);
    });
}

int
ThreadPool::defaultLanes()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1, static_cast<int>(hw));
}

} // namespace gsuite
