#include "suite/BenchSession.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <list>
#include <map>
#include <mutex>
#include <new>

#include "frameworks/FrameworkAdapter.hpp"
#include "hwdb/HwConfigFile.hpp"
#include "obs/TraceSink.hpp"
#include "util/Logging.hpp"
#include "util/ThreadPool.hpp"

namespace gsuite {

/**
 * Bounded, thread-safe (dataset, scale, seed) -> Graph cache.
 * Concurrent lanes asking for the same graph share one load (the
 * first requester loads outside the lock; the rest block on a
 * shared_future); distinct graphs load concurrently. Eviction is
 * LRU over the entry list — evicted graphs stay alive for points
 * still holding their shared_ptr.
 */
class GraphCache
{
  public:
    explicit GraphCache(size_t capacity) : capacity(capacity) {}

    std::shared_ptr<const Graph>
    get(const UserParams &params)
    {
        using GraphPtr = std::shared_ptr<const Graph>;
        const std::string key = cacheKey(params);
        std::promise<GraphPtr> promise;
        std::shared_future<GraphPtr> future;
        bool loader = false;
        uint64_t my_id = 0;
        {
            std::lock_guard<std::mutex> lock(mtx);
            auto it = entries.find(key);
            if (it != entries.end()) {
                ++statHits;
                touch(it->second);
                future = it->second.future;
            } else {
                ++statMisses;
                loader = true;
                future = promise.get_future().share();
                Entry entry;
                entry.future = future;
                entry.id = my_id = nextId++;
                lru.push_front(key);
                entry.lruPos = lru.begin();
                entries.emplace(key, std::move(entry));
                evictOverCapacity();
            }
        }
        if (loader) {
            try {
                promise.set_value(std::make_shared<const Graph>(
                    loadDatasetFor(params)));
            } catch (...) {
                // Propagate to every waiter, and forget *our* entry
                // (identity-checked: it may have been evicted and
                // the key re-inserted meanwhile) so a later point
                // may retry.
                promise.set_exception(std::current_exception());
                std::lock_guard<std::mutex> lock(mtx);
                auto it = entries.find(key);
                if (it != entries.end() &&
                    it->second.id == my_id) {
                    lru.erase(it->second.lruPos);
                    entries.erase(it);
                }
            }
        }
        return future.get();
    }

    BenchSession::CacheStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return {statHits, statMisses, statEvictions};
    }

  private:
    struct Entry {
        std::shared_future<std::shared_ptr<const Graph>> future;
        std::list<std::string>::iterator lruPos;
        uint64_t id = 0; ///< insertion identity (erase guard)
    };

    static std::string
    cacheKey(const UserParams &params)
    {
        // Everything loadDatasetFor derives the graph from; scale
        // captures the resolved divisors and feature cap.
        return params.dataset + "|" +
               params.resolveScale().describe() + "|" +
               std::to_string(params.seed);
    }

    void
    touch(Entry &entry)
    {
        lru.splice(lru.begin(), lru, entry.lruPos);
    }

    void
    evictOverCapacity()
    {
        // Oldest-first, but only completed loads: evicting an
        // in-flight entry would let a second loader race the first.
        // If every older entry is still loading, run over capacity
        // until one settles.
        auto victim = lru.end();
        while (entries.size() > capacity) {
            victim = victim == lru.end() ? std::prev(lru.end())
                                         : std::prev(victim);
            auto it = entries.find(*victim);
            if (it->second.future.wait_for(
                    std::chrono::seconds(0)) !=
                std::future_status::ready) {
                if (victim == lru.begin())
                    break; // nothing evictable yet
                continue;
            }
            entries.erase(it);
            victim = lru.erase(victim);
            ++statEvictions;
        }
    }

    const size_t capacity;
    mutable std::mutex mtx;
    std::map<std::string, Entry> entries;
    std::list<std::string> lru; ///< front = most recent
    uint64_t nextId = 1;
    size_t statHits = 0, statMisses = 0, statEvictions = 0;
};

BenchSession::BenchSession() : BenchSession(Options{}) {}

BenchSession::BenchSession(Options opts_) : opts(std::move(opts_))
{
    if (opts.graphCacheEntries > 0)
        cache = std::make_unique<GraphCache>(opts.graphCacheEntries);
}

BenchSession::~BenchSession() = default;
BenchSession::BenchSession(BenchSession &&) noexcept = default;
BenchSession &
BenchSession::operator=(BenchSession &&) noexcept = default;

BenchSession::CacheStats
BenchSession::cacheStats() const
{
    return cache ? cache->stats() : CacheStats{};
}

RunOutcome
BenchSession::runPoint(const UserParams &params)
{
    return runPoint(params, loadDatasetFor(params));
}

RunOutcome
BenchSession::runPoint(const UserParams &params, const Graph &graph)
{
    RunOutcome outcome;
    outcome.params = params;
    outcome.scaleDescription = params.resolveScale().describe();
    outcome.graphSummary = graph.summary();

    const FrameworkAdapter adapter(params.framework);
    std::unique_ptr<ExecutionEngine> engine;
    std::unique_ptr<TraceSink> sink;
    std::string tracePath = params.tracePath;
    if (params.engine == EngineKind::Sim) {
        // Resolve the machine once: the engine and the provenance
        // snapshot must describe the same config even if a file:
        // spec changes on disk mid-sweep.
        const GpuConfig gpu = params.resolveGpuConfig();
        outcome.gpuConfigSnapshot = gpuConfigKeyValues(gpu);
        engine = AbstractionModule::makeEngine(params, gpu);
        // Tracing: --trace PATH forces it on; otherwise the resolved
        // machine's trace.enabled hwdb key does, with a default path.
        // Component selection and the sampled SM always come from
        // the machine (trace.components / trace.sampling_core).
        if (!tracePath.empty() || gpu.traceEnabled) {
            if (tracePath.empty())
                tracePath = "trace.json";
            TraceSinkOptions topts;
            topts.enabled = true;
            topts.components =
                parseTraceComponents(gpu.traceComponents);
            topts.samplingCore = gpu.traceSamplingCore;
            sink = std::make_unique<TraceSink>(topts);
        }
    } else {
        if (!tracePath.empty()) {
            warn("--trace needs the sim engine; no trace written "
                 "for this point");
            tracePath.clear();
        }
        engine = AbstractionModule::makeEngine(params);
    }

    double sum = 0.0;
    double kernel_sum = 0.0;
    outcome.endToEndSamplesUs.reserve(
        static_cast<size_t>(params.runs));
    outcome.kernelSamplesUs.reserve(static_cast<size_t>(params.runs));
    for (int r = 0; r < params.runs; ++r) {
        // Only the final (recorded) run is traced: earlier warm-up
        // runs would duplicate every span.
        if (sink && r == params.runs - 1)
            engine->setTraceSink(sink.get());
        const FrameworkRunResult res = adapter.run(
            graph, params.modelConfig(), *engine, params.batch);
        sum += res.endToEndUs;
        kernel_sum += res.kernelUs;
        outcome.endToEndSamplesUs.push_back(res.endToEndUs);
        outcome.kernelSamplesUs.push_back(res.kernelUs);
        if (r == 0) {
            outcome.minEndToEndUs = res.endToEndUs;
            outcome.maxEndToEndUs = res.endToEndUs;
        } else {
            outcome.minEndToEndUs =
                std::min(outcome.minEndToEndUs, res.endToEndUs);
            outcome.maxEndToEndUs =
                std::max(outcome.maxEndToEndUs, res.endToEndUs);
        }
        if (r == params.runs - 1) {
            outcome.timeline = res.timeline;
            // Deterministic overlap model of the executed op-graph
            // (identical across runs): how much launch-level
            // concurrency the dependency structure exposes.
            if (res.graph.hasSim) {
                outcome.metrics["graph_serial_cycles"] =
                    static_cast<double>(res.graph.serialCycles);
                outcome.metrics["graph_critical_path_cycles"] =
                    static_cast<double>(
                        res.graph.criticalPathCycles);
                outcome.metrics["graph_levels"] =
                    static_cast<double>(res.graph.levels);
                // The makespan depends on the lane count, which
                // "auto" (0) resolves from the host's core count —
                // emit it only when params pin the lanes, so
                // archived metrics stay machine-independent (CI
                // diffs them as blocking-exact).
                if (params.simParallelLaunches > 0) {
                    outcome.metrics["graph_makespan_cycles"] =
                        static_cast<double>(
                            res.graph.makespanCycles);
                    outcome.metrics["graph_lanes"] =
                        static_cast<double>(res.graph.lanes);
                }
            }
            // Planned vs naive peak footprint (src/memplan): pure
            // functions of the graph, identical in both placement
            // modes; present whenever every kernel declares its
            // spans (all six core kernels do).
            if (res.graph.memPeakNaiveBytes > 0) {
                outcome.metrics["mem_peak_planned_bytes"] =
                    static_cast<double>(
                        res.graph.memPeakPlannedBytes);
                outcome.metrics["mem_peak_naive_bytes"] =
                    static_cast<double>(
                        res.graph.memPeakNaiveBytes);
            }
        }
    }
    outcome.meanEndToEndUs = sum / params.runs;
    outcome.meanKernelUs = kernel_sum / params.runs;
    if (sink) {
        const auto t0 = std::chrono::steady_clock::now();
        sink->writeFile(tracePath);
        const auto t1 = std::chrono::steady_clock::now();
        outcome.tracePath = tracePath;
        // Exact-integer observability counters (CI diffs them as
        // blocking-deterministic); the write cost is wall clock and
        // stays warn-only.
        outcome.metrics["obs_events"] =
            static_cast<double>(sink->eventCount());
        outcome.metrics["obs_spans"] =
            static_cast<double>(sink->spanCount());
        outcome.metrics["obs_counters"] =
            static_cast<double>(sink->counterCount());
        outcome.metrics["trace_dropped_events"] =
            static_cast<double>(sink->droppedEvents());
        outcome.metrics["trace_write_ms"] =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        if (sink->droppedEvents() > 0)
            warn("trace %s dropped %llu events (narrow "
                 "trace.components)",
                 tracePath.c_str(),
                 static_cast<unsigned long long>(
                     sink->droppedEvents()));
    }
    return outcome;
}

ResultStore
BenchSession::run(const SweepSpec &spec) const
{
    return run(spec, [this](const SweepPoint &pt) {
        if (!cache)
            return runPoint(pt.params);
        return runPoint(pt.params, *cache->get(pt.params));
    });
}

ResultStore
BenchSession::run(const SweepSpec &spec,
                  const PointRunner &runner) const
{
    const std::vector<SweepPoint> points = spec.expand();
    ResultStore store;
    store.resize(points.size());
    if (points.empty())
        return store;

    const int lanes = std::clamp(
        opts.sweepThreads > 0 ? opts.sweepThreads
                              : ThreadPool::defaultLanes(),
        1, static_cast<int>(points.size()));
    const int budget =
        opts.threadBudget > 0
            ? opts.threadBudget
            : std::max(lanes, ThreadPool::defaultLanes());

    std::mutex mtx;
    size_t done = 0;
    auto runOne = [&](size_t i, int /*lane*/) {
        SweepPoint pt = points[i];
        // Every log line of this point (including from concurrent
        // lanes) carries its label.
        ScopedLogPrefix logScope(pt.label);
        // Multi-point sweeps write one trace per point: ".pN" goes
        // before the extension so trace.json -> trace.p3.json.
        if (!pt.params.tracePath.empty() && points.size() > 1) {
            std::string path = pt.params.tracePath;
            const size_t dot = path.find_last_of('.');
            const size_t slash = path.find_last_of('/');
            const std::string suffix =
                ".p" + std::to_string(i);
            if (dot != std::string::npos &&
                (slash == std::string::npos || dot > slash))
                path.insert(dot, suffix);
            else
                path += suffix;
            pt.params.tracePath = path;
        }
        // Compose budgets: sweep lanes take the worker budget
        // first; each point's "auto" launch lanes and simThreads get
        // the per-lane share.
        const bool autoLaunchLanes = pt.params.simParallelLaunches == 0;
        if (lanes > 1) {
            const int share = std::max(1, budget / lanes);
            if (pt.params.simThreads == 0)
                pt.params.simThreads = share;
            if (autoLaunchLanes)
                pt.params.simParallelLaunches = share;
        }
        SweepResult result;
        result.point = pt;
        try {
            result.outcome = runner(pt);
            result.ok = true;
        } catch (const RunException &e) {
            result.error = e.what();
            result.errorKind = e.kind();
        } catch (const std::bad_alloc &) {
            result.error = "out of memory";
            result.errorKind = RunError::Oom;
        } catch (const std::exception &e) {
            result.error = e.what();
            result.errorKind = RunError::Unknown;
        } catch (...) {
            result.error = "unknown exception";
            result.errorKind = RunError::Unknown;
        }
        // Lane-dependent metrics surface only for a user-pinned lane
        // count: a composed one depends on the host and the sweep
        // width, as an auto one does (see runPoint).
        if (autoLaunchLanes) {
            result.outcome.metrics.erase("graph_makespan_cycles");
            result.outcome.metrics.erase("graph_lanes");
        }
        // Custom runners may not implement tracing; never let a
        // requested --trace vanish silently. (Functional points get
        // their own warn from runPoint.)
        if (result.ok && !pt.params.tracePath.empty() &&
            pt.params.engine == EngineKind::Sim &&
            result.outcome.tracePath.empty())
            warn("point '%s': --trace requested but this bench's "
                 "runner wrote no trace",
                 pt.label.c_str());
        if (!result.ok)
            warn("sweep point '%s' failed [%s]: %s",
                 pt.label.c_str(), runErrorName(result.errorKind),
                 result.error.c_str());
        store.put(std::move(result));
        if (opts.progress) {
            std::lock_guard<std::mutex> lock(mtx);
            ++done;
            opts.progress(store.at(i), done, points.size());
        }
    };

    if (lanes <= 1) {
        for (size_t i = 0; i < points.size(); ++i)
            runOne(i, 0);
    } else {
        ThreadPool pool(lanes);
        pool.parallelFor(points.size(), runOne);
    }
    return store;
}

} // namespace gsuite
