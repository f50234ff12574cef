/**
 * @file
 * Host-time span recorder for the host_perf benchmark.
 *
 * Spans are kept in memory while the benchmark runs and written out as
 * Chrome-trace JSON when it ends, so recording costs one clock read
 * and one locked vector append per span. Timestamps are host time
 * (steady_clock) and never enter any simulated-cycle artifact.
 */

#ifndef GSUITE_BENCH_HOST_PERF_HOSTTRACE_HPP
#define GSUITE_BENCH_HOST_PERF_HOSTTRACE_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hostperf {

/** One closed (or still open: endNs < 0) host-time interval. */
struct HostSpan {
    std::string name;   ///< layer call, e.g. "simgpu.run"
    std::string detail; ///< e.g. the kernel class of a simgpu.run
    int64_t startNs = 0;
    int64_t endNs = -1;
    int parent = -1; ///< index of the span that caused this one
    int point = -1;  ///< sweep-point id, -1 outside any point
    int thread = 0;  ///< small per-run thread number

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

/** Thread-safe span list; span ids are indices into it. */
class HostTrace
{
  public:
    HostTrace();

    int begin(const std::string &name, int parent, int point,
              const std::string &detail = {});
    void end(int id);

    /** Snapshot of every span recorded so far. */
    std::vector<HostSpan> spans() const;

    /** Write every span as Chrome-trace "X" events. */
    bool writeChromeJson(const std::string &path) const;

  private:
    int64_t nowNs() const;

    const std::chrono::steady_clock::time_point origin;
    mutable std::mutex mtx;
    std::vector<HostSpan> list;
    std::map<std::thread::id, int> threadIds;
};

/** RAII span; a null trace records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(HostTrace *trace, const std::string &name, int parent,
               int point, const std::string &detail = {})
        : trace(trace),
          spanId(trace ? trace->begin(name, parent, point, detail) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (trace)
            trace->end(spanId);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return spanId; }

  private:
    HostTrace *trace;
    int spanId;
};

/**
 * Self time of span @p id: its duration minus the part of it that
 * the union of its direct children covers (children on other threads
 * may overlap each other; the union counts that time once).
 */
double selfSeconds(const std::vector<HostSpan> &spans, int id);

/** True if @p id is @p ancestor or lies beneath it. */
bool descendsFrom(const std::vector<HostSpan> &spans, int id,
                  int ancestor);

} // namespace hostperf

#endif // GSUITE_BENCH_HOST_PERF_HOSTTRACE_HPP
