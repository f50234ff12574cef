/**
 * @file
 * Deterministic sim-time trace recording.
 *
 * A TraceSink records typed spans and counter samples whose
 * timestamps live entirely in the *simulated cycle* domain — never
 * wall clock — so a trace is a pure function of the run's
 * deterministic state and is bit-identical across reruns,
 * `--sim-threads` and `--sweep-threads` counts, and machines.
 *
 * Concurrency contract: events are stored in per-track bounded
 * buffers. Each track has exactly one writer at a time (tracks are
 * registered up front by the control thread via addTrack(), before
 * any concurrent appends), and the exporter merges tracks in
 * registration-index order with a per-track stable sort by timestamp
 * (ties keep append order). That makes the merged output independent
 * of thread interleaving without any locking on the append path.
 *
 * Overflow policy: each track holds at most trackCapacity events;
 * further appends are dropped *newest-first* and counted in
 * droppedEvents() — drops are surfaced as the `trace_dropped_events`
 * metric and embedded in the exported JSON, never silent.
 *
 * A default-constructed sink is disabled and allocates nothing; every
 * append API early-returns, so instrumented code can call through a
 * null-object sink at zero cost (tests/obs_test.cpp pins the
 * zero-allocation property via heapFootprintBytes()).
 */

#ifndef GSUITE_OBS_TRACESINK_HPP
#define GSUITE_OBS_TRACESINK_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gsuite {

/**
 * Subsystems that can emit into a sink, selectable via the hwdb key
 * `trace.components` (gpgpusim's `-trace_components` vocabulary).
 */
enum TraceComponent : unsigned {
    TraceEngine = 1u << 0,  ///< op-graph node spans per execution lane
    TraceSm = 1u << 1,      ///< sampled per-SM warp-scheduler state
    TraceMemPlan = 1u << 2, ///< planned/naive memory high-water
    TraceAllComponents = TraceEngine | TraceSm | TraceMemPlan,
};

/**
 * Parse a comma-separated component list ("engine,sm", "all",
 * "none"). Returns false on an unknown name (mask left unchanged).
 */
bool tryParseTraceComponents(const std::string &csv, unsigned &mask);

/** Parse or die — for CLI/hwdb paths where unknown names are fatal. */
unsigned parseTraceComponents(const std::string &csv);

/** Canonical round-trippable rendering of a component mask. */
std::string traceComponentNames(unsigned mask);

struct TraceSinkOptions {
    bool enabled = false;
    unsigned components = TraceAllComponents;
    /** SM index whose warp-scheduler state is sampled
     *  (gpgpusim `-trace_sampling_core`). */
    int samplingCore = 0;
    /** Max events per track; overflow drops newest and counts. */
    size_t trackCapacity = 1u << 16;
};

/** One recorded event. All payloads are pre-rendered JSON so export
 *  is pure string concatenation (no float formatting surprises). */
struct TraceEvent {
    enum class Phase : uint8_t { Span, Counter };
    Phase phase = Phase::Span;
    uint64_t ts = 0;  ///< simulated cycle (exported as integer us)
    uint64_t dur = 0; ///< span length in cycles (Span only)
    std::string name;
    std::string args; ///< JSON object *body* ("\"k\":1,...") or empty
};

class TraceSink {
  public:
    /** Disabled null-object sink: allocates nothing, records nothing. */
    TraceSink() = default;
    explicit TraceSink(const TraceSinkOptions &opts);

    bool enabled() const { return opts.enabled; }
    /** True when enabled AND the component is selected. */
    bool enabled(TraceComponent c) const
    {
        return opts.enabled && (opts.components & c) != 0;
    }
    int samplingCore() const { return opts.samplingCore; }

    /**
     * Register a track (one Perfetto thread lane). Tracks with the
     * same process name share a pid group in the export. Must not
     * race with appends; returns -1 on a disabled sink (all append
     * APIs accept -1 and no-op).
     */
    int addTrack(const std::string &process, const std::string &thread);

    void span(int track, uint64_t ts, uint64_t dur, std::string name,
              std::string args = std::string());
    /** Counter sample; Chrome groups series by (pid, name), so
     *  per-lane counters must carry the lane in the name. */
    void counter(int track, uint64_t ts, std::string name,
                 std::string series);

    uint64_t droppedEvents() const;
    uint64_t eventCount() const; ///< accepted (recorded) events
    uint64_t spanCount() const;
    uint64_t counterCount() const;

    /** Bytes of heap backing event storage; 0 for a disabled sink. */
    size_t heapFootprintBytes() const;

    /**
     * Render the Chrome-trace-event JSON ({"traceEvents":[...]}).
     * Tracks are emitted in index order, each stably sorted by ts;
     * otherData embeds the accepted/dropped counters so
     * scripts/validate_trace.py can check event-count identity.
     */
    std::string toChromeJson() const;

    /** Write toChromeJson() to @p path; fatal() on I/O failure. */
    void writeFile(const std::string &path) const;

  private:
    struct Track {
        std::string process;
        std::string thread;
        std::vector<TraceEvent> events;
        uint64_t dropped = 0;
    };

    void push(int track, TraceEvent ev);

    TraceSinkOptions opts; ///< default: disabled
    /** unique_ptr keeps Track addresses stable across addTrack(). */
    std::vector<std::unique_ptr<Track>> tracks;
};

} // namespace gsuite

#endif // GSUITE_OBS_TRACESINK_HPP
