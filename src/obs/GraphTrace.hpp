/**
 * @file
 * Engine-side trace emission: turns one ExecutionEngine::run(OpGraph&)
 * call into Chrome-trace tracks — per-lane node spans (the engine
 * component), sampled warp-scheduler counters of the trace sampling
 * core (the sm component), and the planned and naive memory
 * high-water curves (the memplan component).
 *
 * The span placement replays exactly the deterministic list schedule
 * of OpGraph::finishTimes (same best-fit lane rule, with ties broken
 * to the lowest lane index so lanes get stable identities); the
 * resulting per-node finish times are pinned against the IR ground
 * truth by tests/obs_test.cpp. Everything is a pure function of the
 * graph, the per-node simulated cycle counts, and the lane count —
 * so emitted traces are bit-identical across reruns and thread
 * counts.
 */

#ifndef GSUITE_OBS_GRAPHTRACE_HPP
#define GSUITE_OBS_GRAPHTRACE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "engine/ExecutionEngine.hpp"
#include "ir/OpGraph.hpp"
#include "memplan/MemPlan.hpp"
#include "obs/TraceSink.hpp"

namespace gsuite {

/** One scheduled node of the lane replay. */
struct LaneScheduleEntry {
    size_t node = 0;
    int lane = 0;
    uint64_t start = 0;
    uint64_t finish = 0;
};

/**
 * Replay the list schedule OpGraph::finishTimes models, keeping lane
 * identity. Finish times equal OpGraph::finishTimes(costs, lanes)
 * element-wise; lane choice among equally-free lanes is the lowest
 * index (finish times are invariant to that tie-break).
 */
std::vector<LaneScheduleEntry>
laneSchedule(const OpGraph &graph,
             const std::vector<uint64_t> &costs, int lanes);

/**
 * Emit the engine/sm/memplan tracks of one graph run into @p sink
 * (components gated by the sink's mask). @p firstRecord indexes the
 * run's first kernel in @p records; @p plan is the run's memory plan
 * (high-water curves are skipped without full span coverage).
 */
void emitGraphTrace(TraceSink &sink, const OpGraph &graph,
                    const MemPlan &plan,
                    const std::vector<KernelRecord> &records,
                    size_t firstRecord, int lanes);

/** Counter-name segment from a display label: lowercase, spaces and
 *  punctuation collapsed to '_' ("Memory Dependency" ->
 *  "memory_dependency"). */
std::string metricSlug(const std::string &label);

} // namespace gsuite

#endif // GSUITE_OBS_GRAPHTRACE_HPP
