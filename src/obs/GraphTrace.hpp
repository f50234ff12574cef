/**
 * @file
 * Engine-side trace emission: turns one ExecutionEngine::run(OpGraph&)
 * call into Chrome-trace tracks — per-lane node spans (the engine
 * component), sampled warp-scheduler counters of the trace sampling
 * core (the sm component), and the planned and naive memory
 * high-water curves (the memplan component).
 *
 * The spans sit where OpGraph::laneSchedule places them — the same
 * schedule that yields the run's makespan. Everything is a pure
 * function of the graph, the per-node simulated cycle counts, and
 * the lane count — so emitted traces are bit-identical across reruns
 * and thread counts.
 */

#ifndef GSUITE_OBS_GRAPHTRACE_HPP
#define GSUITE_OBS_GRAPHTRACE_HPP

#include <string>
#include <vector>

#include "engine/ExecutionEngine.hpp"
#include "ir/OpGraph.hpp"
#include "memplan/MemPlan.hpp"
#include "obs/TraceSink.hpp"

namespace gsuite {

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
