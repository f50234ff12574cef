#include "obs/GraphTrace.hpp"

#include <algorithm>
#include <cctype>

namespace gsuite {

std::string
metricSlug(const std::string &label)
{
    std::string out;
    out.reserve(label.size());
    bool pendingSep = false;
    for (const char c : label) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            if (pendingSep && !out.empty())
                out += '_';
            pendingSep = false;
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        } else {
            pendingSep = true;
        }
    }
    return out;
}

namespace {

std::string
stallArgs(const std::array<uint64_t, kNumStallReasons> &stall)
{
    std::string body;
    for (int r = 0; r < kNumStallReasons; ++r) {
        if (!body.empty())
            body += ',';
        body += '"' +
                metricSlug(stallReasonName(
                    static_cast<StallReason>(r))) +
                "\":" + std::to_string(stall[static_cast<size_t>(r)]);
    }
    return body;
}

std::string
occArgs(const std::array<uint64_t, kNumOccBuckets> &occ)
{
    std::string body;
    for (int b = 0; b < kNumOccBuckets; ++b) {
        if (!body.empty())
            body += ',';
        body += '"' +
                metricSlug(occBucketName(static_cast<OccBucket>(b))) +
                "\":" + std::to_string(occ[static_cast<size_t>(b)]);
    }
    return body;
}

} // namespace

void
emitGraphTrace(TraceSink &sink, const OpGraph &graph,
               const MemPlan &plan,
               const std::vector<KernelRecord> &records,
               size_t firstRecord, int lanes)
{
    if (!sink.enabled() || graph.numNodes() == 0)
        return;
    lanes = std::max(1, lanes);

    const size_t n = graph.numNodes();
    std::vector<uint64_t> costs(n, 0);
    bool any_sim = false;
    for (size_t i = 0; i < n; ++i) {
        const KernelRecord &rec = records.at(firstRecord + i);
        costs[i] = rec.hasSim ? rec.sim.cycles : 0;
        any_sim = any_sim || (rec.hasSim && rec.sim.cycles > 0);
    }
    // Functional engines have no cycle costs; unit costs keep the
    // schedule order (and the memplan high-water curve) visible
    // instead of collapsing every span onto cycle 0. Deterministic
    // either way — the trace never feeds back into statistics.
    if (!any_sim)
        costs.assign(n, 1);
    const std::vector<LaneScheduleEntry> sched =
        graph.laneSchedule(costs, lanes);

    // --- engine: per-lane node spans + stall-class counters --------
    if (sink.enabled(TraceEngine)) {
        std::vector<int> laneTrack(static_cast<size_t>(lanes), -1);
        for (int l = 0; l < lanes; ++l)
            laneTrack[static_cast<size_t>(l)] = sink.addTrack(
                "engine", "lane " + std::to_string(l));
        for (const LaneScheduleEntry &e : sched) {
            const OpNode &nd = graph.node(e.node);
            const KernelRecord &rec =
                records.at(firstRecord + e.node);
            const int track =
                laneTrack[static_cast<size_t>(e.lane)];
            std::string args =
                "\"node\":" + std::to_string(e.node) +
                ",\"part\":" + std::to_string(nd.part) +
                ",\"level\":" + std::to_string(nd.level) +
                ",\"class\":\"" +
                std::string(kernelClassName(rec.kind)) + "\"";
            sink.span(track, e.start, e.finish - e.start, rec.name,
                      std::move(args));
            // Chrome counters key on (pid, name): the lane lives in
            // the counter name so lanes stay separate tracks.
            if (rec.hasSim)
                sink.counter(track, e.start,
                             "stalls.lane" + std::to_string(e.lane),
                             stallArgs(rec.sim.stallCycles));
        }
    }

    // --- sm: sampled warp-scheduler state of the sampling core -----
    if (sink.enabled(TraceSm)) {
        std::vector<int> smTrack(static_cast<size_t>(lanes), -1);
        for (const LaneScheduleEntry &e : sched) {
            const KernelRecord &rec =
                records.at(firstRecord + e.node);
            if (!rec.hasSim || rec.sim.smSamples.empty())
                continue;
            int &track = smTrack[static_cast<size_t>(e.lane)];
            if (track < 0)
                track = sink.addTrack(
                    "sm sampling core",
                    "lane " + std::to_string(e.lane));
            // Samples carry cumulative counters; emit per-interval
            // deltas so the counter track shows activity, not area.
            SmSchedSample prev;
            for (const SmSchedSample &s : rec.sim.smSamples) {
                std::array<uint64_t, kNumStallReasons> dStall{};
                for (int r = 0; r < kNumStallReasons; ++r)
                    dStall[static_cast<size_t>(r)] =
                        s.stallCycles[static_cast<size_t>(r)] -
                        prev.stallCycles[static_cast<size_t>(r)];
                std::array<uint64_t, kNumOccBuckets> dOcc{};
                for (int b = 0; b < kNumOccBuckets; ++b)
                    dOcc[static_cast<size_t>(b)] =
                        s.occCycles[static_cast<size_t>(b)] -
                        prev.occCycles[static_cast<size_t>(b)];
                const uint64_t ts = e.start + s.cycle;
                sink.counter(track, ts,
                             "sm_stall.lane" +
                                 std::to_string(e.lane),
                             stallArgs(dStall));
                sink.counter(track, ts,
                             "sm_occ.lane" + std::to_string(e.lane),
                             occArgs(dOcc));
                prev = s;
            }
        }
    }

    // --- memplan: planned and naive high-water curves --------------
    if (sink.enabled(TraceMemPlan) && plan.fullSpanCoverage()) {
        const int hwTrack = sink.addTrack("memplan", "high-water");
        // High-water is a per-node curve; emit it in time order
        // (start, then node index) so the counter reads as the
        // schedule's memory profile.
        std::vector<const LaneScheduleEntry *> byTime;
        byTime.reserve(sched.size());
        for (const LaneScheduleEntry &e : sched)
            byTime.push_back(&e);
        std::stable_sort(byTime.begin(), byTime.end(),
                         [](const LaneScheduleEntry *a,
                            const LaneScheduleEntry *b) {
                             if (a->start != b->start)
                                 return a->start < b->start;
                             return a->node < b->node;
                         });
        for (const LaneScheduleEntry *e : byTime)
            sink.counter(
                hwTrack, e->start, "mem.high_water",
                "\"planned_bytes\":" +
                    std::to_string(plan.nodeHighWater()[e->node]) +
                    ",\"naive_bytes\":" +
                    std::to_string(
                        plan.nodeNaiveHighWater()[e->node]));
    }
}

} // namespace gsuite
