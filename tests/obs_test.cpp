/**
 * @file
 * Tests for the observability subsystem (src/obs): TraceSink
 * recording/export invariants (disabled-path zero allocation,
 * bounded-buffer overflow accounting, merge-order determinism),
 * counter-name slugs, the lane-schedule trace replay against
 * the op-graph ground truth, and the tentpole determinism
 * contracts — byte-identical traces across sim-thread and
 * sweep-thread counts and reruns, with every simulated statistic
 * bit-identical whether a sink is attached or not.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/ExecutionEngine.hpp"
#include "graph/Generators.hpp"
#include "models/GnnModel.hpp"
#include "obs/GraphTrace.hpp"
#include "obs/TraceSink.hpp"
#include "suite/BenchSession.hpp"
#include "suite/ResultStore.hpp"
#include "suite/SweepSpec.hpp"
#include "util/Random.hpp"

using namespace gsuite;

namespace {

Graph
smallGraph(uint64_t seed = 3)
{
    Rng rng(seed);
    Graph g = generateErdosRenyi(120, 500, rng);
    fillFeatures(g, 16, rng);
    return g;
}

TraceSinkOptions
enabledOptions()
{
    TraceSinkOptions opts;
    opts.enabled = true;
    return opts;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace

// ---------------------------------------------------------------------------
// TraceSink mechanics

TEST(TraceSink, DisabledSinkAllocatesNothing)
{
    TraceSink sink; // default = disabled null object
    EXPECT_FALSE(sink.enabled());
    const int track = sink.addTrack("engine", "lane 0");
    EXPECT_EQ(track, -1);
    for (int i = 0; i < 1000; ++i) {
        const uint64_t ts = static_cast<uint64_t>(i);
        sink.span(track, ts, 1, "k");
        sink.counter(track, ts, "c", "\"v\":1");
    }
    EXPECT_EQ(sink.heapFootprintBytes(), 0u);
    EXPECT_EQ(sink.eventCount(), 0u);
    EXPECT_EQ(sink.droppedEvents(), 0u);
}

TEST(TraceSink, ComponentSelection)
{
    TraceSinkOptions opts = enabledOptions();
    opts.components = TraceEngine | TraceMemPlan;
    TraceSink sink(opts);
    EXPECT_TRUE(sink.enabled());
    EXPECT_TRUE(sink.enabled(TraceEngine));
    EXPECT_TRUE(sink.enabled(TraceMemPlan));
    EXPECT_FALSE(sink.enabled(TraceSm));
}

TEST(TraceSink, ComponentNamesRoundTrip)
{
    EXPECT_EQ(traceComponentNames(TraceAllComponents), "all");
    EXPECT_EQ(traceComponentNames(0), "none");
    EXPECT_EQ(traceComponentNames(TraceEngine | TraceMemPlan),
              "engine,memplan");
    EXPECT_EQ(parseTraceComponents("engine,memplan"),
              unsigned(TraceEngine | TraceMemPlan));
    EXPECT_EQ(parseTraceComponents("all"),
              unsigned(TraceAllComponents));
    EXPECT_EQ(parseTraceComponents("none"), 0u);
    unsigned mask = 123;
    EXPECT_FALSE(tryParseTraceComponents("bogus", mask));
    EXPECT_EQ(mask, 123u); // unchanged on failure
}

TEST(TraceSink, OverflowDropsNewestAndCounts)
{
    TraceSinkOptions opts = enabledOptions();
    opts.trackCapacity = 2;
    TraceSink sink(opts);
    const int track = sink.addTrack("engine", "lane 0");
    for (uint64_t i = 0; i < 5; ++i) {
        std::string name = "e";
        name += std::to_string(i);
        sink.span(track, i, 1, name);
    }
    EXPECT_EQ(sink.eventCount(), 2u);
    EXPECT_EQ(sink.droppedEvents(), 3u);
    // The oldest events survive; the newest are the ones dropped.
    const std::string json = sink.toChromeJson();
    EXPECT_NE(json.find("\"e0\""), std::string::npos);
    EXPECT_NE(json.find("\"e1\""), std::string::npos);
    EXPECT_EQ(json.find("\"e4\""), std::string::npos);
    // Never silent: the drop count is embedded in the export.
    EXPECT_NE(json.find("\"trace_dropped_events\":3"),
              std::string::npos);
}

TEST(TraceSink, MergedExportSortsByTimestampPerTrack)
{
    TraceSink sink(enabledOptions());
    const int track = sink.addTrack("engine", "lane 0");
    // Append out of ts order; the export must still be sorted.
    sink.span(track, 50, 1, "late");
    sink.span(track, 10, 1, "early");
    const std::string json = sink.toChromeJson();
    EXPECT_LT(json.find("\"early\""), json.find("\"late\""));
}

// ---------------------------------------------------------------------------
// Counter-name slugs

TEST(GraphTrace, MetricSlugNormalizesLabels)
{
    EXPECT_EQ(metricSlug("Memory Dependency"), "memory_dependency");
    EXPECT_EQ(metricSlug("ALU/FPU busy"), "alu_fpu_busy");
    EXPECT_EQ(metricSlug("already_clean"), "already_clean");
}

// ---------------------------------------------------------------------------
// Lane-schedule trace replay vs the IR ground truth

TEST(GraphTrace, LaneScheduleMatchesOpGraphFinishTimes)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    GnnPipeline p(g, cfg);
    FunctionalEngine sizer;
    p.run(sizer);
    const OpGraph &ops = p.opGraph();
    std::vector<uint64_t> costs(ops.numNodes());
    for (size_t i = 0; i < costs.size(); ++i)
        costs[i] = 37 * i % 101 + 1;
    for (const int lanes : {1, 2, 4}) {
        const std::vector<uint64_t> want =
            ops.finishTimes(costs, lanes);
        const std::vector<LaneScheduleEntry> sched =
            laneSchedule(ops, costs, lanes);
        ASSERT_EQ(sched.size(), want.size());
        for (const LaneScheduleEntry &e : sched) {
            EXPECT_EQ(e.finish, want[e.node]) << "lanes " << lanes;
            EXPECT_EQ(e.finish - e.start, costs[e.node]);
            EXPECT_GE(e.lane, 0);
            EXPECT_LT(e.lane, lanes);
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism contracts

TEST(ObsDeterminism, EngineTraceIdenticalAcrossConcurrentLaneReruns)
{
    // Four launch lanes finish their launches in a different order on
    // every run; the merged trace must not depend on that order.
    const Graph g = smallGraph();
    ModelConfig cfg;
    std::string jsons[2];
    for (int i = 0; i < 2; ++i) {
        SimEngine::Options opts;
        opts.gpu = GpuConfig::testTiny();
        opts.gpu.smSampleFactor = 1;
        // Pinned: "auto" lanes resolve from the host's core count,
        // and the lane count shapes the trace's track structure.
        opts.parallelLaunches = 4;
        SimEngine engine(opts);
        TraceSink sink(enabledOptions());
        engine.setTraceSink(&sink);
        GnnPipeline p(g, cfg);
        p.run(engine);
        engine.sync();
        jsons[i] = sink.toChromeJson();
        EXPECT_GT(sink.spanCount(), 0u);
        EXPECT_EQ(sink.droppedEvents(), 0u);
    }
    EXPECT_FALSE(jsons[0].empty());
    EXPECT_EQ(jsons[0], jsons[1]);
}

TEST(ObsDeterminism, TracingChangesNoSimulatedStatistic)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    SimEngine::Options opts;
    opts.gpu = GpuConfig::testTiny();
    opts.gpu.smSampleFactor = 1;
    opts.parallelLaunches = 1;

    SimEngine plain(opts);
    GnnPipeline p1(g, cfg);
    p1.run(plain);

    SimEngine traced(opts);
    TraceSink sink(enabledOptions()); // all components, sampling on
    traced.setTraceSink(&sink);
    GnnPipeline p2(g, cfg);
    p2.run(traced);

    const auto &a = plain.timeline();
    const auto &b = traced.timeline();
    ASSERT_EQ(a.size(), b.size());
    uint64_t samples = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].hasSim && b[i].hasSim);
        EXPECT_EQ(a[i].sim.cycles, b[i].sim.cycles) << a[i].name;
        EXPECT_EQ(a[i].sim.warpInstrs, b[i].sim.warpInstrs);
        EXPECT_EQ(a[i].sim.stallCycles, b[i].sim.stallCycles);
        EXPECT_EQ(a[i].sim.occCycles, b[i].sim.occCycles);
        EXPECT_EQ(a[i].sim.deviceBytesPeak,
                  b[i].sim.deviceBytesPeak);
        // Sampling is observation-only extra state: present on the
        // traced run, absent on the plain one.
        EXPECT_TRUE(a[i].sim.smSamples.empty());
        samples += b[i].sim.smSamples.size();
    }
    EXPECT_GT(samples, 0u);
    EXPECT_GT(sink.spanCount(), 0u);
}

TEST(ObsDeterminism, SweepTraceFilesIdenticalAcrossSweepThreads)
{
    UserParams base;
    base.engine = EngineKind::Sim;
    base.runs = 1;
    base.featureCap = 8;
    base.nodeDivisor = 8;
    base.edgeDivisor = 8;
    base.maxCtas = 64;
    // Pinned: sweep lanes > 1 leave explicit values alone but would
    // resolve "auto" (0) differently than a serial sweep.
    base.simThreads = 1;
    base.simParallelLaunches = 2;

    std::vector<std::string> traces[2];
    const int sweepThreads[2] = {1, 2};
    for (int i = 0; i < 2; ++i) {
        UserParams pointBase = base;
        pointBase.tracePath = std::string(::testing::TempDir()) +
                              "obs_sweep_" + std::to_string(i) +
                              ".json";
        const SweepSpec spec =
            SweepSpec{}
                .base(pointBase)
                .models({GnnModelKind::Gcn, GnnModelKind::Gin});
        BenchSession::Options sopts;
        sopts.sweepThreads = sweepThreads[i];
        const ResultStore store = BenchSession(sopts).run(spec);
        ASSERT_EQ(store.size(), 2u);
        ASSERT_EQ(store.failures(), 0u);
        for (const SweepResult &r : store) {
            ASSERT_FALSE(r.outcome.tracePath.empty());
            // Per-point ".pN" naming keeps multi-point traces apart.
            EXPECT_NE(r.outcome.tracePath.find(
                          ".p" + std::to_string(r.point.index) +
                          ".json"),
                      std::string::npos);
            EXPECT_EQ(r.outcome.metrics.at("trace_dropped_events"),
                      0.0);
            EXPECT_GT(r.outcome.metrics.at("obs_events"), 0.0);
            traces[i].push_back(slurp(r.outcome.tracePath));
        }
    }
    ASSERT_EQ(traces[0].size(), traces[1].size());
    for (size_t i = 0; i < traces[0].size(); ++i) {
        EXPECT_FALSE(traces[0][i].empty());
        EXPECT_EQ(traces[0][i], traces[1][i]) << "point " << i;
    }
}
