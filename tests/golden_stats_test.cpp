/**
 * @file
 * Golden-stats regression harness: small GCN/GIN pipelines on the
 * test-tiny and v100-sim presets, with every deterministic simulator
 * counter compared exactly against checked-in golden files.
 *
 * The goldens under tests/golden/ were generated with the pre-SoA
 * per-warp issue path; any microarchitectural rework of the SM hot
 * loop must keep them bit-identical. Counters must also be identical
 * across 1 vs 4 concurrent launch lanes (--sim-parallel).
 *
 * Regenerate with scripts/update_goldens.sh (runs this binary with
 * --update-golden). Only do that when a timing-model change is
 * intentional — and say so in the commit message.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/ExecutionEngine.hpp"
#include "graph/Generators.hpp"
#include "hwdb/HwPresets.hpp"
#include "models/GnnModel.hpp"
#include "obs/TraceSink.hpp"
#include "util/Random.hpp"

using namespace gsuite;

namespace {

bool g_update_golden = false;

/** The fixed workload: small, fast, and structurally non-trivial. */
Graph
goldenGraph()
{
    Rng rng(2026);
    Graph g = generateErdosRenyi(96, 384, rng);
    fillFeatures(g, 16, rng);
    return g;
}

void
appendField(std::string &out, const char *key, uint64_t value,
            bool last = false)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "    \"%s\": %" PRIu64 "%s\n",
                  key, value, last ? "" : ",");
    out += buf;
}

/**
 * Canonical JSON rendering of every deterministic counter of one
 * launch. Byte-exact comparison of this string IS the golden check,
 * so the format must stay stable (and the goldens regenerated if it
 * ever changes).
 */
std::string
renderStats(const KernelStats &s)
{
    std::string out = "  {\n";
    out += "    \"name\": \"" + s.name + "\",\n";
    out += std::string("    \"class\": \"") +
           kernelClassName(s.kind) + "\",\n";
    appendField(out, "cycles", s.cycles);
    appendField(out, "ctas_total",
                static_cast<uint64_t>(s.ctasTotal));
    appendField(out, "ctas_expected",
                static_cast<uint64_t>(s.ctasExpected));
    appendField(out, "ctas_simulated",
                static_cast<uint64_t>(s.ctasSimulated));
    appendField(out, "warps_simulated",
                static_cast<uint64_t>(s.warpsSimulated));
    appendField(out, "warp_instrs", s.warpInstrs);
    appendField(out, "thread_instrs", s.threadInstrs);
    for (int c = 0; c < kNumInstrClasses; ++c) {
        const std::string key =
            std::string("instr_") +
            instrClassName(static_cast<InstrClass>(c));
        appendField(out, key.c_str(),
                    s.instrByClass[static_cast<size_t>(c)]);
    }
    for (int r = 0; r < kNumStallReasons; ++r) {
        const std::string key =
            std::string("stall_") +
            stallReasonName(static_cast<StallReason>(r));
        appendField(out, key.c_str(),
                    s.stallCycles[static_cast<size_t>(r)]);
    }
    for (int b = 0; b < kNumOccBuckets; ++b) {
        const std::string key =
            std::string("occ_") +
            occBucketName(static_cast<OccBucket>(b));
        appendField(out, key.c_str(),
                    s.occCycles[static_cast<size_t>(b)]);
    }
    appendField(out, "l1_hits", s.l1Hits);
    appendField(out, "l1_misses", s.l1Misses);
    appendField(out, "l2_hits", s.l2Hits);
    appendField(out, "l2_misses", s.l2Misses);
    appendField(out, "mem_instrs", s.memInstrs);
    appendField(out, "mem_sectors", s.memSectors);
    appendField(out, "dram_bytes", s.dramBytes);
    appendField(out, "dram_busy_cycles", s.dramBusyCycles);
    appendField(out, "dram_row_hits", s.dramRowHits);
    appendField(out, "dram_row_misses", s.dramRowMisses);
    appendField(out, "dram_queue_peak", s.dramQueuePeak);
    appendField(out, "alu_busy_cycles", s.aluBusyCycles);
    appendField(out, "scheduler_slots", s.schedulerSlots);
    appendField(out, "trace_bytes_peak", s.traceBytesPeak, true);
    out += "  }";
    return out;
}

struct GoldenCase {
    const char *label; ///< golden file stem
    GnnModelKind model;
    CompModel comp;
    const char *gpu; ///< hwdb preset name
};

/** Simulate the golden pipeline of @p gc; one record per launch. */
std::vector<KernelRecord>
simulate(const GoldenCase &gc, int launch_lanes,
         TraceSink *sink = nullptr)
{
    SimEngine::Options opts;
    opts.gpu = hwPresetByName(gc.gpu).config;
    opts.sim.maxCtas = 128;
    opts.parallelLaunches = launch_lanes;

    SimEngine engine(opts);
    engine.setTraceSink(sink);
    ModelConfig cfg;
    cfg.model = gc.model;
    cfg.comp = gc.comp;
    cfg.layers = 2;
    cfg.hidden = 16;
    cfg.outDim = 8;

    const Graph g = goldenGraph();
    GnnPipeline p(g, cfg);
    p.run(engine);
    return engine.timeline();
}

std::string
runPipeline(const GoldenCase &gc, int launch_lanes,
            TraceSink *sink = nullptr)
{
    std::string out = "{\n";
    out += std::string("\"model\": \"") + gnnModelName(gc.model) +
           "\",\n";
    out += std::string("\"comp\": \"") + compModelName(gc.comp) +
           "\",\n";
    out += std::string("\"gpu\": \"") + gc.gpu + "\",\n";
    out += "\"kernels\": [\n";
    bool first = true;
    for (const KernelRecord &rec : simulate(gc, launch_lanes, sink)) {
        EXPECT_TRUE(rec.hasSim) << rec.name;
        if (!first)
            out += ",\n";
        first = false;
        out += renderStats(rec.sim);
    }
    out += "\n]\n}\n";
    return out;
}

std::string
goldenPath(const GoldenCase &gc)
{
    return std::string(GSUITE_GOLDEN_DIR) + "/" + gc.label + ".json";
}

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Point at the first differing line so drift is debuggable. */
void
expectSameRendering(const std::string &golden,
                    const std::string &current,
                    const std::string &path)
{
    if (golden == current)
        return;
    std::istringstream ga(golden), cb(current);
    std::string gl, cl;
    int line = 0;
    while (true) {
        ++line;
        const bool has_g = static_cast<bool>(std::getline(ga, gl));
        const bool has_c = static_cast<bool>(std::getline(cb, cl));
        if (!has_g && !has_c)
            break;
        if (!has_g)
            gl = "<end of golden>";
        if (!has_c)
            cl = "<end of output>";
        if (gl != cl) {
            ADD_FAILURE()
                << "golden mismatch vs " << path << " at line "
                << line << "\n  golden : " << gl
                << "\n  current: " << cl
                << "\nIf the timing-model change is intentional, "
                   "regenerate with scripts/update_goldens.sh";
            return;
        }
    }
    ADD_FAILURE() << "golden mismatch vs " << path
                  << " (renderings differ)";
}

} // namespace

class GoldenStats : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenStats, CountersMatchGoldenAndLaunchLanes)
{
    const GoldenCase gc = GetParam();
    const std::string path = goldenPath(gc);
    const std::string serial = runPipeline(gc, /*launch_lanes=*/1);

    if (g_update_golden) {
        std::ofstream out(path);
        ASSERT_TRUE(static_cast<bool>(out))
            << "cannot write " << path;
        out << serial;
        ASSERT_TRUE(static_cast<bool>(out)) << "write error " << path;
        std::printf("updated %s\n", path.c_str());
    }

    const std::string golden = readFileOrEmpty(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << path
        << " — generate it with scripts/update_goldens.sh";
    expectSameRendering(golden, serial, path);

    // Concurrent launch lanes must not move a single counter.
    const std::string lanes = runPipeline(gc, /*launch_lanes=*/4);
    expectSameRendering(serial, lanes,
                        "(launch lanes 1 vs 4 rendering)");

    // Neither may tracing (src/obs): a full-component sink with SM
    // sampling on is observation-only, so the golden rendering stays
    // byte-identical with it attached.
    TraceSinkOptions topts;
    topts.enabled = true;
    TraceSink sink(topts);
    const std::string traced =
        runPipeline(gc, /*launch_lanes=*/1, &sink);
    expectSameRendering(serial, traced,
                        "(tracing on vs off rendering)");
    EXPECT_GT(sink.eventCount(), 0u);
    EXPECT_EQ(sink.droppedEvents(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, GoldenStats,
    ::testing::Values(
        GoldenCase{"gcn_spmm_test-tiny", GnnModelKind::Gcn,
                   CompModel::Spmm, "test-tiny"},
        GoldenCase{"gcn_spmm_v100-sim", GnnModelKind::Gcn,
                   CompModel::Spmm, "v100-sim"},
        GoldenCase{"gin_mp_test-tiny", GnnModelKind::Gin,
                   CompModel::Mp, "test-tiny"},
        GoldenCase{"gin_mp_v100-sim", GnnModelKind::Gin,
                   CompModel::Mp, "v100-sim"}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        std::string n = info.param.label;
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// Fig. 9's memory column. dram_busy_cycles sums the bus-busy cycles
// of every DRAM channel, and each channel carries 1/dramChannels of
// the bandwidth, so the utilization is the bytes moved over the peak
// bytes the launch could have moved (up to the busy sum's
// truncation), and it stays at most 1 without a clamp.
TEST(GoldenMemoryUtilization, IsTheDramBandwidthFraction)
{
    const GoldenCase gc{"gin_mp_v100-sim", GnnModelKind::Gin,
                        CompModel::Mp, "v100-sim"};
    const double peak =
        hwPresetByName(gc.gpu).config.dramBytesPerCycle();
    for (const KernelRecord &rec : simulate(gc, /*launch_lanes=*/1)) {
        const KernelStats &s = rec.sim;
        ASSERT_GT(s.cycles, 0u) << rec.name;
        const double cycles = static_cast<double>(s.cycles);
        EXPECT_NEAR(s.memoryUtilization(),
                    static_cast<double>(s.dramBytes) / (peak * cycles),
                    1.0 / cycles)
            << rec.name;
        EXPECT_LE(s.memoryUtilization(), 1.0) << rec.name;
    }
}

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-golden")
            g_update_golden = true;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
