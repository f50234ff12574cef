/**
 * @file
 * Tests for the sweep API: SweepSpec grid expansion (order, labels,
 * determinism, skip predicates, variants), BenchSession execution
 * (thread-count invariance of ResultStore contents, failure
 * isolation, progress callbacks, budget composition, the cycle-ceiling
 * watchdog's RunError::Timeout surfacing in CSV/JSON) and ResultStore
 * lookups/emitters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "suite/BenchSession.hpp"
#include "suite/ResultStore.hpp"
#include "suite/SweepSpec.hpp"

using namespace gsuite;

namespace {

/** One small, fast sim point: GCN-MP on cora at tiny scale. */
UserParams
tinySimBase()
{
    UserParams base;
    base.engine = EngineKind::Sim;
    base.runs = 1;
    base.featureCap = 8;
    base.nodeDivisor = 8;
    base.edgeDivisor = 8;
    base.maxCtas = 64;
    return base;
}

/** Small, fast sim sweep: 2 datasets x 2 models on tiny scales. */
SweepSpec
tinySimSpec()
{
    return SweepSpec{}
        .base(tinySimBase())
        .models({GnnModelKind::Gcn, GnnModelKind::Gin})
        .datasets({DatasetId::Cora, DatasetId::CiteSeer});
}

} // namespace

TEST(SweepSpec, SinglePointFromBase)
{
    UserParams base;
    base.dataset = "pubmed";
    const auto points = SweepSpec{}.base(base).expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].index, 0u);
    EXPECT_EQ(points[0].params.dataset, "pubmed");
    EXPECT_EQ(points[0].label, "gsuite/gcn/mp/pubmed");
}

TEST(SweepSpec, ExpansionOrderAndLabelsAreDeterministic)
{
    const SweepSpec spec =
        SweepSpec{}
            .models({GnnModelKind::Gcn, GnnModelKind::Gin})
            .comps({CompModel::Mp, CompModel::Spmm})
            .datasets({DatasetId::Cora, DatasetId::PubMed});
    const auto a = spec.expand();
    const auto b = spec.expand();
    ASSERT_EQ(a.size(), 8u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].index, i);
    }
    // Documented axis order: models outer, comps, datasets inner.
    EXPECT_EQ(a[0].label, "gsuite/gcn/mp/cora");
    EXPECT_EQ(a[1].label, "gsuite/gcn/mp/pubmed");
    EXPECT_EQ(a[2].label, "gsuite/gcn/spmm/cora");
    EXPECT_EQ(a[4].label, "gsuite/gin/mp/cora");
    EXPECT_EQ(a[7].label, "gsuite/gin/spmm/pubmed");
}

TEST(SweepSpec, VariantsApplyAndPrefixLabels)
{
    const auto points =
        SweepSpec{}
            .variants({{"w8", [](UserParams &p) { p.hidden = 8; }},
                       {"w32",
                        [](UserParams &p) { p.hidden = 32; }}})
            .expand();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].variant, "w8");
    EXPECT_EQ(points[0].params.hidden, 8);
    EXPECT_EQ(points[0].label, "w8:gsuite/gcn/mp/cora");
    EXPECT_EQ(points[1].params.hidden, 32);
}

TEST(SweepSpec, DuplicateVariantLabelIsFatal)
{
    EXPECT_EXIT(SweepSpec{}
                    .variants({{"x", nullptr}, {"x", nullptr}})
                    .expand(),
                ::testing::ExitedWithCode(1), "");
}

TEST(SweepSpec, SkipPredicatesDropPointsAndReindex)
{
    const auto points =
        SweepSpec{}
            .models({GnnModelKind::Gcn, GnnModelKind::Sage})
            .comps({CompModel::Mp, CompModel::Spmm})
            .skip([](const UserParams &p) {
                return p.model == GnnModelKind::Sage &&
                       p.comp == CompModel::Spmm;
            })
            .expand();
    ASSERT_EQ(points.size(), 3u);
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].index, i);
    for (const auto &pt : points)
        EXPECT_FALSE(pt.params.model == GnnModelKind::Sage &&
                     pt.params.comp == CompModel::Spmm);
}

TEST(SweepSpec, EngineAxisSuffixesLabels)
{
    const auto points =
        SweepSpec{}
            .engines({EngineKind::Functional, EngineKind::Sim})
            .expand();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_NE(points[0].label.find("@functional"),
              std::string::npos);
    EXPECT_NE(points[1].label.find("@sim"), std::string::npos);
}

TEST(SweepSpec, BatchAxisExpandsInnermostWithSuffixedLabels)
{
    UserParams base;
    base.dataset = "cora,citeseer";
    const auto points =
        SweepSpec{}.base(base).batches({1, 4}).expand();
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].label, "gsuite/gcn/mp/corax1");
    EXPECT_EQ(points[0].params.batch, 1);
    EXPECT_EQ(points[1].label, "gsuite/gcn/mp/corax4");
    EXPECT_EQ(points[1].params.batch, 4);
    EXPECT_EQ(points[2].label, "gsuite/gcn/mp/citeseerx1");
    EXPECT_EQ(points[3].params.batch, 4);

    // A single-value axis changes params but not labels.
    const auto solo = SweepSpec{}.batches({2}).expand();
    ASSERT_EQ(solo.size(), 1u);
    EXPECT_EQ(solo[0].params.batch, 2);
    EXPECT_EQ(solo[0].label, "gsuite/gcn/mp/cora");

    EXPECT_EXIT(SweepSpec{}.batches({0}),
                ::testing::ExitedWithCode(1), "");
}

TEST(SweepSpec, SampleAxisExpandsWithTildeLabels)
{
    UserParams base;
    base.sample = "off,cta:0.125";
    const auto points = SweepSpec{}.base(base).expand();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].params.sample, "off");
    EXPECT_EQ(points[0].label, "gsuite/gcn/mp/cora~off");
    EXPECT_EQ(points[1].params.sample, "cta:0.125");
    EXPECT_EQ(points[1].label, "gsuite/gcn/mp/cora~cta:0.125");

    // Explicit axis; the empty spec labels as "off".
    const auto axis =
        SweepSpec{}.samples({"", "cta:0.25"}).expand();
    ASSERT_EQ(axis.size(), 2u);
    EXPECT_EQ(axis[0].label, "gsuite/gcn/mp/cora~off");
    EXPECT_TRUE(axis[0].params.sample.empty());

    // Single value: params change, label does not.
    const auto solo = SweepSpec{}.samples({"cta"}).expand();
    ASSERT_EQ(solo.size(), 1u);
    EXPECT_EQ(solo[0].params.sample, "cta");
    EXPECT_EQ(solo[0].label, "gsuite/gcn/mp/cora");
}

TEST(SweepSpec, RmatDatasetEntriesSurviveListSplitting)
{
    UserParams base;
    base.dataset = "cora,rmat:scale=8,ef=4,seed=1,flen=8";
    const auto points = SweepSpec{}.base(base).expand();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].params.dataset, "cora");
    EXPECT_EQ(points[1].params.dataset,
              "rmat:scale=8,ef=4,seed=1,flen=8");
}

TEST(BenchSession, BatchedPointRunsMergedGraph)
{
    UserParams p;
    p.engine = EngineKind::Sim;
    p.runs = 1;
    p.featureCap = 8;
    p.nodeDivisor = 8;
    p.edgeDivisor = 8;
    p.maxCtas = 64;
    const RunOutcome one = BenchSession::runPoint(p);
    p.batch = 2;
    const RunOutcome two = BenchSession::runPoint(p);
    ASSERT_EQ(two.timeline.size(), 2 * one.timeline.size());
    for (size_t i = 0; i < two.timeline.size(); ++i) {
        const auto &ref =
            one.timeline[i % one.timeline.size()].sim;
        EXPECT_EQ(two.timeline[i].sim.cycles, ref.cycles) << i;
        EXPECT_EQ(two.timeline[i].sim.warpInstrs, ref.warpInstrs)
            << i;
    }
    // The deterministic overlap metrics ride along in RunOutcome.
    EXPECT_EQ(two.metrics.at("graph_serial_cycles"),
              2 * one.metrics.at("graph_serial_cycles"));
    EXPECT_GE(two.metrics.at("graph_makespan_cycles"),
              two.metrics.at("graph_critical_path_cycles"));
}

TEST(BenchSession, SweepThreadInvariance)
{
    // The acceptance bar: a sweep at --sweep-threads 1 and 4 yields
    // identical ResultStore contents (deterministic fields). Launch
    // lanes are auto, as in every bench's simBase(), so the session
    // composes them.
    SweepSpec spec = tinySimSpec();
    spec.configure([](UserParams &p) { p.simParallelLaunches = 0; });

    BenchSession::Options serial;
    serial.sweepThreads = 1;
    const ResultStore a = BenchSession(serial).run(spec);

    BenchSession::Options parallel;
    parallel.sweepThreads = 4;
    const ResultStore b = BenchSession(parallel).run(spec);

    ASSERT_EQ(a.size(), 4u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const SweepResult &ra = a.at(i);
        const SweepResult &rb = b.at(i);
        EXPECT_EQ(ra.point.label, rb.point.label);
        EXPECT_TRUE(ra.ok);
        EXPECT_TRUE(rb.ok);
        // Same kernels in the same order with bit-identical
        // simulator statistics.
        ASSERT_EQ(ra.outcome.timeline.size(),
                  rb.outcome.timeline.size());
        for (size_t k = 0; k < ra.outcome.timeline.size(); ++k) {
            const KernelRecord &ka = ra.outcome.timeline[k];
            const KernelRecord &kb = rb.outcome.timeline[k];
            EXPECT_EQ(ka.name, kb.name);
            ASSERT_TRUE(ka.hasSim);
            ASSERT_TRUE(kb.hasSim);
            EXPECT_EQ(ka.sim.cycles, kb.sim.cycles);
            EXPECT_EQ(ka.sim.warpInstrs, kb.sim.warpInstrs);
            EXPECT_EQ(ka.sim.l1Hits, kb.sim.l1Hits);
            EXPECT_EQ(ka.sim.l2Misses, kb.sim.l2Misses);
            EXPECT_EQ(ka.sim.stallCycles, kb.sim.stallCycles);
            EXPECT_EQ(ka.sim.occCycles, kb.sim.occCycles);
        }
        ASSERT_EQ(ra.simByClass.size(), rb.simByClass.size());
        for (const auto &[cls, st] : ra.simByClass)
            EXPECT_EQ(st.cycles, rb.simByClass.at(cls).cycles);
        // Lane-dependent metrics appear only when the user pins the
        // launch lanes, never because the sweep width composed them.
        EXPECT_EQ(ra.outcome.metrics, rb.outcome.metrics);
        EXPECT_EQ(rb.outcome.metrics.count("graph_lanes"), 0u);
    }
}

TEST(BenchSession, ThrowingPointIsIsolated)
{
    const SweepSpec spec =
        SweepSpec{}
            .models({GnnModelKind::Gcn, GnnModelKind::Gin,
                     GnnModelKind::Sage})
            .engine(EngineKind::Functional);

    std::atomic<int> ran{0};
    const ResultStore store = BenchSession().run(
        spec, [&](const SweepPoint &pt) {
            ++ran;
            if (pt.params.model == GnnModelKind::Gin)
                throw std::runtime_error("gin exploded");
            RunOutcome out;
            out.params = pt.params;
            return out;
        });

    EXPECT_EQ(ran.load(), 3);
    ASSERT_EQ(store.size(), 3u);
    EXPECT_EQ(store.failures(), 1u);
    EXPECT_FALSE(store.allOk());
    EXPECT_TRUE(store.at(0).ok);
    EXPECT_FALSE(store.at(1).ok);
    EXPECT_EQ(store.at(1).error, "gin exploded");
    EXPECT_TRUE(store.at(2).ok);
}

TEST(BenchSession, ProgressReportsEveryPoint)
{
    std::atomic<size_t> calls{0};
    size_t last_total = 0;
    BenchSession::Options opts;
    opts.sweepThreads = 2;
    opts.progress = [&](const SweepResult &r, size_t done,
                        size_t total) {
        ++calls;
        last_total = total;
        EXPECT_LE(done, total);
        EXPECT_FALSE(r.point.label.empty());
    };
    const SweepSpec spec =
        SweepSpec{}.models({GnnModelKind::Gcn, GnnModelKind::Gin});
    BenchSession(opts).run(spec, [](const SweepPoint &pt) {
        RunOutcome out;
        out.params = pt.params;
        return out;
    });
    EXPECT_EQ(calls.load(), 2u);
    EXPECT_EQ(last_total, 2u);
}

TEST(BenchSession, ComposesThreadBudgetAcrossLanes)
{
    BenchSession::Options opts;
    opts.sweepThreads = 2;
    opts.threadBudget = 8;
    std::atomic<int> max_seen{0};
    const SweepSpec spec =
        SweepSpec{}
            .models({GnnModelKind::Gcn, GnnModelKind::Gin})
            .variants(
                {{"pinned",
                  [](UserParams &p) { p.simParallelLaunches = 1; }},
                 {"auto",
                  [](UserParams &p) { p.simParallelLaunches = 0; }}});
    BenchSession(opts).run(spec, [&](const SweepPoint &pt) {
        // Auto (0) per-point threads and launch lanes resolve to
        // budget / lanes; a pinned lane count stays.
        max_seen = std::max(max_seen.load(),
                            pt.params.simThreads);
        EXPECT_EQ(pt.params.simThreads, 4);
        EXPECT_EQ(pt.params.simParallelLaunches,
                  pt.variant == "auto" ? 4 : 1);
        RunOutcome out;
        out.params = pt.params;
        return out;
    });
    EXPECT_EQ(max_seen.load(), 4);
}

TEST(Watchdog, CycleCeilingFailsPointWithTimeout)
{
    UserParams base = tinySimBase();
    base.cycleCeiling = 10; // every kernel exceeds this
    const ResultStore store =
        BenchSession().run(SweepSpec{}.base(base));
    ASSERT_EQ(store.size(), 1u);
    const SweepResult &r = store.at(0);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, RunError::Timeout);
    EXPECT_NE(r.error.find("watchdog"), std::string::npos);

    // The taxonomy must surface in both emitters.
    const std::string dir = ::testing::TempDir();
    const std::string csvPath = dir + "sweep_watchdog.csv";
    const std::string jsonPath = dir + "sweep_watchdog.json";
    store.toCsv(csvPath);
    store.toJson(jsonPath);
    std::ifstream csv(csvPath), json(jsonPath);
    std::stringstream csvText, jsonText;
    csvText << csv.rdbuf();
    jsonText << json.rdbuf();
    std::remove(csvPath.c_str());
    std::remove(jsonPath.c_str());
    EXPECT_NE(csvText.str().find("error_kind"), std::string::npos);
    EXPECT_NE(csvText.str().find("timeout"), std::string::npos);
    EXPECT_NE(jsonText.str().find("\"error_kind\": \"timeout\""),
              std::string::npos);
}

TEST(Watchdog, UntrippedCeilingLeavesRunsUntouched)
{
    // A ceiling twice the longest kernel's cycle count never trips,
    // so every counter of every kernel equals the unset run's.
    const ResultStore plain =
        BenchSession().run(SweepSpec{}.base(tinySimBase()));
    ASSERT_TRUE(plain.at(0).ok);
    const std::vector<KernelRecord> &want =
        plain.at(0).outcome.timeline;
    ASSERT_FALSE(want.empty());
    uint64_t longest = 0;
    for (const KernelRecord &rec : want) {
        ASSERT_TRUE(rec.hasSim) << rec.name;
        longest = std::max(longest, rec.sim.cycles);
    }
    UserParams base = tinySimBase();
    base.cycleCeiling = 2 * longest;
    const ResultStore gated =
        BenchSession().run(SweepSpec{}.base(base));
    ASSERT_TRUE(gated.at(0).ok);
    const std::vector<KernelRecord> &got =
        gated.at(0).outcome.timeline;
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        const StatSet a = want[i].sim.toStatSet();
        const StatSet b = got[i].sim.toStatSet();
        ASSERT_EQ(a.names(), b.names()) << want[i].name;
        for (const std::string &name : a.names())
            EXPECT_EQ(a.get(name), b.get(name))
                << want[i].name << " " << name;
    }
    EXPECT_EQ(
        plain.at(0).outcome.metrics.at("graph_makespan_cycles"),
        gated.at(0).outcome.metrics.at("graph_makespan_cycles"));
}

TEST(ResultStore, LookupByLabelAndPredicate)
{
    const SweepSpec spec =
        SweepSpec{}.models({GnnModelKind::Gcn, GnnModelKind::Gin});
    const ResultStore store =
        BenchSession().run(spec, [](const SweepPoint &pt) {
            RunOutcome out;
            out.params = pt.params;
            out.meanEndToEndUs = 42.0;
            return out;
        });
    const SweepResult *by_label =
        store.find("gsuite/gin/mp/cora");
    ASSERT_NE(by_label, nullptr);
    EXPECT_EQ(by_label->point.params.model, GnnModelKind::Gin);
    const SweepResult *by_pred =
        store.find([](const SweepPoint &pt) {
            return pt.params.model == GnnModelKind::Gcn;
        });
    ASSERT_NE(by_pred, nullptr);
    EXPECT_EQ(by_pred->point.index, 0u);
    EXPECT_EQ(store.find("nope"), nullptr);
}

TEST(ResultStore, EmittersWriteCsvAndJson)
{
    const SweepSpec spec =
        SweepSpec{}.models({GnnModelKind::Gcn, GnnModelKind::Gin});
    const ResultStore store =
        BenchSession().run(spec, [](const SweepPoint &pt) {
            if (pt.params.model == GnnModelKind::Gin)
                throw std::runtime_error("boom");
            RunOutcome out;
            out.params = pt.params;
            out.meanEndToEndUs = 1234.5;
            out.endToEndSamplesUs = {1200.0, 1269.0};
            out.kernelSamplesUs = {1000.0, 1100.0};
            out.metrics["speedup"] = 2.5;
            return out;
        });

    const std::string csv_path = "/tmp/gsuite_sweep_test.csv";
    store.toCsv(csv_path);
    std::ifstream csv(csv_path);
    std::stringstream css;
    css << csv.rdbuf();
    const std::string csv_text = css.str();
    EXPECT_NE(csv_text.find("gsuite/gcn/mp/cora"),
              std::string::npos);
    EXPECT_NE(csv_text.find("1234.5"), std::string::npos);
    EXPECT_NE(csv_text.find("boom"), std::string::npos);
    std::remove(csv_path.c_str());

    const std::string json_path = "/tmp/gsuite_sweep_test.json";
    store.toJson(json_path, {{"schema", 1.0}});
    std::ifstream json(json_path);
    std::stringstream jss;
    jss << json.rdbuf();
    const std::string json_text = jss.str();
    EXPECT_NE(json_text.find("\"schema\": 1"), std::string::npos);
    EXPECT_NE(json_text.find("\"samples\": [1200.000, 1269.000]"),
              std::string::npos);
    EXPECT_NE(json_text.find("\"speedup\": 2.5"),
              std::string::npos);
    EXPECT_NE(json_text.find("\"ok\": false"), std::string::npos);
    std::remove(json_path.c_str());

    // The summary table renders both outcomes.
    const std::string table = store.toTable("t");
    EXPECT_NE(table.find("FAIL: boom"), std::string::npos);
    EXPECT_NE(table.find("ok"), std::string::npos);
}

TEST(Runner, BenchmarkRunnerMatchesSessionSinglePoint)
{
    UserParams p;
    p.dataset = "cora";
    p.engine = EngineKind::Sim;
    p.runs = 1;
    p.featureCap = 8;
    p.nodeDivisor = 8;
    p.edgeDivisor = 8;
    p.maxCtas = 64;

    const RunOutcome a = BenchmarkRunner(p).run();
    const RunOutcome b = BenchSession::runPoint(p);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].name, b.timeline[i].name);
        EXPECT_EQ(a.timeline[i].sim.cycles,
                  b.timeline[i].sim.cycles);
    }
    ASSERT_EQ(a.endToEndSamplesUs.size(), 1u);
    EXPECT_EQ(a.meanEndToEndUs, a.endToEndSamplesUs[0]);
}

TEST(Runner, PerRunSamplesBackTheAggregates)
{
    UserParams p;
    p.dataset = "cora";
    p.runs = 3;
    p.featureCap = 8;
    const RunOutcome out = BenchSession::runPoint(p);
    ASSERT_EQ(out.endToEndSamplesUs.size(), 3u);
    ASSERT_EQ(out.kernelSamplesUs.size(), 3u);
    double sum = 0, mn = out.endToEndSamplesUs[0],
           mx = out.endToEndSamplesUs[0];
    for (const double s : out.endToEndSamplesUs) {
        sum += s;
        mn = std::min(mn, s);
        mx = std::max(mx, s);
    }
    EXPECT_DOUBLE_EQ(out.meanEndToEndUs, sum / 3.0);
    EXPECT_DOUBLE_EQ(out.minEndToEndUs, mn);
    EXPECT_DOUBLE_EQ(out.maxEndToEndUs, mx);
}

TEST(UserParams, SweepOptionsParse)
{
    const char *argv[] = {"prog",           "--sweep-threads", "4",
                          "--max-ctas",     "512",
                          "--scheduler",    "lrr",
                          "--l1-bypass",    nullptr};
    const UserParams p = UserParams::fromArgs(8, argv);
    EXPECT_EQ(p.sweepThreads, 4);
    EXPECT_EQ(p.maxCtas, 512);
    EXPECT_EQ(p.scheduler, SchedulerPolicy::Lrr);
    EXPECT_EQ(p.l1BypassLoads, true);
}

TEST(UserParams, SchedulerOverridesStayUnsetByDefault)
{
    // Without --scheduler/--l1-bypass the overrides stay unset so a
    // --gpu preset's own policy survives (hwdb composition).
    const char *argv[] = {"prog", "--gpu", "rtx2060s", nullptr};
    const UserParams p = UserParams::fromArgs(3, argv);
    EXPECT_FALSE(p.scheduler.has_value());
    EXPECT_FALSE(p.l1BypassLoads.has_value());
    EXPECT_EQ(p.gpu, "rtx2060s");
    EXPECT_EQ(p.resolveGpuConfig().scheduler,
              SchedulerPolicy::Gto);
}

TEST(UserParams, FileDatasetRoundTripsThroughLoader)
{
    const std::string path = "/tmp/gsuite_sweep_file_ds.txt";
    {
        std::ofstream f(path);
        f << "0 1\n1 2\n2 0\n0 2\n";
    }
    UserParams p;
    p.dataset = "file:" + path;
    p.featureCap = 4;
    const Graph g = loadDatasetFor(p);
    EXPECT_EQ(g.numNodes(), 3);
    EXPECT_EQ(g.numEdges(), 4);
    EXPECT_EQ(g.featureLen(), 4);
    std::remove(path.c_str());
}
