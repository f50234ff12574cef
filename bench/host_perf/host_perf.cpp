/**
 * @file
 * host_perf: host-performance benchmark of the simulator.
 *
 * One process runs one workload, a fixed sweep grid, in three steps:
 * set-up (load every distinct graph; repeated and reported as the
 * median), one untimed warm-up of the smallest point, then the
 * workload's fixed number of timed passes over the whole grid through
 * BenchSession::run — a closed loop with one client, points one at a
 * time. With --traced, one more pass replays the engine's schedule
 * from this file with a host-time span around every layer call; the
 * per-layer metrics come from that pass, the end-to-end metrics from
 * the untraced ones.
 *
 * Only public entry points of graph, models, kernels, memplan, simgpu,
 * profiler and suite are called; nothing under src/ knows about this
 * benchmark.
 *
 *   host_perf --workload NAME [--seed 7] [--threads 4]
 *             [--traced SPANS.json] [--json OUT.json]
 *             [--emit RESULTS.json] [--smoke]
 *
 * --emit defaults to host_perf.results.json beside the executable.
 *
 * Exits non-zero when a correctness check fails.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "HostTrace.hpp"
#include "graph/Graph.hpp"
#include "memplan/MemPlan.hpp"
#include "models/GnnModel.hpp"
#include "models/Reference.hpp"
#include "profiler/HwProfiler.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "suite/BenchSession.hpp"
#include "util/StringUtils.hpp"
#include "util/ThreadPool.hpp"
#include "util/Timer.hpp"

#ifndef HOST_PERF_BUILD_TYPE
#define HOST_PERF_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "g++ " __VERSION__;
#endif

using namespace gsuite;
using hostperf::HostSpan;
using hostperf::HostTrace;
using hostperf::ScopedSpan;

namespace {

// ---- command line ------------------------------------------------------

struct Args {
    std::string workload;
    uint64_t seed = 7;
    int threads = 4;
    std::string tracedPath;
    std::string jsonPath;
    std::string emitPath;
    bool smoke = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "host_perf: %s\n"
                 "usage: host_perf --workload NAME [--seed N] "
                 "[--threads N] [--traced SPANS.json] [--json OUT.json] "
                 "[--emit RESULTS.json] [--smoke]\n",
                 msg);
    std::exit(2);
}

long long
parseWhole(const std::string &flag, const char *text, long long lo)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < lo)
        usage((flag + " expects an integer >= " + std::to_string(lo))
                  .c_str());
    return v;
}

int
hostCores()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return ThreadPool::defaultLanes();
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = static_cast<uint64_t>(parseWhole(flag, v, 0));
        else if (flag == "--threads")
            a.threads = static_cast<int>(parseWhole(flag, v, 1));
        else if (flag == "--traced")
            a.tracedPath = v;
        else if (flag == "--json")
            a.jsonPath = v;
        else if (flag == "--emit")
            a.emitPath = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    // The build directory, so a run never writes into the source tree.
    if (a.emitPath.empty())
        a.emitPath = (std::filesystem::read_symlink("/proc/self/exe")
                          .parent_path() /
                      "host_perf.results.json")
                         .string();
    // Never more workers than the host has cores.
    a.threads = std::min(a.threads, hostCores());
    return a;
}

// ---- workloads ---------------------------------------------------------

const std::vector<DatasetId> kPaperDatasets = {
    DatasetId::Cora, DatasetId::CiteSeer, DatasetId::PubMed,
    DatasetId::Reddit, DatasetId::LiveJournal};

UserParams
simBase(uint64_t seed)
{
    UserParams p;
    p.framework = Framework::Gsuite;
    p.engine = EngineKind::Sim;
    p.runs = 1;
    p.seed = seed;
    return p;
}

/** Figs. 4-9 grid on v100-sim: 25 points, 4 launch lanes. */
SweepSpec
paperGrid(uint64_t seed, int threads, bool smoke)
{
    UserParams p = simBase(seed);
    p.simParallelLaunches = std::min(4, threads);
    p.simThreads = 1;
    return SweepSpec{}
        .base(p)
        .models({GnnModelKind::Gcn, GnnModelKind::Gin,
                 GnnModelKind::Sage})
        .comps({CompModel::Mp, CompModel::Spmm})
        .datasets(smoke ? std::vector<DatasetId>{DatasetId::Cora}
                        : kPaperDatasets)
        .skip([](const UserParams &q) {
            return q.model == GnnModelKind::Sage &&
                   q.comp == CompModel::Spmm;
        });
}

/** Fig. 1 CLI path: one launch lane, intra-kernel SM threads. */
SweepSpec
singlePoint(uint64_t seed, int threads, bool smoke)
{
    UserParams p = simBase(seed);
    p.simParallelLaunches = 1;
    p.simThreads = threads;
    auto point = [](GnnModelKind m, CompModel c, const char *ds) {
        return [=](UserParams &q) {
            q.model = m;
            q.comp = c;
            q.dataset = ds;
        };
    };
    std::vector<SweepVariant> vs = {
        {"sage-mp-cora",
         point(GnnModelKind::Sage, CompModel::Mp, "cora")}};
    if (!smoke) {
        vs.insert(vs.begin(),
                  {{"gcn-mp-pubmed",
                    point(GnnModelKind::Gcn, CompModel::Mp, "pubmed")},
                   {"gin-spmm-pubmed",
                    point(GnnModelKind::Gin, CompModel::Spmm,
                          "pubmed")}});
    }
    return SweepSpec{}.base(p).variants(std::move(vs));
}

/** R-MAT web graph (~100x cora), CTA-sampled at 1/8, 4 lanes. */
SweepSpec
webSampled(uint64_t seed, int threads, bool smoke)
{
    UserParams p = simBase(seed);
    p.simParallelLaunches = std::min(4, threads);
    p.simThreads = 1;
    p.sample = "cta:0.125";
    const std::string graph = "rmat:scale=" +
                              std::to_string(smoke ? 12 : 16) +
                              ",ef=8,seed=" + std::to_string(seed);
    return SweepSpec{}
        .base(p)
        .models({GnnModelKind::Gcn, GnnModelKind::Gin})
        .comps({CompModel::Mp, CompModel::Spmm})
        .datasetNames({graph});
}

/** Functional engine + hardware cache profiler (Figs. 3 and 8). */
SweepSpec
hwProfile(uint64_t seed, int threads, bool smoke)
{
    UserParams p;
    p.framework = Framework::Gsuite;
    p.engine = EngineKind::Functional;
    p.profileCaches = true;
    p.runs = 1;
    p.seed = seed;
    p.simThreads = threads; // HwProfiler replay threads
    return SweepSpec{}
        .base(p)
        .models({GnnModelKind::Gcn, GnnModelKind::Gin,
                 GnnModelKind::Sage})
        .comps({CompModel::Mp})
        .datasets(smoke ? std::vector<DatasetId>{DatasetId::Cora}
                        : kPaperDatasets);
}

struct Workload {
    const char *name;
    /**
     * Timed passes (1 with --smoke). Fixed, so a faster commit does
     * the same work as its parent. At least two, since pass_s keeps
     * each point's fastest pass; beyond that, sized so a run takes
     * 15-35 s on the 4-core reference host (README).
     */
    int passes;
    SweepSpec (*spec)(uint64_t seed, int threads, bool smoke);
};

const Workload kWorkloads[] = {
    {"paper-grid", 2, paperGrid},
    {"single-point", 4, singlePoint},
    {"web-sampled", 9, webSampled},
    {"hw-profile", 2, hwProfile},
};

// ---- graphs (set-up) ---------------------------------------------------

/** What loadDatasetFor derives a graph from. */
std::string
graphKey(const UserParams &p)
{
    return p.dataset + "|" + p.resolveScale().describe() + "|" +
           std::to_string(p.seed);
}

using GraphMap = std::map<std::string, Graph>;

const Graph &
graphFor(const GraphMap &graphs, const UserParams &p)
{
    return graphs.at(graphKey(p));
}

/** Load every distinct graph of @p points, one graph.load span each. */
GraphMap
loadGraphs(const std::vector<SweepPoint> &points, HostTrace *trace,
           int parent)
{
    GraphMap graphs;
    for (const SweepPoint &pt : points) {
        const std::string key = graphKey(pt.params);
        if (graphs.count(key))
            continue;
        ScopedSpan s(trace, "graph.load", parent, -1, pt.params.dataset);
        graphs.emplace(key, loadDatasetFor(pt.params));
    }
    return graphs;
}

// ---- correctness -------------------------------------------------------

/** FNV-1a over every deterministic counter, in pass order. */
class Digest
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void
    num(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        bytes(&bits, sizeof(bits));
    }
    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ULL;
};

void
addResult(Digest &d, const SweepResult &r)
{
    d.str(r.point.label);
    d.num(r.ok ? 1.0 : 0.0);
    for (const KernelRecord &rec : r.outcome.timeline) {
        d.str(rec.name);
        d.num(static_cast<double>(rec.kind));
        if (rec.hasSim) {
            const StatSet stats = rec.sim.toStatSet();
            for (const std::string &name : stats.names()) {
                // Stamped by the engine from its allocator, not by
                // the simulator.
                if (name == "device_bytes_peak")
                    continue;
                d.str(name);
                d.num(stats.get(name));
            }
        }
        if (rec.hasHw) {
            d.num(static_cast<double>(rec.hw.l1Hits));
            d.num(static_cast<double>(rec.hw.l1Misses));
            d.num(static_cast<double>(rec.hw.l2Hits));
            d.num(static_cast<double>(rec.hw.l2Misses));
        }
    }
}

uint64_t
statsDigest(const SweepResult &r)
{
    Digest d;
    addResult(d, r);
    return d.value();
}

uint64_t
statsDigest(const ResultStore &store)
{
    Digest d;
    for (const SweepResult &r : store)
        addResult(d, r);
    return d.value();
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * The tolerance models_test holds pipelines to, on its O(1) outputs.
 * GIN sums grow with degree on large graphs, so the bound scales with
 * the reference output's largest magnitude.
 */
constexpr double kReferenceTolerance = 1e-3;

// ---- traced replay -----------------------------------------------------

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/** Lower-case Table II class name, for metric names. */
std::string
classKey(KernelClass k)
{
    return toLower(kernelClassName(k));
}

const KernelClass kTableIIClasses[] = {
    KernelClass::IndexSelect, KernelClass::Scatter, KernelClass::Sgemm,
    KernelClass::SpGemm,      KernelClass::SpMM,
    KernelClass::Elementwise};

/** Host accounting of the simulation phases of one traced pass. */
struct SimPhases {
    double cpuS = 0.0;        ///< process CPU time inside sim phases
    double laneWindowS = 0.0; ///< sum of lanes x phase wall time
};

/** Outputs of one replayed point, kept for the reference check. */
struct PointReplay {
    std::vector<KernelRecord> records;
    ModelConfig cfg;
    DenseMatrix output;
    std::vector<DenseMatrix> weights;
};

/**
 * Replay one point the way BenchSession::runPoint ->
 * FrameworkAdapter::run -> ExecutionEngine::run(OpGraph&) schedules
 * it in naive placement mode: build the pipeline, then per node
 * execute() and makeLaunch(); the timing simulations run inline
 * (one launch lane) or deferred across the engine's lanes, as the
 * SimEngine would; the profiler runs right after each launch is built,
 * as the FunctionalEngine would. Each layer call gets a span.
 */
PointReplay
replayPoint(const SweepPoint &pt, const Graph &graph, HostTrace *trace,
            int parent, SimPhases &phases)
{
    const UserParams &params = pt.params;
    const int point = static_cast<int>(pt.index);
    ScopedSpan pointSpan(trace, "point", parent, point, pt.label);
    const int ps = pointSpan.id();

    PointReplay out;
    out.cfg = params.modelConfig();
    std::unique_ptr<GnnPipeline> pipe;
    {
        ScopedSpan s(trace, "models.build", ps, point);
        pipe = std::make_unique<GnnPipeline>(graph, out.cfg);
    }
    const OpGraph &ops = pipe->opGraph();
    const size_t n = ops.numNodes();

    const bool sim = params.engine == EngineKind::Sim;
    const GpuConfig gpu = params.resolveGpuConfig();
    SimOptions simOpts;
    simOpts.maxCtas = params.maxCtas;
    simOpts.numThreads = params.simThreads;
    simOpts.cycleCeiling = params.cycleCeiling;
    HwProfilerConfig hwCfg;
    hwCfg.numThreads = params.simThreads;
    hwCfg.maxCtas = params.maxCtas;
    hwCfg.numSms = gpu.numSms;
    hwCfg.smSampleFactor = gpu.smSampleFactor;
    const int wanted = params.simParallelLaunches > 0
                           ? params.simParallelLaunches
                           : std::min(4, ThreadPool::defaultLanes());
    const bool deferred = sim && wanted > 1;
    const int lanes =
        deferred ? static_cast<int>(std::min<size_t>(
                       static_cast<size_t>(wanted), n))
                 : 1;
    std::vector<std::unique_ptr<GpuSimulator>> sims;
    if (sim) {
        ScopedSpan s(trace, "simgpu.init", ps, point);
        for (int l = 0; l < lanes; ++l)
            sims.push_back(std::make_unique<GpuSimulator>(gpu));
    }

    DeviceAllocator alloc;
    std::vector<KernelLaunch> launches(n);
    out.records.resize(n);
    for (size_t i = 0; i < n; ++i) {
        Kernel &k = *ops.node(i).kernel;
        KernelRecord &rec = out.records[i];
        rec.name = k.name();
        rec.kind = k.kind();
        const std::string cls = classKey(rec.kind);
        {
            ScopedSpan s(trace, "kernels.execute", ps, point, cls);
            k.execute();
        }
        {
            ScopedSpan s(trace, "kernels.make_launch", ps, point, cls);
            launches[i] = k.makeLaunch(alloc);
        }
        if (!sim && params.profileCaches) {
            ScopedSpan s(trace, "profiler.profile", ps, point, cls);
            rec.hw = HwProfiler(hwCfg).profile(launches[i]);
            rec.hasHw = true;
        }
        if (sim && !deferred) {
            const double cpu0 = processCpuSeconds();
            Timer t;
            {
                ScopedSpan s(trace, "simgpu.run", ps, point, cls);
                rec.sim = sims[0]->run(launches[i], simOpts);
            }
            rec.hasSim = true;
            phases.laneWindowS += t.elapsedSec();
            phases.cpuS += processCpuSeconds() - cpu0;
        }
    }
    if (deferred) {
        SimOptions laneOpts = simOpts;
        laneOpts.numThreads = 1;
        ThreadPool pool(lanes);
        std::vector<std::exception_ptr> errors(n);
        const double cpu0 = processCpuSeconds();
        Timer t;
        pool.parallelFor(n, [&](size_t i, int lane) {
            KernelRecord &rec = out.records[i];
            try {
                ScopedSpan s(trace, "simgpu.run", ps, point,
                             classKey(rec.kind));
                rec.sim = sims[static_cast<size_t>(lane)]->run(
                    launches[i], laneOpts);
                rec.hasSim = true;
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
        phases.laneWindowS += lanes * t.elapsedSec();
        phases.cpuS += processCpuSeconds() - cpu0;
        for (std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
    }
    {
        ScopedSpan s(trace, "memplan.build", ps, point);
        MemPlan::build(ops);
    }
    out.output = pipe->output();
    for (const DenseMatrix *w : pipe->weights())
        out.weights.push_back(*w);
    {
        // Launches reference the pipeline's buffers: drop them first.
        ScopedSpan s(trace, "models.release", ps, point);
        launches.clear();
        pipe.reset();
    }
    return out;
}

/**
 * Largest |pipeline - reference| over a replayed point's output,
 * relative to max(1, largest |reference| element).
 */
double
referenceDiff(const Graph &graph, const PointReplay &r)
{
    std::vector<const DenseMatrix *> weights;
    for (const DenseMatrix &w : r.weights)
        weights.push_back(&w);
    const DenseMatrix ref = referenceForward(graph, r.cfg, weights);
    double scale = 1.0;
    for (int64_t i = 0; i < ref.size(); ++i)
        scale = std::max(scale, std::fabs(double{ref.data()[i]}));
    return DenseMatrix::maxAbsDiff(r.output, ref) / scale;
}

SweepResult
replayResult(const SweepPoint &pt, std::vector<KernelRecord> records)
{
    SweepResult res;
    res.point = pt;
    res.ok = true;
    res.outcome.params = pt.params;
    res.outcome.timeline = std::move(records);
    return res;
}

// ---- metrics -----------------------------------------------------------

struct Metric {
    double value = 0.0;
    std::string unit;
    double q1 = 0.0, q3 = 0.0; ///< quartiles (samples > 1 only)
    size_t n = 1;              ///< sample count
    std::vector<double> samples; ///< in run order (samples > 1 only)
};

/** Quantile with linear interpolation between order statistics. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

Metric
summarize(const std::vector<double> &samples, const std::string &unit)
{
    Metric m;
    m.unit = unit;
    m.n = samples.size();
    m.value = quantile(samples, 0.5);
    m.q1 = quantile(samples, 0.25);
    m.q3 = quantile(samples, 0.75);
    m.samples = samples;
    return m;
}

Metric
scalar(double value, const std::string &unit)
{
    Metric m;
    m.value = value;
    m.unit = unit;
    m.q1 = m.q3 = value;
    return m;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // Linux reports KiB
}

/*
 * Host-speed calibration. A shared host drifts in speed by up to ~30%
 * over minutes, which swamps the differences between commits. Two
 * fixed probes, which no change under src/ can touch, slow down with
 * the host: an integer loop follows the CPU, and faulting in fresh
 * pages follows the kernel and memory (hw-profile spends a quarter of
 * its time in page faults, and once ran 14% slower while the loop
 * alone read an unchanged host). A calibration read is the mean of
 * the two probes' slowness against the reference host. It is taken
 * before and after every timed step (a set-up, a sweep point, an
 * emit), and the step's wall seconds are divided by the mean of the
 * two reads into reference-host seconds. Reading per step rather than
 * per pass follows drift that changes within a pass.
 */
constexpr int kLoopIters = 2'000'000;
constexpr size_t kFaultBytes = size_t{8} << 20;
/** Median probe times on the 4-core reference host (README). */
constexpr double kLoopRefS = 0.0040;
constexpr double kFaultRefS = 0.0033;

volatile uint64_t calibrationSink = 0;

double
loopProbe()
{
    Timer t;
    uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < kLoopIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    calibrationSink = x;
    return t.elapsedSec();
}

double
faultProbe()
{
    static const size_t page =
        static_cast<size_t>(sysconf(_SC_PAGESIZE));
    Timer t;
    void *p = mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        std::perror("host_perf: mmap");
        std::exit(1);
    }
    auto *bytes = static_cast<volatile char *>(p);
    for (size_t i = 0; i < kFaultBytes; i += page)
        bytes[i] = 1;
    munmap(p, kFaultBytes);
    return t.elapsedSec();
}

/** Fastest of three runs of @p probe, in seconds. */
double
fastestOfThree(double (*probe)())
{
    return std::min({probe(), probe(), probe()});
}

/** This host's slowness against the reference host (1 = as fast). */
double
calibrationRead()
{
    return (fastestOfThree(loopProbe) / kLoopRefS +
            fastestOfThree(faultProbe) / kFaultRefS) /
           2;
}

/**
 * Steps timed back to back, each in reference-host seconds: the
 * calibration read after one step is the read before the next.
 */
class CalibratedClock
{
  public:
    /** Room for @p steps steps is allocated up front (see main). */
    explicit CalibratedClock(size_t steps) : before(calibrationRead())
    {
        reads.reserve(steps + 1);
        reads.push_back(before);
    }

    /** Reference-host seconds of a step that took @p wallS. */
    double
    step(double wallS)
    {
        const double after = calibrationRead();
        reads.push_back(after);
        const double refS = wallS * 2 / (before + after);
        before = after;
        return refS;
    }

    /** 1 / read, for every read so far. */
    std::vector<double>
    speeds() const
    {
        std::vector<double> out;
        for (double r : reads)
            out.push_back(1 / r);
        return out;
    }

  private:
    double before;
    std::vector<double> reads;
};

using MetricMap = std::map<std::string, Metric>;

/** Simulated totals over one pass's records. */
struct SimTotals {
    KernelStats all;
    std::map<KernelClass, uint64_t> warpInstrsByClass;
    uint64_t hwAccesses = 0;
    size_t launches = 0;
    bool any = false;
};

SimTotals
simTotals(const ResultStore &store)
{
    SimTotals t;
    for (const SweepResult &r : store)
        for (const KernelRecord &rec : r.outcome.timeline) {
            ++t.launches;
            if (rec.hasHw)
                t.hwAccesses += rec.hw.l1Hits + rec.hw.l1Misses +
                                rec.hw.l2Hits + rec.hw.l2Misses;
            if (!rec.hasSim)
                continue;
            t.warpInstrsByClass[rec.kind] += rec.sim.warpInstrs;
            if (t.any)
                t.all.merge(rec.sim);
            else
                t.all = rec.sim;
            t.any = true;
        }
    return t;
}

/** Per-layer metrics of the traced pass rooted at span @p root. */
MetricMap
layerMetrics(const std::vector<HostSpan> &spans, int root,
             int lastSetup, const GraphMap &graphs,
             const ResultStore &store, const SimPhases &phases,
             double untracedPassS)
{
    std::map<std::string, double> secs;
    std::map<KernelClass, double> runByClass;
    for (size_t i = 0; i < spans.size(); ++i) {
        const HostSpan &s = spans[i];
        const int id = static_cast<int>(i);
        if (descendsFrom(spans, id, lastSetup))
            secs[s.name] += s.seconds();
        if (!descendsFrom(spans, id, root))
            continue;
        secs[s.name] += s.seconds();
        if (s.name == "simgpu.run")
            for (KernelClass k : kTableIIClasses)
                if (s.detail == classKey(k))
                    runByClass[k] += s.seconds();
    }
    const HostSpan &pass = spans[static_cast<size_t>(root)];
    double uncovered = hostperf::selfSeconds(spans, root);
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent == root && spans[i].name == "point")
            uncovered +=
                hostperf::selfSeconds(spans, static_cast<int>(i));

    const SimTotals t = simTotals(store);
    const KernelStats &k = t.all;
    auto rate = [](double count, double s) {
        return s > 0 ? count / s / 1e6 : 0.0;
    };
    double edges = 0;
    for (const auto &[key, g] : graphs)
        edges += static_cast<double>(g.numEdges());
    // Every built kernel gets exactly one launch.
    const double launches = static_cast<double>(t.launches);

    MetricMap m;
    m["graph.load_s"] = scalar(secs["graph.load"], "s");
    m["graph.edges"] = scalar(edges, "count");
    m["models.build_s"] = scalar(secs["models.build"], "s");
    m["models.kernels"] = scalar(launches, "count");
    m["kernels.execute_s"] = scalar(secs["kernels.execute"], "s");
    m["kernels.make_launch_s"] =
        scalar(secs["kernels.make_launch"], "s");
    m["kernels.launches"] = scalar(launches, "count");
    const double runS = secs["simgpu.run"];
    m["simgpu.run_s"] = scalar(runS, "s");
    m["simgpu.winstr_per_s"] =
        scalar(rate(static_cast<double>(k.warpInstrs), runS),
               "Minstr/s");
    m["simgpu.cycles_per_s"] =
        scalar(rate(static_cast<double>(k.cycles), runS), "Mcycles/s");
    for (KernelClass c : kTableIIClasses) {
        const std::string cls = classKey(c);
        const double s = runByClass[c];
        const auto it = t.warpInstrsByClass.find(c);
        const double w =
            it == t.warpInstrsByClass.end()
                ? 0.0
                : static_cast<double>(it->second);
        m["simgpu.run_s." + cls] = scalar(s, "s");
        m["simgpu.winstr_per_s." + cls] = scalar(rate(w, s), "Minstr/s");
    }
    m["simgpu.cpu_s"] = scalar(phases.cpuS, "s");
    m["simgpu.lane_busy_ratio"] = scalar(
        phases.laneWindowS > 0 ? runS / phases.laneWindowS : 0.0,
        "ratio");
    m["simgpu.sampled_ctas"] =
        scalar(static_cast<double>(k.sampledCtas), "count");
    m["simgpu.ctas_total"] =
        scalar(static_cast<double>(k.ctasTotal), "count");
    m["simgpu.classify_evals"] =
        scalar(static_cast<double>(k.classifyEvals), "count");
    m["simgpu.fast_forward_cycles"] =
        scalar(static_cast<double>(k.fastForwardCycles), "count");
    m["simgpu.trace_bytes_peak"] =
        scalar(static_cast<double>(k.traceBytesPeak), "bytes");
    m["simgpu.warp_instrs"] =
        scalar(static_cast<double>(k.warpInstrs), "count");
    m["simgpu.cycles"] = scalar(static_cast<double>(k.cycles), "count");
    m["simgpu.l1_hit_ratio"] = scalar(k.l1HitRate(), "ratio");
    m["simgpu.l2_hit_ratio"] = scalar(k.l2HitRate(), "ratio");
    m["simgpu.dram_bytes"] =
        scalar(static_cast<double>(k.dramBytes), "bytes");
    m["profiler.profile_s"] = scalar(secs["profiler.profile"], "s");
    m["profiler.accesses"] =
        scalar(static_cast<double>(t.hwAccesses), "count");
    m["memplan.build_s"] = scalar(secs["memplan.build"], "s");
    m["suite.emit_s"] = scalar(secs["suite.emit"], "s");
    m["trace.pass_s"] = scalar(pass.seconds(), "s");
    m["trace.overhead_ratio"] =
        scalar(pass.seconds() / untracedPassS - 1.0, "ratio");
    m["trace.coverage"] =
        scalar(1.0 - uncovered / pass.seconds(), "ratio");
    return m;
}

// ---- output ------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
writeMetrics(FILE *f, const char *key, const MetricMap &m)
{
    std::fprintf(f, "  %s: {", jsonString(key).c_str());
    bool first = true;
    for (const auto &[name, v] : m) {
        std::fprintf(f,
                     "%s\n    %s: {\"value\": %.17g, \"unit\": %s, "
                     "\"q1\": %.17g, \"q3\": %.17g, \"n\": %zu",
                     first ? "" : ",", jsonString(name).c_str(),
                     v.value, jsonString(v.unit).c_str(), v.q1, v.q3,
                     v.n);
        if (!v.samples.empty()) {
            std::fprintf(f, ", \"samples\": [");
            for (size_t i = 0; i < v.samples.size(); ++i)
                std::fprintf(f, "%s%.17g", i ? ", " : "", v.samples[i]);
            std::fprintf(f, "]");
        }
        std::fprintf(f, "}");
        first = false;
    }
    std::fprintf(f, "\n  }");
}

void
printMetrics(const char *title, const MetricMap &m)
{
    std::printf("%s\n", title);
    for (const auto &[name, v] : m) {
        if (v.n > 1)
            std::printf("  %-34s %14.6g %-10s q1 %.6g  q3 %.6g  n %zu\n",
                        name.c_str(), v.value, v.unit.c_str(), v.q1,
                        v.q3, v.n);
        else
            std::printf("  %-34s %14.6g %s\n", name.c_str(), v.value,
                        v.unit.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (args.workload == cand.name)
            w = &cand;
    if (!w)
        usage(("unknown workload '" + args.workload +
               "' (paper-grid, single-point, web-sampled, hw-profile)")
                  .c_str());
    const SweepSpec spec = w->spec(args.seed, args.threads, args.smoke);
    const std::vector<SweepPoint> points = spec.expand();
    const bool traced = !args.tracedPath.empty();
    HostTrace trace;
    HostTrace *tr = traced ? &trace : nullptr;

    // Every vector this file fills during set-up and the timed passes
    // is sized up front. A small allocation made between the
    // program's large frees pins the heap: it raised hw-profile's peak
    // RSS by up to 8%, by a different amount for each seed.

    // 1. Set-up: every distinct graph, at least kMinSetups times and,
    //    for cheap set-ups, until kSetupWindowS has gone by (at most
    //    kMaxSetups times); keep the last. A sub-second set-up needs
    //    the extra repetitions for a steady median. Each repetition
    //    starts, as a fresh process does, with no freed memory in hand:
    //    otherwise whether the allocator kept the last repetition's
    //    pages decides, per run, between two set-up times 35% apart.
    constexpr size_t kMinSetups = 3;
    constexpr size_t kMaxSetups = 25;
    constexpr double kSetupWindowS = 2.0;
    std::vector<double> setupS, setupRefS;
    setupS.reserve(kMaxSetups);
    setupRefS.reserve(kMaxSetups);
    GraphMap graphs;
    int lastSetup = -1;
    CalibratedClock setupClock(kMaxSetups);
    Timer setupWindow;
    while (setupS.size() < kMinSetups ||
           (setupWindow.elapsedSec() < kSetupWindowS &&
            setupS.size() < kMaxSetups)) {
        graphs.clear(); // one set of graphs resident at a time
        malloc_trim(0);
        Timer t;
        {
            ScopedSpan span(tr, "setup", -1, -1);
            lastSetup = span.id();
            graphs = loadGraphs(points, tr, span.id());
        }
        setupS.push_back(t.elapsedSec());
        setupRefS.push_back(setupClock.step(setupS.back()));
    }

    // 2. Untimed warm-up of the smallest point, through the replay
    //    path, checked against the reference model.
    size_t smallest = 0;
    for (size_t i = 1; i < points.size(); ++i)
        if (graphFor(graphs, points[i].params).numEdges() <
            graphFor(graphs, points[smallest].params).numEdges())
            smallest = i;
    bool ok = true;
    double worstReferenceDiff = 0.0;
    auto checkReference = [&](const SweepPoint &pt,
                              const PointReplay &replay) {
        const double diff =
            referenceDiff(graphFor(graphs, pt.params), replay);
        worstReferenceDiff = std::max(worstReferenceDiff, diff);
        if (!(diff < kReferenceTolerance)) {
            std::fprintf(stderr,
                         "host_perf: %s differs from the reference "
                         "model by %g (relative)\n",
                         pt.label.c_str(), diff);
            ok = false;
        }
    };
    SimPhases warmPhases;
    const SweepPoint &warmPt = points[smallest];
    const PointReplay warm =
        replayPoint(warmPt, graphFor(graphs, warmPt.params), nullptr, -1,
                    warmPhases);
    checkReference(warmPt, warm);

    // 3. Timed passes: BenchSession, one client, points in order. Each
    //    step of a pass (every point, then the emit) is timed on its
    //    own in reference-host seconds, and pass_s sums each step's
    //    fastest pass: host slowdowns come in bursts that hit single
    //    points, and the fastest of a point's passes leaves them out.
    BenchSession::Options sessionOpts;
    sessionOpts.sweepThreads = 1;
    sessionOpts.threadBudget = args.threads;
    sessionOpts.graphCacheEntries = 0; // graphs come from set-up
    const BenchSession session(sessionOpts);
    const int passes = args.smoke ? 1 : w->passes;
    const size_t emitStep = points.size();
    std::vector<std::vector<double>> stepRefS(emitStep + 1);
    for (std::vector<double> &s : stepRefS)
        s.reserve(static_cast<size_t>(passes));
    CalibratedClock passClock((emitStep + 1) * passes);
    double passWall = 0.0;
    auto timeStep = [&](size_t step, double wallS) {
        passWall += wallS;
        stepRefS[step].push_back(passClock.step(wallS));
    };
    const BenchSession::PointRunner runner = [&](const SweepPoint &pt) {
        Timer t;
        RunOutcome out =
            BenchSession::runPoint(pt.params, graphFor(graphs, pt.params));
        timeStep(pt.index, t.elapsedSec());
        return out;
    };
    std::vector<double> passS;
    std::vector<uint64_t> digests;
    passS.reserve(static_cast<size_t>(passes));
    digests.reserve(static_cast<size_t>(passes));
    ResultStore firstStore;
    size_t attempted = 0, failed = 0;
    for (int p = 0; p < passes; ++p) {
        passWall = 0.0;
        ResultStore store = session.run(spec, runner);
        Timer t;
        store.toJson(args.emitPath);
        timeStep(emitStep, t.elapsedSec());
        passS.push_back(passWall);
        attempted += store.size();
        failed += store.failures();
        digests.push_back(statsDigest(store));
        if (passS.size() == 1)
            firstStore = std::move(store);
    }
    double passRefS = 0.0;
    for (const std::vector<double> &s : stepRefS)
        if (!s.empty()) // empty only for a point that failed every pass
            passRefS += *std::min_element(s.begin(), s.end());
    const uint64_t digest = digests.front();
    for (uint64_t d : digests)
        if (d != digest) {
            std::fprintf(stderr, "host_perf: stats digest differs "
                                 "between passes\n");
            ok = false;
        }
    if (statsDigest(replayResult(warmPt, warm.records)) !=
        statsDigest(firstStore.at(smallest))) {
        std::fprintf(stderr,
                     "host_perf: warm-up replay of %s does not "
                     "reproduce the engine's counters\n",
                     warmPt.label.c_str());
        ok = false;
    }

    // pass_s and setup_s are in reference-host seconds; the *_wall_s
    // twins are what this host's clock read.
    MetricMap e2e;
    e2e["pass_s"] = scalar(passRefS, "s");
    e2e["pass_wall_s"] = summarize(passS, "s");
    e2e["setup_s"] = summarize(setupRefS, "s");
    e2e["setup_wall_s"] = summarize(setupS, "s");
    std::vector<double> speed = setupClock.speeds();
    for (double s : passClock.speeds())
        speed.push_back(s);
    e2e["host_speed_ratio"] = summarize(speed, "ratio");
    e2e["host_speed_ratio"].samples.clear(); // one per step: too many
    e2e["peak_rss_mb"] = scalar(peakRssMiB(), "MiB");
    e2e["fail_ratio"] = scalar(
        static_cast<double>(failed) / static_cast<double>(attempted),
        "ratio");
    const SimTotals totals = simTotals(firstStore);
    if (totals.any) {
        e2e["sim_winstr_per_s"] = scalar(
            totals.all.warpInstrs / e2e["pass_s"].value / 1e6,
            "Minstr/s");
        e2e["sim_cycles_per_s"] = scalar(
            totals.all.cycles / e2e["pass_s"].value / 1e6, "Mcycles/s");
    }

    // 4. Traced pass, then the reference check of every traced point.
    MetricMap layers;
    if (traced) {
        std::vector<PointReplay> replays;
        SimPhases phases;
        ResultStore store;
        store.resize(points.size());
        int root = -1;
        {
            ScopedSpan pass(tr, "pass", -1, -1, w->name);
            root = pass.id();
            for (const SweepPoint &pt : points) {
                replays.push_back(replayPoint(
                    pt, graphFor(graphs, pt.params), tr, root, phases));
                store.put(replayResult(pt, replays.back().records));
            }
            ScopedSpan emit(tr, "suite.emit", root, -1);
            store.toJson(args.emitPath);
        }
        attempted += points.size();
        if (statsDigest(store) != digest) {
            std::fprintf(stderr, "host_perf: traced pass does not "
                                 "reproduce the untraced digest\n");
            ok = false;
        }
        for (size_t i = 0; i < points.size(); ++i)
            checkReference(points[i], replays[i]);
        layers = layerMetrics(trace.spans(), root, lastSetup, graphs,
                              store, phases, e2e["pass_wall_s"].value);
        if (!trace.writeChromeJson(args.tracedPath)) {
            std::fprintf(stderr, "host_perf: cannot write %s\n",
                         args.tracedPath.c_str());
            ok = false;
        }
    }
    if (failed > 0)
        ok = false;

    std::printf("host_perf %s: %zu points, %zu passes, seed %llu, "
                "threads %d%s\n",
                w->name, points.size(), passS.size(),
                static_cast<unsigned long long>(args.seed), args.threads,
                args.smoke ? ", smoke" : "");
    printMetrics("end to end", e2e);
    if (traced)
        printMetrics("per layer (traced pass)", layers);
    std::printf("stats_digest %s\nreference_max_rel_diff %g\n"
                "correct %s\n",
                hex(digest).c_str(), worstReferenceDiff,
                ok ? "true" : "false");

    if (!args.jsonPath.empty()) {
        FILE *f = std::fopen(args.jsonPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "host_perf: cannot write %s\n",
                         args.jsonPath.c_str());
            return 1;
        }
        std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
                     jsonString(w->name).c_str(),
                     static_cast<unsigned long long>(args.seed));
        std::fprintf(f,
                     "  \"host\": {\"nproc\": %d, \"cpu\": %s, "
                     "\"compiler\": %s, \"build_type\": %s, "
                     "\"threads\": %d},\n",
                     hostCores(), jsonString(cpuModel()).c_str(),
                     jsonString(kCompiler).c_str(),
                     jsonString(HOST_PERF_BUILD_TYPE).c_str(),
                     args.threads);
        std::fprintf(f,
                     "  \"smoke\": %s,\n  \"points\": %zu,\n"
                     "  \"passes\": %zu,\n  \"attempted\": %zu,\n"
                     "  \"failed\": %zu,\n  \"stats_digest\": \"%s\",\n"
                     "  \"reference_max_rel_diff\": %.17g,\n"
                     "  \"correct\": %s,\n",
                     args.smoke ? "true" : "false", points.size(),
                     passS.size(), attempted, failed,
                     hex(digest).c_str(), worstReferenceDiff,
                     ok ? "true" : "false");
        writeMetrics(f, "end_to_end", e2e);
        std::fprintf(f, ",\n");
        writeMetrics(f, "per_layer", layers);
        std::fprintf(f, "\n}\n");
        if (std::fclose(f) != 0)
            return 1;
    }
    return ok ? 0 : 1;
}
