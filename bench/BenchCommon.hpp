/**
 * @file
 * Shared helpers for the per-figure bench binaries: the paper's
 * model/dataset grids and labels, common CLI flags, and a
 * convenience single-point simulator run. All grid execution lives
 * in suite/SweepSpec + suite/BenchSession; all result aggregation
 * and emission in suite/ResultStore.
 */

#ifndef GSUITE_BENCH_BENCHCOMMON_HPP
#define GSUITE_BENCH_BENCHCOMMON_HPP

#include <map>
#include <string>
#include <vector>

#include "suite/BenchSession.hpp"
#include "util/Csv.hpp"
#include "util/Options.hpp"
#include "util/Table.hpp"

namespace gsuite::bench {

/** The five Table IV datasets in paper order. */
const std::vector<DatasetId> &paperDatasets();

/** Two-letter dataset label (CR/CS/PB/RD/LJ). */
const char *dsShort(DatasetId id);

/** Dataset short form from a point's dataset name. */
std::string dsShortByName(const std::string &name);

/** The three paper models in paper order. */
const std::vector<GnnModelKind> &paperModels();

/**
 * SweepSpec::skip predicate for the combination the paper found no
 * implementation of: gSuite SpMM GraphSAGE (Section II-C). DGL runs
 * SAGE via SpMM, so only the gSuite path is unsupported.
 */
bool sageSpmmUnsupported(const UserParams &p);

/** Result of one simulated pipeline. */
struct SimRun {
    std::vector<KernelRecord> timeline;
    std::map<KernelClass, KernelStats> byClass;
    std::string scale;
};

/** Options shared by all simulator-driven benches. */
struct SimBenchOptions {
    bool profileCaches = false;
    int64_t maxCtas = 2048;
    int layers = 2;
    uint64_t seed = 7;
    int simThreads = 0;        ///< profiler/mem-plan workers (0 = auto)
    int parallelLaunches = 0;  ///< concurrent launches (0 = auto)
};

/**
 * Build and simulate one pipeline at the dataset's sim scale,
 * returning per-kernel-class merged statistics. Thin wrapper over
 * BenchSession::runPoint.
 */
SimRun runSimPipeline(DatasetId id, GnnModelKind model, CompModel comp,
                      const SimBenchOptions &opts = {});

/** Percentage formatting for figure cells. */
std::string pct(double fraction);

/**
 * Parse common bench flags (--csv FILE, --quick, --layers N,
 * --sweep-threads N, --gpu SPECS, --trace PATH, --list-gpus) and
 * build the standard sweep ingredients.
 */
struct BenchArgs {
    std::string csvPath;
    bool quick = false; ///< smaller CTA budget for smoke runs
    int layers = 2;
    int sweepThreads = 1; ///< concurrent sweep points (0 = auto)

    /**
     * Chrome-trace output path (--trace PATH; "" = off). Forwarded
     * to every sim point via simBase(); multi-point sweeps derive
     * per-point ".pN" paths (see src/obs/README.md).
     */
    std::string tracePath;

    /**
     * Normalized --gpu spec list: hwdb preset names / "file:PATH"
     * entries ("all" already expanded). Defaults to the single
     * paper machine, v100-sim.
     */
    std::vector<std::string> gpus{"v100-sim"};

    static BenchArgs parse(int argc, char **argv);

    int64_t maxCtas() const { return quick ? 256 : 2048; }

    /** Base params for simulator sweeps (gSuite, 1 run, sim scale). */
    UserParams simBase() const;

    /** Base params for functional sweeps (mean of 3 runs; 1 quick). */
    UserParams functionalBase() const;

    /** Session options honouring --sweep-threads. */
    BenchSession::Options sessionOptions() const;
};

/** Print the standard bench banner with scale disclosure. */
void banner(const std::string &title, const std::string &note);

} // namespace gsuite::bench

#endif // GSUITE_BENCH_BENCHCOMMON_HPP
