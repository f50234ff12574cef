/**
 * @file
 * Shared helpers for the bench binaries: the paper's model/dataset
 * grids and labels, and common CLI flags. All grid execution lives
 * in suite/SweepSpec + suite/BenchSession; all result aggregation
 * and emission in suite/ResultStore. bench_paper draws Figs. 5-9
 * from one such sweep.
 */

#ifndef GSUITE_BENCH_BENCHCOMMON_HPP
#define GSUITE_BENCH_BENCHCOMMON_HPP

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

    /**
     * @p defaultSweepThreads applies when --sweep-threads is absent.
     * Benches that report wall-clock keep the serial default;
     * counter-only sweeps may pass 0 (auto).
     */
    static BenchArgs parse(int argc, char **argv,
                           int defaultSweepThreads = 1);

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
