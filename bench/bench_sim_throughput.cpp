/**
 * @file
 * Simulator-throughput benchmark: wall-clock and resident trace
 * memory per kernel class under the default engine configuration
 * (SoA issue fast path, streamed trace chunks). The SGEMM-dense
 * point is the issue-bound archetype: a deep-K GEMM whose
 * schedulers are saturated with FMA chains.
 *
 * Emits machine-readable JSON (default BENCH_sim_throughput.json)
 * via ResultStore::toJson so CI can track the performance
 * trajectory:
 *
 *   --json FILE    output path
 *   --chunk N      trace-chunk instructions (default 256)
 *   --quick        smaller workloads for smoke runs
 *
 * The simulated cycles and warp instructions are deterministic
 * (scripts/compare_bench_json.py gates them exactly); the committed
 * host-performance baseline lives in bench/host_perf/baselines/.
 */

#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "kernels/Scatter.hpp"
#include "kernels/Sgemm.hpp"
#include "kernels/Spmm.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "sparse/Csr.hpp"
#include "tensor/DenseMatrix.hpp"
#include "util/Random.hpp"
#include "util/Timer.hpp"

using namespace gsuite;

namespace {

long
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

DenseMatrix
randomMatrix(int64_t r, int64_t c, uint64_t seed)
{
    DenseMatrix m(r, c);
    Rng rng(seed);
    m.fillUniform(rng, -1.0f, 1.0f);
    return m;
}

CsrMatrix
skewedCsr(int64_t n, uint64_t seed)
{
    // Power-law-ish degrees: heavy hubs every 41 rows, like the
    // paper's social/citation graphs after scaling. Hub rows expand
    // to multi-thousand-instruction traces, which is what streaming
    // trace generation exists to bound.
    Rng rng(seed);
    SparseBuilder bld(n, n);
    for (int64_t r = 0; r < n; ++r) {
        const int64_t deg = r % 41 == 0 ? 1024 : 2 + r % 9;
        for (int64_t k = 0; k < deg; ++k)
            bld.add(r, static_cast<int64_t>(
                           rng.nextBelow(static_cast<uint64_t>(n))),
                    rng.nextFloat(-1.0f, 1.0f));
    }
    return bld.finish();
}

/**
 * Simulate @p launch @p reps times and keep the best wall-clock
 * (standard min-of-N timing). Everything lands in the outcome's
 * metrics so ResultStore::toJson can emit it for trend tracking.
 */
void
measure(RunOutcome &out, const KernelLaunch &launch,
        const GpuConfig &cfg, int64_t max_ctas, int chunk, int reps)
{
    SimOptions opt;
    opt.maxCtas = max_ctas;
    opt.traceChunkInstrs = chunk;

    double sim_ms = 0.0;
    GpuSimulator sim(cfg);
    for (int i = 0; i < reps; ++i) {
        Timer t;
        const KernelStats st = sim.run(launch, opt);
        const double ms = t.elapsedMs();
        if (i == 0 || ms < sim_ms)
            sim_ms = ms;
        out.metrics["cycles"] = static_cast<double>(st.cycles);
        out.metrics["warp_instrs"] =
            static_cast<double>(st.warpInstrs);
        out.metrics["trace_bytes_peak"] =
            static_cast<double>(st.traceBytesPeak);
    }
    out.metrics["sim_ms"] = sim_ms;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionSet opts;
    opts.parseArgs(argc, argv);
    const std::string json_path =
        opts.getString("json", "BENCH_sim_throughput.json");
    const int chunk = static_cast<int>(opts.getInt("chunk", 256));
    const bool quick = opts.getBool("quick", false);

    const int64_t n = quick ? 1200 : 4000;
    const int64_t feat = quick ? 32 : 64;
    const int64_t max_ctas = quick ? 256 : 1024;
    // Min-of-N wall-clock; a single rep is too noisy even for smoke
    // runs (first-touch page faults land on the first rep).
    const int reps = quick ? 2 : 3;

    const GpuConfig cfg = GpuConfig::v100Sim();

    bench::banner("simulator throughput",
                  std::to_string(chunk) + "-instr trace chunks");

    // One point per kernel archetype. Serial session: this is a
    // timing bench, concurrent points would skew each other's
    // wall-clock.
    const SweepSpec spec =
        SweepSpec{}
            .engine(EngineKind::Sim)
            .variants({{"SpMM", nullptr},
                       {"SGEMM", nullptr},
                       {"SGEMM-dense", nullptr},
                       {"Scatter", nullptr}});

    const ResultStore store = BenchSession().run(
        spec, [&](const SweepPoint &pt) {
            RunOutcome out;
            out.params = pt.params;
            DeviceAllocator alloc;
            if (pt.variant == "SpMM") {
                // Irregular gather archetype.
                const CsrMatrix a = skewedCsr(n, 11);
                const DenseMatrix b = randomMatrix(n, feat, 12);
                DenseMatrix c;
                SpmmKernel k("spmm", a, b, c);
                k.execute();
                measure(out, k.makeLaunch(alloc), cfg, max_ctas,
                        chunk, reps);
            } else if (pt.variant == "SGEMM") {
                // Dense compute archetype.
                const DenseMatrix a = randomMatrix(n / 2, 256, 13);
                const DenseMatrix b = randomMatrix(256, 128, 14);
                DenseMatrix c;
                SgemmKernel k("sgemm", a, b, c);
                k.execute();
                measure(out, k.makeLaunch(alloc), cfg, max_ctas,
                        chunk, reps);
            } else if (pt.variant == "SGEMM-dense") {
                // Deep-K dense GEMM: long FMA chains over shared-
                // memory tiles keep every scheduler issue-bound —
                // the workload the SoA issue fast path targets.
                const DenseMatrix a =
                    randomMatrix(n / 4, 1024, 17);
                const DenseMatrix b = randomMatrix(1024, 256, 18);
                DenseMatrix c;
                SgemmKernel k("sgemm_dense", a, b, c);
                k.execute();
                measure(out, k.makeLaunch(alloc), cfg, max_ctas,
                        chunk, reps);
            } else {
                // Atomic contention archetype.
                const int64_t e = n * 4;
                const DenseMatrix msg = randomMatrix(e, 16, 15);
                Rng rng(16);
                std::vector<int64_t> idx(static_cast<size_t>(e));
                for (auto &v : idx)
                    v = static_cast<int64_t>(rng.nextBelow(
                        static_cast<uint64_t>(n)));
                DenseMatrix dst(n, 16);
                ScatterKernel k("scatter", msg, idx, dst,
                                ScatterKernel::Reduce::Sum);
                k.execute();
                measure(out, k.makeLaunch(alloc), cfg, max_ctas,
                        chunk, reps);
            }
            return out;
        });

    TablePrinter table("simulator throughput");
    table.header({"kernel", "sim ms", "cycles", "trace KiB"});
    for (const auto &r : store) {
        if (!r.ok)
            continue;
        const auto &m = r.outcome.metrics;
        table.row({r.point.variant, fmtDouble(m.at("sim_ms"), 2),
                   fmtDouble(m.at("cycles"), 0),
                   fmtDouble(m.at("trace_bytes_peak") / 1024.0, 1)});
    }
    table.print();

    store.toJson(json_path,
                 {{"chunk", static_cast<double>(chunk)},
                  {"peak_rss_kb", static_cast<double>(peakRssKb())},
                  {"quick", quick ? 1.0 : 0.0}});
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
