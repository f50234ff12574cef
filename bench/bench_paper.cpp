/**
 * @file
 * The paper pass: Figs. 5-9 from one simulator sweep.
 *
 * gSuite builds its characterization from one set of simulator runs
 * per configuration. This bench runs the union grid of the five
 * figures once — {GCN, GIN, SAGE} x {MP, SpMM} x the five Table IV
 * datasets, minus gSuite SpMM GraphSAGE: 25 points — with the cache
 * profiler on the 15 MP points only (Fig. 8 reads it). Each figure is
 * a view over the one ResultStore: it prints its table and writes
 * its CSV.
 *
 *   bench_paper [--quick] [--gpu SPECS] [--sweep-threads N]
 *               [--csv PREFIX]
 *
 * --csv PREFIX writes PREFIXfig5.csv, PREFIXfig6.csv, ...,
 * PREFIXfig9.csv. Sweep lanes default to auto (host lanes): every
 * printed value is a deterministic simulator counter, identical for
 * every lane count. Views walk the store in point order, so with
 * several --gpu machines each table lists every machine's rows in
 * --gpu order. Exits non-zero when any point failed.
 */

#include <cmath>
#include <cstdio>

#include "bench/BenchCommon.hpp"

using namespace gsuite;
using namespace gsuite::bench;

namespace {

using Cells = std::vector<std::string>;

const std::vector<CompModel> kComps = {CompModel::Mp, CompModel::Spmm};

/** Kernel rows per point in Figs. 5-7: the comp model's core kernels. */
const std::vector<KernelClass> &
coreKernels(CompModel comp)
{
    static const std::vector<KernelClass> mp = {
        KernelClass::Sgemm, KernelClass::Scatter,
        KernelClass::IndexSelect};
    static const std::vector<KernelClass> spmm = {
        KernelClass::SpGemm, KernelClass::SpMM, KernelClass::Sgemm};
    return comp == CompModel::Mp ? mp : spmm;
}

/** MP kernel rows per point in Figs. 8-9 (not Fig. 7's order). */
const std::vector<KernelClass> kFig89Kernels = {
    KernelClass::Sgemm, KernelClass::IndexSelect, KernelClass::Scatter};

const char *
panelTitle(CompModel comp)
{
    return comp == CompModel::Mp ? "gSuite-MP" : "gSuite-SpMM";
}

/** One figure row: a point and one kernel class it ran. */
struct Row {
    const SweepResult &result;
    KernelClass cls;
    const KernelStats &sim;

    /** The model / dataset / kernel cells that open a row. */
    Cells
    identity() const
    {
        return {gnnModelName(result.point.params.model),
                dsShortByName(result.point.params.dataset),
                kernelClassShortForm(cls)};
    }
};

/**
 * One figure panel: every successful point of @p comp in point
 * order, then each kernel class of @p classes that the point ran.
 */
std::vector<Row>
panelRows(const ResultStore &store, CompModel comp,
          const std::vector<KernelClass> &classes)
{
    std::vector<Row> rows;
    for (const SweepResult &r : store) {
        if (!r.ok || r.point.params.comp != comp)
            continue;
        for (const KernelClass cls : classes) {
            auto it = r.simByClass.find(cls);
            if (it != r.simByClass.end())
                rows.push_back({r, cls, it->second});
        }
    }
    return rows;
}

/*
 * Fig. 5: instruction breakdown of the core kernels during
 * execution, for gSuite-MP and gSuite-SpMM on the paper's two
 * endpoints (GCN-CR and GIN-LJ).
 *
 * Expected shape: indexSelect/scatter dominated by INT + Load/Store
 * (address math), sgemm dominated by FP32; the mix barely moves when
 * the model or dataset changes.
 */
void
fig5(const ResultStore &store, const std::string &csvPath)
{
    banner("Fig. 5: instruction breakdown of the kernels (%)",
           "Timing simulator, sim dataset scales; FP32 / INT / "
           "Load-Store / Control / other per core kernel.");
    CsvWriter csv(csvPath);
    csv.header({"config", "kernel", "FP32", "INT", "LoadStore",
                "Control", "other"});
    // The paper's two endpoints only: GCN on Cora, GIN on LJ.
    auto endpoint = [](const UserParams &p) -> const char * {
        if (p.model == GnnModelKind::Gcn && p.dataset == "cora")
            return "GCN-CR";
        if (p.model == GnnModelKind::Gin && p.dataset == "livejournal")
            return "GIN-LJ";
        return nullptr;
    };
    for (const CompModel comp : kComps) {
        TablePrinter table(panelTitle(comp));
        table.header({"config", "kernel", "FP32%", "INT%", "Ld/St%",
                      "Ctrl%", "other%"});
        for (const Row &row : panelRows(store, comp, coreKernels(comp))) {
            const char *config = endpoint(row.result.point.params);
            if (!config)
                continue;
            const Cells cells = {
                config, kernelClassShortForm(row.cls),
                pct(row.sim.instrShare(InstrClass::Fp32)),
                pct(row.sim.instrShare(InstrClass::Int)),
                pct(row.sim.instrShare(InstrClass::LoadStore)),
                pct(row.sim.instrShare(InstrClass::Control)),
                pct(row.sim.instrShare(InstrClass::Other))};
            table.row(cells);
            csv.row(cells);
        }
        table.print();
        std::printf("\n");
    }
}

/*
 * Fig. 6: issue-stall distribution of the core kernels, comparing MP
 * and SpMM kernels across GNN models and datasets.
 *
 * Expected shape: MemoryDependency dominant (paper average: 46.3%),
 * growing with dataset size for everything except sgemm; noticeable
 * InstructionFetch for GCN-MP is/sc on the small datasets;
 * Synchronization pressure on scatter (atomics) and sgemm (barriers).
 */
void
fig6(const ResultStore &store, const std::string &csvPath)
{
    banner("Fig. 6: issue stall distribution of the kernels (%)",
           "Timing simulator, sim dataset scales (printed by "
           "bench_table4_datasets).");
    Cells header = {"model", "dataset", "kernel"};
    for (int sr = 0; sr < kNumStallReasons; ++sr)
        header.push_back(std::string(stallReasonName(
                             static_cast<StallReason>(sr))) +
                         "%");
    CsvWriter csv(csvPath);
    Cells csv_header = {"comp"};
    csv_header.insert(csv_header.end(), header.begin(), header.end());
    csv.header(csv_header);

    double memdep_sum = 0.0;
    int memdep_count = 0;
    for (const CompModel comp : kComps) {
        TablePrinter table(panelTitle(comp));
        table.header(header);
        for (const Row &row : panelRows(store, comp, coreKernels(comp))) {
            Cells cells = row.identity();
            for (int sr = 0; sr < kNumStallReasons; ++sr)
                cells.push_back(pct(
                    row.sim.stallShare(static_cast<StallReason>(sr))));
            table.row(cells);
            cells.insert(cells.begin(), compModelName(comp));
            csv.row(cells);
            memdep_sum +=
                row.sim.stallShare(StallReason::MemoryDependency);
            ++memdep_count;
        }
        table.print();
        std::printf("\n");
    }
    if (memdep_count > 0)
        std::printf("average MemoryDependency share: %s%% "
                    "(paper reports 46.3%%)\n\n",
                    pct(memdep_sum / memdep_count).c_str());
}

/*
 * Fig. 7: warp occupancy distribution of the gSuite-MP kernels on
 * varying GNN models and datasets.
 *
 * Expected shape: GCN's MP kernels (operating on the post-sgemm
 * hidden width) idle heavily on small datasets; sgemm is insensitive
 * to the GNN model; W32 dominates whenever instructions do issue.
 */
void
fig7(const ResultStore &store, const std::string &csvPath)
{
    banner("Fig. 7: warp occupancy distribution, gSuite-MP kernels "
           "(%)",
           "Per scheduler-cycle: Stall (ready warp blocked by the "
           "pipeline), Idle (no warp ready), or issued with <=8, "
           "<=20, <=32 active threads.");
    CsvWriter csv(csvPath);
    csv.header({"model", "dataset", "kernel", "Stall", "Idle", "W8",
                "W20", "W32"});
    TablePrinter table;
    table.header({"model", "dataset", "kernel", "Stall%", "Idle%",
                  "W8%", "W20%", "W32%"});
    for (const Row &row :
         panelRows(store, CompModel::Mp, coreKernels(CompModel::Mp))) {
        Cells cells = row.identity();
        for (const OccBucket b : {OccBucket::Stall, OccBucket::Idle,
                                  OccBucket::W8, OccBucket::W20,
                                  OccBucket::W32})
            cells.push_back(pct(row.sim.occShare(b)));
        table.row(cells);
        csv.row(cells);
    }
    table.print();
    std::printf("\n");
}

/*
 * Fig. 8: L1 and L2 cache hit rates of the MP kernels, comparing the
 * hardware-profiler measurement path ("NVProf") with the timing
 * simulator ("Sim").
 *
 * Expected shape: hit rates fall as datasets grow; L1 profiler/sim
 * values align better than L2; the biggest divergence shows on the
 * small citation graphs; indexSelect's L1 hit rate is very low on
 * big inputs (the paper's L1-bypass suggestion).
 */
void
fig8(const ResultStore &store, const std::string &csvPath)
{
    banner("Fig. 8: L1/L2 hit rates, hardware profiler vs simulator "
           "(%)",
           "MP kernels at sim dataset scales; hw = V100-geometry "
           "cache model (full-line L2 fills), sim = GPGPU-Sim-like "
           "sectored 3MB L2.");
    CsvWriter csv(csvPath);
    csv.header({"model", "dataset", "kernel", "l1_hw", "l1_sim",
                "l2_hw", "l2_sim"});
    TablePrinter table;
    table.header({"model", "dataset", "kernel", "L1 hw%", "L1 sim%",
                  "L2 hw%", "L2 sim%"});
    double l1_gap = 0, l2_gap = 0;
    int count = 0;
    for (const Row &row : panelRows(store, CompModel::Mp, kFig89Kernels)) {
        auto hw_it = row.result.hwByClass.find(row.cls);
        if (hw_it == row.result.hwByClass.end())
            continue;
        const HwProfileResult &h = hw_it->second;
        const KernelStats &s = row.sim;
        Cells cells = row.identity();
        cells.insert(cells.end(),
                     {pct(h.l1HitRate()), pct(s.l1HitRate()),
                      pct(h.l2HitRate()), pct(s.l2HitRate())});
        table.row(cells);
        csv.row(cells);
        l1_gap += std::fabs(h.l1HitRate() - s.l1HitRate());
        l2_gap += std::fabs(h.l2HitRate() - s.l2HitRate());
        ++count;
    }
    table.print();
    if (count > 0)
        std::printf("\nmean |hw - sim| gap: L1 %s%%, L2 %s%% "
                    "(paper: L1 more aligned than L2)\n",
                    pct(l1_gap / count).c_str(),
                    pct(l2_gap / count).c_str());
    std::printf("\n");
}

/*
 * Fig. 9: compute and memory utilization levels of the MP kernels on
 * varying GNN models and datasets.
 *
 * Expected shape: scatter drives memory harder than the other
 * kernels (streamed reads + L2 atomics), especially in GIN/SAG where
 * it runs at full feature width; sgemm's utilization scales up with
 * the workload (largest on LJ-scale inputs).
 */
void
fig9(const ResultStore &store, const std::string &csvPath)
{
    banner("Fig. 9: compute/memory utilization, gSuite-MP kernels "
           "(%)",
           "compute = ALU issue-slot occupancy; memory = DRAM "
           "bandwidth fraction.");
    CsvWriter csv(csvPath);
    csv.header({"model", "dataset", "kernel", "compute", "memory"});
    TablePrinter table;
    table.header({"model", "dataset", "kernel", "compute%",
                  "memory%"});
    for (const Row &row : panelRows(store, CompModel::Mp, kFig89Kernels)) {
        Cells cells = row.identity();
        cells.push_back(pct(row.sim.computeUtilization()));
        cells.push_back(pct(row.sim.memoryUtilization()));
        table.row(cells);
        csv.row(cells);
    }
    table.print();
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args =
        BenchArgs::parse(argc, argv, /*defaultSweepThreads=*/0);

    // Variants apply after the axes, so this one can key on the comp
    // model; its empty label leaves point labels unchanged.
    const SweepSpec spec =
        SweepSpec{}
            .base(args.simBase())
            .comps(kComps)
            .models(paperModels())
            .datasets(paperDatasets())
            .variants({{"",
                        [](UserParams &p) {
                            p.profileCaches = p.comp == CompModel::Mp;
                        }}})
            .skip(sageSpmmUnsupported);

    const ResultStore store =
        BenchSession(args.sessionOptions()).run(spec);

    auto csvPath = [&](int fig) {
        return args.csvPath.empty()
                   ? std::string()
                   : args.csvPath + "fig" + std::to_string(fig) +
                         ".csv";
    };
    fig5(store, csvPath(5));
    fig6(store, csvPath(6));
    fig7(store, csvPath(7));
    fig8(store, csvPath(8));
    fig9(store, csvPath(9));
    return store.allOk() ? 0 : 1;
}
