#include "suite/Runner.hpp"

#include "graph/EdgeListIo.hpp"
#include "suite/BenchSession.hpp"
#include "util/Logging.hpp"

namespace gsuite {

std::unique_ptr<ExecutionEngine>
AbstractionModule::makeEngine(const UserParams &params)
{
    if (params.engine == EngineKind::Sim)
        return makeEngine(params, params.resolveGpuConfig());
    FunctionalEngine::Options opts;
    opts.profileCaches = params.profileCaches;
    opts.hwConfig.numThreads = params.simThreads;
    opts.hwConfig.maxCtas = params.maxCtas;
    // Keep the profiler's CTA subset aligned with the machine this
    // point simulates (a single-spec gpu; sweep lists expand first).
    if (params.gpu.find(',') == std::string::npos) {
        const GpuConfig gpu = params.resolveGpuConfig();
        opts.hwConfig.numSms = gpu.numSms;
        opts.hwConfig.smSampleFactor = gpu.smSampleFactor;
    }
    return std::make_unique<FunctionalEngine>(opts);
}

std::unique_ptr<ExecutionEngine>
AbstractionModule::makeEngine(const UserParams &params,
                              const GpuConfig &gpu)
{
    SimEngine::Options opts;
    opts.gpu = gpu;
    opts.profileCaches = params.profileCaches;
    opts.hwConfig.numThreads = params.simThreads;
    opts.hwConfig.numSms = gpu.numSms;
    opts.hwConfig.smSampleFactor = gpu.smSampleFactor;
    opts.hwConfig.maxCtas = params.maxCtas;
    opts.sim.maxCtas = params.maxCtas;
    opts.sim.cycleCeiling = params.cycleCeiling;
    opts.parallelLaunches = params.simParallelLaunches;
    return std::make_unique<SimEngine>(opts);
}

Graph
loadDatasetFor(const UserParams &params)
{
    if (isFileDataset(params.dataset)) {
        const DatasetScale scale = params.resolveScale();
        const int64_t flen =
            scale.featureCap > 0 ? scale.featureCap : 16;
        return loadEdgeList(fileDatasetPath(params.dataset), flen,
                            params.seed);
    }
    if (isRmatDataset(params.dataset))
        return loadRmatDataset(parseRmatSpec(params.dataset),
                               params.resolveScale());
    return loadDataset(params.dataset, params.resolveScale(),
                       params.seed);
}

BenchmarkRunner::BenchmarkRunner(UserParams params)
    : params(std::move(params))
{
}

RunOutcome
BenchmarkRunner::run()
{
    // Thin compatibility wrapper: one-point sweep, serial session.
    BenchSession session;
    const ResultStore store =
        session.run(SweepSpec{}.base(params));
    const SweepResult &result = store.at(0);
    if (!result.ok)
        fatal("benchmark run failed: %s", result.error.c_str());
    return result.outcome;
}

std::map<KernelClass, double>
wallUsByClass(const std::vector<KernelRecord> &timeline)
{
    std::map<KernelClass, double> by_class;
    for (const auto &rec : timeline)
        by_class[rec.kind] += rec.wallUs;
    return by_class;
}

std::map<KernelClass, KernelStats>
simStatsByClass(const std::vector<KernelRecord> &timeline)
{
    std::map<KernelClass, KernelStats> by_class;
    for (const auto &rec : timeline) {
        if (!rec.hasSim)
            continue;
        auto it = by_class.find(rec.kind);
        if (it == by_class.end()) {
            by_class.emplace(rec.kind, rec.sim);
        } else {
            it->second.merge(rec.sim);
        }
    }
    return by_class;
}

} // namespace gsuite
