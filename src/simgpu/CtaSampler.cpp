#include "simgpu/CtaSampler.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "util/Logging.hpp"

namespace gsuite {

namespace {

/** splitmix64: well-mixed 64-bit hash step (public domain). */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
hashString(const std::string &s)
{
    // FNV-1a, folded through mix64 for avalanche.
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return mix64(h);
}

/**
 * Error bound multipliers: 3 sigma of the stratified standard error
 * plus a floor absorbing the model error the SE cannot see (ratio
 * estimator bias, partial-wave boundary effects). Calibrated against
 * bench_sampled_sim's full-run comparisons.
 */
constexpr double kErrSigma = 3.0;
constexpr double kErrFloorWork = 0.02;
constexpr double kErrFloorCycles = 0.04;

/**
 * Minimum sample size in units of full machine co-residency waves.
 * The cycle extrapolation is a ratio estimator that assumes the
 * sampled run is throughput-saturated like the full run; a sample
 * that fits in one partial wave underfills the SMs and the observed
 * cycles stop scaling with CTA count (a 32-CTA sample on a machine
 * with 64 concurrent CTA slots overestimates the full makespan by
 * the whole sampling ratio). Four waves keeps the steady-state share
 * of the makespan dominant.
 */
constexpr int64_t kSaturationWaves = 4;

/** Per-stratum accumulator of one per-CTA measure. */
struct StratAcc {
    double cnt = 0.0;
    double sum = 0.0;
    double sumSq = 0.0;

    void
    add(double v)
    {
        cnt += 1.0;
        sum += v;
        sumSq += v * v;
    }
};

/**
 * Stratified expansion estimate of the population total, plus its
 * relative standard error (finite-population corrected). Strata with
 * no completed CTA fall back to the overall sample mean with a
 * conservative unit relative variance.
 */
struct StratEstimate {
    double total = 0.0;
    double relSe = 0.0;
};

StratEstimate
stratifiedTotal(const std::vector<StratAcc> &acc,
                const std::vector<int64_t> &stratum_size)
{
    double overall_cnt = 0.0, overall_sum = 0.0;
    for (const StratAcc &a : acc) {
        overall_cnt += a.cnt;
        overall_sum += a.sum;
    }
    const double overall_mean =
        overall_cnt > 0.0 ? overall_sum / overall_cnt : 0.0;

    double total = 0.0, var = 0.0;
    for (size_t h = 0; h < acc.size(); ++h) {
        const double nh = static_cast<double>(stratum_size[h]);
        const StratAcc &a = acc[h];
        double mean, s2;
        if (a.cnt <= 0.0) {
            mean = overall_mean;
            s2 = overall_mean * overall_mean;
        } else if (a.cnt < 2.0) {
            mean = a.sum;
            // One observation: no within-stratum variance estimate;
            // assume unit relative spread.
            s2 = mean * mean;
        } else {
            mean = a.sum / a.cnt;
            s2 = (a.sumSq - a.cnt * mean * mean) / (a.cnt - 1.0);
            s2 = std::max(s2, 0.0);
        }
        total += nh * mean;
        const double sampled = std::max(a.cnt, 1.0);
        if (nh > sampled)
            var += nh * (nh - sampled) * s2 / sampled;
    }
    StratEstimate e;
    e.total = total;
    e.relSe = total > 0.0 ? std::sqrt(var) / total : 0.0;
    return e;
}

} // namespace

CtaSamplePlan
buildCtaSamplePlan(const GpuConfig &cfg, const KernelLaunch &launch,
                   int64_t population, int64_t maxSampled)
{
    CtaSamplePlan plan;
    plan.population = population;
    if (cfg.sampleMode != CtaSampleMode::Cta || population <= 1)
        return plan;

    int64_t n = static_cast<int64_t>(
        std::llround(static_cast<double>(population) *
                     cfg.sampleFraction));
    n = std::max(n, cfg.sampleMinCtas);

    // Saturation floor: enough CTAs to fill every SM's co-residency
    // slots (the Sm::beginLaunch formula) for kSaturationWaves waves.
    // Launches too small to saturate fall through to n >= population
    // below and run exact.
    const int warps_per_cta = launch.dims.warpsPerCta();
    const int64_t slots_per_sm = std::min(
        {static_cast<int64_t>(cfg.maxCtasPerSm),
         static_cast<int64_t>(cfg.maxWarpsPerSm /
                              std::max(1, warps_per_cta)),
         std::max<int64_t>(
             1, cfg.maxThreadsPerSm /
                    std::max<int64_t>(1,
                                      launch.dims.threadsPerCta))});
    n = std::max(n, kSaturationWaves * cfg.numSms *
                        std::max<int64_t>(1, slots_per_sm));

    if (maxSampled > 0)
        n = std::min(n, maxSampled);
    n = std::min(n, population);
    if (n >= population)
        return plan; // sample would be the whole prefix: stay exact

    // Rank the population by per-CTA cost (trace-length proxy).
    // Without a hint the ranking is the identity, which still strata
    // by grid position — useful when cost correlates with CTA id.
    std::vector<uint64_t> weight(
        static_cast<size_t>(population), 1);
    if (launch.ctaCostHint)
        for (int64_t c = 0; c < population; ++c)
            weight[static_cast<size_t>(c)] =
                std::max<uint64_t>(1, launch.ctaCostHint(c));
    std::vector<int64_t> ranked(static_cast<size_t>(population));
    std::iota(ranked.begin(), ranked.end(), int64_t{0});
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&](int64_t a, int64_t b) {
                         return weight[static_cast<size_t>(a)] <
                                weight[static_cast<size_t>(b)];
                     });

    const int strata = static_cast<int>(
        std::max<int64_t>(1, std::min<int64_t>(8, n / 32)));
    plan.stratumSize.resize(static_cast<size_t>(strata));
    plan.stratumSampled.assign(static_cast<size_t>(strata), 0);

    // Equal-size contiguous strata of the ranked order.
    std::vector<int64_t> begin(static_cast<size_t>(strata) + 1);
    for (int h = 0; h <= strata; ++h)
        begin[static_cast<size_t>(h)] =
            population * h / strata;
    for (int h = 0; h < strata; ++h)
        plan.stratumSize[static_cast<size_t>(h)] =
            begin[static_cast<size_t>(h) + 1] -
            begin[static_cast<size_t>(h)];

    // Proportional allocation by largest remainder (deterministic
    // tie-break on stratum index), then pin every stratum to >= 1.
    std::vector<double> frac(static_cast<size_t>(strata));
    int64_t allocated = 0;
    for (int h = 0; h < strata; ++h) {
        const double exact =
            static_cast<double>(n) *
            static_cast<double>(
                plan.stratumSize[static_cast<size_t>(h)]) /
            static_cast<double>(population);
        const int64_t base = static_cast<int64_t>(exact);
        plan.stratumSampled[static_cast<size_t>(h)] = base;
        frac[static_cast<size_t>(h)] =
            exact - static_cast<double>(base);
        allocated += base;
    }
    while (allocated < n) {
        int best = 0;
        for (int h = 1; h < strata; ++h)
            if (frac[static_cast<size_t>(h)] >
                frac[static_cast<size_t>(best)])
                best = h;
        frac[static_cast<size_t>(best)] = -1.0;
        ++plan.stratumSampled[static_cast<size_t>(best)];
        ++allocated;
    }
    for (int h = 0; h < strata; ++h) {
        auto &nh = plan.stratumSampled[static_cast<size_t>(h)];
        nh = std::min(nh, plan.stratumSize[static_cast<size_t>(h)]);
        if (nh < 1) {
            int donor = 0;
            for (int g = 1; g < strata; ++g)
                if (plan.stratumSampled[static_cast<size_t>(g)] >
                    plan.stratumSampled[static_cast<size_t>(donor)])
                    donor = g;
            if (plan.stratumSampled[static_cast<size_t>(donor)] > 1) {
                --plan.stratumSampled[static_cast<size_t>(donor)];
                nh = 1;
            }
        }
    }

    // Systematic sample inside each stratum: fixed stride through the
    // ranked order, seeded fractional start. Seeded by kernel
    // identity + launch shape, so a rerun (or another launch lane)
    // draws the byte-identical sample.
    uint64_t seed = mix64(cfg.sampleSeed);
    seed = mix64(seed ^ hashString(launch.name));
    seed = mix64(seed ^ static_cast<uint64_t>(launch.dims.numCtas));
    seed =
        mix64(seed ^ static_cast<uint64_t>(launch.dims.threadsPerCta));
    seed = mix64(seed ^ static_cast<uint64_t>(population));

    std::vector<std::vector<int64_t>> picks(
        static_cast<size_t>(strata));
    for (int h = 0; h < strata; ++h) {
        const int64_t sz = plan.stratumSize[static_cast<size_t>(h)];
        const int64_t nh =
            plan.stratumSampled[static_cast<size_t>(h)];
        if (nh <= 0)
            continue;
        const double stride = static_cast<double>(sz) /
                              static_cast<double>(nh);
        const uint64_t r =
            mix64(seed ^ (0x9e3779b97f4a7c15ULL *
                          static_cast<uint64_t>(h + 1)));
        const double start =
            (static_cast<double>(r >> 11) * 0x1.0p-53) * stride;
        int64_t prev = -1;
        for (int64_t i = 0; i < nh; ++i) {
            int64_t pos = static_cast<int64_t>(
                start + stride * static_cast<double>(i));
            pos = std::max(pos, prev + 1);
            pos = std::min(pos, sz - 1);
            prev = pos;
            picks[static_cast<size_t>(h)].push_back(
                ranked[static_cast<size_t>(
                    begin[static_cast<size_t>(h)] + pos)]);
        }
    }

    // Feed the sample to the machine in grid order. Membership is
    // stratified, but execution order must mimic a real launch: a
    // round-robin interleave of the cost-ranked strata imposes a
    // periodic heavy/light arrival pattern that resonates with SM
    // slot reuse and degrades DRAM row locality relative to a full
    // run (measured at +11% makespan even for a near-1.0 fraction
    // whose sample is practically the whole population), biasing the
    // ratio estimator upward. Grid order reproduces the full run's
    // arrival mix exactly on the sampled subset.
    std::vector<std::pair<int64_t, int>> ordered;
    ordered.reserve(static_cast<size_t>(n));
    for (int h = 0; h < strata; ++h)
        for (int64_t id : picks[static_cast<size_t>(h)])
            ordered.emplace_back(id, h);
    std::sort(ordered.begin(), ordered.end());
    plan.order.reserve(ordered.size());
    plan.stratumOf.reserve(ordered.size());
    for (const auto &[id, h] : ordered) {
        plan.order.push_back(id);
        plan.stratumOf.push_back(h);
    }
    plan.engaged = true;
    return plan;
}

void
extrapolateCtaSample(const CtaSamplePlan &plan,
                     const std::vector<CtaSampleRecord> &records,
                     KernelStats &stats)
{
    if (!plan.engaged)
        return;
    stats.sampledCtas = static_cast<int64_t>(plan.order.size());
    stats.sampleStrata = plan.numStrata();
    stats.estimates.clear();
    if (records.empty() || stats.cycles == 0)
        return; // nothing completed: raw counters stand alone

    std::unordered_map<int64_t, int> stratum_of;
    stratum_of.reserve(plan.order.size());
    for (size_t i = 0; i < plan.order.size(); ++i)
        stratum_of.emplace(plan.order[i], plan.stratumOf[i]);

    const int strata = plan.numStrata();
    std::vector<StratAcc> dur(static_cast<size_t>(strata));
    std::vector<StratAcc> work(static_cast<size_t>(strata));
    double sum_dur = 0.0, sum_work = 0.0;
    for (const CtaSampleRecord &r : records) {
        const auto it = stratum_of.find(r.ctaId);
        if (it == stratum_of.end())
            continue;
        const double d = static_cast<double>(
            r.endCycle - std::min(r.startCycle, r.endCycle));
        const double q = static_cast<double>(r.instrs);
        dur[static_cast<size_t>(it->second)].add(d);
        work[static_cast<size_t>(it->second)].add(q);
        sum_dur += d;
        sum_work += q;
    }
    if (sum_dur <= 0.0 || sum_work <= 0.0)
        return;

    const StratEstimate est_dur =
        stratifiedTotal(dur, plan.stratumSize);
    const StratEstimate est_work =
        stratifiedTotal(work, plan.stratumSize);

    // Ratio estimator for wall cycles: the sampled run achieved
    // sum_dur / cycles CTA-parallelism; the population's CTA-cycles
    // at the same parallelism take est_dur / that.
    const double cycle_scale = est_dur.total / sum_dur;
    const double work_scale = est_work.total / sum_work;
    const double err_cycles =
        kErrSigma * est_dur.relSe + kErrFloorCycles;
    const double err_work =
        kErrSigma * est_work.relSe + kErrFloorWork;

    auto emit = [&](const std::string &name, double raw,
                    double scale, double rel_err) {
        const double est = raw * scale;
        stats.estimates.push_back({name, est, est * rel_err});
    };
    auto emit_cycles = [&](const std::string &name, double raw) {
        emit(name, raw, cycle_scale, err_cycles);
    };
    auto emit_work = [&](const std::string &name, double raw) {
        emit(name, raw, work_scale, err_work);
    };

    emit_cycles("cycles", static_cast<double>(stats.cycles));

    // Exact by construction: every CTA has the same warp count.
    const double count_scale =
        static_cast<double>(plan.population) /
        static_cast<double>(plan.order.size());
    stats.estimates.push_back(
        {"warps",
         static_cast<double>(stats.warpsSimulated) * count_scale,
         0.0});

    emit_work("warp_instrs", static_cast<double>(stats.warpInstrs));
    emit_work("thread_instrs",
              static_cast<double>(stats.threadInstrs));
    for (int c = 0; c < kNumInstrClasses; ++c)
        emit_work(std::string("instr_") +
                      instrClassName(static_cast<InstrClass>(c)),
                  static_cast<double>(
                      stats.instrByClass[static_cast<size_t>(c)]));
    for (int r = 0; r < kNumStallReasons; ++r)
        emit_cycles(std::string("stall_") +
                        stallReasonName(static_cast<StallReason>(r)),
                    static_cast<double>(
                        stats.stallCycles[static_cast<size_t>(r)]));
    for (int b = 0; b < kNumOccBuckets; ++b)
        emit_cycles(std::string("occ_") +
                        occBucketName(static_cast<OccBucket>(b)),
                    static_cast<double>(
                        stats.occCycles[static_cast<size_t>(b)]));
    emit_work("l1_hits", static_cast<double>(stats.l1Hits));
    emit_work("l1_misses", static_cast<double>(stats.l1Misses));
    emit_work("l2_hits", static_cast<double>(stats.l2Hits));
    emit_work("l2_misses", static_cast<double>(stats.l2Misses));
    emit_work("mem_instrs", static_cast<double>(stats.memInstrs));
    emit_work("mem_sectors", static_cast<double>(stats.memSectors));
    emit_work("dram_bytes", static_cast<double>(stats.dramBytes));
    emit_cycles("dram_busy_cycles",
                static_cast<double>(stats.dramBusyCycles));
    emit_work("dram_row_hits",
              static_cast<double>(stats.dramRowHits));
    emit_work("dram_row_misses",
              static_cast<double>(stats.dramRowMisses));
    emit_work("alu_busy_cycles",
              static_cast<double>(stats.aluBusyCycles));
    emit_cycles("scheduler_slots",
                static_cast<double>(stats.schedulerSlots));
    emit_cycles("mshr_stall_cycles",
                static_cast<double>(
                    stats.stallCycles[static_cast<size_t>(
                        StallReason::MshrFull)]));
}

} // namespace gsuite
