/**
 * @file
 * Declarative sweep grids — the multi-point face of the paper's
 * Fig. 1 user interface. A SweepSpec is a builder-style description
 * of a (model x comp x dataset x engine x variant) grid
 * that expands to a deterministic, ordered list of UserParams points
 * with stable per-point labels. BenchSession executes the points;
 * ResultStore holds the results.
 */

#ifndef GSUITE_SUITE_SWEEPSPEC_HPP
#define GSUITE_SUITE_SWEEPSPEC_HPP

#include <functional>
#include <string>
#include <vector>

#include "suite/UserParams.hpp"

namespace gsuite {

/**
 * One value of the free-form sweep axis: a labelled parameter
 * override (e.g. a framework column, a feature-width step, or an
 * ablation toggle). Labels must be unique within a spec.
 */
struct SweepVariant {
    std::string label;
    std::function<void(UserParams &)> apply;
};

/** One expanded grid point. */
struct SweepPoint {
    size_t index = 0;    ///< position in expansion order
    std::string label;   ///< unique, stable point label
    std::string variant; ///< variant-axis label ("" when unused)
    UserParams params;
};

/**
 * A declarative grid over the suite's sweep axes. Unset axes
 * default to the base params' value (the dataset, gpu, and sample
 * axes additionally split comma-separated base values, the CLI sweep
 * shorthand), so an empty spec expands to exactly one point.
 * Expansion order is fixed and documented:
 * gpus > variants > models > comps > engines > datasets > samples >
 * batches (outermost to innermost), each axis in the order given.
 * The framework comes from the base params (a variant may override
 * it; point labels keep the base framework's name).
 */
class SweepSpec
{
  public:
    /** Params every point starts from (defaults: UserParams{}). */
    SweepSpec &base(const UserParams &p);

    SweepSpec &datasets(const std::vector<DatasetId> &ids);
    /** Dataset names, including "file:PATH" edge lists. */
    SweepSpec &datasetNames(const std::vector<std::string> &names);
    SweepSpec &models(const std::vector<GnnModelKind> &ms);
    SweepSpec &comps(const std::vector<CompModel> &cs);
    SweepSpec &engines(const std::vector<EngineKind> &es);
    SweepSpec &engine(EngineKind e);
    SweepSpec &variants(std::vector<SweepVariant> vs);

    /**
     * Batched-inference axis: op-graph batch sizes (>= 1 each).
     * Innermost after datasets; labels gain an "xN" suffix whenever
     * the axis has more than one value.
     */
    SweepSpec &batches(const std::vector<int> &bs);

    /**
     * GPU axis: hwdb preset names or "file:PATH" specs, one machine
     * per value (the cross-GPU characterization axis). Labels are
     * prefixed "[gpu]" whenever the axis has more than one value.
     */
    SweepSpec &gpus(const std::vector<std::string> &specs);

    /**
     * CTA-sampling axis: applyCtaSampleSpec() specs ("off",
     * "cta:0.125", ...), one sampling policy per value — the
     * speedup-vs-error frontier axis. Labels gain a "~SPEC" suffix
     * whenever the axis has more than one value.
     */
    SweepSpec &samples(const std::vector<std::string> &specs);

    /** Sugar: base params' run count. */
    SweepSpec &runs(int r);

    /** Arbitrary base-params tweak, applied immediately. */
    SweepSpec &configure(const std::function<void(UserParams &)> &fn);

    /**
     * Drop expanded points the predicate matches (evaluated on the
     * final per-point params, after the variant override). May be
     * called repeatedly; predicates compose with OR.
     */
    SweepSpec &skip(const std::function<bool(const UserParams &)> &pred);

    /**
     * Expand to the ordered point list. Deterministic: same spec,
     * same points, same labels, same indices.
     */
    std::vector<SweepPoint> expand() const;

    /** Number of points expand() yields. */
    size_t size() const { return expand().size(); }

  private:
    UserParams baseParams;
    std::vector<std::string> gpuAxis;
    std::vector<std::string> sampleAxis;
    std::vector<std::string> dsAxis;
    std::vector<GnnModelKind> modelAxis;
    std::vector<CompModel> compAxis;
    std::vector<EngineKind> engineAxis;
    std::vector<int> batchAxis;
    std::vector<SweepVariant> variantAxis;
    std::vector<std::function<bool(const UserParams &)>> skips;
};

} // namespace gsuite

#endif // GSUITE_SUITE_SWEEPSPEC_HPP
