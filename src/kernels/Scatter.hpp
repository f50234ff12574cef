/**
 * @file
 * scatter — the MP reduction kernel (Table II: "reduces given input
 * based-on index vector using entries").
 *
 * output[index[i]][c] (op)= messages[i][c] * edgeScale[i], one thread
 * per message element, using global atomics for the reduction — the
 * source of the synchronization pressure the paper observes for this
 * kernel. Functional execution gives each worker a range of
 * destination rows; every worker walks the whole index and applies
 * only its own destinations, so each row receives its messages in
 * edge order for any worker count.
 */

#ifndef GSUITE_KERNELS_SCATTER_HPP
#define GSUITE_KERNELS_SCATTER_HPP

#include <cstdint>
#include <vector>

#include "kernels/Kernel.hpp"
#include "tensor/DenseMatrix.hpp"

namespace gsuite {

/** The MP scatter-reduce kernel. */
class ScatterKernel : public Kernel
{
  public:
    /** Reduction operator. */
    enum class Reduce {
        Sum,
        Max,
    };

    /**
     * @param label Launch name.
     * @param messages Edge messages [e x f].
     * @param index Destination row per message (edge dst), length e.
     * @param output Accumulator [n x f]; the caller chooses n. The
     *        kernel zero-fills every row before reducing into it, so
     *        its prior contents are never read (Max therefore starts
     *        from 0, for GNN use).
     * @param op Reduction operator.
     * @param edge_scale Optional per-edge multiplier (GCN's
     *        1/sqrt(d_u d_v) normalization fused into the scatter, as
     *        in Fig. 2 where scatter consumes nodeDegrees).
     */
    ScatterKernel(std::string label, const DenseMatrix &messages,
                  const std::vector<int64_t> &index, DenseMatrix &output,
                  Reduce op = Reduce::Sum,
                  const std::vector<float> *edge_scale = nullptr);

    /**
     * Variant whose per-edge scale is an [e x 1] matrix produced by
     * an earlier kernel in the same pipeline (GAT's attention
     * coefficients).
     */
    ScatterKernel(std::string label, const DenseMatrix &messages,
                  const std::vector<int64_t> &index, DenseMatrix &output,
                  Reduce op, const DenseMatrix &edge_scale_mat);

    std::string name() const override { return label; }
    KernelClass kind() const override { return KernelClass::Scatter; }
    void execute() override { execute(nullptr); }
    void execute(ThreadPool *workers) override;
    KernelLaunch makeLaunch(DeviceAllocator &alloc) const override;
    std::vector<IoSpan> ioSpans() const override;
    KernelIo io() const override
    {
        KernelIo io{{&messages, &index}, {&output}};
        if (edgeScale)
            io.reads.push_back(edgeScale);
        if (edgeScaleMat)
            io.reads.push_back(edgeScaleMat);
        return io;
    }

  private:
    std::string label;
    const DenseMatrix &messages;
    const std::vector<int64_t> &index;
    DenseMatrix &output;
    Reduce op;
    const std::vector<float> *edgeScale = nullptr;
    const DenseMatrix *edgeScaleMat = nullptr;

    /** Scale factor of edge i (1.0 when unscaled). */
    float scaleOf(int64_t i) const;
    /** True when any per-edge scaling is active. */
    bool scaled() const { return edgeScale || edgeScaleMat; }
};

} // namespace gsuite

#endif // GSUITE_KERNELS_SCATTER_HPP
