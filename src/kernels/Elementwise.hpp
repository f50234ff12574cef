/**
 * @file
 * Elementwise auxiliary kernels: activations, scaled addition and
 * per-row scaling. These are the "other" kernels in the paper's
 * Fig. 4 execution-time distribution — needed by the GNN pipelines
 * (bias/activation, GIN's (1+eps) self term, SAGE's mean divide) but
 * not part of the Table II core set.
 */

#ifndef GSUITE_KERNELS_ELEMENTWISE_HPP
#define GSUITE_KERNELS_ELEMENTWISE_HPP

#include <vector>

#include "kernels/Kernel.hpp"
#include "tensor/DenseMatrix.hpp"

namespace gsuite {

/** The elementwise/auxiliary kernel family. */
class ElementwiseKernel : public Kernel
{
  public:
    /** Operation selector. */
    enum class EwOp {
        Relu,      ///< out = max(in, 0)
        Sigmoid,   ///< out = 1 / (1 + exp(-in))  (SFU-heavy)
        LeakyRelu, ///< out = in > 0 ? in : alpha*in  (GAT scores)
        Exp,       ///< out = exp(in)  (edge softmax numerator)
        Recip,     ///< out = 1 / in   (edge softmax divide)
        AddScaled, ///< out = alpha*inA + beta*inB
        RowScale,  ///< out[r][c] = inA[r][c] * rowVec[r]
        ReluGrad,  ///< out = inA * (inB > 0)  (training backward)
        Mul,       ///< out = inA * inB
        Sub,       ///< out = inA - inB
    };

    /** Unary constructor (Relu/Sigmoid/LeakyRelu/Exp/Recip). */
    ElementwiseKernel(std::string label, EwOp op, const DenseMatrix &in,
                      DenseMatrix &out, float alpha = 0.2f);

    /**
     * Binary constructor (ReluGrad/Mul/Sub). For ReluGrad, @p in_a is
     * the upstream gradient and @p in_b the forward pre-activation
     * whose sign gates it.
     */
    ElementwiseKernel(std::string label, EwOp op,
                      const DenseMatrix &in_a, const DenseMatrix &in_b,
                      DenseMatrix &out);

    /** AddScaled constructor. */
    ElementwiseKernel(std::string label, const DenseMatrix &in_a,
                      const DenseMatrix &in_b, float alpha, float beta,
                      DenseMatrix &out);

    /** RowScale constructor. */
    ElementwiseKernel(std::string label, const DenseMatrix &in,
                      const std::vector<float> &row_vec,
                      DenseMatrix &out);

    std::string name() const override { return label; }
    KernelClass kind() const override
    {
        return KernelClass::Elementwise;
    }
    void execute() override { execute(nullptr); }
    /** Workers split flat element ranges (RowScale: rows). */
    void execute(ThreadPool *workers) override;
    KernelLaunch makeLaunch(DeviceAllocator &alloc) const override;
    std::vector<IoSpan> ioSpans() const override;
    KernelIo io() const override
    {
        KernelIo io{{&inA}, {&out}};
        if (inB)
            io.reads.push_back(inB);
        if (rowVec)
            io.reads.push_back(rowVec);
        return io;
    }

  private:
    std::string label;
    EwOp op;
    const DenseMatrix &inA;
    const DenseMatrix *inB = nullptr;
    const std::vector<float> *rowVec = nullptr;
    float alpha = 1.0f;
    float beta = 1.0f;
    DenseMatrix &out;
};

} // namespace gsuite

#endif // GSUITE_KERNELS_ELEMENTWISE_HPP
