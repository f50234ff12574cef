/**
 * @file
 * sgemm — dense GEMM, the cuBLAS-style linear/combination kernel
 * (Table II: "generalized matrix multiplication of two given
 * matrices").
 *
 * The GPU mapping is the classic 16x16 shared-memory-tiled GEMM: each
 * CTA computes a 16x16 output tile, double-barriered per K-tile, so
 * the trace is FP32-dominated with barrier synchronization — exactly
 * the sgemm profile in the paper's Figs. 5 and 6.
 */

#ifndef GSUITE_KERNELS_SGEMM_HPP
#define GSUITE_KERNELS_SGEMM_HPP

#include "kernels/Kernel.hpp"
#include "tensor/DenseMatrix.hpp"

namespace gsuite {

/**
 * The dense GEMM core kernel: C = op(A) x op(B), with optional
 * operand transposition (cublasSgemm's transa/transb) — the backward
 * passes of the training extension need A^T x B and A x B^T.
 */
class SgemmKernel : public Kernel
{
  public:
    SgemmKernel(std::string label, const DenseMatrix &a,
                const DenseMatrix &b, DenseMatrix &c,
                bool trans_a = false, bool trans_b = false);

    std::string name() const override { return label; }
    KernelClass kind() const override { return KernelClass::Sgemm; }
    void execute() override { execute(nullptr); }
    /** Workers split C's rows; the transposed forms run serially. */
    void execute(ThreadPool *workers) override;
    KernelLaunch makeLaunch(DeviceAllocator &alloc) const override;
    std::vector<IoSpan> ioSpans() const override;
    KernelIo io() const override { return {{&a, &b}, {&c}}; }

    /** Output tile edge (threads are kTile x kTile per CTA). */
    static constexpr int kTile = 16;

  private:
    std::string label;
    const DenseMatrix &a;
    const DenseMatrix &b;
    DenseMatrix &c;
    bool transA;
    bool transB;

    /** Effective (post-transpose) dimensions. */
    int64_t dimM() const { return transA ? a.cols() : a.rows(); }
    int64_t dimK() const { return transA ? a.rows() : a.cols(); }
    int64_t dimN() const { return transB ? b.rows() : b.cols(); }
};

} // namespace gsuite

#endif // GSUITE_KERNELS_SGEMM_HPP
