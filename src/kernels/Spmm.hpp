/**
 * @file
 * SpMM — sparse (CSR) x dense multiply, the reduction step of the
 * SpMM computational model (the "SpGEMM/GEMM" kernel pair of Table II
 * as launched with a dense right-hand side).
 *
 * GPU mapping: one warp per (row, 32-wide feature chunk); lanes walk
 * the row's nonzeros together and each lane accumulates one output
 * feature. Hub rows produce long warps (load imbalance) and the B-row
 * gathers are data-dependent — the irregularity the paper measures.
 */

#ifndef GSUITE_KERNELS_SPMM_HPP
#define GSUITE_KERNELS_SPMM_HPP

#include "kernels/Kernel.hpp"
#include "sparse/Csr.hpp"
#include "tensor/DenseMatrix.hpp"

namespace gsuite {

/** The sparse-times-dense core kernel: C = A x B, A in CSR. */
class SpmmKernel : public Kernel
{
  public:
    SpmmKernel(std::string label, const CsrMatrix &a,
               const DenseMatrix &b, DenseMatrix &c);

    std::string name() const override { return label; }
    KernelClass kind() const override { return KernelClass::SpMM; }
    void execute() override { execute(nullptr); }
    void execute(ThreadPool *workers) override;
    KernelLaunch makeLaunch(DeviceAllocator &alloc) const override;
    std::vector<IoSpan> ioSpans() const override;
    KernelIo io() const override { return {{&a, &b}, {&c}}; }

  private:
    std::string label;
    const CsrMatrix &a;
    const DenseMatrix &b;
    DenseMatrix &c;
};

} // namespace gsuite

#endif // GSUITE_KERNELS_SPMM_HPP
