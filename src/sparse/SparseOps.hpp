/**
 * @file
 * Sparse linear algebra: the functional semantics behind the SpGEMM
 * and SpMM core kernels (Table II).
 */

#ifndef GSUITE_SPARSE_SPARSEOPS_HPP
#define GSUITE_SPARSE_SPARSEOPS_HPP

#include "sparse/Csr.hpp"
#include "tensor/DenseMatrix.hpp"

namespace gsuite {

class ThreadPool;

/**
 * Sparse x sparse general matrix multiply (SpGEMM): C = A x B with
 * CSR operands, row-by-row Gustavson algorithm with a dense
 * accumulator workspace. fatal() on dimension mismatch.
 */
CsrMatrix spgemm(const CsrMatrix &a, const CsrMatrix &b);

/**
 * Sparse x dense multiply (SpMM): C = A x B with CSR A and dense B —
 * the reduction step of the SpMM computational model. fatal() on
 * dimension mismatch. With @p workers, C's rows are split over its
 * lanes; each row sums its nonzeros in CSR order, so C is
 * bit-identical for any lane count.
 */
void spmm(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c,
          ThreadPool *workers = nullptr);

/** CSR transpose. */
CsrMatrix transpose(const CsrMatrix &a);

/**
 * C = A + alpha*I for square A, whose rows must have strictly
 * increasing columns (checkInvariants() panics on C otherwise).
 * fatal() if A is not square.
 */
CsrMatrix addScaledIdentity(const CsrMatrix &a, float alpha);

/**
 * Row-scale then column-scale: out = diag(rs) * A * diag(cs).
 * This is how D^-1/2 * A * D^-1/2 is realized without materializing
 * the diagonal factors (the trace generators still model the SpGEMM
 * kernels the paper's pipeline launches).
 */
CsrMatrix scaleRowsCols(const CsrMatrix &a, const std::vector<float> &rs,
                        const std::vector<float> &cs);

/** Frobenius-style max-abs difference between two CSR matrices. */
double csrMaxAbsDiff(const CsrMatrix &a, const CsrMatrix &b);

} // namespace gsuite

#endif // GSUITE_SPARSE_SPARSEOPS_HPP
