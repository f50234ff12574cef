/**
 * @file
 * Dense linear-algebra operations backing the sgemm core kernel and the
 * elementwise activation kernels.
 *
 * These are the *functional semantics*; the timing side of the same
 * operations lives in the kernel trace generators (src/kernels).
 *
 * Each operation takes an optional worker pool. With one, output rows
 * (or flat element ranges) are split over its lanes, and every output
 * element is computed with the same floating-point operations in the
 * same order as on the calling thread alone, so results are
 * bit-identical for any lane count.
 */

#ifndef GSUITE_TENSOR_OPS_HPP
#define GSUITE_TENSOR_OPS_HPP

#include "tensor/DenseMatrix.hpp"

namespace gsuite {

class ThreadPool;

/**
 * C = alpha * A x B + beta * C, row-major blocked GEMM (the cuBLAS
 * sgemm stand-in). fatal() on shape mismatch. Workers take whole
 * 64-row blocks of C.
 */
void gemm(const DenseMatrix &a, const DenseMatrix &b, DenseMatrix &c,
          float alpha = 1.0f, float beta = 0.0f,
          ThreadPool *workers = nullptr);

/** out = relu(in), elementwise; aliasing in == out is allowed. */
void relu(const DenseMatrix &in, DenseMatrix &out,
          ThreadPool *workers = nullptr);

/** out = sigmoid(in), elementwise; aliasing allowed. */
void sigmoid(const DenseMatrix &in, DenseMatrix &out,
             ThreadPool *workers = nullptr);

/** out = alpha * a + beta * b, elementwise; shapes must match. */
void addScaled(const DenseMatrix &a, const DenseMatrix &b, float alpha,
               float beta, DenseMatrix &out,
               ThreadPool *workers = nullptr);

/**
 * out[r][c] = in[r][c] * scale[r]; aliasing in == out is allowed.
 * fatal() unless scale has one entry per row.
 */
void scaleRows(const DenseMatrix &in, const std::vector<float> &scale,
               DenseMatrix &out, ThreadPool *workers = nullptr);

/** Add bias vector (length cols) to every row in place. */
void addBias(DenseMatrix &m, const std::vector<float> &bias);

} // namespace gsuite

#endif // GSUITE_TENSOR_OPS_HPP
