#include "tensor/Ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/Logging.hpp"
#include "util/ThreadPool.hpp"

namespace gsuite {

void
gemm(const DenseMatrix &a, const DenseMatrix &b, DenseMatrix &c,
     float alpha, float beta, ThreadPool *workers)
{
    const int64_t m = a.rows();
    const int64_t k = a.cols();
    const int64_t n = b.cols();
    if (b.rows() != k)
        fatal("gemm inner dimension mismatch: A is [%ld x %ld], "
              "B is [%ld x %ld]",
              (long)m, (long)k, (long)b.rows(), (long)n);
    if (c.rows() != m || c.cols() != n) {
        if (beta != 0.0f)
            fatal("gemm with beta != 0 requires a correctly shaped C");
        c.resizeForOverwrite(m, n);
    }

    // Cache-blocked i-k-j loop order: the inner loop streams rows of B
    // and C, which is the right access pattern for row-major storage.
    // Each worker owns whole row blocks, and every C row still sees
    // the k blocks in order.
    constexpr int64_t blk = 64;
    forEachRowRange(
        workers, (m + blk - 1) / blk, blk * n * std::max<int64_t>(k, 1),
        [&](int64_t b0, int64_t b1) {
            const int64_t rEnd = std::min(b1 * blk, m);
            for (int64_t i = b0 * blk; i < rEnd; ++i) {
                float *cRow = c.rowPtr(i);
                if (beta == 0.0f)
                    std::fill(cRow, cRow + n, 0.0f);
                else if (beta != 1.0f)
                    for (int64_t j = 0; j < n; ++j)
                        cRow[j] *= beta;
            }
            for (int64_t i0 = b0 * blk; i0 < rEnd; i0 += blk) {
                const int64_t iEnd = std::min(i0 + blk, m);
                for (int64_t k0 = 0; k0 < k; k0 += blk) {
                    const int64_t kEnd = std::min(k0 + blk, k);
                    for (int64_t i = i0; i < iEnd; ++i) {
                        const float *aRow = a.rowPtr(i);
                        float *cRow = c.rowPtr(i);
                        for (int64_t kk = k0; kk < kEnd; ++kk) {
                            const float av = alpha * aRow[kk];
                            if (av == 0.0f)
                                continue;
                            const float *bRow = b.rowPtr(kk);
                            for (int64_t j = 0; j < n; ++j)
                                cRow[j] += av * bRow[j];
                        }
                    }
                }
            }
        });
}

void
relu(const DenseMatrix &in, DenseMatrix &out, ThreadPool *workers)
{
    if (&in != &out)
        out.resizeForOverwrite(in.rows(), in.cols());
    const float *src = in.data();
    float *dst = out.data();
    forEachRowRange(workers, in.size(), 1, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
    });
}

void
sigmoid(const DenseMatrix &in, DenseMatrix &out, ThreadPool *workers)
{
    if (&in != &out)
        out.resizeForOverwrite(in.rows(), in.cols());
    const float *src = in.data();
    float *dst = out.data();
    forEachRowRange(workers, in.size(), 1, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            dst[i] = 1.0f / (1.0f + std::exp(-src[i]));
    });
}

void
addScaled(const DenseMatrix &a, const DenseMatrix &b, float alpha,
          float beta, DenseMatrix &out, ThreadPool *workers)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        fatal("addScaled shape mismatch: [%ld x %ld] vs [%ld x %ld]",
              (long)a.rows(), (long)a.cols(), (long)b.rows(),
              (long)b.cols());
    if (&a != &out && &b != &out)
        out.resizeForOverwrite(a.rows(), a.cols());
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    forEachRowRange(workers, a.size(), 1, [&](int64_t s, int64_t e) {
        for (int64_t i = s; i < e; ++i)
            po[i] = alpha * pa[i] + beta * pb[i];
    });
}

void
scaleRows(const DenseMatrix &in, const std::vector<float> &scale,
          DenseMatrix &out, ThreadPool *workers)
{
    if (static_cast<int64_t>(scale.size()) != in.rows())
        fatal("scaleRows: %zu scales for %ld rows", scale.size(),
              (long)in.rows());
    if (&in != &out)
        out.resizeForOverwrite(in.rows(), in.cols());
    const int64_t cols = in.cols();
    forEachRowRange(workers, in.rows(), cols, [&](int64_t b, int64_t e) {
        for (int64_t r = b; r < e; ++r) {
            const float *src = in.rowPtr(r);
            float *dst = out.rowPtr(r);
            const float s = scale[static_cast<size_t>(r)];
            for (int64_t c = 0; c < cols; ++c)
                dst[c] = src[c] * s;
        }
    });
}

void
addBias(DenseMatrix &m, const std::vector<float> &bias)
{
    if (static_cast<int64_t>(bias.size()) != m.cols())
        fatal("addBias: %zu biases for %ld columns", bias.size(),
              (long)m.cols());
    for (int64_t r = 0; r < m.rows(); ++r) {
        float *row = m.rowPtr(r);
        for (int64_t c = 0; c < m.cols(); ++c)
            row[c] += bias[static_cast<size_t>(c)];
    }
}

} // namespace gsuite
