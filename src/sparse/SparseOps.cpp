#include "sparse/SparseOps.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/Logging.hpp"
#include "util/ThreadPool.hpp"

namespace gsuite {

CsrMatrix
spgemm(const CsrMatrix &a, const CsrMatrix &b)
{
    if (a.cols() != b.rows())
        fatal("spgemm dimension mismatch: [%ld x %ld] x [%ld x %ld]",
              (long)a.rows(), (long)a.cols(), (long)b.rows(),
              (long)b.cols());

    CsrMatrix c(a.rows(), b.cols());
    c.colIdx.reserve(static_cast<size_t>(a.nnz()));
    c.vals.reserve(static_cast<size_t>(a.nnz()));

    // Gustavson's row-wise algorithm with a dense accumulator and a
    // "next" list to keep only touched columns.
    std::vector<float> acc(static_cast<size_t>(b.cols()), 0.0f);
    std::vector<int64_t> touched;

    for (int64_t i = 0; i < a.rows(); ++i) {
        touched.clear();
        for (int64_t ai = a.rowPtr[static_cast<size_t>(i)];
             ai < a.rowPtr[static_cast<size_t>(i) + 1]; ++ai) {
            const int64_t k = a.colIdx[static_cast<size_t>(ai)];
            const float av =
                a.vals.empty() ? 1.0f : a.vals[static_cast<size_t>(ai)];
            for (int64_t bi = b.rowPtr[static_cast<size_t>(k)];
                 bi < b.rowPtr[static_cast<size_t>(k) + 1]; ++bi) {
                const int64_t j = b.colIdx[static_cast<size_t>(bi)];
                const float bv = b.vals.empty()
                                     ? 1.0f
                                     : b.vals[static_cast<size_t>(bi)];
                if (acc[static_cast<size_t>(j)] == 0.0f)
                    touched.push_back(j);
                acc[static_cast<size_t>(j)] += av * bv;
            }
        }
        std::sort(touched.begin(), touched.end());
        for (int64_t j : touched) {
            // Keep explicit zeros out of the result to preserve the
            // CSR density invariant (cancellation is rare but legal).
            if (acc[static_cast<size_t>(j)] != 0.0f) {
                c.colIdx.push_back(j);
                c.vals.push_back(acc[static_cast<size_t>(j)]);
            }
            acc[static_cast<size_t>(j)] = 0.0f;
        }
        c.rowPtr[static_cast<size_t>(i) + 1] =
            static_cast<int64_t>(c.colIdx.size());
    }
    return c;
}

void
spmm(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c,
     ThreadPool *workers)
{
    if (a.cols() != b.rows())
        fatal("spmm dimension mismatch: [%ld x %ld] x [%ld x %ld]",
              (long)a.rows(), (long)a.cols(), (long)b.rows(),
              (long)b.cols());
    c.resizeForOverwrite(a.rows(), b.cols());
    const int64_t f = b.cols();
    forEachRowRange(workers, a.rows(), f, [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
            float *out = c.rowPtr(i);
            std::fill(out, out + f, 0.0f);
            for (int64_t ai = a.rowPtr[static_cast<size_t>(i)];
                 ai < a.rowPtr[static_cast<size_t>(i) + 1]; ++ai) {
                const int64_t k = a.colIdx[static_cast<size_t>(ai)];
                const float av = a.vals.empty()
                                     ? 1.0f
                                     : a.vals[static_cast<size_t>(ai)];
                const float *in = b.rowPtr(k);
                for (int64_t j = 0; j < f; ++j)
                    out[j] += av * in[j];
            }
        }
    });
}

CsrMatrix
transpose(const CsrMatrix &a)
{
    CsrMatrix t(a.cols(), a.rows());
    t.colIdx.resize(static_cast<size_t>(a.nnz()));
    t.vals.resize(static_cast<size_t>(a.nnz()));

    // Counting sort by column index.
    std::vector<int64_t> counts(static_cast<size_t>(a.cols()) + 1, 0);
    for (int64_t c : a.colIdx)
        ++counts[static_cast<size_t>(c) + 1];
    for (size_t i = 1; i < counts.size(); ++i)
        counts[i] += counts[i - 1];
    t.rowPtr.assign(counts.begin(), counts.end());

    std::vector<int64_t> cursor(counts.begin(), counts.end() - 1);
    for (int64_t r = 0; r < a.rows(); ++r) {
        for (int64_t i = a.rowPtr[static_cast<size_t>(r)];
             i < a.rowPtr[static_cast<size_t>(r) + 1]; ++i) {
            const int64_t c = a.colIdx[static_cast<size_t>(i)];
            const int64_t pos = cursor[static_cast<size_t>(c)]++;
            t.colIdx[static_cast<size_t>(pos)] = r;
            t.vals[static_cast<size_t>(pos)] =
                a.vals.empty() ? 1.0f : a.vals[static_cast<size_t>(i)];
        }
    }
    return t;
}

CsrMatrix
addScaledIdentity(const CsrMatrix &a, float alpha)
{
    if (a.rows() != a.cols())
        fatal("addScaledIdentity requires a square matrix");
    // One merge pass: each row's diagonal is added to its entry, or
    // inserted before the first larger column.
    CsrMatrix out(a.rows(), a.cols());
    const size_t bound = static_cast<size_t>(a.nnz() + a.rows());
    out.colIdx.reserve(bound);
    out.vals.reserve(bound);
    for (int64_t r = 0; r < a.rows(); ++r) {
        bool has_diag = false;
        for (int64_t i = a.rowPtr[static_cast<size_t>(r)];
             i < a.rowPtr[static_cast<size_t>(r) + 1]; ++i) {
            const int64_t c = a.colIdx[static_cast<size_t>(i)];
            float v = a.vals.empty() ? 1.0f
                                     : a.vals[static_cast<size_t>(i)];
            if (!has_diag && c >= r) {
                if (c == r) {
                    v += alpha;
                } else {
                    out.colIdx.push_back(r);
                    out.vals.push_back(alpha);
                }
                has_diag = true;
            }
            out.colIdx.push_back(c);
            out.vals.push_back(v);
        }
        if (!has_diag) {
            out.colIdx.push_back(r);
            out.vals.push_back(alpha);
        }
        out.rowPtr[static_cast<size_t>(r) + 1] =
            static_cast<int64_t>(out.colIdx.size());
    }
    out.checkInvariants();
    return out;
}

CsrMatrix
scaleRowsCols(const CsrMatrix &a, const std::vector<float> &rs,
              const std::vector<float> &cs)
{
    if (static_cast<int64_t>(rs.size()) != a.rows() ||
        static_cast<int64_t>(cs.size()) != a.cols())
        fatal("scaleRowsCols: scale vector length mismatch");
    CsrMatrix out = a;
    if (out.vals.empty())
        out.vals.assign(static_cast<size_t>(out.nnz()), 1.0f);
    for (int64_t r = 0; r < a.rows(); ++r) {
        for (int64_t i = a.rowPtr[static_cast<size_t>(r)];
             i < a.rowPtr[static_cast<size_t>(r) + 1]; ++i) {
            const int64_t c = a.colIdx[static_cast<size_t>(i)];
            out.vals[static_cast<size_t>(i)] *=
                rs[static_cast<size_t>(r)] * cs[static_cast<size_t>(c)];
        }
    }
    return out;
}

double
csrMaxAbsDiff(const CsrMatrix &a, const CsrMatrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return std::numeric_limits<double>::infinity();

    // Compare via dense row accumulation so structural differences with
    // equal numeric content (explicit zeros) compare equal.
    std::vector<float> rowA(static_cast<size_t>(a.cols()));
    std::vector<float> rowB(static_cast<size_t>(b.cols()));
    double max_diff = 0.0;
    for (int64_t r = 0; r < a.rows(); ++r) {
        std::fill(rowA.begin(), rowA.end(), 0.0f);
        std::fill(rowB.begin(), rowB.end(), 0.0f);
        for (int64_t i = a.rowPtr[static_cast<size_t>(r)];
             i < a.rowPtr[static_cast<size_t>(r) + 1]; ++i)
            rowA[static_cast<size_t>(a.colIdx[static_cast<size_t>(i)])] +=
                a.vals.empty() ? 1.0f : a.vals[static_cast<size_t>(i)];
        for (int64_t i = b.rowPtr[static_cast<size_t>(r)];
             i < b.rowPtr[static_cast<size_t>(r) + 1]; ++i)
            rowB[static_cast<size_t>(b.colIdx[static_cast<size_t>(i)])] +=
                b.vals.empty() ? 1.0f : b.vals[static_cast<size_t>(i)];
        for (size_t j = 0; j < rowA.size(); ++j)
            max_diff = std::max(
                max_diff,
                static_cast<double>(std::fabs(rowA[j] - rowB[j])));
    }
    return max_diff;
}

} // namespace gsuite
