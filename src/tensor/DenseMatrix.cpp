#include "tensor/DenseMatrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/Logging.hpp"
#include "util/Random.hpp"

namespace gsuite {

DenseMatrix::DenseMatrix(int64_t rows, int64_t cols)
    : nRows(rows), nCols(cols),
      buf(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f)
{
    if (rows < 0 || cols < 0)
        panic("DenseMatrix with negative shape");
}

void
DenseMatrix::fill(float value)
{
    std::fill(buf.begin(), buf.end(), value);
}

void
DenseMatrix::fillUniform(Rng &rng, float lo, float hi)
{
    for (auto &v : buf)
        v = rng.nextFloat(lo, hi);
}

void
DenseMatrix::fillGlorot(Rng &rng)
{
    const double fan = static_cast<double>(nRows + nCols);
    const float bound =
        fan > 0 ? static_cast<float>(std::sqrt(6.0 / fan)) : 0.0f;
    fillUniform(rng, -bound, bound);
}

void
DenseMatrix::resize(int64_t rows, int64_t cols)
{
    nRows = rows;
    nCols = cols;
    buf.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f);
}

void
DenseMatrix::resizeForOverwrite(int64_t rows, int64_t cols)
{
    if (rows < 0 || cols < 0)
        panic("DenseMatrix with negative shape");
    nRows = rows;
    nCols = cols;
    // Emptied first, so a reallocation copies no stale contents.
    buf.clear();
    buf.resize(static_cast<size_t>(rows) * static_cast<size_t>(cols));
}

double
DenseMatrix::maxAbsDiff(const DenseMatrix &a, const DenseMatrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        fatal("maxAbsDiff on mismatched shapes [%ld x %ld] vs [%ld x %ld]",
              (long)a.rows(), (long)a.cols(), (long)b.rows(),
              (long)b.cols());
    double maxDiff = 0.0;
    for (size_t i = 0; i < a.buf.size(); ++i)
        maxDiff = std::max(
            maxDiff,
            static_cast<double>(std::fabs(a.buf[i] - b.buf[i])));
    return maxDiff;
}

bool
DenseMatrix::allClose(const DenseMatrix &a, const DenseMatrix &b,
                      double tol)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return maxAbsDiff(a, b) <= tol;
}

} // namespace gsuite
