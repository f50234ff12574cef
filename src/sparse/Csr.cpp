#include "sparse/Csr.hpp"

#include <numeric>

#include "util/Logging.hpp"

namespace gsuite {

CsrMatrix::CsrMatrix(int64_t rows, int64_t cols)
    : rowPtr(static_cast<size_t>(rows) + 1, 0), nRows(rows), nCols(cols)
{
    if (rows < 0 || cols < 0)
        panic("CsrMatrix with negative shape");
}

CsrMatrix
CsrMatrix::identity(int64_t n)
{
    CsrMatrix m(n, n);
    m.colIdx.resize(static_cast<size_t>(n));
    m.vals.assign(static_cast<size_t>(n), 1.0f);
    for (int64_t i = 0; i < n; ++i) {
        m.rowPtr[static_cast<size_t>(i) + 1] = i + 1;
        m.colIdx[static_cast<size_t>(i)] = i;
    }
    return m;
}

CsrMatrix
CsrMatrix::diagonal(const std::vector<float> &diag)
{
    const int64_t n = static_cast<int64_t>(diag.size());
    CsrMatrix m = identity(n);
    m.vals = diag;
    return m;
}

void
CsrMatrix::checkInvariants() const
{
    panicIf(rowPtr.size() != static_cast<size_t>(nRows) + 1,
            "CSR rowPtr length mismatch");
    panicIf(rowPtr.front() != 0, "CSR rowPtr must start at 0");
    panicIf(rowPtr.back() != nnz(), "CSR rowPtr must end at nnz");
    panicIf(!vals.empty() && vals.size() != colIdx.size(),
            "CSR value array length mismatch");
    for (size_t r = 0; r + 1 < rowPtr.size(); ++r) {
        panicIf(rowPtr[r] > rowPtr[r + 1], "CSR rowPtr not monotonic");
        for (int64_t i = rowPtr[r]; i < rowPtr[r + 1]; ++i) {
            panicIf(colIdx[static_cast<size_t>(i)] < 0 ||
                        colIdx[static_cast<size_t>(i)] >= nCols,
                    "CSR col index out of range");
            if (i + 1 < rowPtr[r + 1]) {
                panicIf(colIdx[static_cast<size_t>(i)] >=
                            colIdx[static_cast<size_t>(i) + 1],
                        "CSR columns not strictly increasing in row");
            }
        }
    }
}

SparseBuilder::SparseBuilder(int64_t rows, int64_t cols)
    : nRows(rows), nCols(cols)
{
}

void
SparseBuilder::reserve(size_t entries)
{
    rowIdx.reserve(entries);
    colIdx.reserve(entries);
    vals.reserve(entries);
}

void
SparseBuilder::add(int64_t row, int64_t col, float val)
{
    if (row < 0 || row >= nRows || col < 0 || col >= nCols)
        panic("SparseBuilder entry out of range");
    rowIdx.push_back(row);
    colIdx.push_back(col);
    vals.push_back(val);
}

namespace {

/**
 * Indices 0..keys.size()-1 in stable order of keys[i], each in
 * [0, numKeys): a counting sort that visits the indices in @p order,
 * or in ascending order when @p order is null.
 */
std::vector<size_t>
countingSort(const std::vector<int64_t> &keys, int64_t numKeys,
             const std::vector<size_t> *order)
{
    std::vector<size_t> next(static_cast<size_t>(numKeys) + 1, 0);
    for (int64_t k : keys)
        ++next[static_cast<size_t>(k) + 1];
    std::partial_sum(next.begin(), next.end(), next.begin());
    std::vector<size_t> sorted(keys.size());
    const auto place = [&](size_t i) {
        sorted[next[static_cast<size_t>(keys[i])]++] = i;
    };
    if (order) {
        for (size_t i : *order)
            place(i);
    } else {
        for (size_t i = 0; i < keys.size(); ++i)
            place(i);
    }
    return sorted;
}

} // namespace

CsrMatrix
SparseBuilder::finish()
{
    // Least significant key first: by column, then stably by row.
    const std::vector<size_t> byCol = countingSort(colIdx, nCols, nullptr);
    const std::vector<size_t> order = countingSort(rowIdx, nRows, &byCol);

    CsrMatrix out(nRows, nCols);
    out.colIdx.reserve(order.size());
    out.vals.reserve(order.size());
    int64_t last_row = -1;
    int64_t last_col = -1;
    for (size_t i : order) {
        if (rowIdx[i] == last_row && colIdx[i] == last_col) {
            out.vals.back() += vals[i]; // duplicate entry: sum
            continue;
        }
        out.colIdx.push_back(colIdx[i]);
        out.vals.push_back(vals[i]);
        ++out.rowPtr[static_cast<size_t>(rowIdx[i]) + 1];
        last_row = rowIdx[i];
        last_col = colIdx[i];
    }
    std::partial_sum(out.rowPtr.begin(), out.rowPtr.end(),
                     out.rowPtr.begin());
    out.checkInvariants();
    return out;
}

} // namespace gsuite
