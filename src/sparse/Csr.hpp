/**
 * @file
 * Compressed sparse row (CSR) matrix — the SpMM-side graph format.
 */

#ifndef GSUITE_SPARSE_CSR_HPP
#define GSUITE_SPARSE_CSR_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gsuite {

/**
 * CSR sparse float matrix. rowPtr has rows()+1 entries; row r's
 * entries live at [rowPtr[r], rowPtr[r+1]) in colIdx/vals.
 */
class CsrMatrix
{
  public:
    CsrMatrix() = default;

    /** Empty (all-zero) matrix of the given shape. */
    CsrMatrix(int64_t rows, int64_t cols);

    int64_t rows() const { return nRows; }
    int64_t cols() const { return nCols; }
    int64_t nnz() const { return static_cast<int64_t>(colIdx.size()); }

    /** Number of stored entries in row r. */
    int64_t
    rowNnz(int64_t r) const
    {
        return rowPtr[static_cast<std::size_t>(r) + 1] -
               rowPtr[static_cast<std::size_t>(r)];
    }

    /** Identity matrix of order n. */
    static CsrMatrix identity(int64_t n);

    /** Diagonal matrix from a vector. */
    static CsrMatrix diagonal(const std::vector<float> &diag);

    /** Validate structural invariants; panic() on violation. */
    void checkInvariants() const;

    std::vector<int64_t> rowPtr;
    std::vector<int64_t> colIdx;
    std::vector<float> vals;

  private:
    int64_t nRows = 0;
    int64_t nCols = 0;

    friend CsrMatrix cooToCsr(const class CooMatrix &coo);
    friend class SparseBuilder;
};

/**
 * CSR builder: entries may be added in any (row, col) order and any
 * cell more than once. finish() orders them by (row, col) with two
 * stable counting sorts, so it takes time linear in the entries plus
 * rows plus cols, and sums each cell's duplicates in the order they
 * were added.
 */
class SparseBuilder
{
  public:
    SparseBuilder(int64_t rows, int64_t cols);

    /** Reserve storage for @p entries calls to add(). */
    void reserve(std::size_t entries);

    /** Add an entry. */
    void add(int64_t row, int64_t col, float val);

    /** Build the CSR matrix (sorts by row and column, sums duplicates). */
    CsrMatrix finish();

  private:
    int64_t nRows;
    int64_t nCols;
    std::vector<int64_t> rowIdx;
    std::vector<int64_t> colIdx;
    std::vector<float> vals;
};

} // namespace gsuite

#endif // GSUITE_SPARSE_CSR_HPP
