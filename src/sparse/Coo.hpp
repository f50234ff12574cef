/**
 * @file
 * Coordinate-format (COO) sparse matrix.
 *
 * COO is the paper's native graph format for the MP computational
 * model: the "edgeIndex" consumed by indexSelect/scatter is exactly the
 * (row, col) arrays of a COO matrix (Fig. 2).
 */

#ifndef GSUITE_SPARSE_COO_HPP
#define GSUITE_SPARSE_COO_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gsuite {

/**
 * COO sparse float matrix. Entries are (row[i], col[i], val[i]); an
 * empty val vector means "pattern matrix" with implicit 1.0 values,
 * which is how unweighted adjacency matrices are stored.
 */
class CooMatrix
{
  public:
    CooMatrix() = default;

    /** Empty matrix of the given shape. */
    CooMatrix(int64_t rows, int64_t cols);

    int64_t rows() const { return nRows; }
    int64_t cols() const { return nCols; }
    int64_t nnz() const { return static_cast<int64_t>(rowIdx.size()); }

    /** True when values are implicit 1.0. */
    bool isPattern() const { return vals.empty(); }

    /** Append one entry; val ignored for pattern matrices only if... */
    void push(int64_t r, int64_t c, float v = 1.0f);

    /** Value of entry i (1.0 for pattern matrices). */
    float
    valueAt(int64_t i) const
    {
        return isPattern() ? 1.0f : vals[static_cast<std::size_t>(i)];
    }

    /** Validate indices are within shape; panic() on violation. */
    void checkInvariants() const;

    std::vector<int64_t> rowIdx;
    std::vector<int64_t> colIdx;
    std::vector<float> vals; ///< empty => pattern matrix (all 1.0)

  private:
    int64_t nRows = 0;
    int64_t nCols = 0;
};

} // namespace gsuite

#endif // GSUITE_SPARSE_COO_HPP
