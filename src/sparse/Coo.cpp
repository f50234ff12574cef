#include "sparse/Coo.hpp"

#include "util/Logging.hpp"

namespace gsuite {

CooMatrix::CooMatrix(int64_t rows, int64_t cols)
    : nRows(rows), nCols(cols)
{
    if (rows < 0 || cols < 0)
        panic("CooMatrix with negative shape");
}

void
CooMatrix::push(int64_t r, int64_t c, float v)
{
    rowIdx.push_back(r);
    colIdx.push_back(c);
    if (!vals.empty() || v != 1.0f) {
        // Promote to an explicit-value matrix on the first non-1 value.
        if (vals.empty() && rowIdx.size() > 1)
            vals.assign(rowIdx.size() - 1, 1.0f);
        vals.push_back(v);
    }
}

void
CooMatrix::checkInvariants() const
{
    panicIf(rowIdx.size() != colIdx.size(),
            "COO row/col arrays have different lengths");
    panicIf(!vals.empty() && vals.size() != rowIdx.size(),
            "COO value array length mismatch");
    for (size_t i = 0; i < rowIdx.size(); ++i) {
        panicIf(rowIdx[i] < 0 || rowIdx[i] >= nRows,
                "COO row index out of range");
        panicIf(colIdx[i] < 0 || colIdx[i] >= nCols,
                "COO col index out of range");
    }
}

} // namespace gsuite
