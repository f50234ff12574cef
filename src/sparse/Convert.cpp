#include "sparse/Convert.hpp"

#include "util/Logging.hpp"

namespace gsuite {

CsrMatrix
cooToCsr(const CooMatrix &coo)
{
    SparseBuilder b(coo.rows(), coo.cols());
    b.reserve(static_cast<size_t>(coo.nnz()));
    for (int64_t i = 0; i < coo.nnz(); ++i)
        b.add(coo.rowIdx[static_cast<size_t>(i)],
              coo.colIdx[static_cast<size_t>(i)], coo.valueAt(i));
    return b.finish();
}

DenseMatrix
csrToDense(const CsrMatrix &csr, int64_t maxElems)
{
    if (csr.rows() * csr.cols() > maxElems)
        fatal("csrToDense: [%ld x %ld] exceeds the dense size limit",
              (long)csr.rows(), (long)csr.cols());
    DenseMatrix d(csr.rows(), csr.cols());
    for (int64_t r = 0; r < csr.rows(); ++r) {
        for (int64_t i = csr.rowPtr[static_cast<size_t>(r)];
             i < csr.rowPtr[static_cast<size_t>(r) + 1]; ++i) {
            d.at(r, csr.colIdx[static_cast<size_t>(i)]) =
                csr.vals.empty() ? 1.0f
                                 : csr.vals[static_cast<size_t>(i)];
        }
    }
    return d;
}

DenseMatrix
cooToDense(const CooMatrix &coo, int64_t maxElems)
{
    if (coo.rows() * coo.cols() > maxElems)
        fatal("cooToDense: [%ld x %ld] exceeds the dense size limit",
              (long)coo.rows(), (long)coo.cols());
    DenseMatrix d(coo.rows(), coo.cols());
    for (int64_t i = 0; i < coo.nnz(); ++i)
        d.at(coo.rowIdx[static_cast<size_t>(i)],
             coo.colIdx[static_cast<size_t>(i)]) += coo.valueAt(i);
    return d;
}

} // namespace gsuite
