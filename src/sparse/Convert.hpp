/**
 * @file
 * Conversions between the graph formats the paper lists (Section
 * II-D): dense matrix, sparse matrix (CSR), and coordinate (COO).
 *
 * gSuite "provides utilities to transform a dataset from one format to
 * another" — this is that utility set.
 */

#ifndef GSUITE_SPARSE_CONVERT_HPP
#define GSUITE_SPARSE_CONVERT_HPP

#include "sparse/Coo.hpp"
#include "sparse/Csr.hpp"
#include "tensor/DenseMatrix.hpp"

namespace gsuite {

/** COO -> CSR. Duplicates are summed; columns sorted per row. */
CsrMatrix cooToCsr(const CooMatrix &coo);

/** CSR -> dense. fatal() if rows*cols exceeds @p maxElems. */
DenseMatrix csrToDense(const CsrMatrix &csr,
                       int64_t maxElems = int64_t{1} << 26);

/** COO -> dense (sums duplicates). fatal() on excessive size. */
DenseMatrix cooToDense(const CooMatrix &coo,
                       int64_t maxElems = int64_t{1} << 26);

} // namespace gsuite

#endif // GSUITE_SPARSE_CONVERT_HPP
