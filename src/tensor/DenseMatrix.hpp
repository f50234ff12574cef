/**
 * @file
 * Row-major dense float matrix — the feature-matrix container.
 *
 * This is the stand-in for the device tensors the paper's CUDA kernels
 * operate on. Storage is a contiguous std::vector<float> so kernel
 * trace generators can derive per-thread global-memory addresses from
 * the (virtual) base address of the buffer. Its allocator leaves
 * elements uninitialized unless a value is given, so
 * resizeForOverwrite() can leave a fresh output's first write (and
 * page fault) to the worker lane that owns those rows.
 */

#ifndef GSUITE_TENSOR_DENSEMATRIX_HPP
#define GSUITE_TENSOR_DENSEMATRIX_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace gsuite {

class Rng;

/**
 * std::allocator whose value-less construct() default-initializes:
 * a float made by std::vector::resize(n) is left unwritten.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U> &) noexcept
    {
    }

    template <typename U>
    void
    construct(U *p) noexcept
    {
        ::new (static_cast<void *>(p)) U;
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

/** Row-major dense matrix of float32, shape [rows x cols]. */
class DenseMatrix
{
  public:
    /** Empty 0x0 matrix. */
    DenseMatrix() = default;

    /** Zero-initialized matrix of the given shape. */
    DenseMatrix(int64_t rows, int64_t cols);

    int64_t rows() const { return nRows; }
    int64_t cols() const { return nCols; }
    int64_t size() const { return nRows * nCols; }

    /** Element access (row, col); no bounds checks in release builds. */
    float &
    at(int64_t r, int64_t c)
    {
        return buf[static_cast<std::size_t>(r) * nCols + c];
    }

    float
    at(int64_t r, int64_t c) const
    {
        return buf[static_cast<std::size_t>(r) * nCols + c];
    }

    /** Raw storage access for kernels. */
    float *data() { return buf.data(); }
    const float *data() const { return buf.data(); }

    /** Pointer to the start of row @p r. */
    float *rowPtr(int64_t r) { return buf.data() + r * nCols; }
    const float *rowPtr(int64_t r) const { return buf.data() + r * nCols; }

    /** Set every element to @p value. */
    void fill(float value);

    /** Fill with uniform values in [lo, hi) from @p rng. */
    void fillUniform(Rng &rng, float lo, float hi);

    /**
     * Glorot/Xavier-uniform initialization, the standard GNN weight
     * init: bound = sqrt(6 / (fan_in + fan_out)).
     */
    void fillGlorot(Rng &rng);

    /** Resize to a new shape; contents become zero. */
    void resize(int64_t rows, int64_t cols);

    /**
     * Resize to a new shape without writing the storage: contents
     * are unspecified until the caller writes every element, which
     * it must do before any is read. Kernels use it so each worker
     * lane makes the first write of the output rows it owns.
     */
    void resizeForOverwrite(int64_t rows, int64_t cols);

    /** Max |a - b| over all elements; fatal() on shape mismatch. */
    static double maxAbsDiff(const DenseMatrix &a, const DenseMatrix &b);

    /** True if shapes and all elements match within @p tol. */
    static bool allClose(const DenseMatrix &a, const DenseMatrix &b,
                         double tol = 1e-4);

  private:
    int64_t nRows = 0;
    int64_t nCols = 0;
    std::vector<float, DefaultInitAllocator<float>> buf;
};

} // namespace gsuite

#endif // GSUITE_TENSOR_DENSEMATRIX_HPP
