/**
 * @file
 * indexSelect — the MP gather kernel (Table II: "indexes the input
 * along specified dimension by using index entries").
 *
 * output[i][c] = input[index[i]][c] for i in [0, |index|), c in [0, f).
 * The GPU mapping is one thread per output element, so warps see
 * coalesced index/output traffic but data-dependent, irregular input
 * rows — the access pattern the paper's locality observations hinge
 * on. Functional execution splits output rows over the workers.
 */

#ifndef GSUITE_KERNELS_INDEXSELECT_HPP
#define GSUITE_KERNELS_INDEXSELECT_HPP

#include <cstdint>
#include <vector>

#include "kernels/Kernel.hpp"
#include "tensor/DenseMatrix.hpp"

namespace gsuite {

/** The MP gather kernel. */
class IndexSelectKernel : public Kernel
{
  public:
    /**
     * @param label Launch name.
     * @param input Feature rows to gather from [n x f].
     * @param index Row selector (e.g. edge source nodes), length e.
     * @param output Gathered rows [e x f] (resized by execute()).
     */
    IndexSelectKernel(std::string label, const DenseMatrix &input,
                      const std::vector<int64_t> &index,
                      DenseMatrix &output);

    std::string name() const override { return label; }
    KernelClass kind() const override
    {
        return KernelClass::IndexSelect;
    }
    void execute() override { execute(nullptr); }
    void execute(ThreadPool *workers) override;
    KernelLaunch makeLaunch(DeviceAllocator &alloc) const override;
    std::vector<IoSpan> ioSpans() const override;
    KernelIo io() const override
    {
        return {{&input, &index}, {&output}};
    }

  private:
    std::string label;
    const DenseMatrix &input;
    const std::vector<int64_t> &index;
    DenseMatrix &output;
};

} // namespace gsuite

#endif // GSUITE_KERNELS_INDEXSELECT_HPP
