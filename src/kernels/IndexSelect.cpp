#include "kernels/IndexSelect.hpp"

#include <algorithm>
#include <array>
#include <atomic>

#include "util/Logging.hpp"
#include "util/ThreadPool.hpp"

namespace gsuite {

IndexSelectKernel::IndexSelectKernel(std::string label,
                                     const DenseMatrix &input,
                                     const std::vector<int64_t> &index,
                                     DenseMatrix &output)
    : label(std::move(label)), input(input), index(index), output(output)
{
}

void
IndexSelectKernel::execute(ThreadPool *workers)
{
    const int64_t e = static_cast<int64_t>(index.size());
    const int64_t f = input.cols();
    const int64_t n = input.rows();
    output.resizeForOverwrite(e, f);
    // Lanes only flag a bad row; the panic happens on the caller.
    std::atomic<bool> outOfRange{false};
    forEachRowRange(workers, e, f, [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
            const int64_t row = index[static_cast<size_t>(i)];
            if (row < 0 || row >= n) {
                outOfRange.store(true, std::memory_order_relaxed);
                continue;
            }
            const float *src = input.rowPtr(row);
            std::copy(src, src + f, output.rowPtr(i));
        }
    });
    panicIf(outOfRange.load(), "indexSelect row out of range");
}

KernelLaunch
IndexSelectKernel::makeLaunch(DeviceAllocator &alloc) const
{
    const int64_t e = static_cast<int64_t>(index.size());
    const int64_t f = input.cols();
    const int64_t total = e * f;

    const uint64_t idx_base =
        alloc.map(index.data(), static_cast<uint64_t>(e) * 8);
    const uint64_t in_base = alloc.map(
        input.data(), static_cast<uint64_t>(input.size()) * 4);
    const uint64_t out_base = alloc.map(
        output.data(), static_cast<uint64_t>(output.size()) * 4);

    KernelLaunch launch;
    launch.name = label;
    launch.kind = KernelClass::IndexSelect;
    launch.dims.numCtas = ceilDiv(total, kCtaThreads);
    launch.dims.threadsPerCta = kCtaThreads;
    launch.bytesEstimate = static_cast<uint64_t>(total) * 8 +
                           static_cast<uint64_t>(e) * 8;

    // Streaming generator: short fixed per-warp sequence, one chunk.
    const std::vector<int64_t> *idx = &index;
    launch.streamTrace = [=](int64_t cta, int warp) -> WarpTraceStream {
        return [=](TraceBuilder &b) {
        const int64_t t0 =
            (cta * kCtaWarps + warp) * static_cast<int64_t>(32);
        const int lanes =
            static_cast<int>(std::clamp<int64_t>(total - t0, 0, 32));
        if (lanes == 0) {
            b.exit();
            return true;
        }
        const uint32_t mask = maskOfLanes(lanes);

        // Thread-id / row / column arithmetic.
        b.aluChain(Op::INT, 3, mask);

        // Load index[i] (8-byte entries, coalesced for f >= 32 since
        // consecutive threads share a row; strided otherwise).
        std::array<uint64_t, 32> a{};
        for (int l = 0; l < lanes; ++l) {
            const int64_t t = t0 + l;
            a[static_cast<size_t>(l)] =
                idx_base + static_cast<uint64_t>(t / f) * 8;
        }
        const Reg ridx = b.load({a.data(), static_cast<size_t>(lanes)});

        // Address computation from the loaded index.
        const Reg raddr = b.alu(Op::INT, ridx, kNoReg, mask);

        // The irregular gather: input[index[i]][c].
        for (int l = 0; l < lanes; ++l) {
            const int64_t t = t0 + l;
            const int64_t row = (*idx)[static_cast<size_t>(t / f)];
            a[static_cast<size_t>(l)] =
                in_base +
                static_cast<uint64_t>(row * f + t % f) * 4;
        }
        const Reg rval =
            b.load({a.data(), static_cast<size_t>(lanes)}, raddr);

        // Coalesced output store.
        for (int l = 0; l < lanes; ++l) {
            a[static_cast<size_t>(l)] =
                out_base + static_cast<uint64_t>(t0 + l) * 4;
        }
        b.store({a.data(), static_cast<size_t>(lanes)}, rval);
        b.exit();
        return true;
        };
    };
    return launch;
}

std::vector<IoSpan>
IndexSelectKernel::ioSpans() const
{
    // Mirror makeLaunch()'s map calls exactly — note the index is
    // mapped FIRST, unlike io()'s read-list order.
    const uint64_t e = static_cast<uint64_t>(index.size());
    return {{&index, index.data(), e * 8},
            {&input, input.data(),
             static_cast<uint64_t>(input.size()) * 4},
            {&output, output.data(),
             static_cast<uint64_t>(output.size()) * 4}};
}

} // namespace gsuite
