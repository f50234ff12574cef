#include "kernels/Scatter.hpp"

#include <algorithm>
#include <array>
#include <atomic>

#include "util/Logging.hpp"
#include "util/ThreadPool.hpp"

namespace gsuite {

ScatterKernel::ScatterKernel(std::string label,
                             const DenseMatrix &messages,
                             const std::vector<int64_t> &index,
                             DenseMatrix &output, Reduce op,
                             const std::vector<float> *edge_scale)
    : label(std::move(label)), messages(messages), index(index),
      output(output), op(op), edgeScale(edge_scale)
{
}

ScatterKernel::ScatterKernel(std::string label,
                             const DenseMatrix &messages,
                             const std::vector<int64_t> &index,
                             DenseMatrix &output, Reduce op,
                             const DenseMatrix &edge_scale_mat)
    : label(std::move(label)), messages(messages), index(index),
      output(output), op(op), edgeScaleMat(&edge_scale_mat)
{
}

float
ScatterKernel::scaleOf(int64_t i) const
{
    if (edgeScale)
        return (*edgeScale)[static_cast<size_t>(i)];
    if (edgeScaleMat)
        return edgeScaleMat->data()[i];
    return 1.0f;
}

void
ScatterKernel::execute(ThreadPool *workers)
{
    const int64_t e = static_cast<int64_t>(index.size());
    const int64_t f = messages.cols();
    const int64_t n = output.rows();
    panicIf(messages.rows() != e, "scatter message/index mismatch");
    panicIf(output.cols() != f, "scatter output width mismatch");
    panicIf(edgeScale && static_cast<int64_t>(edgeScale->size()) != e,
            "scatter edge-scale length mismatch");
    panicIf(edgeScaleMat && edgeScaleMat->size() != e,
            "scatter edge-scale matrix size mismatch");
    // Lanes only flag a bad destination; the panic happens on the
    // caller.
    std::atomic<bool> outOfRange{false};
    forEachRowRange(workers, n, f, [&](int64_t r0, int64_t r1) {
        std::fill(output.rowPtr(r0), output.rowPtr(r1), 0.0f);
        for (int64_t i = 0; i < e; ++i) {
            const int64_t row = index[static_cast<size_t>(i)];
            if (row < r0 || row >= r1) {
                if (row < 0 || row >= n)
                    outOfRange.store(true, std::memory_order_relaxed);
                continue;
            }
            const float scale = scaleOf(i);
            const float *src = messages.rowPtr(i);
            float *dst = output.rowPtr(row);
            if (op == Reduce::Sum) {
                for (int64_t c = 0; c < f; ++c)
                    dst[c] += src[c] * scale;
            } else {
                for (int64_t c = 0; c < f; ++c)
                    dst[c] = std::max(dst[c], src[c] * scale);
            }
        }
    });
    panicIf(outOfRange.load(), "scatter destination out of range");
}

KernelLaunch
ScatterKernel::makeLaunch(DeviceAllocator &alloc) const
{
    const int64_t e = static_cast<int64_t>(index.size());
    const int64_t f = messages.cols();
    const int64_t total = e * f;

    const uint64_t idx_base =
        alloc.map(index.data(), static_cast<uint64_t>(e) * 8);
    const uint64_t msg_base = alloc.map(
        messages.data(), static_cast<uint64_t>(messages.size()) * 4);
    const uint64_t out_base = alloc.map(
        output.data(), static_cast<uint64_t>(output.size()) * 4);
    uint64_t scale_base = 0;
    if (edgeScale)
        scale_base = alloc.map(edgeScale->data(),
                               static_cast<uint64_t>(e) * 4);
    else if (edgeScaleMat)
        scale_base = alloc.map(edgeScaleMat->data(),
                               static_cast<uint64_t>(e) * 4);

    KernelLaunch launch;
    launch.name = label;
    launch.kind = KernelClass::Scatter;
    launch.dims.numCtas = ceilDiv(total, kCtaThreads);
    launch.dims.threadsPerCta = kCtaThreads;

    // Streaming generator: a scatter warp's trace is a short fixed
    // sequence, so the whole warp fits one chunk (single-call
    // stream).
    const std::vector<int64_t> *idx = &index;
    const bool scaled = this->scaled();
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

        b.aluChain(Op::INT, 3, mask);

        std::array<uint64_t, 32> a{};
        // Load destination index.
        for (int l = 0; l < lanes; ++l) {
            a[static_cast<size_t>(l)] =
                idx_base + static_cast<uint64_t>((t0 + l) / f) * 8;
        }
        const Reg ridx = b.load({a.data(), static_cast<size_t>(lanes)});

        // Load the message value (coalesced).
        for (int l = 0; l < lanes; ++l) {
            a[static_cast<size_t>(l)] =
                msg_base + static_cast<uint64_t>(t0 + l) * 4;
        }
        Reg rval = b.load({a.data(), static_cast<size_t>(lanes)});

        if (scaled) {
            for (int l = 0; l < lanes; ++l) {
                a[static_cast<size_t>(l)] =
                    scale_base +
                    static_cast<uint64_t>((t0 + l) / f) * 4;
            }
            const Reg rscale =
                b.load({a.data(), static_cast<size_t>(lanes)});
            rval = b.alu(Op::FP32, rval, rscale, mask);
        }

        // Address from the loaded index, then the atomic reduction.
        const Reg raddr = b.alu(Op::INT, ridx, kNoReg, mask);
        (void)raddr;
        for (int l = 0; l < lanes; ++l) {
            const int64_t t = t0 + l;
            const int64_t row = (*idx)[static_cast<size_t>(t / f)];
            a[static_cast<size_t>(l)] =
                out_base + static_cast<uint64_t>(row * f + t % f) * 4;
        }
        b.atomic({a.data(), static_cast<size_t>(lanes)}, rval);
        b.exit();
        return true;
        };
    };
    return launch;
}

std::vector<IoSpan>
ScatterKernel::ioSpans() const
{
    // Mirror makeLaunch()'s map calls exactly: index, messages,
    // output, then the optional per-edge scale operand.
    const uint64_t e = static_cast<uint64_t>(index.size());
    std::vector<IoSpan> spans{
        {&index, index.data(), e * 8},
        {&messages, messages.data(),
         static_cast<uint64_t>(messages.size()) * 4},
        {&output, output.data(),
         static_cast<uint64_t>(output.size()) * 4}};
    if (edgeScale)
        spans.push_back({edgeScale, edgeScale->data(), e * 4});
    else if (edgeScaleMat)
        spans.push_back({edgeScaleMat, edgeScaleMat->data(), e * 4});
    return spans;
}

} // namespace gsuite
