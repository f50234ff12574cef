#include "training/SoftmaxXent.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/Logging.hpp"

namespace gsuite {

SoftmaxXentKernel::SoftmaxXentKernel(std::string label,
                                     const DenseMatrix &logits,
                                     const std::vector<int64_t> &labels,
                                     DenseMatrix &dlogits)
    : label(std::move(label)), logits(logits), labels(labels),
      dlogits(dlogits)
{
}

void
SoftmaxXentKernel::execute()
{
    const int64_t n = logits.rows();
    const int64_t c = logits.cols();
    panicIf(static_cast<int64_t>(labels.size()) != n,
            "label count != node count");
    dlogits.resize(n, c);

    double loss_sum = 0.0;
    int64_t correct = 0;
    for (int64_t i = 0; i < n; ++i) {
        const float *row = logits.rowPtr(i);
        const int64_t y = labels[static_cast<size_t>(i)];
        panicIf(y < 0 || y >= c, "label out of range");

        float max_v = row[0];
        int64_t argmax = 0;
        for (int64_t j = 1; j < c; ++j) {
            if (row[j] > max_v) {
                max_v = row[j];
                argmax = j;
            }
        }
        correct += argmax == y;

        double denom = 0.0;
        for (int64_t j = 0; j < c; ++j)
            denom += std::exp(static_cast<double>(row[j] - max_v));
        const double log_denom = std::log(denom);
        loss_sum -= static_cast<double>(row[y] - max_v) - log_denom;

        float *grad = dlogits.rowPtr(i);
        const float inv_n = 1.0f / static_cast<float>(n);
        for (int64_t j = 0; j < c; ++j) {
            const double p =
                std::exp(static_cast<double>(row[j] - max_v)) / denom;
            grad[j] = (static_cast<float>(p) - (j == y ? 1.0f : 0.0f)) *
                      inv_n;
        }
    }
    lossValue = loss_sum / static_cast<double>(n);
    accValue = static_cast<double>(correct) / static_cast<double>(n);
}

KernelLaunch
SoftmaxXentKernel::makeLaunch(DeviceAllocator &alloc) const
{
    const int64_t n = logits.rows();
    const int64_t c = logits.cols();

    const uint64_t in_base = alloc.map(
        logits.data(), static_cast<uint64_t>(logits.size()) * 4);
    const uint64_t lbl_base =
        alloc.map(labels.data(), static_cast<uint64_t>(n) * 8);
    const uint64_t out_base = alloc.map(
        dlogits.data(), static_cast<uint64_t>(dlogits.size()) * 4);

    KernelLaunch launch;
    launch.name = label;
    launch.kind = KernelClass::Aux;
    launch.dims.numCtas = ceilDiv(n, kCtaThreads);
    launch.dims.threadsPerCta = kCtaThreads;

    // One short chunk per warp: the trace is 6 + 5 * classes
    // instructions, so it is emitted whole.
    launch.streamTrace = [=](int64_t cta, int warp) -> WarpTraceStream {
        return [=](TraceBuilder &b) {
            const int64_t t0 =
                (cta * kCtaWarps + warp) * static_cast<int64_t>(32);
            const int lanes =
                static_cast<int>(std::clamp<int64_t>(n - t0, 0, 32));
            if (lanes == 0) {
                b.exit();
                return true;
            }
            const uint32_t mask = maskOfLanes(lanes);
            std::array<uint64_t, 32> a{};

            // One thread per node (row). Label load is coalesced.
            b.aluChain(Op::INT, 2, mask);
            for (int l = 0; l < lanes; ++l)
                a[static_cast<size_t>(l)] =
                    lbl_base + static_cast<uint64_t>(t0 + l) * 8;
            b.load({a.data(), static_cast<size_t>(lanes)});

            // Pass 1: max + exp-sum over classes (strided row loads).
            Reg acc = b.alu(Op::FP32, kNoReg, kNoReg, mask);
            for (int64_t j = 0; j < c; ++j) {
                for (int l = 0; l < lanes; ++l)
                    a[static_cast<size_t>(l)] =
                        in_base +
                        static_cast<uint64_t>((t0 + l) * c + j) * 4;
                const Reg rv =
                    b.load({a.data(), static_cast<size_t>(lanes)});
                const Reg re = b.alu(Op::SFU, rv, kNoReg, mask);
                acc = b.alu(Op::FP32, acc, re, mask);
            }
            b.control(mask);
            // Pass 2: normalized gradient store per class.
            for (int64_t j = 0; j < c; ++j) {
                const Reg g = b.alu(Op::FP32, acc, kNoReg, mask);
                for (int l = 0; l < lanes; ++l)
                    a[static_cast<size_t>(l)] =
                        out_base +
                        static_cast<uint64_t>((t0 + l) * c + j) * 4;
                b.store({a.data(), static_cast<size_t>(lanes)}, g);
            }
            b.exit();
            return true;
        };
    };
    return launch;
}

} // namespace gsuite
