#include "kernels/Elementwise.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "tensor/Ops.hpp"
#include "util/Logging.hpp"
#include "util/ThreadPool.hpp"

namespace gsuite {

ElementwiseKernel::ElementwiseKernel(std::string label, EwOp op,
                                     const DenseMatrix &in,
                                     DenseMatrix &out, float alpha)
    : label(std::move(label)), op(op), inA(in), alpha(alpha), out(out)
{
    panicIf(op != EwOp::Relu && op != EwOp::Sigmoid &&
                op != EwOp::LeakyRelu && op != EwOp::Exp &&
                op != EwOp::Recip,
            "unary constructor used with a non-unary op");
}

ElementwiseKernel::ElementwiseKernel(std::string label, EwOp op,
                                     const DenseMatrix &in_a,
                                     const DenseMatrix &in_b,
                                     DenseMatrix &out)
    : label(std::move(label)), op(op), inA(in_a), inB(&in_b), out(out)
{
    panicIf(op != EwOp::ReluGrad && op != EwOp::Mul && op != EwOp::Sub,
            "binary constructor used with a non-binary op");
}

ElementwiseKernel::ElementwiseKernel(std::string label,
                                     const DenseMatrix &in_a,
                                     const DenseMatrix &in_b,
                                     float alpha, float beta,
                                     DenseMatrix &out)
    : label(std::move(label)), op(EwOp::AddScaled), inA(in_a),
      inB(&in_b), alpha(alpha), beta(beta), out(out)
{
}

ElementwiseKernel::ElementwiseKernel(std::string label,
                                     const DenseMatrix &in,
                                     const std::vector<float> &row_vec,
                                     DenseMatrix &out)
    : label(std::move(label)), op(EwOp::RowScale), inA(in),
      rowVec(&row_vec), out(out)
{
}

void
ElementwiseKernel::execute(ThreadPool *workers)
{
    // out[i] = fn(i) over every element, flat ranges split over the
    // workers; the out-of-place forms size out without writing it.
    const auto forEach = [&](auto &&fn) {
        forEachRowRange(workers, inA.size(), 1,
                        [&](int64_t b, int64_t e) {
                            for (int64_t i = b; i < e; ++i)
                                fn(i);
                        });
    };
    const float *x = inA.data();
    switch (op) {
      case EwOp::Relu:
        relu(inA, out, workers);
        return;
      case EwOp::Sigmoid:
        sigmoid(inA, out, workers);
        return;
      case EwOp::AddScaled:
        addScaled(inA, *inB, alpha, beta, out, workers);
        return;
      case EwOp::RowScale:
        scaleRows(inA, *rowVec, out, workers);
        return;
      case EwOp::LeakyRelu:
      case EwOp::Exp:
      case EwOp::Recip: {
        if (&out != &inA)
            out.resizeForOverwrite(inA.rows(), inA.cols());
        float *o = out.data();
        if (op == EwOp::LeakyRelu)
            forEach([&](int64_t i) {
                o[i] = x[i] > 0.0f ? x[i] : alpha * x[i];
            });
        else if (op == EwOp::Exp)
            forEach([&](int64_t i) { o[i] = std::exp(x[i]); });
        else
            forEach([&](int64_t i) { o[i] = 1.0f / x[i]; });
        return;
      }
      case EwOp::ReluGrad:
      case EwOp::Mul:
      case EwOp::Sub: {
        if (inA.rows() != inB->rows() || inA.cols() != inB->cols())
            fatal("binary elementwise shape mismatch");
        if (&out != &inA && &out != inB)
            out.resizeForOverwrite(inA.rows(), inA.cols());
        const float *q = inB->data();
        float *o = out.data();
        if (op == EwOp::ReluGrad)
            forEach([&](int64_t i) { o[i] = q[i] > 0.0f ? x[i] : 0.0f; });
        else if (op == EwOp::Mul)
            forEach([&](int64_t i) { o[i] = x[i] * q[i]; });
        else
            forEach([&](int64_t i) { o[i] = x[i] - q[i]; });
        return;
      }
    }
}

KernelLaunch
ElementwiseKernel::makeLaunch(DeviceAllocator &alloc) const
{
    const int64_t f = inA.cols();
    const int64_t total = inA.size();

    const uint64_t in_base =
        alloc.map(inA.data(), static_cast<uint64_t>(inA.size()) * 4);
    const uint64_t in2_base =
        inB ? alloc.map(inB->data(),
                        static_cast<uint64_t>(inB->size()) * 4)
            : 0;
    const uint64_t vec_base =
        rowVec ? alloc.map(rowVec->data(),
                           static_cast<uint64_t>(rowVec->size()) * 4)
               : 0;
    const uint64_t out_base =
        alloc.map(out.data(), static_cast<uint64_t>(out.size()) * 4);

    KernelLaunch launch;
    launch.name = label;
    launch.kind = KernelClass::Elementwise;
    launch.dims.numCtas = ceilDiv(std::max<int64_t>(total, 1),
                                  kCtaThreads);
    launch.dims.threadsPerCta = kCtaThreads;
    launch.bytesEstimate = static_cast<uint64_t>(total) * 8;

    // Streaming generator: short fixed per-warp sequence, one chunk.
    const EwOp kind_op = op;
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
        b.aluChain(Op::INT, 2, mask);

        std::array<uint64_t, 32> a{};
        for (int l = 0; l < lanes; ++l)
            a[static_cast<size_t>(l)] =
                in_base + static_cast<uint64_t>(t0 + l) * 4;
        Reg rv = b.load({a.data(), static_cast<size_t>(lanes)});

        switch (kind_op) {
          case EwOp::Relu:
          case EwOp::LeakyRelu:
            rv = b.alu(Op::FP32, rv, kNoReg, mask);
            break;
          case EwOp::Sigmoid: {
            const Reg re = b.alu(Op::SFU, rv, kNoReg, mask);
            rv = b.alu(Op::FP32, re, kNoReg, mask);
            break;
          }
          case EwOp::Exp:
          case EwOp::Recip:
            rv = b.alu(Op::SFU, rv, kNoReg, mask);
            break;
          case EwOp::AddScaled:
          case EwOp::ReluGrad:
          case EwOp::Mul:
          case EwOp::Sub: {
            for (int l = 0; l < lanes; ++l)
                a[static_cast<size_t>(l)] =
                    in2_base + static_cast<uint64_t>(t0 + l) * 4;
            const Reg r2 =
                b.load({a.data(), static_cast<size_t>(lanes)});
            const Reg s1 = b.alu(Op::FP32, rv, kNoReg, mask);
            rv = b.alu(Op::FP32, s1, r2, mask);
            break;
          }
          case EwOp::RowScale: {
            for (int l = 0; l < lanes; ++l)
                a[static_cast<size_t>(l)] =
                    vec_base +
                    static_cast<uint64_t>((t0 + l) / f) * 4;
            const Reg rs =
                b.load({a.data(), static_cast<size_t>(lanes)});
            rv = b.alu(Op::FP32, rv, rs, mask);
            break;
          }
        }

        for (int l = 0; l < lanes; ++l)
            a[static_cast<size_t>(l)] =
                out_base + static_cast<uint64_t>(t0 + l) * 4;
        b.store({a.data(), static_cast<size_t>(lanes)}, rv);
        b.exit();
        return true;
        };
    };
    return launch;
}

std::vector<IoSpan>
ElementwiseKernel::ioSpans() const
{
    // Mirror makeLaunch()'s map calls exactly: inA, optional inB and
    // rowVec, then out.
    std::vector<IoSpan> spans;
    spans.push_back(
        {&inA, inA.data(), static_cast<uint64_t>(inA.size()) * 4});
    if (inB)
        spans.push_back({inB, inB->data(),
                         static_cast<uint64_t>(inB->size()) * 4});
    if (rowVec)
        spans.push_back(
            {rowVec, rowVec->data(),
             static_cast<uint64_t>(rowVec->size()) * 4});
    spans.push_back(
        {&out, out.data(), static_cast<uint64_t>(out.size()) * 4});
    return spans;
}

} // namespace gsuite
