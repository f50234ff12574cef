#include "kernels/Sgemm.hpp"

#include <algorithm>
#include <array>

#include "tensor/Ops.hpp"
#include "util/Logging.hpp"

namespace gsuite {

SgemmKernel::SgemmKernel(std::string label, const DenseMatrix &a,
                         const DenseMatrix &b, DenseMatrix &c,
                         bool trans_a, bool trans_b)
    : label(std::move(label)), a(a), b(b), c(c), transA(trans_a),
      transB(trans_b)
{
}

void
SgemmKernel::execute(ThreadPool *workers)
{
    if (!transA && !transB) {
        gemm(a, b, c, 1.0f, 0.0f, workers);
        return;
    }
    const int64_t m = dimM();
    const int64_t k = dimK();
    const int64_t n = dimN();
    if (dimK() != (transB ? b.cols() : b.rows()))
        fatal("sgemm inner dimension mismatch under transposition");
    c.resize(m, n);
    // Generic transposed path: k-outer loop keeps the inner access
    // streaming over C rows.
    for (int64_t kk = 0; kk < k; ++kk) {
        for (int64_t i = 0; i < m; ++i) {
            const float av = transA ? a.at(kk, i) : a.at(i, kk);
            if (av == 0.0f)
                continue;
            float *crow = c.rowPtr(i);
            if (transB) {
                for (int64_t j = 0; j < n; ++j)
                    crow[j] += av * b.at(j, kk);
            } else {
                const float *brow = b.rowPtr(kk);
                for (int64_t j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
    }
}

KernelLaunch
SgemmKernel::makeLaunch(DeviceAllocator &alloc) const
{
    const int64_t m = dimM();
    const int64_t k = dimK();
    const int64_t n = dimN();
    const int64_t a_cols = a.cols();
    const int64_t b_cols = b.cols();

    const uint64_t a_base =
        alloc.map(a.data(), static_cast<uint64_t>(a.size()) * 4);
    const uint64_t b_base =
        alloc.map(b.data(), static_cast<uint64_t>(b.size()) * 4);
    const uint64_t c_base =
        alloc.map(c.data(), static_cast<uint64_t>(c.size()) * 4);

    const int64_t cta_x = ceilDiv(n, kTile); // tiles along columns
    const int64_t cta_y = ceilDiv(m, kTile); // tiles along rows
    const int64_t k_tiles = ceilDiv(std::max<int64_t>(k, 1), kTile);

    KernelLaunch launch;
    launch.name = label;
    launch.kind = KernelClass::Sgemm;
    launch.dims.numCtas = cta_x * cta_y;
    launch.dims.threadsPerCta = kTile * kTile; // 256 = 8 warps
    launch.flopEstimate = static_cast<uint64_t>(2) *
                          static_cast<uint64_t>(m) *
                          static_cast<uint64_t>(n) *
                          static_cast<uint64_t>(k);
    launch.bytesEstimate =
        static_cast<uint64_t>(m * k + k * n + m * n) * 4;

    // Storage offsets under optional transposition: transposed
    // operands produce the strided (column-wise) access pattern a
    // real transposed-GEMM kernel would issue.
    const bool ta = transA;
    const bool tb = transB;
    auto a_off = [ta, a_cols](int64_t row, int64_t kk) {
        return ta ? kk * a_cols + row : row * a_cols + kk;
    };
    auto b_off = [tb, b_cols](int64_t kk, int64_t col) {
        return tb ? col * b_cols + kk : kk * b_cols + col;
    };

    // Streaming generator: resumable over k-tiles, so deep GEMMs
    // keep O(chunk) resident trace instead of O(k) tile bodies.
    launch.streamTrace = [=](int64_t cta, int warp) -> WarpTraceStream {
        const int64_t by = cta / cta_x;
        const int64_t bx = cta % cta_x;

        struct State {
            bool prologueDone = false;
            int64_t t = 0;
            Reg acc = kNoReg;
        };
        State st;

        return [=](TraceBuilder &b2) mutable {
        // Warp covers two consecutive tile rows: lanes 0..15 row 2w,
        // lanes 16..31 row 2w+1.
        std::array<uint64_t, 32> addrs{};

        if (!st.prologueDone) {
            st.acc = b2.alu(Op::FP32); // accumulator init
            st.prologueDone = true;
        }
        Reg acc = st.acc;
        while (st.t < k_tiles && !b2.full()) {
            const int64_t t = st.t++;
            // Load the A sub-tile: op(A)[by*16 + ty][t*16 + tx].
            int cnt = 0;
            for (int l = 0; l < 32; ++l) {
                const int64_t ty = 2 * warp + l / kTile;
                const int64_t tx = l % kTile;
                const int64_t row = by * kTile + ty;
                const int64_t col = t * kTile + tx;
                if (row < m && col < k)
                    addrs[static_cast<size_t>(cnt++)] =
                        a_base +
                        static_cast<uint64_t>(a_off(row, col)) * 4;
            }
            if (cnt > 0) {
                const Reg ra =
                    b2.load({addrs.data(), static_cast<size_t>(cnt)});
                b2.sharedStore(ra);
            }
            // Load the B sub-tile: op(B)[t*16 + ty][bx*16 + tx].
            cnt = 0;
            for (int l = 0; l < 32; ++l) {
                const int64_t ty = 2 * warp + l / kTile;
                const int64_t tx = l % kTile;
                const int64_t row = t * kTile + ty;
                const int64_t col = bx * kTile + tx;
                if (row < k && col < n)
                    addrs[static_cast<size_t>(cnt++)] =
                        b_base +
                        static_cast<uint64_t>(b_off(row, col)) * 4;
            }
            if (cnt > 0) {
                const Reg rb =
                    b2.load({addrs.data(), static_cast<size_t>(cnt)});
                b2.sharedStore(rb);
            }
            b2.barrier();
            // Inner product over the 16-wide tile with register
            // tiling: operands are staged from shared memory into
            // registers in groups of four, so the steady state is
            // FMA-dominated like a real SASS GEMM.
            Reg staged = kNoReg;
            for (int kk = 0; kk < kTile; ++kk) {
                if (kk % 4 == 0)
                    staged = b2.sharedLoad();
                acc = b2.alu(Op::FP32, staged, acc);
            }
            b2.barrier();
            b2.control();
        }
        st.acc = acc;
        if (st.t < k_tiles)
            return false; // suspended; resume at tile st.t

        // Epilogue: store the C element of each thread.
        int cnt = 0;
        for (int l = 0; l < 32; ++l) {
            const int64_t ty = 2 * warp + l / kTile;
            const int64_t tx = l % kTile;
            const int64_t row = by * kTile + ty;
            const int64_t col = bx * kTile + tx;
            if (row < m && col < n)
                addrs[static_cast<size_t>(cnt++)] =
                    c_base + static_cast<uint64_t>(row * n + col) * 4;
        }
        if (cnt > 0)
            b2.store({addrs.data(), static_cast<size_t>(cnt)}, acc);
        b2.exit();
        return true;
        };
    };
    return launch;
}

std::vector<IoSpan>
SgemmKernel::ioSpans() const
{
    // Mirror makeLaunch()'s map calls exactly: a, b, c, 4B floats.
    return {{&a, a.data(), static_cast<uint64_t>(a.size()) * 4},
            {&b, b.data(), static_cast<uint64_t>(b.size()) * 4},
            {&c, c.data(), static_cast<uint64_t>(c.size()) * 4}};
}

} // namespace gsuite
