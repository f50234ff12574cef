#include "kernels/Spmm.hpp"

#include <algorithm>
#include <array>

#include "sparse/SparseOps.hpp"
#include "util/Logging.hpp"

namespace gsuite {

SpmmKernel::SpmmKernel(std::string label, const CsrMatrix &a,
                       const DenseMatrix &b, DenseMatrix &c)
    : label(std::move(label)), a(a), b(b), c(c)
{
}

void
SpmmKernel::execute(ThreadPool *workers)
{
    spmm(a, b, c, workers);
}

KernelLaunch
SpmmKernel::makeLaunch(DeviceAllocator &alloc) const
{
    const int64_t n = a.rows();
    const int64_t f = b.cols();
    const int64_t f_chunks = ceilDiv(std::max<int64_t>(f, 1), 32);
    const int64_t total_warps = n * f_chunks;

    const uint64_t rp_base = alloc.map(
        a.rowPtr.data(), static_cast<uint64_t>(a.rowPtr.size()) * 8);
    const uint64_t ci_base = alloc.map(
        a.colIdx.data(), static_cast<uint64_t>(a.colIdx.size()) * 8);
    const uint64_t va_base =
        a.vals.empty()
            ? ci_base
            : alloc.map(a.vals.data(),
                        static_cast<uint64_t>(a.vals.size()) * 4);
    const uint64_t b_base =
        alloc.map(b.data(), static_cast<uint64_t>(b.size()) * 4);
    const uint64_t c_base =
        alloc.map(c.data(), static_cast<uint64_t>(c.size()) * 4);

    KernelLaunch launch;
    launch.name = label;
    launch.kind = KernelClass::SpMM;
    launch.dims.numCtas = ceilDiv(total_warps, kCtaWarps);
    launch.dims.threadsPerCta = kCtaThreads;

    // Streaming generator: the row loop is resumable so a
    // Reddit-scale row materializes one chunk at a time instead of
    // the whole gather sequence at once.
    const CsrMatrix *acsr = &a;
    launch.streamTrace = [=](int64_t cta, int warp) -> WarpTraceStream {
        const int64_t wg = cta * kCtaWarps + warp;
        if (wg >= total_warps) {
            return [](TraceBuilder &tb) {
                tb.exit();
                return true;
            };
        }
        const int64_t row = wg / f_chunks;
        const int64_t chunk = wg % f_chunks;
        const int lanes =
            static_cast<int>(std::min<int64_t>(32, f - chunk * 32));
        const uint32_t mask = maskOfLanes(std::max(lanes, 1));
        const int64_t end = acsr->rowPtr[static_cast<size_t>(row) + 1];

        struct State {
            bool prologueDone = false;
            int64_t j = 0;
            Reg acc = kNoReg;
        };
        State st;
        st.j = acsr->rowPtr[static_cast<size_t>(row)];

        return [=](TraceBuilder &tb) mutable {
            std::array<uint64_t, 32> addrs{};
            if (!st.prologueDone) {
                tb.aluChain(Op::INT, 2, mask);
                // rowPtr[row], rowPtr[row+1]: one sector, scalar load.
                const std::array<uint64_t, 2> rp = {
                    rp_base + static_cast<uint64_t>(row) * 8,
                    rp_base + static_cast<uint64_t>(row + 1) * 8};
                const Reg rrp = tb.load({rp.data(), rp.size()});
                tb.alu(Op::INT, rrp);
                tb.control(mask);
                st.acc = tb.alu(Op::FP32, kNoReg, kNoReg, mask);
                st.prologueDone = true;
            }
            while (st.j < end && !tb.full()) {
                const int64_t j = st.j++;
                // colIdx[j] and vals[j]: warp-uniform scalar loads.
                const std::array<uint64_t, 1> ca = {
                    ci_base + static_cast<uint64_t>(j) * 8};
                const Reg rc = tb.load({ca.data(), 1});
                const std::array<uint64_t, 1> va = {
                    va_base + static_cast<uint64_t>(j) * 4};
                const Reg rv = tb.load({va.data(), 1});
                // Address math from the loaded column.
                const Reg raddr = tb.alu(Op::INT, rc, kNoReg, mask);
                // Gather the B row chunk (coalesced within the row
                // but the row itself is data-dependent).
                const int64_t col =
                    acsr->colIdx[static_cast<size_t>(j)];
                for (int l = 0; l < lanes; ++l) {
                    addrs[static_cast<size_t>(l)] =
                        b_base +
                        static_cast<uint64_t>(col * f + chunk * 32 +
                                              l) *
                            4;
                }
                const Reg rb = tb.load(
                    {addrs.data(),
                     static_cast<size_t>(std::max(lanes, 1))},
                    raddr);
                Reg prod = tb.alu(Op::FP32, rb, rv, mask);
                st.acc = tb.alu(Op::FP32, st.acc, prod, mask);
                tb.control(mask);
            }
            if (st.j < end)
                return false; // suspended; resume at nonzero j

            // Store the output chunk.
            for (int l = 0; l < lanes; ++l) {
                addrs[static_cast<size_t>(l)] =
                    c_base +
                    static_cast<uint64_t>(row * f + chunk * 32 + l) *
                        4;
            }
            tb.store({addrs.data(),
                      static_cast<size_t>(std::max(lanes, 1))},
                     st.acc);
            tb.exit();
            return true;
        };
    };
    // CTA cost for sampled simulation: each warp group walks one
    // row's nonzeros, so the CTA's trace length is the sum of its
    // rows' degrees.
    launch.ctaCostHint = [=](int64_t cta) -> uint64_t {
        uint64_t cost = 1;
        for (int w = 0; w < kCtaWarps; ++w) {
            const int64_t wg = cta * kCtaWarps + w;
            if (wg >= total_warps)
                break;
            const size_t row =
                static_cast<size_t>(wg / f_chunks);
            cost += static_cast<uint64_t>(acsr->rowPtr[row + 1] -
                                          acsr->rowPtr[row]);
        }
        return cost;
    };
    return launch;
}

std::vector<IoSpan>
SpmmKernel::ioSpans() const
{
    // Mirror makeLaunch()'s map calls exactly: order, pointers and
    // byte sizes. Empty vals alias colIdx's base without a map call.
    std::vector<IoSpan> spans;
    spans.push_back({&a, a.rowPtr.data(),
                     static_cast<uint64_t>(a.rowPtr.size()) * 8});
    spans.push_back({&a, a.colIdx.data(),
                     static_cast<uint64_t>(a.colIdx.size()) * 8});
    if (!a.vals.empty())
        spans.push_back({&a, a.vals.data(),
                         static_cast<uint64_t>(a.vals.size()) * 4});
    spans.push_back(
        {&b, b.data(), static_cast<uint64_t>(b.size()) * 4});
    spans.push_back(
        {&c, c.data(), static_cast<uint64_t>(c.size()) * 4});
    return spans;
}

} // namespace gsuite
