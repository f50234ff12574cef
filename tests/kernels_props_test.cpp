/**
 * @file
 * Deeper kernel properties: transposed GEMM variants, the extended
 * elementwise family, matrix-valued scatter scaling, and
 * trace-coverage invariants (the store/atomic addresses of a launch
 * must partition the output buffer exactly — no element written
 * twice, none skipped).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "kernels/Elementwise.hpp"
#include "kernels/IndexSelect.hpp"
#include "kernels/Scatter.hpp"
#include "kernels/Sgemm.hpp"
#include "util/Random.hpp"

using namespace gsuite;

namespace {

DenseMatrix
randomMatrix(int64_t r, int64_t c, uint64_t seed)
{
    DenseMatrix m(r, c);
    Rng rng(seed);
    m.fillUniform(rng, -1.0f, 1.0f);
    return m;
}

DenseMatrix
naiveMatmul(const DenseMatrix &a, const DenseMatrix &b, bool ta,
            bool tb)
{
    const int64_t m = ta ? a.cols() : a.rows();
    const int64_t k = ta ? a.rows() : a.cols();
    const int64_t n = tb ? b.rows() : b.cols();
    DenseMatrix c(m, n);
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            double acc = 0;
            for (int64_t kk = 0; kk < k; ++kk) {
                const float av = ta ? a.at(kk, i) : a.at(i, kk);
                const float bv = tb ? b.at(j, kk) : b.at(kk, j);
                acc += static_cast<double>(av) * bv;
            }
            c.at(i, j) = static_cast<float>(acc);
        }
    return c;
}

} // namespace

TEST(SgemmTransposed, TransAMatchesNaive)
{
    const DenseMatrix a = randomMatrix(31, 17, 1); // used as A^T
    const DenseMatrix b = randomMatrix(31, 9, 2);
    DenseMatrix c;
    SgemmKernel k("sg", a, b, c, /*trans_a=*/true);
    k.execute();
    EXPECT_LT(DenseMatrix::maxAbsDiff(c, naiveMatmul(a, b, true,
                                                     false)),
              1e-4);
    EXPECT_EQ(c.rows(), 17);
    EXPECT_EQ(c.cols(), 9);
}

TEST(SgemmTransposed, TransBMatchesNaive)
{
    const DenseMatrix a = randomMatrix(14, 23, 3);
    const DenseMatrix b = randomMatrix(11, 23, 4); // used as B^T
    DenseMatrix c;
    SgemmKernel k("sg", a, b, c, false, /*trans_b=*/true);
    k.execute();
    EXPECT_LT(DenseMatrix::maxAbsDiff(c, naiveMatmul(a, b, false,
                                                     true)),
              1e-4);
    EXPECT_EQ(c.cols(), 11);
}

TEST(SgemmTransposed, BothTransposedMatchesNaive)
{
    const DenseMatrix a = randomMatrix(12, 7, 5);
    const DenseMatrix b = randomMatrix(9, 12, 6);
    DenseMatrix c;
    SgemmKernel k("sg", a, b, c, true, true);
    k.execute();
    EXPECT_LT(
        DenseMatrix::maxAbsDiff(c, naiveMatmul(a, b, true, true)),
        1e-4);
}

TEST(SgemmTransposed, LaunchGeometryUsesEffectiveDims)
{
    const DenseMatrix a = randomMatrix(64, 32, 7); // A^T: 32 x 64
    const DenseMatrix b = randomMatrix(64, 48, 8);
    DenseMatrix c;
    SgemmKernel k("sg", a, b, c, true);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    // m=32, n=48 -> 2 x 3 tiles.
    EXPECT_EQ(l.dims.numCtas, 6);
}

TEST(ElementwiseExtended, LeakyRelu)
{
    DenseMatrix in(1, 3), out;
    in.at(0, 0) = -2.0f;
    in.at(0, 1) = 0.0f;
    in.at(0, 2) = 3.0f;
    ElementwiseKernel k("lr", ElementwiseKernel::EwOp::LeakyRelu, in,
                        out, 0.1f);
    k.execute();
    EXPECT_NEAR(out.at(0, 0), -0.2f, 1e-6f);
    EXPECT_EQ(out.at(0, 1), 0.0f);
    EXPECT_EQ(out.at(0, 2), 3.0f);
}

TEST(ElementwiseExtended, ExpAndRecip)
{
    DenseMatrix in(1, 2), e, r;
    in.at(0, 0) = 0.0f;
    in.at(0, 1) = 1.0f;
    ElementwiseKernel ke("e", ElementwiseKernel::EwOp::Exp, in, e);
    ke.execute();
    EXPECT_NEAR(e.at(0, 0), 1.0f, 1e-6f);
    EXPECT_NEAR(e.at(0, 1), std::exp(1.0f), 1e-5f);
    ElementwiseKernel kr("r", ElementwiseKernel::EwOp::Recip, e, r);
    kr.execute();
    EXPECT_NEAR(r.at(0, 1), 1.0f / std::exp(1.0f), 1e-6f);
}

TEST(ElementwiseExtended, MulAndSub)
{
    DenseMatrix a(2, 2), b(2, 2), m, s;
    a.fill(6.0f);
    b.fill(2.0f);
    ElementwiseKernel km("m", ElementwiseKernel::EwOp::Mul, a, b, m);
    km.execute();
    EXPECT_EQ(m.at(1, 1), 12.0f);
    ElementwiseKernel ks("s", ElementwiseKernel::EwOp::Sub, a, b, s);
    ks.execute();
    EXPECT_EQ(s.at(0, 0), 4.0f);
}

TEST(ElementwiseExtended, ExpTraceUsesSfu)
{
    const DenseMatrix in = randomMatrix(64, 2, 9);
    DenseMatrix out;
    ElementwiseKernel k("e", ElementwiseKernel::EwOp::Exp, in, out);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    WarpTrace t;
    l.buildFullTrace(0, 0, t);
    bool sfu = false;
    for (const auto &i : t.instrs)
        sfu |= i.op == Op::SFU;
    EXPECT_TRUE(sfu);
}

TEST(ScatterMatrixScale, MatchesVectorScale)
{
    const DenseMatrix msg = randomMatrix(40, 3, 10);
    Rng rng(11);
    std::vector<int64_t> dst(40);
    for (auto &d : dst)
        d = static_cast<int64_t>(rng.nextBelow(8));
    std::vector<float> scale_vec(40);
    DenseMatrix scale_mat(40, 1);
    for (int64_t i = 0; i < 40; ++i) {
        scale_vec[static_cast<size_t>(i)] = rng.nextFloat(0.1f, 2.0f);
        scale_mat.at(i, 0) = scale_vec[static_cast<size_t>(i)];
    }
    DenseMatrix out_vec(8, 3), out_mat(8, 3);
    ScatterKernel kv("v", msg, dst, out_vec,
                     ScatterKernel::Reduce::Sum, &scale_vec);
    kv.execute();
    ScatterKernel km("m", msg, dst, out_mat,
                     ScatterKernel::Reduce::Sum, scale_mat);
    km.execute();
    EXPECT_LT(DenseMatrix::maxAbsDiff(out_vec, out_mat), 1e-6);
}

/**
 * Trace-coverage property: across the whole launch, the
 * stores/atomics of indexSelect and scatter must write each output
 * element address exactly once.
 */
TEST(TraceCoverage, IndexSelectStoresPartitionOutput)
{
    const DenseMatrix in = randomMatrix(50, 7, 12);
    Rng rng(13);
    std::vector<int64_t> idx(333);
    for (auto &v : idx)
        v = static_cast<int64_t>(rng.nextBelow(50));
    DenseMatrix out;
    IndexSelectKernel k("is", in, idx, out);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    const uint64_t out_base = alloc.addressOf(out.data());

    std::map<uint64_t, int> writes;
    WarpTrace t;
    for (int64_t cta = 0; cta < l.dims.numCtas; ++cta) {
        for (int w = 0; w < l.dims.warpsPerCta(); ++w) {
            t.clear();
            l.buildFullTrace(cta, w, t);
            for (const auto &in2 : t.instrs)
                if (in2.op == Op::STG)
                    for (uint64_t a : t.addrsOf(in2))
                        ++writes[a];
        }
    }
    EXPECT_EQ(writes.size(), static_cast<size_t>(out.size()));
    for (const auto &[addr, count] : writes) {
        EXPECT_EQ(count, 1);
        EXPECT_GE(addr, out_base);
        EXPECT_LT(addr, out_base + static_cast<uint64_t>(
                                       out.size()) * 4);
    }
}

TEST(TraceCoverage, ScatterAtomicsCoverEveryMessage)
{
    const DenseMatrix msg = randomMatrix(100, 5, 14);
    Rng rng(15);
    std::vector<int64_t> dst(100);
    for (auto &d : dst)
        d = static_cast<int64_t>(rng.nextBelow(20));
    DenseMatrix out(20, 5);
    ScatterKernel k("sc", msg, dst, out);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);

    uint64_t atomic_lanes = 0;
    WarpTrace t;
    for (int64_t cta = 0; cta < l.dims.numCtas; ++cta) {
        for (int w = 0; w < l.dims.warpsPerCta(); ++w) {
            t.clear();
            l.buildFullTrace(cta, w, t);
            for (const auto &in2 : t.instrs)
                if (in2.op == Op::ATOM)
                    atomic_lanes += in2.addrCount;
        }
    }
    // One atomic lane per message element.
    EXPECT_EQ(atomic_lanes, static_cast<uint64_t>(msg.size()));
}

TEST(TraceCoverage, ThreadCountMatchesLaunchDims)
{
    const DenseMatrix in = randomMatrix(30, 4, 16);
    std::vector<int64_t> idx(77, 3);
    DenseMatrix out;
    IndexSelectKernel k("is", in, idx, out);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    // 77 * 4 = 308 output elements over 256-thread CTAs -> 2 CTAs.
    EXPECT_EQ(l.dims.numCtas, 2);
    EXPECT_EQ(l.dims.totalThreads(), 512);
    EXPECT_EQ(l.dims.totalWarps(), 16);
}
