/**
 * @file
 * Tests for the core kernels: functional correctness against direct
 * computation, launch geometry, and trace well-formedness (every
 * warp trace ends in EXIT; memory addresses fall inside mapped
 * buffers).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "kernels/Elementwise.hpp"
#include "kernels/IndexSelect.hpp"
#include "kernels/Scatter.hpp"
#include "kernels/Sgemm.hpp"
#include "kernels/Spgemm.hpp"
#include "kernels/Spmm.hpp"
#include "sparse/Convert.hpp"
#include "sparse/SparseOps.hpp"
#include "tensor/Ops.hpp"
#include "util/Random.hpp"
#include "util/ThreadPool.hpp"

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

/** Walk every warp trace of a launch and check invariants. */
void
checkTraces(const KernelLaunch &launch, int64_t max_ctas = 64)
{
    ASSERT_TRUE(launch.hasTraceGen());
    ASSERT_GT(launch.dims.numCtas, 0);
    WarpTrace t;
    const int64_t ctas = std::min(launch.dims.numCtas, max_ctas);
    for (int64_t cta = 0; cta < ctas; ++cta) {
        for (int w = 0; w < launch.dims.warpsPerCta(); ++w) {
            t.clear();
            launch.buildFullTrace(cta, w, t);
            ASSERT_FALSE(t.instrs.empty());
            EXPECT_EQ(t.instrs.back().op, Op::EXIT);
            for (const SimInstr &in : t.instrs) {
                if (in.addrCount > 0) {
                    EXPECT_TRUE(isGlobalMemOp(in.op));
                    for (uint64_t a : t.addrsOf(in))
                        EXPECT_GE(a, 0x7f0000000000ull)
                            << "address below device base";
                }
            }
        }
    }
}

} // namespace

TEST(IndexSelectKernelTest, GathersRows)
{
    const DenseMatrix in = randomMatrix(10, 5, 1);
    const std::vector<int64_t> idx = {3, 3, 0, 9};
    DenseMatrix out;
    IndexSelectKernel k("is", in, idx, out);
    k.execute();
    ASSERT_EQ(out.rows(), 4);
    ASSERT_EQ(out.cols(), 5);
    for (int64_t i = 0; i < 4; ++i)
        for (int64_t c = 0; c < 5; ++c)
            EXPECT_EQ(out.at(i, c), in.at(idx[static_cast<size_t>(i)],
                                          c));
}

TEST(IndexSelectKernelTest, LaunchGeometry)
{
    const DenseMatrix in = randomMatrix(100, 33, 2);
    std::vector<int64_t> idx(1000, 0);
    DenseMatrix out;
    IndexSelectKernel k("is", in, idx, out);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    EXPECT_EQ(l.kind, KernelClass::IndexSelect);
    EXPECT_EQ(l.dims.numCtas, (1000 * 33 + 255) / 256);
    EXPECT_EQ(l.dims.threadsPerCta, 256);
    checkTraces(l);
}

TEST(IndexSelectKernelTest, NarrowFeatureDivergence)
{
    // f = 1: consecutive threads hit different random rows, so the
    // gather load carries 32 distinct addresses.
    const DenseMatrix in = randomMatrix(4096, 1, 3);
    Rng rng(4);
    std::vector<int64_t> idx(256);
    for (auto &v : idx)
        v = static_cast<int64_t>(rng.nextBelow(4096));
    DenseMatrix out;
    IndexSelectKernel k("is", in, idx, out);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    WarpTrace t;
    l.buildFullTrace(0, 0, t);
    // Find the gather (second load) and count unique sectors.
    int loads = 0;
    for (const SimInstr &in2 : t.instrs) {
        if (in2.op != Op::LDG)
            continue;
        ++loads;
        if (loads == 2) {
            std::unordered_map<uint64_t, int> sectors;
            for (uint64_t a : t.addrsOf(in2))
                ++sectors[a / 32];
            EXPECT_GT(sectors.size(), 8u);
        }
    }
    EXPECT_EQ(loads, 2);
}

TEST(ScatterKernelTest, SumReduction)
{
    DenseMatrix msg(4, 2);
    for (int64_t i = 0; i < 4; ++i)
        for (int64_t c = 0; c < 2; ++c)
            msg.at(i, c) = static_cast<float>(i + 1);
    const std::vector<int64_t> dst = {0, 1, 0, 1};
    DenseMatrix out(2, 2);
    ScatterKernel k("sc", msg, dst, out);
    k.execute();
    EXPECT_EQ(out.at(0, 0), 4.0f); // 1 + 3
    EXPECT_EQ(out.at(1, 0), 6.0f); // 2 + 4
}

TEST(ScatterKernelTest, MaxReduction)
{
    DenseMatrix msg(3, 1);
    msg.at(0, 0) = 5.0f;
    msg.at(1, 0) = 2.0f;
    msg.at(2, 0) = 7.0f;
    const std::vector<int64_t> dst = {0, 0, 0};
    DenseMatrix out(1, 1);
    ScatterKernel k("sc", msg, dst, out,
                    ScatterKernel::Reduce::Max);
    k.execute();
    EXPECT_EQ(out.at(0, 0), 7.0f);
}

TEST(ScatterKernelTest, EdgeScaleIsApplied)
{
    DenseMatrix msg(2, 1);
    msg.at(0, 0) = 2.0f;
    msg.at(1, 0) = 3.0f;
    const std::vector<int64_t> dst = {0, 0};
    const std::vector<float> scale = {0.5f, 2.0f};
    DenseMatrix out(1, 1);
    ScatterKernel k("sc", msg, dst, out, ScatterKernel::Reduce::Sum,
                    &scale);
    k.execute();
    EXPECT_EQ(out.at(0, 0), 7.0f); // 1 + 6
}

TEST(ScatterKernelTest, ZeroesOutputBeforeAccumulating)
{
    DenseMatrix msg(1, 1);
    msg.at(0, 0) = 1.0f;
    const std::vector<int64_t> dst = {0};
    DenseMatrix out(1, 1);
    out.at(0, 0) = 99.0f;
    ScatterKernel k("sc", msg, dst, out);
    k.execute();
    EXPECT_EQ(out.at(0, 0), 1.0f);
}

TEST(ScatterKernelTest, WritesEveryOutputRowWhateverItHeld)
{
    // Pipelines size scatter outputs without writing them, so
    // execute() must write every row, messaged or not, on any lane
    // count: an output filled with NaN must end bit-equal to a zeroed
    // one.
    const int64_t n = 2051, f = 40, e = 6000;
    ASSERT_GE(n * f, kParallelGrain); // four lanes do split the rows
    const DenseMatrix msg = randomMatrix(e, f, 11);
    Rng rng(12);
    std::vector<int64_t> dst(static_cast<size_t>(e));
    for (int64_t &d : dst) // odd rows receive no message
        d = 2 * static_cast<int64_t>(rng.nextBelow(n / 2));
    std::vector<float> scale(static_cast<size_t>(e));
    for (float &x : scale)
        x = rng.nextFloat(-2.0f, 2.0f);

    const std::vector<float> *scales[] = {nullptr, &scale};
    ThreadPool one(1), four(4);
    for (const auto op :
         {ScatterKernel::Reduce::Sum, ScatterKernel::Reduce::Max}) {
        for (const std::vector<float> *s : scales) {
            for (ThreadPool *lanes : {&one, &four}) {
                SCOPED_TRACE(testing::Message()
                             << "max " << (op == ScatterKernel::Reduce::Max)
                             << ", scaled " << (s != nullptr) << ", lanes "
                             << lanes->lanes());
                DenseMatrix zeroed(n, f);
                DenseMatrix poisoned(n, f);
                poisoned.fill(std::numeric_limits<float>::quiet_NaN());
                ScatterKernel("z", msg, dst, zeroed, op, s).execute(lanes);
                ScatterKernel("p", msg, dst, poisoned, op, s)
                    .execute(lanes);
                for (int64_t i = 0; i < n * f; ++i) {
                    ASSERT_EQ(std::bit_cast<uint32_t>(poisoned.data()[i]),
                              std::bit_cast<uint32_t>(zeroed.data()[i]))
                        << "element " << i;
                }
            }
        }
    }
}

TEST(ScatterKernelTest, TraceUsesAtomics)
{
    const DenseMatrix msg = randomMatrix(64, 4, 5);
    std::vector<int64_t> dst(64, 3);
    DenseMatrix out(8, 4);
    ScatterKernel k("sc", msg, dst, out);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    checkTraces(l);
    WarpTrace t;
    l.buildFullTrace(0, 0, t);
    bool has_atomic = false;
    for (const SimInstr &in : t.instrs)
        has_atomic |= in.op == Op::ATOM;
    EXPECT_TRUE(has_atomic);
}

TEST(SgemmKernelTest, MatchesOpsGemm)
{
    const DenseMatrix a = randomMatrix(37, 19, 6);
    const DenseMatrix b = randomMatrix(19, 23, 7);
    DenseMatrix c, ref;
    SgemmKernel k("sg", a, b, c);
    k.execute();
    gemm(a, b, ref);
    EXPECT_LT(DenseMatrix::maxAbsDiff(c, ref), 1e-5);
}

TEST(SgemmKernelTest, TiledLaunchGeometryAndBarriers)
{
    const DenseMatrix a = randomMatrix(33, 40, 8);
    const DenseMatrix b = randomMatrix(40, 17, 9);
    DenseMatrix c;
    SgemmKernel k("sg", a, b, c);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    // ceil(33/16) x ceil(17/16) = 3 x 2.
    EXPECT_EQ(l.dims.numCtas, 6);
    EXPECT_EQ(l.dims.threadsPerCta, 256);
    checkTraces(l);
    WarpTrace t;
    l.buildFullTrace(0, 0, t);
    int bars = 0, fp32 = 0, total = 0;
    for (const SimInstr &in : t.instrs) {
        bars += in.op == Op::BAR;
        fp32 += in.op == Op::FP32;
        ++total;
    }
    // ceil(40/16) = 3 k-tiles, two barriers each.
    EXPECT_EQ(bars, 6);
    // Register-tiled GEMM must be FP32-dominated (Fig. 5).
    EXPECT_GT(static_cast<double>(fp32) / total, 0.45);
}

TEST(SpmmKernelTest, MatchesSparseOps)
{
    Rng rng(10);
    SparseBuilder bld(30, 30);
    for (int64_t r = 0; r < 30; ++r)
        for (int64_t c = 0; c < 30; ++c)
            if (rng.nextBool(0.2))
                bld.add(r, c, rng.nextFloat(-1.0f, 1.0f));
    const CsrMatrix a = bld.finish();
    const DenseMatrix b = randomMatrix(30, 40, 11);
    DenseMatrix c, ref;
    SpmmKernel k("sp", a, b, c);
    k.execute();
    spmm(a, b, ref);
    EXPECT_LT(DenseMatrix::maxAbsDiff(c, ref), 1e-5);

    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    // 30 rows x ceil(40/32)=2 chunks over 8 warps per CTA.
    EXPECT_EQ(l.dims.numCtas, (30 * 2 + 7) / 8);
    checkTraces(l);
}

TEST(SpmmKernelTest, NarrowFeatureHasPartialMask)
{
    SparseBuilder bld(4, 4);
    bld.add(0, 1, 1.0f);
    const CsrMatrix a = bld.finish();
    const DenseMatrix b = randomMatrix(4, 1, 12); // f = 1
    DenseMatrix c;
    SpmmKernel k("sp", a, b, c);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    WarpTrace t;
    l.buildFullTrace(0, 0, t); // row 0 has one nonzero
    bool saw_partial = false;
    for (const SimInstr &in : t.instrs)
        saw_partial |= in.op == Op::STG && in.activeLanes() == 1;
    EXPECT_TRUE(saw_partial);
}

TEST(SpgemmKernelTest, MatchesSparseOps)
{
    Rng rng(13);
    SparseBuilder ba(20, 25), bb(25, 15);
    for (int64_t r = 0; r < 20; ++r)
        for (int64_t c = 0; c < 25; ++c)
            if (rng.nextBool(0.2))
                ba.add(r, c, rng.nextFloat(-1.0f, 1.0f));
    for (int64_t r = 0; r < 25; ++r)
        for (int64_t c = 0; c < 15; ++c)
            if (rng.nextBool(0.2))
                bb.add(r, c, rng.nextFloat(-1.0f, 1.0f));
    const CsrMatrix a = ba.finish();
    const CsrMatrix b = bb.finish();
    CsrMatrix c;
    SpgemmKernel k("spg", a, b, c);
    k.execute();
    EXPECT_LT(csrMaxAbsDiff(c, spgemm(a, b)), 1e-6);

    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    EXPECT_EQ(l.dims.numCtas, (20 + 7) / 8);
    checkTraces(l);
}

TEST(ElementwiseKernelTest, ReluAndSigmoid)
{
    DenseMatrix in(1, 2);
    in.at(0, 0) = -1.0f;
    in.at(0, 1) = 1.0f;
    DenseMatrix out;
    ElementwiseKernel relu_k("r", ElementwiseKernel::EwOp::Relu, in,
                             out);
    relu_k.execute();
    EXPECT_EQ(out.at(0, 0), 0.0f);
    EXPECT_EQ(out.at(0, 1), 1.0f);

    DenseMatrix sig_out;
    ElementwiseKernel sig_k("s", ElementwiseKernel::EwOp::Sigmoid, in,
                            sig_out);
    sig_k.execute();
    EXPECT_NEAR(sig_out.at(0, 1), 1.0f / (1.0f + std::exp(-1.0f)),
                1e-6f);
}

TEST(ElementwiseKernelTest, AddScaledAndRowScale)
{
    DenseMatrix a(2, 2), b(2, 2), out;
    a.fill(1.0f);
    b.fill(3.0f);
    ElementwiseKernel add_k("a", a, b, 2.0f, 1.0f, out);
    add_k.execute();
    EXPECT_EQ(out.at(1, 1), 5.0f);

    const std::vector<float> scale = {2.0f, 0.5f};
    DenseMatrix rs_out;
    ElementwiseKernel rs_k("rs", a, scale, rs_out);
    rs_k.execute();
    EXPECT_EQ(rs_out.at(0, 0), 2.0f);
    EXPECT_EQ(rs_out.at(1, 0), 0.5f);
}

TEST(ElementwiseKernelTest, SigmoidTraceUsesSfu)
{
    const DenseMatrix in = randomMatrix(8, 8, 14);
    DenseMatrix out;
    ElementwiseKernel k("s", ElementwiseKernel::EwOp::Sigmoid, in,
                        out);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    checkTraces(l);
    WarpTrace t;
    l.buildFullTrace(0, 0, t);
    bool has_sfu = false;
    for (const SimInstr &in2 : t.instrs)
        has_sfu |= in2.op == Op::SFU;
    EXPECT_TRUE(has_sfu);
}

TEST(KernelClassTest, ShortForms)
{
    EXPECT_STREQ(kernelClassShortForm(KernelClass::IndexSelect), "is");
    EXPECT_STREQ(kernelClassShortForm(KernelClass::Scatter), "sc");
    EXPECT_STREQ(kernelClassShortForm(KernelClass::Sgemm), "sg");
    EXPECT_STREQ(kernelClassShortForm(KernelClass::SpMM), "sp");
    EXPECT_STREQ(kernelClassName(KernelClass::SpGemm), "SpGEMM");
}
