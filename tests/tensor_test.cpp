/**
 * @file
 * Unit tests for the tensor module: DenseMatrix and dense ops,
 * including a property check of the blocked GEMM against a naive
 * triple loop.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/DenseMatrix.hpp"
#include "tensor/Ops.hpp"
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
naiveMatmul(const DenseMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.rows(), b.cols());
    for (int64_t i = 0; i < a.rows(); ++i)
        for (int64_t j = 0; j < b.cols(); ++j) {
            double acc = 0;
            for (int64_t k = 0; k < a.cols(); ++k)
                acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
            c.at(i, j) = static_cast<float>(acc);
        }
    return c;
}

} // namespace

TEST(DenseMatrix, ShapeAndZeroInit)
{
    DenseMatrix m(3, 5);
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 5);
    EXPECT_EQ(m.size(), 15);
    for (int64_t i = 0; i < 3; ++i)
        for (int64_t j = 0; j < 5; ++j)
            EXPECT_EQ(m.at(i, j), 0.0f);
}

TEST(DenseMatrix, FillAndAt)
{
    DenseMatrix m(2, 2);
    m.fill(3.0f);
    m.at(1, 0) = -1.0f;
    EXPECT_EQ(m.at(0, 0), 3.0f);
    EXPECT_EQ(m.at(1, 0), -1.0f);
    EXPECT_EQ(m.rowPtr(1)[0], -1.0f);
}

TEST(DenseMatrix, GlorotBounds)
{
    DenseMatrix m(64, 64);
    Rng rng(1);
    m.fillGlorot(rng);
    const float bound = std::sqrt(6.0f / 128.0f);
    for (int64_t i = 0; i < m.size(); ++i) {
        EXPECT_LE(std::fabs(m.data()[i]), bound);
    }
}

TEST(DenseMatrix, MaxAbsDiffAndAllClose)
{
    DenseMatrix a(2, 2), b(2, 2);
    a.at(0, 1) = 1.0f;
    b.at(0, 1) = 1.5f;
    EXPECT_DOUBLE_EQ(DenseMatrix::maxAbsDiff(a, b), 0.5);
    EXPECT_FALSE(DenseMatrix::allClose(a, b, 0.4));
    EXPECT_TRUE(DenseMatrix::allClose(a, b, 0.6));
    DenseMatrix c(2, 3);
    EXPECT_FALSE(DenseMatrix::allClose(a, c));
}

TEST(DenseMatrix, ResizeZeroes)
{
    DenseMatrix m(1, 1);
    m.at(0, 0) = 5.0f;
    m.resize(2, 2);
    EXPECT_EQ(m.rows(), 2);
    EXPECT_EQ(m.at(0, 0), 0.0f);
}

TEST(Gemm, MatchesNaiveTripleLoop)
{
    const DenseMatrix a = randomMatrix(33, 47, 1);
    const DenseMatrix b = randomMatrix(47, 21, 2);
    DenseMatrix c;
    gemm(a, b, c);
    const DenseMatrix ref = naiveMatmul(a, b);
    EXPECT_LT(DenseMatrix::maxAbsDiff(c, ref), 1e-4);
}

TEST(Gemm, AlphaScales)
{
    const DenseMatrix a = randomMatrix(8, 8, 3);
    const DenseMatrix b = randomMatrix(8, 8, 4);
    DenseMatrix c1, c2;
    gemm(a, b, c1, 1.0f);
    gemm(a, b, c2, 2.0f);
    for (int64_t i = 0; i < c1.size(); ++i)
        EXPECT_NEAR(2.0f * c1.data()[i], c2.data()[i], 1e-4f);
}

TEST(Gemm, BetaAccumulates)
{
    const DenseMatrix a = randomMatrix(6, 5, 5);
    const DenseMatrix b = randomMatrix(5, 4, 6);
    DenseMatrix c(6, 4);
    c.fill(1.0f);
    gemm(a, b, c, 1.0f, 1.0f);
    const DenseMatrix ref = naiveMatmul(a, b);
    for (int64_t i = 0; i < 6; ++i)
        for (int64_t j = 0; j < 4; ++j)
            EXPECT_NEAR(c.at(i, j), ref.at(i, j) + 1.0f, 1e-4f);
}

TEST(Gemm, IdentityIsNeutral)
{
    const DenseMatrix a = randomMatrix(9, 9, 7);
    DenseMatrix eye(9, 9);
    for (int64_t i = 0; i < 9; ++i)
        eye.at(i, i) = 1.0f;
    DenseMatrix c;
    gemm(a, eye, c);
    EXPECT_LT(DenseMatrix::maxAbsDiff(a, c), 1e-6);
}

TEST(Gemm, EmptyInnerDimensionGivesZero)
{
    DenseMatrix a(3, 0), b(0, 2), c;
    gemm(a, b, c);
    EXPECT_EQ(c.rows(), 3);
    EXPECT_EQ(c.cols(), 2);
    for (int64_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(c.data()[i], 0.0f);
}

TEST(Relu, ClampsNegatives)
{
    DenseMatrix m(1, 4);
    m.at(0, 0) = -2.0f;
    m.at(0, 1) = 0.0f;
    m.at(0, 2) = 3.0f;
    m.at(0, 3) = -0.1f;
    DenseMatrix out;
    relu(m, out);
    EXPECT_EQ(out.at(0, 0), 0.0f);
    EXPECT_EQ(out.at(0, 1), 0.0f);
    EXPECT_EQ(out.at(0, 2), 3.0f);
    EXPECT_EQ(out.at(0, 3), 0.0f);
}

TEST(Relu, InPlaceAliasing)
{
    DenseMatrix m(1, 2);
    m.at(0, 0) = -1.0f;
    m.at(0, 1) = 2.0f;
    relu(m, m);
    EXPECT_EQ(m.at(0, 0), 0.0f);
    EXPECT_EQ(m.at(0, 1), 2.0f);
}

TEST(Sigmoid, KnownValues)
{
    DenseMatrix m(1, 3);
    m.at(0, 0) = 0.0f;
    m.at(0, 1) = 100.0f;
    m.at(0, 2) = -100.0f;
    DenseMatrix out;
    sigmoid(m, out);
    EXPECT_NEAR(out.at(0, 0), 0.5f, 1e-6f);
    EXPECT_NEAR(out.at(0, 1), 1.0f, 1e-6f);
    EXPECT_NEAR(out.at(0, 2), 0.0f, 1e-6f);
}

TEST(AddScaled, LinearCombination)
{
    DenseMatrix a(2, 2), b(2, 2), out;
    a.fill(1.0f);
    b.fill(2.0f);
    addScaled(a, b, 3.0f, -1.0f, out);
    for (int64_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out.data()[i], 1.0f);
}

TEST(ScaleRows, PerRowFactors)
{
    DenseMatrix m(2, 3);
    m.fill(1.0f);
    scaleRows(m, {2.0f, 0.5f}, m);
    EXPECT_EQ(m.at(0, 0), 2.0f);
    EXPECT_EQ(m.at(1, 2), 0.5f);
}

TEST(AddBias, PerColumnBias)
{
    DenseMatrix m(2, 2);
    addBias(m, {1.0f, -1.0f});
    EXPECT_EQ(m.at(0, 0), 1.0f);
    EXPECT_EQ(m.at(1, 1), -1.0f);
}

/** Property sweep: gemm agrees with the naive loop on many shapes. */
class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmShapes, MatchesNaive)
{
    const auto [m, k, n] = GetParam();
    const DenseMatrix a = randomMatrix(m, k, 10 + m);
    const DenseMatrix b =
        randomMatrix(k, n, 20 + static_cast<uint64_t>(n));
    DenseMatrix c;
    gemm(a, b, c);
    EXPECT_LT(DenseMatrix::maxAbsDiff(c, naiveMatmul(a, b)), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 64, 1},
                      std::tuple{65, 64, 63}, std::tuple{128, 3, 7},
                      std::tuple{17, 129, 5}, std::tuple{64, 64, 64},
                      std::tuple{2, 200, 2}));
