/**
 * @file
 * Unit and property tests for the sparse module: formats,
 * conversions, and the SpGEMM/SpMM/transpose operations (validated
 * against dense equivalents on random matrices). SparseBuilder and
 * addScaledIdentity are pinned bit for bit against their earlier
 * comparison-sort implementations, kept here as references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "graph/DatasetInfo.hpp"
#include "graph/Transforms.hpp"
#include "sparse/Convert.hpp"
#include "sparse/Coo.hpp"
#include "sparse/Csr.hpp"
#include "sparse/SparseOps.hpp"
#include "suite/Runner.hpp"
#include "tensor/Ops.hpp"
#include "util/Random.hpp"

using namespace gsuite;

namespace {

/** Random sparse matrix with the given density. */
CsrMatrix
randomCsr(int64_t rows, int64_t cols, double density, uint64_t seed)
{
    Rng rng(seed);
    SparseBuilder b(rows, cols);
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t c = 0; c < cols; ++c)
            if (rng.nextBool(density))
                b.add(r, c, rng.nextFloat(-1.0f, 1.0f));
    return b.finish();
}

/** Builder input: entry i is (row[i], col[i], val[i]). */
struct Triples {
    int64_t rows = 0;
    int64_t cols = 0;
    std::vector<int64_t> row;
    std::vector<int64_t> col;
    std::vector<float> val;

    void
    add(int64_t r, int64_t c, float v)
    {
        row.push_back(r);
        col.push_back(c);
        val.push_back(v);
    }
};

CsrMatrix
builderFinish(const Triples &t)
{
    SparseBuilder b(t.rows, t.cols);
    for (size_t i = 0; i < t.row.size(); ++i)
        b.add(t.row[i], t.col[i], t.val[i]);
    return b.finish();
}

/**
 * SparseBuilder::finish as it was before its counting sorts: a
 * permutation sorted by (row, col), then duplicates summed into the
 * first entry of their cell. With @p stable it is finish()'s present
 * contract, which sums each cell in insertion order; std::sort
 * leaves that order unspecified.
 */
CsrMatrix
comparisonFinish(const Triples &t, bool stable)
{
    const size_t n = t.row.size();
    std::vector<size_t> perm(n);
    std::iota(perm.begin(), perm.end(), size_t{0});
    const auto less = [&](size_t a, size_t b) {
        if (t.row[a] != t.row[b])
            return t.row[a] < t.row[b];
        return t.col[a] < t.col[b];
    };
    if (stable)
        std::stable_sort(perm.begin(), perm.end(), less);
    else
        std::sort(perm.begin(), perm.end(), less);

    CsrMatrix out(t.rows, t.cols);
    out.colIdx.reserve(n);
    out.vals.reserve(n);
    int64_t last_row = -1;
    int64_t last_col = -1;
    std::vector<int64_t> row_counts(static_cast<size_t>(t.rows), 0);
    for (size_t i : perm) {
        if (t.row[i] == last_row && t.col[i] == last_col) {
            out.vals.back() += t.val[i];
            continue;
        }
        out.colIdx.push_back(t.col[i]);
        out.vals.push_back(t.val[i]);
        ++row_counts[static_cast<size_t>(t.row[i])];
        last_row = t.row[i];
        last_col = t.col[i];
    }
    for (int64_t r = 0; r < t.rows; ++r) {
        out.rowPtr[static_cast<size_t>(r) + 1] =
            out.rowPtr[static_cast<size_t>(r)] +
            row_counts[static_cast<size_t>(r)];
    }
    return out;
}

/** addScaledIdentity as it was: a second build round over A's rows. */
CsrMatrix
builderAddScaledIdentity(const CsrMatrix &a, float alpha)
{
    Triples t{a.rows(), a.cols(), {}, {}, {}};
    for (int64_t r = 0; r < a.rows(); ++r) {
        bool has_diag = false;
        for (int64_t i = a.rowPtr[static_cast<size_t>(r)];
             i < a.rowPtr[static_cast<size_t>(r) + 1]; ++i) {
            const int64_t c = a.colIdx[static_cast<size_t>(i)];
            float v = a.vals.empty() ? 1.0f
                                     : a.vals[static_cast<size_t>(i)];
            if (c == r) {
                v += alpha;
                has_diag = true;
            }
            t.add(r, c, v);
        }
        if (!has_diag)
            t.add(r, r, alpha);
    }
    return comparisonFinish(t, false);
}

/** Shape, rowPtr, colIdx and the bits of every value are equal. */
::testing::AssertionResult
sameCsr(const CsrMatrix &got, const CsrMatrix &want)
{
    if (got.rows() != want.rows() || got.cols() != want.cols())
        return ::testing::AssertionFailure() << "shapes differ";
    if (got.rowPtr != want.rowPtr)
        return ::testing::AssertionFailure() << "rowPtr differs";
    if (got.colIdx != want.colIdx)
        return ::testing::AssertionFailure() << "colIdx differs";
    if (got.vals.size() != want.vals.size())
        return ::testing::AssertionFailure() << "vals lengths differ";
    for (size_t i = 0; i < got.vals.size(); ++i) {
        if (std::bit_cast<uint32_t>(got.vals[i]) !=
            std::bit_cast<uint32_t>(want.vals[i]))
            return ::testing::AssertionFailure()
                   << "vals[" << i << "] is " << got.vals[i]
                   << ", want " << want.vals[i];
    }
    return ::testing::AssertionSuccess();
}

/**
 * Random builder input for case @p k, with entries added in shuffled
 * order. Cases cycle through square and rectangular shapes, empty
 * rows (only a few rows are used), hub rows of hundreds of entries,
 * pattern values (1.0) with many duplicates per cell, and arbitrary
 * values with at most two entries per cell, the most any cell may
 * hold for its sum not to depend on the order it is taken in.
 */
Triples
randomTriples(int k)
{
    Rng rng(1000 + static_cast<uint64_t>(k));
    Triples t;
    t.rows = 1 + static_cast<int64_t>(rng.nextBelow(160));
    t.cols = k % 3 == 2 ? 1 + static_cast<int64_t>(rng.nextBelow(300))
                        : t.rows;
    const bool pattern = k % 2 == 0;
    // Rows that receive entries: all of them, or a sparse subset.
    std::vector<int64_t> used;
    for (int64_t r = 0; r < t.rows; ++r)
        if (k % 4 < 2 || rng.nextBool(0.2))
            used.push_back(r);
    if (used.empty())
        return t;
    // Pattern cases draw columns from a narrow band, so cells repeat.
    const int64_t col_span =
        pattern ? std::min<int64_t>(t.cols, 1 + k % 7) : t.cols;
    std::map<std::pair<int64_t, int64_t>, int> per_cell;
    const auto add = [&](int64_t r) {
        const int64_t c = static_cast<int64_t>(
            rng.nextBelow(static_cast<uint64_t>(col_span)));
        if (pattern) {
            t.add(r, c, 1.0f);
        } else if (++per_cell[{r, c}] <= 2) {
            t.add(r, c, rng.nextFloat(-3.0f, 3.0f));
        }
    };
    const int64_t entries =
        static_cast<int64_t>(rng.nextBelow(static_cast<uint64_t>(
            4 * t.rows + 1)));
    for (int64_t i = 0; i < entries; ++i)
        add(used[rng.nextBelow(used.size())]);
    if (k % 5 == 0) {
        const int64_t hub = used[rng.nextBelow(used.size())];
        const int64_t hub_entries =
            200 + static_cast<int64_t>(rng.nextBelow(400));
        for (int64_t i = 0; i < hub_entries; ++i)
            add(hub);
    }
    // Shuffle the entries, keeping each one's (row, col, val) intact.
    std::vector<size_t> perm(t.row.size());
    std::iota(perm.begin(), perm.end(), size_t{0});
    rng.shuffle(perm);
    Triples shuffled{t.rows, t.cols, {}, {}, {}};
    for (size_t i : perm)
        shuffled.add(t.row[i], t.col[i], t.val[i]);
    return shuffled;
}

} // namespace

TEST(Coo, PushAndPatternPromotion)
{
    CooMatrix m(4, 4);
    m.push(0, 1);
    m.push(1, 2);
    EXPECT_TRUE(m.isPattern());
    EXPECT_EQ(m.valueAt(0), 1.0f);
    m.push(2, 3, 0.5f); // promotes to explicit values
    EXPECT_FALSE(m.isPattern());
    EXPECT_EQ(m.valueAt(0), 1.0f);
    EXPECT_EQ(m.valueAt(2), 0.5f);
    m.checkInvariants();
}

TEST(Csr, IdentityAndDiagonal)
{
    const CsrMatrix eye = CsrMatrix::identity(4);
    eye.checkInvariants();
    EXPECT_EQ(eye.nnz(), 4);
    EXPECT_EQ(eye.rowNnz(2), 1);
    const CsrMatrix d = CsrMatrix::diagonal({1.0f, 2.0f, 3.0f});
    EXPECT_EQ(d.vals[1], 2.0f);
}

TEST(Csr, BuilderSortsAndDeduplicates)
{
    SparseBuilder b(3, 4);
    b.add(1, 3, 1.0f);
    b.add(1, 0, 2.0f);
    b.add(1, 3, 0.5f);
    b.add(0, 2, 1.0f);
    const CsrMatrix m = b.finish();
    m.checkInvariants();
    EXPECT_EQ(m.nnz(), 3);
    EXPECT_EQ(m.rowNnz(1), 2);
    EXPECT_EQ(m.colIdx[1], 0); // sorted within the row
    EXPECT_EQ(m.vals[2], 1.5f); // duplicates summed
}

TEST(Csr, EmptyRowsHaveMonotonicRowPtr)
{
    SparseBuilder b(5, 5);
    b.add(0, 0, 1.0f);
    b.add(4, 4, 1.0f);
    const CsrMatrix m = b.finish();
    m.checkInvariants();
    EXPECT_EQ(m.rowNnz(1), 0);
    EXPECT_EQ(m.rowNnz(2), 0);
    EXPECT_EQ(m.nnz(), 2);
}

TEST(Convert, CooCsrRoundTrip)
{
    CooMatrix coo(5, 7);
    coo.push(0, 6, 1.0f);
    coo.push(4, 0, 2.0f);
    coo.push(2, 3, -1.0f);
    coo.push(4, 0, 0.5f);
    const CsrMatrix csr = cooToCsr(coo);
    EXPECT_EQ(csr.nnz(), 3);
    EXPECT_EQ(DenseMatrix::maxAbsDiff(csrToDense(csr), cooToDense(coo)),
              0.0);
}

TEST(Convert, CooToDenseSumsDuplicates)
{
    CooMatrix coo(2, 2);
    coo.push(1, 1, 1.5f);
    coo.push(1, 1, 2.5f);
    const DenseMatrix d = cooToDense(coo);
    EXPECT_EQ(d.at(1, 1), 4.0f);
}

TEST(SpGemm, MatchesDenseProduct)
{
    const CsrMatrix a = randomCsr(20, 30, 0.2, 1);
    const CsrMatrix b = randomCsr(30, 25, 0.2, 2);
    const CsrMatrix c = spgemm(a, b);
    c.checkInvariants();

    DenseMatrix ref;
    gemm(csrToDense(a), csrToDense(b), ref);
    EXPECT_LT(DenseMatrix::maxAbsDiff(csrToDense(c), ref), 1e-4);
}

TEST(SpGemm, IdentityIsNeutral)
{
    const CsrMatrix a = randomCsr(15, 15, 0.25, 3);
    const CsrMatrix c = spgemm(a, CsrMatrix::identity(15));
    EXPECT_LT(csrMaxAbsDiff(a, c), 1e-6);
    const CsrMatrix c2 = spgemm(CsrMatrix::identity(15), a);
    EXPECT_LT(csrMaxAbsDiff(a, c2), 1e-6);
}

TEST(SpGemm, DiagonalScalesRows)
{
    const CsrMatrix a = randomCsr(10, 10, 0.3, 4);
    const CsrMatrix d = CsrMatrix::diagonal(
        std::vector<float>(10, 2.0f));
    const CsrMatrix c = spgemm(d, a);
    DenseMatrix da = csrToDense(a);
    for (int64_t i = 0; i < da.size(); ++i)
        da.data()[i] *= 2.0f;
    EXPECT_LT(DenseMatrix::maxAbsDiff(csrToDense(c), da), 1e-5);
}

TEST(SpMM, MatchesDenseProduct)
{
    const CsrMatrix a = randomCsr(18, 22, 0.25, 5);
    DenseMatrix b(22, 13);
    Rng rng(6);
    b.fillUniform(rng, -1.0f, 1.0f);
    DenseMatrix c;
    spmm(a, b, c);
    DenseMatrix ref;
    gemm(csrToDense(a), b, ref);
    EXPECT_LT(DenseMatrix::maxAbsDiff(c, ref), 1e-4);
}

TEST(SpMM, PatternMatrixUsesImplicitOnes)
{
    SparseBuilder bld(2, 2);
    bld.add(0, 0, 1.0f);
    bld.add(0, 1, 1.0f);
    CsrMatrix a = bld.finish();
    a.vals.clear(); // make it a pattern matrix
    DenseMatrix b(2, 1);
    b.at(0, 0) = 3.0f;
    b.at(1, 0) = 4.0f;
    DenseMatrix c;
    spmm(a, b, c);
    EXPECT_EQ(c.at(0, 0), 7.0f);
    EXPECT_EQ(c.at(1, 0), 0.0f);
}

TEST(Transpose, DoubleTransposeIsIdentity)
{
    const CsrMatrix a = randomCsr(14, 19, 0.2, 7);
    const CsrMatrix t = transpose(a);
    EXPECT_EQ(t.rows(), 19);
    EXPECT_EQ(t.cols(), 14);
    t.checkInvariants();
    EXPECT_LT(csrMaxAbsDiff(transpose(t), a), 1e-6);
}

TEST(Transpose, MatchesDense)
{
    const CsrMatrix a = randomCsr(9, 6, 0.4, 8);
    const DenseMatrix dt = csrToDense(transpose(a));
    const DenseMatrix d = csrToDense(a);
    for (int64_t i = 0; i < 9; ++i)
        for (int64_t j = 0; j < 6; ++j)
            EXPECT_EQ(d.at(i, j), dt.at(j, i));
}

TEST(AddScaledIdentity, AddsAndCreatesDiagonal)
{
    SparseBuilder b(3, 3);
    b.add(0, 0, 1.0f); // existing diagonal
    b.add(1, 2, 5.0f); // row without diagonal
    const CsrMatrix m = addScaledIdentity(b.finish(), 2.0f);
    m.checkInvariants();
    const DenseMatrix d = csrToDense(m);
    EXPECT_EQ(d.at(0, 0), 3.0f);
    EXPECT_EQ(d.at(1, 1), 2.0f);
    EXPECT_EQ(d.at(2, 2), 2.0f);
    EXPECT_EQ(d.at(1, 2), 5.0f);
}

TEST(SparseBuilderPin, MatchesTheComparisonSortOnRandomInputs)
{
    int square = 0, with_hub = 0, with_empty_row = 0, with_triples = 0;
    for (int k = 0; k < 320; ++k) {
        SCOPED_TRACE(k);
        const Triples t = randomTriples(k);
        const CsrMatrix got = builderFinish(t);
        const CsrMatrix want = comparisonFinish(t, false);
        ASSERT_TRUE(sameCsr(got, want));

        std::map<std::pair<int64_t, int64_t>, int> per_cell;
        std::vector<int> per_row(static_cast<size_t>(t.rows), 0);
        int most = 0;
        for (size_t i = 0; i < t.row.size(); ++i) {
            most = std::max(most, ++per_cell[{t.row[i], t.col[i]}]);
            ++per_row[static_cast<size_t>(t.row[i])];
        }
        with_triples += most >= 3;
        with_hub += std::ranges::max(per_row) >= 200;
        with_empty_row += std::ranges::count(per_row, 0) > 0;

        if (t.rows != t.cols)
            continue;
        ++square;
        const float alpha = Rng(static_cast<uint64_t>(k))
                                .nextFloat(-2.0f, 2.0f);
        ASSERT_TRUE(sameCsr(addScaledIdentity(got, alpha),
                            builderAddScaledIdentity(want, alpha)));
        CsrMatrix pattern = got;
        pattern.vals.clear();
        ASSERT_TRUE(sameCsr(addScaledIdentity(pattern, alpha),
                            builderAddScaledIdentity(pattern, alpha)));
    }
    // The generator reaches every shape the comparison is meant for.
    EXPECT_GT(square, 150);
    EXPECT_GT(with_hub, 40);
    EXPECT_GT(with_empty_row, 100);
    EXPECT_GT(with_triples, 100);
}

TEST(SparseBuilderPin, SumsEachCellInInsertionOrder)
{
    // Cells of three or more arbitrary values, whose float sum
    // depends on the order it is taken in.
    Rng rng(77);
    Triples t{40, 40, {}, {}, {}};
    for (int i = 0; i < 2000; ++i)
        t.add(static_cast<int64_t>(rng.nextBelow(40)),
              static_cast<int64_t>(rng.nextBelow(12)),
              rng.nextFloat(-100.0f, 100.0f));
    const CsrMatrix want = comparisonFinish(t, true);
    EXPECT_TRUE(sameCsr(builderFinish(t), want));

    // The input tells orders apart: added in reverse, some cell sums
    // to different bits.
    Triples reversed{t.rows, t.cols, {}, {}, {}};
    for (size_t i = t.row.size(); i-- > 0;)
        reversed.add(t.row[i], t.col[i], t.val[i]);
    EXPECT_FALSE(sameCsr(comparisonFinish(reversed, true), want));
}

TEST(SparseBuilderPin, HostPerfSpmmOperatorsMatchTheComparisonSort)
{
    // Every graph whose SpMM operands bench/host_perf builds at seed
    // 7: the paper datasets at sim scale and web-sampled's R-MAT
    // graph at full and --smoke scale.
    std::vector<std::string> names;
    for (DatasetId id : {DatasetId::Cora, DatasetId::CiteSeer,
                         DatasetId::PubMed, DatasetId::Reddit,
                         DatasetId::LiveJournal})
        names.push_back(datasetInfo(id).name);
    names.push_back("rmat:scale=12,ef=8,seed=7");
    names.push_back("rmat:scale=16,ef=8,seed=7");
    for (const std::string &name : names) {
        SCOPED_TRACE(name);
        UserParams p;
        p.engine = EngineKind::Sim;
        p.dataset = name;
        p.seed = 7;
        const Graph g = loadDatasetFor(p);
        const Triples t{g.numNodes(), g.numNodes(), g.dst, g.src,
                        std::vector<float>(g.src.size(), 1.0f)};
        const CsrMatrix a = comparisonFinish(t, false);
        EXPECT_TRUE(sameCsr(g.adjacencyCsr(), a));
        EXPECT_TRUE(sameCsr(adjacencyWithSelfLoops(g),
                            builderAddScaledIdentity(a, 1.0f)));
        EXPECT_TRUE(sameCsr(ginAdjacency(g, p.ginEps),
                            builderAddScaledIdentity(a, 1.0f + p.ginEps)));
    }
}

TEST(ScaleRowsCols, MatchesDiagonalSandwich)
{
    const CsrMatrix a = randomCsr(8, 8, 0.4, 9);
    std::vector<float> rs{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<float> cs{8, 7, 6, 5, 4, 3, 2, 1};
    const CsrMatrix scaled = scaleRowsCols(a, rs, cs);
    const CsrMatrix ref = spgemm(
        spgemm(CsrMatrix::diagonal(rs), a), CsrMatrix::diagonal(cs));
    EXPECT_LT(csrMaxAbsDiff(scaled, ref), 1e-4);
}

TEST(CsrMaxAbsDiff, DetectsShapeAndValueDifferences)
{
    const CsrMatrix a = randomCsr(5, 5, 0.5, 10);
    EXPECT_EQ(csrMaxAbsDiff(a, a), 0.0);
    const CsrMatrix b = randomCsr(5, 6, 0.5, 10);
    EXPECT_TRUE(std::isinf(csrMaxAbsDiff(a, b)));
}

/** Property sweep: SpGEMM == dense GEMM across shapes/densities. */
class SpgemmSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>>
{
};

TEST_P(SpgemmSweep, MatchesDense)
{
    const auto [m, k, n, density] = GetParam();
    const CsrMatrix a =
        randomCsr(m, k, density, static_cast<uint64_t>(m * 31 + k));
    const CsrMatrix b =
        randomCsr(k, n, density, static_cast<uint64_t>(n * 17 + k));
    DenseMatrix ref;
    gemm(csrToDense(a), csrToDense(b), ref);
    EXPECT_LT(
        DenseMatrix::maxAbsDiff(csrToDense(spgemm(a, b)), ref), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpgemmSweep,
    ::testing::Values(std::tuple{1, 1, 1, 1.0},
                      std::tuple{10, 10, 10, 0.05},
                      std::tuple{40, 5, 40, 0.3},
                      std::tuple{7, 50, 7, 0.15},
                      std::tuple{25, 25, 25, 0.5},
                      std::tuple{16, 16, 16, 0.0}));
