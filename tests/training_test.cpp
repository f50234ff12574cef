/**
 * @file
 * Tests for the training extension: the softmax cross-entropy loss
 * kernel, synthetic labels, analytic-vs-numerical gradient checking,
 * convergence, and simulator compatibility of training epochs.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "engine/ExecutionEngine.hpp"
#include "graph/Generators.hpp"
#include "training/GcnTrainer.hpp"
#include "training/Labels.hpp"
#include "training/SoftmaxXent.hpp"
#include "util/Random.hpp"

using namespace gsuite;

namespace {

Graph
trainGraph(uint64_t seed = 3, int64_t nodes = 120, int64_t edges = 480,
           int64_t flen = 12)
{
    Rng rng(seed);
    Graph g = generateErdosRenyi(nodes, edges, rng);
    fillFeatures(g, flen, rng);
    return g;
}

} // namespace

TEST(Labels, DeterministicAndInRange)
{
    const Graph g = trainGraph();
    const auto a = makeSyntheticLabels(g, 4, 7);
    const auto b = makeSyntheticLabels(g, 4, 7);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), static_cast<size_t>(g.numNodes()));
    for (int64_t v : a) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 4);
    }
}

TEST(Labels, AllClassesRepresented)
{
    const Graph g = trainGraph(5, 500, 2500, 8);
    const auto labels = makeSyntheticLabels(g, 4, 7);
    std::vector<int64_t> counts(4, 0);
    for (int64_t v : labels)
        ++counts[static_cast<size_t>(v)];
    for (int64_t c : counts)
        EXPECT_GT(c, 0);
}

TEST(SoftmaxXentTest, UniformLogitsGiveLogC)
{
    DenseMatrix logits(10, 4); // all zeros => uniform softmax
    std::vector<int64_t> labels(10, 2);
    DenseMatrix dlogits;
    SoftmaxXentKernel k("loss", logits, labels, dlogits);
    k.execute();
    EXPECT_NEAR(k.loss(), std::log(4.0), 1e-6);
}

TEST(SoftmaxXentTest, PerfectPredictionHasLowLossHighAccuracy)
{
    DenseMatrix logits(6, 3);
    std::vector<int64_t> labels(6);
    for (int64_t i = 0; i < 6; ++i) {
        labels[static_cast<size_t>(i)] = i % 3;
        logits.at(i, i % 3) = 20.0f;
    }
    DenseMatrix dlogits;
    SoftmaxXentKernel k("loss", logits, labels, dlogits);
    k.execute();
    EXPECT_LT(k.loss(), 1e-6);
    EXPECT_DOUBLE_EQ(k.accuracy(), 1.0);
}

TEST(SoftmaxXentTest, GradientRowsSumToZero)
{
    Rng rng(4);
    DenseMatrix logits(8, 5);
    logits.fillUniform(rng, -2.0f, 2.0f);
    std::vector<int64_t> labels(8, 1);
    DenseMatrix dlogits;
    SoftmaxXentKernel k("loss", logits, labels, dlogits);
    k.execute();
    for (int64_t i = 0; i < 8; ++i) {
        double sum = 0;
        for (int64_t j = 0; j < 5; ++j)
            sum += dlogits.at(i, j);
        EXPECT_NEAR(sum, 0.0, 1e-6);
    }
}

TEST(SoftmaxXentTest, GradientMatchesNumericalLoss)
{
    Rng rng(6);
    DenseMatrix logits(5, 3);
    logits.fillUniform(rng, -1.0f, 1.0f);
    std::vector<int64_t> labels = {0, 2, 1, 1, 0};
    DenseMatrix dlogits;
    SoftmaxXentKernel k("loss", logits, labels, dlogits);
    k.execute();

    const float eps = 1e-3f;
    for (int64_t i = 0; i < 5; ++i) {
        for (int64_t j = 0; j < 3; ++j) {
            DenseMatrix pert = logits;
            pert.at(i, j) += eps;
            DenseMatrix d2;
            SoftmaxXentKernel kp("loss", pert, labels, d2);
            kp.execute();
            const double num =
                (kp.loss() - k.loss()) / static_cast<double>(eps);
            EXPECT_NEAR(num, dlogits.at(i, j), 2e-3)
                << "element " << i << "," << j;
        }
    }
}

TEST(SoftmaxXentTest, TraceIsWellFormed)
{
    DenseMatrix logits(100, 4);
    std::vector<int64_t> labels(100, 0);
    DenseMatrix dlogits;
    SoftmaxXentKernel k("loss", logits, labels, dlogits);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    WarpTrace t;
    l.buildFullTrace(0, 0, t);
    // Per row: 2 index ops, the label load, the accumulator seed,
    // load + exp + add per class, one control op, op + store per
    // class, EXIT — 6 + 5 * classes.
    ASSERT_EQ(t.instrs.size(), 6u + 5u * 4u);
    EXPECT_EQ(t.instrs.back().op, Op::EXIT);
    bool has_sfu = false;
    for (const auto &in : t.instrs)
        has_sfu |= in.op == Op::SFU;
    EXPECT_TRUE(has_sfu); // exp() on the special-function unit
}

TEST(GcnTrainerTest, WeightGradientMatchesNumerical)
{
    const Graph g = trainGraph(11, 24, 60, 5);
    TrainConfig cfg;
    cfg.layers = 2;
    cfg.hidden = 6;
    cfg.classes = 3;
    cfg.applyUpdates = false; // freeze weights for the check
    GcnTrainer trainer(g, cfg);
    FunctionalEngine engine;

    const double base_loss = trainer.runEpoch(engine).loss;
    (void)base_loss;

    // Check a handful of elements in every weight matrix against
    // central differences of the loss.
    for (size_t wi = 0; wi < trainer.numWeights(); ++wi) {
        DenseMatrix &w = trainer.weightAt(wi);
        const DenseMatrix &dw = trainer.gradientAt(wi);
        ASSERT_EQ(dw.rows(), w.rows());
        ASSERT_EQ(dw.cols(), w.cols());
        const float eps = 3e-3f;
        for (int64_t idx = 0; idx < std::min<int64_t>(w.size(), 6);
             ++idx) {
            const int64_t r = idx % w.rows();
            const int64_t c = idx % w.cols();
            const float saved = w.at(r, c);
            w.at(r, c) = saved + eps;
            const double up = trainer.runEpoch(engine).loss;
            w.at(r, c) = saved - eps;
            const double down = trainer.runEpoch(engine).loss;
            w.at(r, c) = saved;
            const double numerical =
                (up - down) / (2.0 * static_cast<double>(eps));
            // Restore gradients at the unperturbed point.
            trainer.runEpoch(engine);
            EXPECT_NEAR(numerical, dw.at(r, c),
                        2e-3 + 0.05 * std::fabs(numerical))
                << "weight " << wi << " element (" << r << "," << c
                << ")";
        }
    }
}

TEST(GcnTrainerTest, LossDecreasesOverEpochs)
{
    const Graph g = trainGraph(13, 300, 1500, 16);
    TrainConfig cfg;
    cfg.epochs = 50;
    cfg.lr = 5.0f;
    cfg.classes = 4;
    GcnTrainer trainer(g, cfg);
    FunctionalEngine engine;
    const auto history = trainer.train(engine);
    ASSERT_EQ(history.size(), 50u);
    EXPECT_LT(history.back().loss, history.front().loss * 0.9);
    EXPECT_GT(history.back().accuracy, history.front().accuracy);
}

TEST(GcnTrainerTest, FrozenWeightsKeepLossConstant)
{
    const Graph g = trainGraph(17, 100, 400, 8);
    TrainConfig cfg;
    cfg.applyUpdates = false;
    GcnTrainer trainer(g, cfg);
    FunctionalEngine engine;
    const double l1 = trainer.runEpoch(engine).loss;
    const double l2 = trainer.runEpoch(engine).loss;
    EXPECT_DOUBLE_EQ(l1, l2);
}

TEST(GcnTrainerTest, EpochPipelineHasForwardLossBackwardUpdate)
{
    const Graph g = trainGraph(19, 60, 200, 6);
    TrainConfig cfg;
    cfg.layers = 2;
    GcnTrainer trainer(g, cfg);
    // fwd: 2x(spmm+sgemm) + relu; loss; bwd: 2x dW + dx + spmm +
    // relugrad; sgd: 2.
    EXPECT_EQ(trainer.numKernels(), 13u);
}

TEST(GcnTrainerTest, TrainingRunsOnTheSimulator)
{
    const Graph g = trainGraph(23, 80, 300, 8);
    TrainConfig cfg;
    cfg.epochs = 2;
    GcnTrainer trainer(g, cfg);
    SimEngine::Options opts;
    opts.gpu = GpuConfig::testTiny();
    opts.gpu.smSampleFactor = 1;
    SimEngine engine(opts);
    const auto history = trainer.train(engine);
    EXPECT_EQ(history.size(), 2u);
    for (const auto &rec : engine.timeline()) {
        EXPECT_TRUE(rec.hasSim);
        EXPECT_GT(rec.sim.cycles, 0u);
    }
}

TEST(GcnTrainerTest, SingleLayerTrains)
{
    const Graph g = trainGraph(29, 80, 300, 8);
    TrainConfig cfg;
    cfg.layers = 1;
    cfg.epochs = 10;
    GcnTrainer trainer(g, cfg);
    FunctionalEngine engine;
    const auto history = trainer.train(engine);
    EXPECT_LT(history.back().loss, history.front().loss);
}

TEST(GinTrainerTest, WeightGradientMatchesNumerical)
{
    const Graph g = trainGraph(31, 24, 60, 5);
    TrainConfig cfg;
    cfg.model = GnnModelKind::Gin;
    cfg.layers = 2;
    cfg.hidden = 6;
    cfg.classes = 3;
    cfg.applyUpdates = false;
    GnnTrainer trainer(g, cfg);
    FunctionalEngine engine;
    trainer.runEpoch(engine);

    for (size_t wi = 0; wi < trainer.numWeights(); ++wi) {
        DenseMatrix &w = trainer.weightAt(wi);
        const DenseMatrix &dw = trainer.gradientAt(wi);
        ASSERT_EQ(dw.rows(), w.rows());
        const float eps = 3e-3f;
        for (int64_t idx = 0; idx < std::min<int64_t>(w.size(), 4);
             ++idx) {
            const int64_t r = idx % w.rows();
            const int64_t c = idx % w.cols();
            const float saved = w.at(r, c);
            w.at(r, c) = saved + eps;
            const double up = trainer.runEpoch(engine).loss;
            w.at(r, c) = saved - eps;
            const double down = trainer.runEpoch(engine).loss;
            w.at(r, c) = saved;
            trainer.runEpoch(engine); // restore gradients
            const double numerical =
                (up - down) / (2.0 * static_cast<double>(eps));
            EXPECT_NEAR(numerical, dw.at(r, c),
                        2e-3 + 0.05 * std::fabs(numerical))
                << "weight " << wi << " (" << r << "," << c << ")";
        }
    }
}

TEST(GinTrainerTest, LossDecreases)
{
    const Graph g = trainGraph(37, 300, 1500, 16);
    TrainConfig cfg;
    cfg.model = GnnModelKind::Gin;
    cfg.epochs = 40;
    cfg.lr = 2.0f;
    GnnTrainer trainer(g, cfg);
    FunctionalEngine engine;
    const auto history = trainer.train(engine);
    EXPECT_LT(history.back().loss, history.front().loss * 0.97);
}

TEST(GinTrainerTest, PipelineShape)
{
    const Graph g = trainGraph(41, 60, 200, 6);
    TrainConfig cfg;
    cfg.model = GnnModelKind::Gin;
    cfg.layers = 2;
    GnnTrainer trainer(g, cfg);
    // fwd: 2x(spmm + 2 sgemm + relu) + relu; loss; bwd: 2x(dw2 + dr +
    // relugrad + dw1) + (ds + spmm + relugrad); sgd: 4.
    EXPECT_EQ(trainer.numWeights(), 4u);
    EXPECT_GT(trainer.numKernels(), 20u);
}

TEST(GinTrainerTest, UnsupportedModelIsFatal)
{
    const Graph g = trainGraph(43, 30, 80, 4);
    TrainConfig cfg;
    cfg.model = GnnModelKind::Sage;
    EXPECT_EXIT({ GnnTrainer t(g, cfg); },
                ::testing::ExitedWithCode(1), "");
}
