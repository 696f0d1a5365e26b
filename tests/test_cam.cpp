// Tests for the CAM simulator: array search semantics, LUT accumulation,
// the PQ-lookup equivalence (CAM inference == direct PECAN layer forward),
// the zero-multiplication invariant, BN folding, conversion, and pruning.
#include <gtest/gtest.h>

#include <cmath>

#include "cam/cam_array.hpp"
#include "cam/cam_conv2d.hpp"
#include "cam/convert.hpp"
#include "cam/lut.hpp"
#include "cam_spec.hpp"
#include "core/pecan_linear.hpp"
#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "nn/adder_conv.hpp"
#include "nn/batchnorm.hpp"
#include "tensor/rng.hpp"

namespace pecan::cam {
namespace {

pq::PqLayerConfig dist_cfg(std::int64_t p, std::int64_t d) {
  pq::PqLayerConfig cfg;
  cfg.mode = pq::MatchMode::Distance;
  cfg.p = p;
  cfg.d = d;
  cfg.temperature = 0.5f;
  return cfg;
}

pq::PqLayerConfig angle_cfg(std::int64_t p, std::int64_t d) {
  pq::PqLayerConfig cfg;
  cfg.mode = pq::MatchMode::Angle;
  cfg.p = p;
  cfg.d = d;
  cfg.temperature = 1.f;
  return cfg;
}

// The CamArray/LutMemory cases run the served blocked entries (flushed once,
// as a serving chunk does) against hand-computed expectations. Query
// columns are the columns of a [d, len] matrix, as im2col lays them out.

TEST(CamArray, L1BestMatchFindsNearest) {
  Tensor words({3, 2}, std::vector<float>{0.f, 0.f, 5.f, 5.f, -5.f, 5.f});
  CamArray array(std::move(words), SearchMetric::L1BestMatch);
  OpCounter counter;
  const Tensor queries({2, 2}, std::vector<float>{4.5f, -4.f, 4.f, 6.f});  // (4.5, 4), (-4, 6)
  EXPECT_EQ(camspec::blocked_hits(array, queries, CamPrecision::Float32, counter),
            (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(counter.cam_searches, 2u);
  // 2 searches x 2*p*d match-line adds, plus the [1, p] LUT's one add each.
  EXPECT_EQ(counter.adds, 2u * 2 * 3 * 2 + 2);
  EXPECT_EQ(counter.muls, 0u);
}

TEST(CamArray, DotProductScores) {
  // Scores (0.2, 0.9) through the A entry: an identity LUT makes the output
  // the softmax weights themselves.
  Tensor words({2, 3}, std::vector<float>{1.f, 0.f, 0.f, 0.f, 1.f, 0.f});
  CamArray array(std::move(words), SearchMetric::DotProduct);
  const LutMemory lut(Tensor({2, 2}, std::vector<float>{1.f, 0.f, 0.f, 1.f}));
  const Tensor query({3, 1}, std::vector<float>{0.2f, 0.9f, 0.f});
  const camspec::Outcome got = camspec::run_blocked(array, lut, query, 1.f);
  const double w1 = 1.0 / (1.0 + std::exp(-0.7));
  EXPECT_NEAR(got.out[0] - 0.5f, 1.0 - w1, 1e-6);  // run_blocked starts the output at 0.5
  EXPECT_NEAR(got.out[1] - 0.5f, w1, 1e-6);
  EXPECT_EQ(got.usage, (std::vector<std::uint64_t>{0, 1}));  // pre-softmax argmax
  EXPECT_EQ(got.counter.cam_searches, 1u);
  EXPECT_EQ(got.counter.muls, 6u + 4u);  // p*d score MACs + cout*p LUT weights
}

TEST(CamArray, StridedQueryAccess) {
  // Queries are columns of an im2col matrix; stride = number of columns.
  Tensor words({2, 2}, std::vector<float>{0.f, 0.f, 10.f, 10.f});
  CamArray array(std::move(words), SearchMetric::L1BestMatch);
  OpCounter counter;
  const Tensor matrix({2, 3}, std::vector<float>{9.f, 0.1f, -1.f, 11.f, -0.2f, -1.f});
  // Columns (9, 11), (0.1, -0.2), (-1, -1).
  EXPECT_EQ(camspec::blocked_hits(array, matrix, CamPrecision::Float32, counter),
            (std::vector<std::int64_t>{1, 0, 0}));
}

TEST(CamArray, UsageAndPrune) {
  Tensor words({4, 1}, std::vector<float>{0.f, 10.f, 20.f, 30.f});
  CamArray array(std::move(words), SearchMetric::L1BestMatch);
  OpCounter counter;
  camspec::blocked_hits(array, Tensor({1, 3}, std::vector<float>{1.f, 19.f, 19.f}),
                        CamPrecision::Float32, counter);
  EXPECT_EQ(array.usage(), (std::vector<std::uint64_t>{1, 0, 2, 0}));
  const auto kept = array.prune_unused();
  EXPECT_EQ(kept, (std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(array.word_count(), 2);
}

TEST(LutMemory, AccumulateIsColumnFetch) {
  // The D entry's fused epilogue: the winner (word 1) fetches LUT column 1.
  Tensor table({3, 2}, std::vector<float>{1.f, 2.f, 3.f, 4.f, 5.f, 6.f});
  LutMemory lut(std::move(table));
  CamArray array(Tensor({2, 1}, std::vector<float>{0.f, 10.f}), SearchMetric::L1BestMatch);
  CamTally tally(2);
  OpCounter counter;
  const float query[1] = {9.f};
  float out[3] = {10.f, 10.f, 10.f};
  array.search_accumulate_block(query, 1, lut, out, 1, tally);
  array.flush(tally, counter);
  EXPECT_FLOAT_EQ(out[0], 12.f);
  EXPECT_FLOAT_EQ(out[1], 14.f);
  EXPECT_FLOAT_EQ(out[2], 16.f);
  EXPECT_EQ(counter.adds, 2u * 2 * 1 + 3);  // 2*p*d match-line adds + cout LUT adds
  EXPECT_EQ(counter.muls, 0u);
  EXPECT_EQ(counter.lut_reads, 1u);
}

TEST(LutMemory, WeightedAccumulate) {
  Tensor table({2, 2}, std::vector<float>{1.f, 3.f, 2.f, 4.f});
  LutMemory lut(std::move(table));
  ops::OpTotals tally;
  float out[2] = {0.f, 0.f};
  const float w[2] = {0.25f, 0.75f};  // a [p, 1] weight tile: one query
  lut.weighted_accumulate_block(w, 1, out, 1, tally);
  EXPECT_FLOAT_EQ(out[0], 0.25f * 1 + 0.75f * 3);
  EXPECT_FLOAT_EQ(out[1], 0.25f * 2 + 0.75f * 4);
  EXPECT_EQ(tally.muls, 4u);
  EXPECT_EQ(tally.lut_reads, 1u);
}

TEST(CamConv2d, EquivalentToPecanDistanceLayer) {
  // The central PQ-lookup equivalence: CAM search + LUT accumulate must
  // reproduce the direct layer forward EXACTLY for PECAN-D (same argmax,
  // and Y(j) columns precomputed from the same weights).
  Rng rng(1);
  pq::PecanConv2d layer("p", 4, 8, 3, 1, 1, true, dist_cfg(8, 9), rng);
  layer.set_training(false);
  CamConv2d exported(layer, std::make_shared<OpCounter>());
  Tensor x = rng.randn({2, 4, 6, 6});
  Tensor direct = layer.forward(x);
  Tensor via_cam = exported.forward(x);
  ASSERT_TRUE(direct.same_shape(via_cam));
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct[i], via_cam[i], 1e-3) << i;
  }
}

TEST(CamConv2d, EquivalentToPecanAngleLayer) {
  Rng rng(2);
  pq::PecanConv2d layer("p", 2, 4, 3, 1, 1, false, angle_cfg(4, 9), rng);
  layer.set_training(false);
  CamConv2d exported(layer, std::make_shared<OpCounter>());
  Tensor x = rng.randn({1, 2, 5, 5});
  Tensor direct = layer.forward(x);
  Tensor via_cam = exported.forward(x);
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct[i], via_cam[i], 1e-3) << i;
  }
}

TEST(CamConv2d, InferMatchesForwardBitwise) {
  // The stateless serving path issues the same searches/accumulates in the
  // same order as forward(), so outputs AND op counts must agree exactly.
  Rng rng(5);
  pq::PecanConv2d layer("p", 4, 8, 3, 1, 1, true, dist_cfg(8, 9), rng);
  layer.set_training(false);
  auto counter = std::make_shared<OpCounter>();
  CamConv2d exported(layer, counter);
  Tensor x = rng.randn({2, 4, 6, 6});
  Tensor via_forward = exported.forward(x);
  const std::uint64_t forward_adds = counter->adds.load();
  counter->reset();
  nn::InferContext ctx;
  Tensor via_infer = exported.infer(x, ctx);
  ASSERT_TRUE(via_forward.same_shape(via_infer));
  for (std::int64_t i = 0; i < via_forward.numel(); ++i) {
    EXPECT_EQ(via_forward[i], via_infer[i]) << i;
  }
  EXPECT_EQ(counter->adds.load(), forward_adds);
  EXPECT_EQ(counter->muls.load(), 0u);
}

TEST(CamConv2d, DistanceInferenceHasZeroMultiplications) {
  // The paper's headline property: PECAN-D is truly multiplier-free.
  Rng rng(3);
  pq::PecanConv2d layer("p", 4, 8, 3, 1, 1, false, dist_cfg(16, 3), rng);
  auto counter = std::make_shared<OpCounter>();
  CamConv2d exported(layer, counter);
  exported.forward(rng.randn({2, 4, 8, 8}));
  EXPECT_GT(counter->adds, 0u);
  EXPECT_EQ(counter->muls, 0u);
}

TEST(CamConv2d, DynamicCountMatchesClosedForm) {
  // The counter incremented at the arithmetic call sites must equal the
  // Table 1 closed form for one sample.
  Rng rng(4);
  pq::PecanConv2d layer("p", 4, 8, 3, 1, 1, false, dist_cfg(8, 9), rng);
  auto counter = std::make_shared<OpCounter>();
  CamConv2d exported(layer, counter);
  Tensor x = rng.randn({1, 4, 8, 8});
  exported.forward(x);
  const ops::OpCount expected = exported.inference_ops();
  EXPECT_EQ(counter->adds, expected.adds);
  EXPECT_EQ(counter->muls, expected.muls);
}

TEST(CamConv2d, AngleDynamicCountMatchesClosedForm) {
  Rng rng(5);
  pq::PecanConv2d layer("p", 4, 8, 3, 1, 1, false, angle_cfg(4, 9), rng);
  auto counter = std::make_shared<OpCounter>();
  CamConv2d exported(layer, counter);
  exported.forward(rng.randn({1, 4, 8, 8}));
  const ops::OpCount expected = exported.inference_ops();
  EXPECT_EQ(counter->adds, expected.adds);
  EXPECT_EQ(counter->muls, expected.muls);
}

TEST(CamConv2d, FoldScaleShiftMatchesBatchNorm) {
  Rng rng(6);
  pq::PecanConv2d layer("p", 2, 4, 3, 1, 1, false, dist_cfg(4, 9), rng);
  nn::BatchNorm2d bn("bn", 4);
  // Give BN non-trivial running stats.
  layer.set_training(true);
  bn.set_training(true);
  Tensor warm = rng.randn({4, 2, 6, 6});
  for (int i = 0; i < 10; ++i) bn.forward(layer.forward(warm));
  layer.set_training(false);
  bn.set_training(false);

  Tensor x = rng.randn({2, 2, 6, 6});
  Tensor reference = bn.forward(layer.forward(x));

  CamConv2d exported(layer, std::make_shared<OpCounter>());
  exported.fold_scale_shift(bn.inference_scale(), bn.inference_shift());
  Tensor folded = exported.forward(x);
  for (std::int64_t i = 0; i < reference.numel(); ++i) {
    EXPECT_NEAR(reference[i], folded[i], 2e-3);
  }
}

TEST(CamConv2d, PruningPreservesOutputs) {
  // §5: prototypes never used on the evaluation set can be pruned with no
  // output change on that set.
  Rng rng(7);
  pq::PecanConv2d layer("p", 2, 4, 3, 1, 1, false, dist_cfg(32, 9), rng);
  CamConv2d exported(layer, std::make_shared<OpCounter>());
  Tensor x = rng.randn({4, 2, 6, 6});
  Tensor before = exported.forward(x);
  const auto [pruned, total] = exported.prune_unused();
  EXPECT_GT(pruned, 0);  // with p=32 and 144 columns, some words go unused
  EXPECT_EQ(total, 2 * 32);
  Tensor after = exported.forward(x);
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
}

TEST(Convert, LeNetPecanDEndToEnd) {
  Rng rng(8);
  auto model = models::make_lenet5(models::Variant::PecanD, rng);
  model->set_training(false);
  Tensor x = rng.randn({2, 1, 28, 28});
  Tensor direct = model->forward(x);

  CamNetworkExport exported = convert_to_cam(*model);
  Tensor via_cam = exported.net->forward(x);
  ASSERT_TRUE(direct.same_shape(via_cam));
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct[i], via_cam[i], 5e-3);
  }
  EXPECT_EQ(exported.counter->muls, 0u);       // multiplier-free network
  EXPECT_EQ(exported.cam_layers.size(), 5u);   // 2 conv + 3 fc
}

TEST(Convert, ResNetPecanDWithBnFolding) {
  Rng rng(9);
  auto model = models::make_resnet20(models::Variant::PecanD, 10, rng);
  // Warm BN running stats so folding is non-trivial.
  model->set_training(true);
  Tensor warm = rng.randn({4, 3, 16, 16});
  model->forward(warm);
  model->set_training(false);
  Tensor x = rng.randn({1, 3, 16, 16});
  Tensor direct = model->forward(x);

  CamNetworkExport exported = convert_to_cam(*model);
  Tensor via_cam = exported.net->forward(x);
  ASSERT_TRUE(direct.same_shape(via_cam));
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct[i], via_cam[i], 5e-2) << i;
  }
  EXPECT_EQ(exported.counter->muls, 0u);
  EXPECT_EQ(exported.cam_layers.size(), 20u);  // 19 convs + 1 fc
}

TEST(Convert, UsageHistogramsPopulated) {
  Rng rng(10);
  auto model = models::make_lenet5(models::Variant::PecanD, rng);
  model->set_training(false);
  CamNetworkExport exported = convert_to_cam(*model);
  exported.net->forward(rng.randn({4, 1, 28, 28}));
  std::uint64_t total_usage = 0;
  for (const CamConv2d* layer : exported.cam_layers) {
    for (std::int64_t j = 0; j < layer->groups(); ++j) {
      for (std::uint64_t u : layer->usage(j)) total_usage += u;
    }
  }
  EXPECT_GT(total_usage, 0u);
  exported.reset_usage();
  std::uint64_t after_reset = 0;
  for (const CamConv2d* layer : exported.cam_layers) {
    for (std::int64_t j = 0; j < layer->groups(); ++j) {
      for (std::uint64_t u : layer->usage(j)) after_reset += u;
    }
  }
  EXPECT_EQ(after_reset, 0u);
}

TEST(Convert, RejectsAdderLayers) {
  Rng rng(11);
  nn::Sequential net;
  net.emplace<nn::AdderConv2d>("a", 1, 2, 3, 1, 0, rng);
  EXPECT_THROW(convert_to_cam(net), std::invalid_argument);
}

TEST(CamLinear, EquivalentToPecanLinear) {
  Rng rng(13);
  pq::PecanLinear fc("fc", 32, 6, true, dist_cfg(8, 4), rng);
  fc.set_training(false);
  auto counter = std::make_shared<OpCounter>();
  CamLinear exported(fc.conv(), counter);
  Tensor x = rng.randn({5, 32});
  Tensor direct = fc.forward(x);
  Tensor via_cam = exported.forward(x);
  ASSERT_TRUE(direct.same_shape(via_cam));
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct[i], via_cam[i], 1e-3) << i;
  }
  EXPECT_EQ(counter->muls, 0u);
  // FC op formula: per sample, D*(2pd + cout) adds.
  EXPECT_EQ(counter->adds, 5u * 8 * (2 * 8 * 4 + 6));
}

TEST(CamLinear, RejectsNonFcLayer) {
  Rng rng(14);
  pq::PecanConv2d conv("c", 2, 2, 3, 1, 1, false, dist_cfg(4, 9), rng);
  EXPECT_THROW(CamLinear(conv, std::make_shared<OpCounter>()), std::invalid_argument);
}

// Property sweep: CAM == direct layer across geometries (stride, padding,
// kernel sizes, group shapes) for both match modes.
struct GeomParam {
  std::int64_t cin, cout, k, stride, pad, p, d;
  bool angle;
};
class CamGeometrySweep : public ::testing::TestWithParam<GeomParam> {};

TEST_P(CamGeometrySweep, CamMatchesDirectForward) {
  const auto [cin, cout, k, stride, pad, p, d, angle] = GetParam();
  Rng rng(100 + cin + cout + k + p);
  pq::PecanConv2d layer("g", cin, cout, k, stride, pad, true,
                        angle ? angle_cfg(p, d) : dist_cfg(p, d), rng);
  layer.set_training(false);
  auto counter = std::make_shared<OpCounter>();
  CamConv2d exported(layer, counter);
  Tensor x = rng.randn({2, cin, 9, 9});
  Tensor direct = layer.forward(x);
  Tensor via_cam = exported.forward(x);
  ASSERT_TRUE(direct.same_shape(via_cam));
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    ASSERT_NEAR(direct[i], via_cam[i], 2e-3) << i;
  }
  if (!angle) EXPECT_EQ(counter->muls, 0u);
  // Dynamic count equals the closed form regardless of geometry.
  const ops::OpCount expected = exported.inference_ops() * 2;  // batch of 2
  EXPECT_EQ(counter->adds, expected.adds);
  EXPECT_EQ(counter->muls, expected.muls);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CamGeometrySweep,
    ::testing::Values(GeomParam{2, 3, 3, 1, 1, 4, 9, false},
                      GeomParam{2, 3, 3, 2, 1, 4, 9, false},
                      GeomParam{3, 4, 3, 1, 0, 8, 3, false},
                      GeomParam{4, 2, 5, 1, 2, 4, 25, false},
                      GeomParam{1, 6, 3, 3, 0, 16, 9, false},
                      GeomParam{2, 3, 3, 1, 1, 4, 9, true},
                      GeomParam{3, 4, 3, 2, 1, 3, 27, true},
                      GeomParam{4, 2, 5, 1, 2, 4, 20, true}));

TEST(CamConv2d, BackwardThrows) {
  Rng rng(12);
  pq::PecanConv2d layer("p", 1, 2, 3, 1, 0, false, dist_cfg(4, 9), rng);
  CamConv2d exported(layer, std::make_shared<OpCounter>());
  Tensor x = rng.randn({1, 1, 3, 3});
  exported.forward(x);
  EXPECT_THROW(exported.backward(Tensor({1, 2, 1, 1})), std::logic_error);
}

}  // namespace
}  // namespace pecan::cam
