// Tests for the PQ core: codebooks, k-means, PECAN-A/D layer semantics,
// STE behaviour, training strategies, introspection.
#include <gtest/gtest.h>

#include <cmath>

#include "core/introspect.hpp"
#include "core/pecan_conv2d.hpp"
#include "core/pecan_linear.hpp"
#include "core/strategy.hpp"
#include "nn/conv2d.hpp"
#include "nn/im2col.hpp"
#include "nn/residual.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace pecan::pq {
namespace {

PqLayerConfig angle_cfg(std::int64_t p, std::int64_t d, float tau = 1.f) {
  PqLayerConfig cfg;
  cfg.mode = MatchMode::Angle;
  cfg.p = p;
  cfg.d = d;
  cfg.temperature = tau;
  return cfg;
}

PqLayerConfig dist_cfg(std::int64_t p, std::int64_t d, float tau = 0.5f) {
  PqLayerConfig cfg;
  cfg.mode = MatchMode::Distance;
  cfg.p = p;
  cfg.d = d;
  cfg.temperature = tau;
  return cfg;
}

TEST(PqConfig, DeriveGroups) {
  EXPECT_EQ(derive_groups(8, 3, 9), 8);
  EXPECT_EQ(derive_groups(8, 3, 24), 3);
  EXPECT_EQ(derive_groups(16, 1, 4), 4);
  EXPECT_THROW(derive_groups(8, 3, 7), std::invalid_argument);
}

TEST(Codebook, StorageLayout) {
  Rng rng(1);
  Codebook cb("layer", 3, 4, 5, rng);
  EXPECT_EQ(cb.parameter().value.shape(), (Shape{3, 4, 5}));
  EXPECT_EQ(cb.parameter().name, "layer.codebook");
  // prototype(j, m) points into the contiguous block.
  EXPECT_EQ(cb.prototype(1, 2), cb.parameter().value.data() + (1 * 4 + 2) * 5);
}

TEST(Codebook, KmeansRecoversClusters) {
  Rng rng(2);
  // Two groups, two well-separated clusters per group.
  const std::int64_t d = 3, L = 40;
  Tensor stacked({2 * d, L});
  for (std::int64_t l = 0; l < L; ++l) {
    const float center = (l % 2 == 0) ? -5.f : 5.f;
    for (std::int64_t j = 0; j < 2; ++j) {
      for (std::int64_t i = 0; i < d; ++i) {
        stacked[(j * d + i) * L + l] = center + 0.1f * rng.normal();
      }
    }
  }
  Codebook cb("km", 2, 2, d, rng);
  cb.kmeans_init(stacked, 10, rng);
  for (std::int64_t j = 0; j < 2; ++j) {
    // The two prototypes should sit near -5 and +5 (order unspecified).
    const float m0 = cb.prototype(j, 0)[0];
    const float m1 = cb.prototype(j, 1)[0];
    EXPECT_NEAR(std::min(m0, m1), -5.f, 0.5f);
    EXPECT_NEAR(std::max(m0, m1), 5.f, 0.5f);
  }
}

// One sample column: every copy out of the gathered points ends exactly at
// the end of the buffer (checked under -D_GLIBCXX_ASSERTIONS in CI).
TEST(Codebook, KmeansSinglePointFitsPrototypeZero) {
  Rng rng(5);
  const std::int64_t groups = 2, p = 4, d = 3;
  const Tensor stacked = rng.randn({groups * d, 1});
  Codebook cb("km1", groups, p, d, rng);
  const Tensor before = cb.parameter().value;
  cb.kmeans_init(stacked, 3, rng);
  for (std::int64_t j = 0; j < groups; ++j) {
    for (std::int64_t i = 0; i < d; ++i) {
      EXPECT_EQ(cb.prototype(j, 0)[i], stacked[j * d + i]);
    }
    // Prototypes past the one sample keep their random initialization.
    for (std::int64_t m = 1; m < p; ++m) {
      for (std::int64_t i = 0; i < d; ++i) {
        EXPECT_EQ(cb.prototype(j, m)[i], before[(j * p + m) * d + i]);
      }
    }
  }
}

TEST(PecanConv, OutputShape) {
  Rng rng(3);
  PecanConv2d layer("p", 8, 16, 3, 1, 1, false, dist_cfg(4, 9), rng);
  Tensor x = rng.randn({2, 8, 10, 10});
  EXPECT_EQ(layer.forward(x).shape(), (Shape{2, 16, 10, 10}));
  EXPECT_EQ(layer.groups(), 8);
}

TEST(PecanConv, DistanceForwardUsesNearestPrototype) {
  Rng rng(4);
  PecanConv2d layer("p", 1, 2, 3, 1, 0, false, dist_cfg(4, 9), rng);
  layer.set_training(false);
  Tensor x = rng.randn({1, 1, 3, 3});
  Tensor y = layer.forward(x);
  // The output must equal W * prototype[argmin l1].
  Tensor cols = nn::im2col(x.reshaped({1, 3, 3}), {1, 3, 3, 3, 1, 0});
  const auto hard = layer.assignments(cols);
  const float* proto = layer.codebook().prototype(0, hard[0]);
  for (std::int64_t co = 0; co < 2; ++co) {
    double acc = 0;
    for (std::int64_t i = 0; i < 9; ++i) {
      acc += static_cast<double>(layer.weight().value[co * 9 + i]) * proto[i];
    }
    EXPECT_NEAR(y[co], acc, 1e-4);
  }
}

TEST(PecanConv, AngleForwardIsAttentionCombination) {
  Rng rng(5);
  PecanConv2d layer("p", 1, 1, 3, 1, 0, false, angle_cfg(3, 9), rng);
  layer.set_training(false);
  Tensor x = rng.randn({1, 1, 3, 3});
  Tensor y = layer.forward(x);
  // Hand-compute Eq. (2): K = softmax(C^T X), Xq = C K, y = W Xq.
  Tensor cols = nn::im2col(x.reshaped({1, 3, 3}), {1, 3, 3, 3, 1, 0});
  double scores[3];
  for (int m = 0; m < 3; ++m) {
    double s = 0;
    for (std::int64_t i = 0; i < 9; ++i) {
      s += static_cast<double>(layer.codebook().prototype(0, m)[i]) * cols[i];
    }
    scores[m] = s;
  }
  const double mx = std::max({scores[0], scores[1], scores[2]});
  double denom = 0;
  for (double& s : scores) {
    s = std::exp(s - mx);
    denom += s;
  }
  double expected = 0;
  for (int m = 0; m < 3; ++m) {
    const double weight = scores[m] / denom;
    for (std::int64_t i = 0; i < 9; ++i) {
      expected += weight * layer.codebook().prototype(0, m)[i] * layer.weight().value[i];
    }
  }
  EXPECT_NEAR(y[0], expected, 1e-3);
}

TEST(PecanConv, QuantizeColsIdempotentForDistance) {
  // Quantizing an already-quantized matrix is a fixed point: every column
  // IS a prototype, so its nearest prototype is itself.
  Rng rng(6);
  PecanConv2d layer("p", 2, 2, 3, 1, 1, false, dist_cfg(8, 9), rng);
  Tensor cols = rng.randn({18, 25});
  Tensor q1 = layer.quantize_cols(cols);
  Tensor q2 = layer.quantize_cols(q1);
  for (std::int64_t i = 0; i < q1.numel(); ++i) EXPECT_FLOAT_EQ(q1[i], q2[i]);
}

TEST(PecanConv, TrainEvalForwardAgreeForDistance) {
  // Both paths run the same group loop, and the training forward uses hard
  // assignments for Distance (STE) and the same softmax K for Angle, so its
  // output must be bitwise identical to the eval forward in both modes.
  for (const PqLayerConfig& cfg : {dist_cfg(8, 9), angle_cfg(8, 9)}) {
    Rng rng(7);
    PecanConv2d layer("p", 2, 3, 3, 1, 1, false, cfg, rng);
    Tensor x = rng.randn({2, 2, 6, 6});
    layer.set_training(true);
    Tensor y_train = layer.forward(x);
    layer.set_training(false);
    Tensor y_eval = layer.forward(x);
    ASSERT_TRUE(y_train.same_shape(y_eval));
    for (std::int64_t i = 0; i < y_train.numel(); ++i) {
      EXPECT_EQ(y_train[i], y_eval[i]) << "mode " << static_cast<int>(cfg.mode) << " element " << i;
    }
  }
}

TEST(PecanConv, InferMatchesEvalForwardBitwise) {
  // The stateless serving path must reproduce the eval forward exactly for
  // both matching modes — same match_group, same lookup, same GEMM order.
  Rng rng(9);
  PecanConv2d dist("pd", 2, 3, 3, 1, 1, true, dist_cfg(8, 9), rng);
  PecanConv2d angle("pa", 2, 3, 3, 1, 1, true, angle_cfg(8, 9), rng);
  Tensor x = rng.randn({2, 2, 6, 6});
  nn::InferContext ctx;
  for (PecanConv2d* layer : {&dist, &angle}) {
    layer->set_training(false);
    Tensor eval_out = layer->forward(x);
    ctx.reset();
    Tensor infer_out = layer->infer(x, ctx);
    ASSERT_TRUE(infer_out.same_shape(eval_out));
    for (std::int64_t i = 0; i < eval_out.numel(); ++i) {
      EXPECT_EQ(infer_out[i], eval_out[i]) << layer->name() << " element " << i;
    }
  }
}

TEST(PecanLinear, InferMatchesEvalForwardBitwise) {
  Rng rng(13);
  PecanLinear fc("fc", 16, 4, true, dist_cfg(4, 8), rng);
  fc.set_training(false);
  Tensor x = rng.randn({3, 16});
  Tensor eval_out = fc.forward(x);
  nn::InferContext ctx;
  Tensor infer_out = fc.infer(x, ctx);
  for (std::int64_t i = 0; i < eval_out.numel(); ++i) EXPECT_EQ(infer_out[i], eval_out[i]);
}

TEST(PecanConv, EpochProgressControlsSurrogateSharpness) {
  // Same setup, two epoch progresses: gradients must differ (the a=exp(4e/E)
  // schedule is live), and both must be finite.
  Rng rng(8);
  PqLayerConfig cfg = dist_cfg(4, 9);
  PecanConv2d layer("p", 1, 2, 3, 1, 0, false, cfg, rng);
  Tensor x = rng.randn({1, 1, 3, 3});
  Tensor gout({1, 2, 1, 1}, std::vector<float>{1.f, -1.f});

  layer.set_epoch_progress(0.0);
  layer.forward(x);
  layer.zero_grad();
  layer.backward(gout);
  Tensor grad_early = layer.codebook().parameter().grad;

  layer.set_epoch_progress(1.0);
  layer.forward(x);
  layer.zero_grad();
  layer.backward(gout);
  Tensor grad_late = layer.codebook().parameter().grad;

  float diff = 0.f;
  for (std::int64_t i = 0; i < grad_early.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(grad_early[i]));
    EXPECT_TRUE(std::isfinite(grad_late[i]));
    diff = std::max(diff, std::fabs(grad_early[i] - grad_late[i]));
  }
  EXPECT_GT(diff, 0.f);
}

TEST(PecanConv, SurrogateAblationChangesGradient) {
  Rng rng(9);
  Tensor x = rng.randn({1, 1, 3, 3});
  Tensor gout({1, 2, 1, 1}, std::vector<float>{1.f, 0.5f});
  Tensor grads[2];
  const SignSurrogate kinds[2] = {SignSurrogate::EpochTanh, SignSurrogate::Hard};
  for (int v = 0; v < 2; ++v) {
    Rng layer_rng(10);  // identical init
    PqLayerConfig cfg = dist_cfg(4, 9);
    cfg.surrogate = kinds[v];
    PecanConv2d layer("p", 1, 2, 3, 1, 0, false, cfg, layer_rng);
    layer.set_epoch_progress(0.2);
    layer.forward(x);
    layer.zero_grad();
    layer.backward(gout);
    grads[v] = layer.codebook().parameter().grad;
  }
  float diff = 0.f;
  for (std::int64_t i = 0; i < grads[0].numel(); ++i) {
    diff = std::max(diff, std::fabs(grads[0][i] - grads[1][i]));
  }
  EXPECT_GT(diff, 0.f);
}

TEST(PecanLinear, MatchesConvEquivalent) {
  Rng rng(11);
  PecanLinear fc("fc", 16, 4, true, dist_cfg(4, 4), rng);
  Tensor x = rng.randn({3, 16});
  Tensor y = fc.forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 4}));
  EXPECT_EQ(fc.conv().groups(), 4);
}

TEST(Strategy, FreezesNonCodebookParameters) {
  Rng rng(12);
  nn::Sequential net;
  net.emplace<PecanConv2d>("p1", 2, 4, 3, 1, 1, true, dist_cfg(4, 9), rng);
  apply_strategy(net, TrainingStrategy::UniOptimize);
  for (nn::Parameter* p : net.parameters()) {
    EXPECT_EQ(p->trainable, is_codebook_parameter(*p)) << p->name;
  }
  apply_strategy(net, TrainingStrategy::CoOptimize);
  for (nn::Parameter* p : net.parameters()) EXPECT_TRUE(p->trainable);

  const auto uni = trainable_parameters(net, TrainingStrategy::UniOptimize);
  ASSERT_EQ(uni.size(), 1u);
  EXPECT_EQ(uni[0]->name, "p1.codebook");
}

TEST(Strategy, Census) {
  Rng rng(13);
  nn::Sequential net;
  net.emplace<PecanConv2d>("p1", 1, 2, 3, 1, 0, false, dist_cfg(4, 9), rng);
  net.emplace<PecanLinear>("fc", 8, 2, true, dist_cfg(2, 4), rng);
  const ParameterCensus c = census(net);
  EXPECT_EQ(c.codebook_tensors, 2);
  EXPECT_EQ(c.codebook_scalars, 1 * 4 * 9 + 2 * 2 * 4);
  EXPECT_GT(c.other_scalars, 0);
}

TEST(Introspect, CollectsNestedPecanLayers) {
  Rng rng(14);
  auto main = std::make_unique<nn::Sequential>();
  main->emplace<PecanConv2d>("res.conv1", 2, 2, 3, 1, 1, false, dist_cfg(4, 9), rng);
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<PecanConv2d>("top", 2, 2, 3, 1, 1, false, dist_cfg(4, 9), rng);
  net->append(std::make_unique<nn::Residual>("res", std::move(main),
                                             std::make_unique<nn::Identity>(), true));
  net->emplace<PecanLinear>("fc", 8, 2, true, dist_cfg(2, 4), rng);
  // Flatten between residual and fc omitted on purpose: we only collect.
  const auto layers = collect_pecan_layers(*net);
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0]->name(), "top");
  EXPECT_EQ(layers[1]->name(), "res.conv1");
  EXPECT_EQ(layers[2]->name(), "fc");
}

TEST(Introspect, KmeansCalibrateReducesQuantizationError) {
  Rng rng(15);
  nn::Sequential net;
  auto* layer = net.emplace<PecanConv2d>("p", 2, 4, 3, 1, 1, false, dist_cfg(8, 9), rng);
  Tensor batch = rng.randn({8, 2, 8, 8});

  auto quant_error = [&]() {
    Tensor cols = nn::im2col(
        Tensor(Shape{2, 8, 8},
               std::vector<float>(batch.data(), batch.data() + 2 * 64)),
        {2, 8, 8, 3, 1, 1});
    Tensor q = layer->quantize_cols(cols);
    double err = 0;
    for (std::int64_t i = 0; i < cols.numel(); ++i) {
      err += std::fabs(cols[i] - q[i]);
    }
    return err;
  };

  const double before = quant_error();
  Rng km_rng(16);
  kmeans_calibrate(net, batch, 8, km_rng);
  const double after = quant_error();
  EXPECT_LT(after, before);
}

TEST(Introspect, LoadMatchingTransfersSharedNames) {
  Rng rng(17);
  nn::Sequential baseline;
  baseline.emplace<nn::Conv2d>("conv1", 2, 4, 3, 1, 1, false, rng);
  nn::Sequential pecan_net;
  auto* pl = pecan_net.emplace<PecanConv2d>("conv1", 2, 4, 3, 1, 1, false, dist_cfg(4, 9), rng);
  const std::int64_t loaded = load_matching(pecan_net, baseline.state_dict());
  EXPECT_EQ(loaded, 1);  // conv1.weight transfers; codebook has no source
  const Tensor& src = baseline.parameters()[0]->value;
  for (std::int64_t i = 0; i < src.numel(); ++i) {
    EXPECT_EQ(pl->weight().value[i], src[i]);
  }
}

// Property sweep over (p, d) grids: train/eval agreement and the D*d
// factorization invariant for PECAN-D.
struct PdParam {
  std::int64_t p, d;
};
class PecanSweep : public ::testing::TestWithParam<PdParam> {};

TEST_P(PecanSweep, DistanceInvariants) {
  const auto [p, d] = GetParam();
  Rng rng(100 + p * 10 + d);
  PecanConv2d layer("p", 4, 6, 3, 1, 1, false, dist_cfg(p, d), rng);
  EXPECT_EQ(layer.groups() * d, 4 * 9);
  Tensor x = rng.randn({1, 4, 5, 5});
  layer.set_training(true);
  Tensor y_train = layer.forward(x);
  layer.set_training(false);
  Tensor y_eval = layer.forward(x);
  for (std::int64_t i = 0; i < y_train.numel(); ++i) {
    ASSERT_FLOAT_EQ(y_train[i], y_eval[i]);
  }
  // Assignments are in range.
  Tensor cols = rng.randn({36, 10});
  for (std::int64_t idx : layer.assignments(cols)) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, p);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, PecanSweep,
                         ::testing::Values(PdParam{2, 3}, PdParam{4, 3}, PdParam{8, 3},
                                           PdParam{2, 9}, PdParam{4, 9}, PdParam{16, 9},
                                           PdParam{4, 12}, PdParam{8, 36}, PdParam{4, 4},
                                           PdParam{8, 6}, PdParam{32, 9}, PdParam{16, 18}));

}  // namespace
}  // namespace pecan::pq
