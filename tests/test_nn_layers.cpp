// Unit tests for the nn substrate: im2col, Conv2d, Linear, ReLU, pooling,
// BatchNorm (incl. folding), AdderConv, residual blocks, loss.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/adder_conv.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/im2col.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "nn/residual.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace pecan::nn {
namespace {

TEST(Im2col, GeometryMath) {
  Conv2dGeometry g{3, 32, 32, 3, 1, 1};
  EXPECT_EQ(g.hout(), 32);
  EXPECT_EQ(g.wout(), 32);
  EXPECT_EQ(g.rows(), 27);
  EXPECT_EQ(g.cols(), 1024);
  Conv2dGeometry strided{16, 32, 32, 3, 2, 1};
  EXPECT_EQ(strided.hout(), 16);
}

TEST(Im2col, KnownValues) {
  // 1x3x3 image, k=2, stride 1, no pad -> 4 columns of 4 entries.
  Tensor image({1, 3, 3});
  for (std::int64_t i = 0; i < 9; ++i) image[i] = static_cast<float>(i);
  Conv2dGeometry g{1, 3, 3, 2, 1, 0};
  Tensor cols = im2col(image, g);
  ASSERT_EQ(cols.dim(0), 4);
  ASSERT_EQ(cols.dim(1), 4);
  // Column 0 covers pixels (0,0),(0,1),(1,0),(1,1) = 0,1,3,4.
  EXPECT_FLOAT_EQ(cols.at({0, 0}), 0.f);
  EXPECT_FLOAT_EQ(cols.at({1, 0}), 1.f);
  EXPECT_FLOAT_EQ(cols.at({2, 0}), 3.f);
  EXPECT_FLOAT_EQ(cols.at({3, 0}), 4.f);
  // Column 3 covers pixels 4,5,7,8.
  EXPECT_FLOAT_EQ(cols.at({0, 3}), 4.f);
  EXPECT_FLOAT_EQ(cols.at({3, 3}), 8.f);
}

TEST(Im2col, PaddingWritesZeros) {
  Tensor image({1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Conv2dGeometry g{1, 2, 2, 3, 1, 1};
  Tensor cols = im2col(image, g);
  // Top-left output: kernel corner (0,0) lands on padding.
  EXPECT_FLOAT_EQ(cols.at({0, 0}), 0.f);
  EXPECT_FLOAT_EQ(cols.at({4, 0}), 1.f);  // center hits pixel (0,0)
}

TEST(Im2col, Col2imRoundTripAccumulates) {
  // Sum over col2im(im2col(x)) counts each pixel as many times as it is
  // covered by a kernel window — verify via all-ones gradient.
  Rng rng(3);
  Conv2dGeometry g{2, 5, 5, 3, 1, 0};
  Tensor grad_cols({g.rows(), g.cols()}, 1.f);
  Tensor image_grad({2, 5, 5});
  col2im_accumulate(grad_cols.data(), g, image_grad.data());
  // Center pixel (2,2) is covered by all 9 windows.
  EXPECT_FLOAT_EQ(image_grad.at({0, 2, 2}), 9.f);
  // Corner pixel only by 1 window.
  EXPECT_FLOAT_EQ(image_grad.at({1, 0, 0}), 1.f);
}

TEST(Conv2d, MatchesDirectConvolution) {
  Rng rng(7);
  Conv2d conv("c", 2, 3, 3, 1, 1, /*bias=*/true, rng);
  Tensor x = rng.randn({2, 2, 5, 5});
  Tensor y = conv.forward(x);
  ASSERT_EQ(y.shape(), (Shape{2, 3, 5, 5}));
  // Direct computation at a few sites.
  for (std::int64_t s = 0; s < 2; ++s) {
    for (std::int64_t co = 0; co < 3; ++co) {
      double acc = conv.bias().value[co];
      for (std::int64_t ci = 0; ci < 2; ++ci) {
        for (std::int64_t ki = 0; ki < 3; ++ki) {
          for (std::int64_t kj = 0; kj < 3; ++kj) {
            const std::int64_t ii = 2 + ki - 1, jj = 2 + kj - 1;
            acc += static_cast<double>(conv.weight().value[co * 18 + (ci * 3 + ki) * 3 + kj]) *
                   x.at({s, ci, ii, jj});
          }
        }
      }
      EXPECT_NEAR(y.at({s, co, 2, 2}), acc, 1e-4);
    }
  }
}

TEST(Conv2d, StrideAndNoPad) {
  Rng rng(9);
  Conv2d conv("c", 1, 1, 3, 2, 0, false, rng);
  Tensor x = rng.randn({1, 1, 7, 7});
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
}

TEST(Conv2d, FoldScaleShift) {
  Rng rng(11);
  Conv2d conv("c", 2, 4, 3, 1, 1, false, rng);
  Tensor x = rng.randn({1, 2, 6, 6});
  Tensor before = conv.forward(x);
  Tensor scale({4}), shift({4});
  for (std::int64_t c = 0; c < 4; ++c) {
    scale[c] = 0.5f + 0.1f * static_cast<float>(c);
    shift[c] = -0.2f * static_cast<float>(c);
  }
  conv.fold_scale_shift(scale, shift);
  Tensor after = conv.forward(x);
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    const std::int64_t c = (i / 36) % 4;
    EXPECT_NEAR(after[i], before[i] * scale[c] + shift[c], 1e-4);
  }
}

TEST(Linear, MatchesManual) {
  Rng rng(13);
  Linear fc("fc", 4, 3, true, rng);
  Tensor x = rng.randn({2, 4});
  Tensor y = fc.forward(x);
  for (std::int64_t s = 0; s < 2; ++s) {
    for (std::int64_t o = 0; o < 3; ++o) {
      double acc = fc.bias().value[o];
      for (std::int64_t i = 0; i < 4; ++i) {
        acc += static_cast<double>(fc.weight().value[o * 4 + i]) * x[s * 4 + i];
      }
      EXPECT_NEAR(y[s * 3 + o], acc, 1e-5);
    }
  }
}

TEST(ReLU, ForwardBackward) {
  ReLU relu;
  Tensor x({4}, std::vector<float>{-1.f, 0.f, 2.f, -3.f});
  Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.f);
  EXPECT_FLOAT_EQ(y[2], 2.f);
  Tensor g({4}, std::vector<float>{1.f, 1.f, 1.f, 1.f});
  Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.f);
  EXPECT_FLOAT_EQ(gx[2], 1.f);
}

TEST(MaxPool2d, ForwardPicksMaxAndRoutesGrad) {
  MaxPool2d pool("p", 2, 2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1.f, 5.f, 3.f, 2.f});
  Tensor y = pool.forward(x);
  ASSERT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.f);
  Tensor g({1, 1, 1, 1}, std::vector<float>{2.f});
  Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[1], 2.f);
  EXPECT_FLOAT_EQ(gx[0], 0.f);
}

TEST(GlobalAvgPool, ForwardBackward) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = gap.forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 10.f);
  Tensor g({1, 2}, std::vector<float>{4.f, 8.f});
  Tensor gx = gap.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 1.f);
  EXPECT_FLOAT_EQ(gx[4], 2.f);
}

TEST(BatchNorm2d, NormalizesTrainingBatch) {
  Rng rng(17);
  BatchNorm2d bn("bn", 3);
  Tensor x = rng.randn({4, 3, 5, 5}, 2.f, 3.f);
  Tensor y = bn.forward(x);
  // Per channel the output should be ~zero-mean unit-variance.
  for (std::int64_t c = 0; c < 3; ++c) {
    double sum = 0, sq = 0;
    for (std::int64_t s = 0; s < 4; ++s) {
      for (std::int64_t i = 0; i < 25; ++i) {
        const float v = y[(s * 3 + c) * 25 + i];
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    }
    EXPECT_NEAR(sum / 100.0, 0.0, 1e-4);
    EXPECT_NEAR(sq / 100.0, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  Rng rng(19);
  BatchNorm2d bn("bn", 2);
  Tensor x = rng.randn({8, 2, 4, 4}, 1.f, 2.f);
  for (int i = 0; i < 20; ++i) bn.forward(x);  // converge running stats
  bn.set_training(false);
  Tensor y = bn.forward(x);
  // Eval path must agree with the scale/shift decomposition.
  const Tensor scale = bn.inference_scale();
  const Tensor shift = bn.inference_shift();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const std::int64_t c = (i / 16) % 2;
    EXPECT_NEAR(y[i], x[i] * scale[c] + shift[c], 1e-4);
  }
}

TEST(AdderConv2d, OutputIsNegativeL1) {
  Rng rng(23);
  AdderConv2d conv("a", 1, 2, 3, 1, 0, rng);
  Tensor x = rng.randn({1, 1, 3, 3});
  Tensor y = conv.forward(x);
  ASSERT_EQ(y.shape(), (Shape{1, 2, 1, 1}));
  for (std::int64_t co = 0; co < 2; ++co) {
    double acc = 0;
    for (std::int64_t r = 0; r < 9; ++r) {
      acc += std::fabs(x[r] - conv.weight().value[co * 9 + r]);
    }
    EXPECT_NEAR(y[co], -acc, 1e-4);
  }
}

TEST(OptionAShortcut, SubsamplesAndZeroPadsChannels) {
  OptionAShortcut sc("s", 2, 4, 2);
  Tensor x({1, 2, 4, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  Tensor y = sc.forward(x);
  ASSERT_EQ(y.shape(), (Shape{1, 4, 2, 2}));
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), x.at({0, 0, 0, 0}));
  EXPECT_FLOAT_EQ(y.at({0, 0, 1, 1}), x.at({0, 0, 2, 2}));
  // Padded channels are zero.
  EXPECT_FLOAT_EQ(y.at({0, 2, 0, 0}), 0.f);
  EXPECT_FLOAT_EQ(y.at({0, 3, 1, 1}), 0.f);
}

TEST(Residual, AddsBranchesAndRelus) {
  Rng rng(29);
  auto main = std::make_unique<Identity>();
  auto shortcut = std::make_unique<Identity>();
  Residual res("r", std::move(main), std::move(shortcut), /*relu_after=*/true);
  Tensor x({2}, std::vector<float>{1.f, -2.f});
  Tensor y = res.forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.f);
  EXPECT_FLOAT_EQ(y[1], 0.f);  // relu(-4)
  Tensor g({2}, std::vector<float>{1.f, 1.f});
  Tensor gx = res.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 2.f);  // both branches
  EXPECT_FLOAT_EQ(gx[1], 0.f);  // masked by relu
}

TEST(SoftmaxCrossEntropy, KnownLoss) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 3}, std::vector<float>{0.f, 0.f, 0.f});
  const float value = loss.forward(logits, {1});
  EXPECT_NEAR(value, std::log(3.f), 1e-5);
  Tensor grad = loss.backward();
  EXPECT_NEAR(grad[0], 1.f / 3.f, 1e-5);
  EXPECT_NEAR(grad[1], 1.f / 3.f - 1.f, 1e-5);
}

TEST(SoftmaxCrossEntropy, AccuracyPercent) {
  Tensor logits({4, 2}, std::vector<float>{2.f, 1.f, 0.f, 3.f, 5.f, -1.f, 0.f, 0.1f});
  const double acc = accuracy_percent(logits, {0, 1, 0, 0});
  EXPECT_DOUBLE_EQ(acc, 75.0);
}

// --------------------------------------------------- stateless infer path

/// Every element must match bit-for-bit: forward() computes each layer's
/// output through infer(), in eval mode and, for every layer but
/// BatchNorm2d's batch statistics, in training mode too.
void expect_bitwise(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]) << "element " << i;
}

void add_conv_stack(Sequential& net, bool with_bn, Rng& rng) {
  net.emplace<Conv2d>("conv", 2, 4, 3, 1, 1, /*bias=*/true, rng);
  if (with_bn) net.emplace<BatchNorm2d>("bn", 4);
  net.emplace<ReLU>("relu");
  net.emplace<MaxPool2d>("pool", 2, 2);
  net.emplace<Flatten>("flatten");
  net.emplace<Linear>("fc", 4 * 4 * 4, 5, /*bias=*/true, rng);
}

TEST(InferPath, ConvStackMatchesEvalForwardBitwise) {
  Rng rng(33);
  Sequential net("stack");
  add_conv_stack(net, /*with_bn=*/true, rng);
  // Run one training step so BN has non-trivial running stats.
  Rng data_rng(35);
  net.forward(data_rng.randn({4, 2, 8, 8}));
  net.set_training(false);

  Tensor x = data_rng.randn({3, 2, 8, 8});
  Tensor eval_out = net.forward(x);
  InferContext ctx;
  expect_bitwise(net.infer(x, ctx), eval_out);
  // Second call reuses the arena slots and must be unchanged.
  ctx.reset();
  expect_bitwise(net.infer(x, ctx), eval_out);

  // Without BN, a training forward (which also fills the backward caches)
  // computes the very same output.
  Rng bn_free_rng(33);
  Sequential bn_free("stack_no_bn");
  add_conv_stack(bn_free, /*with_bn=*/false, bn_free_rng);
  Tensor train_out = bn_free.forward(x);
  ctx.reset();
  expect_bitwise(bn_free.infer(x, ctx), train_out);
}

std::unique_ptr<Sequential> make_residual_net(bool with_bn, Rng& rng) {
  auto main = std::make_unique<Sequential>("main");
  main->emplace<AdderConv2d>("adder", 2, 4, 3, 2, 1, rng);
  if (with_bn) main->emplace<BatchNorm2d>("bn", 4);
  auto shortcut = std::make_unique<OptionAShortcut>("sc", 2, 4, 2);
  auto net = std::make_unique<Sequential>("res");
  net->append(std::make_unique<Residual>("r", std::move(main), std::move(shortcut), true));
  net->emplace<GlobalAvgPool>("gap");
  return net;
}

TEST(InferPath, ResidualAdderGapMatchEvalForward) {
  Rng rng(37);
  auto net = make_residual_net(/*with_bn=*/true, rng);
  Rng data_rng(39);
  net->forward(data_rng.randn({2, 2, 8, 8}));
  net->set_training(false);

  Tensor x = data_rng.randn({2, 2, 8, 8});
  Tensor eval_out = net->forward(x);
  InferContext ctx;
  expect_bitwise(net->infer(x, ctx), eval_out);

  Rng bn_free_rng(37);
  auto bn_free = make_residual_net(/*with_bn=*/false, bn_free_rng);
  Tensor train_out = bn_free->forward(x);
  ctx.reset();
  expect_bitwise(bn_free->infer(x, ctx), train_out);
}

TEST(InferPath, InferIsConstAndLeavesTrainingStateAlone) {
  Rng rng(41);
  Sequential net("n");
  net.emplace<Conv2d>("conv", 1, 2, 3, 1, 0, true, rng);
  net.emplace<ReLU>("relu");
  Rng data_rng(43);
  Tensor train_x = data_rng.randn({2, 1, 6, 6});
  net.forward(train_x);  // caches backward context
  // A const infer() must not disturb the pending backward.
  const Sequential& frozen = net;
  InferContext ctx;
  frozen.infer(data_rng.randn({1, 1, 6, 6}), ctx);
  Tensor g({2, 2, 4, 4}, 1.f);
  EXPECT_NO_THROW(net.backward(g));
}

TEST(InferPath, TrainingOnlyModulesThrow) {
  // Modules without an override (e.g. losses) must fail loudly, not serve
  // garbage.
  class TrainOnly : public Module {
   public:
    Tensor forward(const Tensor& input) override { return input; }
    Tensor backward(const Tensor& g) override { return g; }
    std::string name() const override { return "train_only"; }
  };
  TrainOnly m;
  InferContext ctx;
  EXPECT_THROW(m.infer(Tensor({1}), ctx), std::logic_error);
}

TEST(ScratchArena, SlotsAreReusedAfterReset) {
  ScratchArena arena;
  float* a = arena.floats(128);
  std::int64_t* b = arena.ints(16);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const std::int64_t resident = arena.resident_bytes();
  EXPECT_EQ(resident, 128 * 4 + 16 * 8);  // 128 floats + 16 int64s

  arena.reset();
  // Same slot order, smaller-or-equal requests: identical pointers, no
  // new allocation (the steady-state serving guarantee).
  EXPECT_EQ(arena.floats(64), a);
  EXPECT_EQ(arena.ints(16), b);
  EXPECT_EQ(arena.resident_bytes(), resident);

  // A bigger request regrows that slot only.
  arena.reset();
  float* grown = arena.floats(256);
  ASSERT_NE(grown, nullptr);
  EXPECT_EQ(arena.resident_bytes(), 256 * 4 + 16 * 8);
}

TEST(ScratchArena, DistinctSlotsDoNotAlias) {
  ScratchArena arena;
  float* a = arena.floats(32);
  float* b = arena.floats(32);
  EXPECT_NE(a, b);
  for (int i = 0; i < 32; ++i) {
    a[i] = 1.f;
    b[i] = 2.f;
  }
  EXPECT_EQ(a[0], 1.f);
}

TEST(Sequential, ChainsAndCollectsParams) {
  Rng rng(31);
  Sequential net("mini");
  net.emplace<Linear>("fc1", 4, 8, true, rng);
  net.emplace<ReLU>("r");
  net.emplace<Linear>("fc2", 8, 2, true, rng);
  EXPECT_EQ(net.parameters().size(), 4u);
  Tensor x = rng.randn({3, 4});
  Tensor y = net.forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  // state_dict round trip.
  TensorMap state = net.state_dict();
  EXPECT_EQ(state.size(), 4u);
  EXPECT_TRUE(state.count("fc1.weight"));
  net.load_state_dict(state);
}

}  // namespace
}  // namespace pecan::nn
