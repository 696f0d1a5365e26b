#include "nn/adder_conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ops/complexity.hpp"
#include "util/thread_pool.hpp"

namespace pecan::nn {

AdderConv2d::AdderConv2d(std::string name, std::int64_t cin, std::int64_t cout, std::int64_t k,
                         std::int64_t stride, std::int64_t pad, Rng& rng)
    : name_(std::move(name)), cin_(cin), cout_(cout), k_(k), stride_(stride), pad_(pad),
      weight_(name_ + ".weight", rng.kaiming_normal({cout, cin * k * k}, cin * k * k)) {
  if (cin <= 0 || cout <= 0 || k <= 0) throw std::invalid_argument("AdderConv2d: bad dims");
}

Conv2dGeometry AdderConv2d::geometry(std::int64_t hin, std::int64_t win) const {
  return Conv2dGeometry{cin_, hin, win, k_, stride_, pad_};
}

Tensor AdderConv2d::forward(const Tensor& input) {
  InferContext ctx;
  Tensor output = infer(input, ctx);
  input_shape_ = input.shape();
  if (training_) cached_input_ = input;
  return output;
}

Tensor AdderConv2d::infer(const Tensor& input, InferContext& ctx) const {
  if (input.ndim() != 4 || input.dim(1) != cin_) {
    throw std::invalid_argument(name_ + ": expected [N," + std::to_string(cin_) + ",H,W]");
  }
  const std::int64_t n = input.dim(0), hin = input.dim(2), win = input.dim(3);
  const Conv2dGeometry g = geometry(hin, win);
  const std::int64_t rows = g.rows(), cols = g.cols();

  Tensor output({n, cout_, g.hout(), g.wout()});
  float* col_s = ctx.arena.floats(rows * cols);
  for (std::int64_t s = 0; s < n; ++s) {
    im2col(input.data() + s * cin_ * hin * win, g, col_s);
    float* out_s = output.data() + s * cout_ * cols;
    // Each lane writes a disjoint block of output channels (same
    // accumulation order as the serial loop — bitwise deterministic).
    const std::int64_t grain =
        std::max<std::int64_t>(1, (1 << 16) / std::max<std::int64_t>(cols * rows, 1));
    util::parallel_for(
        0, cout_,
        [&](std::int64_t c0, std::int64_t c1) {
          for (std::int64_t c = c0; c < c1; ++c) {
            const float* w = weight_.value.data() + c * rows;
            float* orow = out_s + c * cols;
            for (std::int64_t i = 0; i < cols; ++i) {
              float acc = 0.f;
              for (std::int64_t r = 0; r < rows; ++r) acc += std::fabs(col_s[r * cols + i] - w[r]);
              orow[i] = -acc;
            }
          }
        },
        grain);
  }
  return output;
}

Tensor AdderConv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  const std::int64_t n = cached_input_.dim(0);
  const std::int64_t hin = cached_input_.dim(2), win = cached_input_.dim(3);
  const Conv2dGeometry g = geometry(hin, win);
  const std::int64_t rows = g.rows(), cols = g.cols();

  Tensor grad_input(cached_input_.shape());
  Tensor cols_s({rows, cols});
  Tensor grad_cols({rows, cols});
  for (std::int64_t s = 0; s < n; ++s) {
    im2col(cached_input_.data() + s * cin_ * hin * win, g, cols_s.data());
    const float* col_s = cols_s.data();
    const float* gout = grad_output.data() + s * cout_ * cols;
    grad_cols.fill(0.f);
    for (std::int64_t c = 0; c < cout_; ++c) {
      const float* w = weight_.value.data() + c * rows;
      float* wg = weight_.grad.data() + c * rows;
      const float* grow = gout + c * cols;
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* xrow = col_s + r * cols;
        float* gcol = grad_cols.data() + r * cols;
        double wacc = 0;
        for (std::int64_t i = 0; i < cols; ++i) {
          const float diff = xrow[i] - w[r];  // dY/dX = -sign(X-W); AdderNet FP grads below
          // Filter gradient (full precision): d(-|X-W|)/dW = X - W.
          wacc += static_cast<double>(grow[i]) * diff;
          // Input gradient (HardTanh): d(-|X-W|)/dX = clip(W - X, -1, 1).
          gcol[i] += grow[i] * std::clamp(-diff, -1.f, 1.f);
        }
        wg[r] += static_cast<float>(wacc);
      }
    }
    col2im_accumulate(grad_cols.data(), g, grad_input.data() + s * cin_ * hin * win);
  }
  return grad_input;
}

std::vector<Parameter*> AdderConv2d::parameters() { return {&weight_}; }

ops::OpCount AdderConv2d::inference_ops() const {
  if (input_shape_.empty()) return {};
  const Conv2dGeometry g = geometry(input_shape_[2], input_shape_[3]);
  return ops::conv_addernet({cin_, cout_, k_, g.hout(), g.wout()});
}

}  // namespace pecan::nn
