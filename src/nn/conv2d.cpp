#include "nn/conv2d.hpp"

#include <stdexcept>

#include "ops/complexity.hpp"
#include "tensor/sgemm.hpp"

namespace pecan::nn {

Conv2d::Conv2d(std::string name, std::int64_t cin, std::int64_t cout, std::int64_t k,
               std::int64_t stride, std::int64_t pad, bool bias, Rng& rng)
    : name_(std::move(name)), cin_(cin), cout_(cout), k_(k), stride_(stride), pad_(pad),
      has_bias_(bias),
      weight_(name_ + ".weight", rng.kaiming_normal({cout, cin * k * k}, cin * k * k)),
      bias_(name_ + ".bias", Tensor({cout})) {
  if (cin <= 0 || cout <= 0 || k <= 0) throw std::invalid_argument("Conv2d: bad dims");
}

Conv2dGeometry Conv2d::geometry(std::int64_t hin, std::int64_t win) const {
  return Conv2dGeometry{cin_, hin, win, k_, stride_, pad_};
}

Tensor Conv2d::forward(const Tensor& input) {
  InferContext ctx;
  Tensor output = infer(input, ctx);
  input_shape_ = input.shape();  // kept for inference_ops() even in eval mode
  if (training_) cached_input_ = input;
  return output;
}

Tensor Conv2d::infer(const Tensor& input, InferContext& ctx) const {
  if (input.ndim() != 4 || input.dim(1) != cin_) {
    throw std::invalid_argument(name_ + ": expected [N," + std::to_string(cin_) +
                                ",H,W], got " + shape_str(input.shape()));
  }
  const std::int64_t n = input.dim(0), hin = input.dim(2), win = input.dim(3);
  const Conv2dGeometry g = geometry(hin, win);
  const std::int64_t rows = g.rows(), cols = g.cols();

  Tensor output({n, cout_, g.hout(), g.wout()});
  // One im2col panel, reused per sample (backward re-unfolds its input).
  float* col_s = ctx.arena.floats(rows * cols);
  for (std::int64_t s = 0; s < n; ++s) {
    im2col(input.data() + s * cin_ * hin * win, g, col_s);
    // Y = W[cout, rows] * cols[rows, cols]
    matmul(weight_.value.data(), col_s, output.data() + s * cout_ * cols, cout_, cols, rows);
  }
  if (has_bias_) {
    for (std::int64_t s = 0; s < n; ++s) {
      for (std::int64_t c = 0; c < cout_; ++c) {
        float* out = output.data() + (s * cout_ + c) * cols;
        const float b = bias_.value[c];
        for (std::int64_t i = 0; i < cols; ++i) out[i] += b;
      }
    }
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  const std::int64_t n = cached_input_.dim(0);
  const std::int64_t hin = cached_input_.dim(2), win = cached_input_.dim(3);
  const Conv2dGeometry g = geometry(hin, win);
  const std::int64_t rows = g.rows(), cols = g.cols();

  Tensor grad_input(cached_input_.shape());
  Tensor col_s({rows, cols});
  Tensor grad_cols({rows, cols});
  for (std::int64_t s = 0; s < n; ++s) {
    const float* gout = grad_output.data() + s * cout_ * cols;
    im2col(cached_input_.data() + s * cin_ * hin * win, g, col_s.data());
    // dW += gout[cout, cols] * cols^T[cols, rows]
    sgemm(false, true, cout_, rows, cols, 1.f, gout, cols, col_s.data(), cols, 1.f,
          weight_.grad.data(), rows);
    // dcols = W^T[rows, cout] * gout[cout, cols]
    sgemm(true, false, rows, cols, cout_, 1.f, weight_.value.data(), rows, gout, cols, 0.f,
          grad_cols.data(), cols);
    col2im_accumulate(grad_cols.data(), g, grad_input.data() + s * cin_ * hin * win);
    if (has_bias_) {
      for (std::int64_t c = 0; c < cout_; ++c) {
        double acc = 0;
        const float* grow = gout + c * cols;
        for (std::int64_t i = 0; i < cols; ++i) acc += grow[i];
        bias_.grad[c] += static_cast<float>(acc);
      }
    }
  }
  return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
  std::vector<Parameter*> params{&weight_};
  if (has_bias_) params.push_back(&bias_);
  return params;
}

ops::OpCount Conv2d::inference_ops() const {
  // Per paper convention the op table is computed at the model's nominal
  // input size; layers capture Hout*Wout lazily from the last forward if
  // available, so call forward once (shape probe) before reading this.
  if (input_shape_.empty()) return {};
  const Conv2dGeometry g = geometry(input_shape_[2], input_shape_[3]);
  return ops::conv_baseline({cin_, cout_, k_, g.hout(), g.wout()});
}

void Conv2d::fold_scale_shift(const Tensor& scale, const Tensor& shift) {
  if (scale.numel() != cout_ || shift.numel() != cout_) {
    throw std::invalid_argument(name_ + ": fold_scale_shift size mismatch");
  }
  const std::int64_t rows = cin_ * k_ * k_;
  for (std::int64_t c = 0; c < cout_; ++c) {
    float* wrow = weight_.value.data() + c * rows;
    for (std::int64_t i = 0; i < rows; ++i) wrow[i] *= scale[c];
    bias_.value[c] = bias_.value[c] * scale[c] + shift[c];
  }
  has_bias_ = true;
}

}  // namespace pecan::nn
