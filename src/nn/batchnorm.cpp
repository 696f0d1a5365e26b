#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

namespace pecan::nn {

BatchNorm2d::BatchNorm2d(std::string name, std::int64_t channels, float momentum, float eps)
    : name_(std::move(name)), channels_(channels), momentum_(momentum), eps_(eps),
      gamma_(name_ + ".gamma", Tensor({channels}, 1.f)),
      beta_(name_ + ".beta", Tensor({channels})),
      running_mean_({channels}), running_var_({channels}, 1.f) {
  if (channels <= 0) throw std::invalid_argument("BatchNorm2d: bad channels");
}

Tensor BatchNorm2d::forward(const Tensor& input) {
  // Only the training branch is different math (batch statistics); eval
  // mode normalizes with the frozen running statistics, as infer() does.
  if (!training_) {
    InferContext ctx;
    return infer(input, ctx);
  }
  if (input.ndim() != 4 || input.dim(1) != channels_) {
    throw std::invalid_argument(name_ + ": expected [N," + std::to_string(channels_) + ",H,W]");
  }
  const std::int64_t n = input.dim(0), hw = input.dim(2) * input.dim(3);
  const std::int64_t count = n * hw;
  Tensor output(input.shape());

  input_shape_ = input.shape();
  cached_xhat_ = Tensor(input.shape());
  batch_inv_std_ = Tensor({channels_});
  for (std::int64_t c = 0; c < channels_; ++c) {
    double sum = 0, sq = 0;
    for (std::int64_t s = 0; s < n; ++s) {
      const float* plane = input.data() + (s * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        sum += plane[i];
        sq += static_cast<double>(plane[i]) * plane[i];
      }
    }
    const float m = static_cast<float>(sum / count);
    const float v = static_cast<float>(sq / count - static_cast<double>(m) * m);
    const float inv_std = 1.f / std::sqrt(v + eps_);
    batch_inv_std_[c] = inv_std;
    running_mean_[c] = (1.f - momentum_) * running_mean_[c] + momentum_ * m;
    // Unbiased variance in the running estimate, as torch does.
    const float unbiased = count > 1 ? v * static_cast<float>(count) / (count - 1) : v;
    running_var_[c] = (1.f - momentum_) * running_var_[c] + momentum_ * unbiased;
    const float g = gamma_.value[c], b = beta_.value[c];
    for (std::int64_t s = 0; s < n; ++s) {
      const float* in = input.data() + (s * channels_ + c) * hw;
      float* xh = cached_xhat_.data() + (s * channels_ + c) * hw;
      float* out = output.data() + (s * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        xh[i] = (in[i] - m) * inv_std;
        out[i] = g * xh[i] + b;
      }
    }
  }
  return output;
}

Tensor BatchNorm2d::infer(const Tensor& input, InferContext&) const {
  if (input.ndim() != 4 || input.dim(1) != channels_) {
    throw std::invalid_argument(name_ + ": expected [N," + std::to_string(channels_) + ",H,W]");
  }
  const std::int64_t n = input.dim(0), hw = input.dim(2) * input.dim(3);
  Tensor output(input.shape());
  for (std::int64_t c = 0; c < channels_; ++c) {
    const float inv_std = 1.f / std::sqrt(running_var_[c] + eps_);
    const float scale = gamma_.value[c] * inv_std;
    const float shift = beta_.value[c] - running_mean_[c] * scale;
    for (std::int64_t s = 0; s < n; ++s) {
      const float* in = input.data() + (s * channels_ + c) * hw;
      float* out = output.data() + (s * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) out[i] = scale * in[i] + shift;
    }
  }
  return output;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  if (cached_xhat_.empty()) throw std::logic_error(name_ + ": backward before forward");
  const std::int64_t n = input_shape_[0], hw = input_shape_[2] * input_shape_[3];
  const std::int64_t count = n * hw;
  Tensor grad_input(input_shape_);
  for (std::int64_t c = 0; c < channels_; ++c) {
    double dg = 0, db = 0;
    for (std::int64_t s = 0; s < n; ++s) {
      const float* g = grad_output.data() + (s * channels_ + c) * hw;
      const float* xh = cached_xhat_.data() + (s * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        dg += static_cast<double>(g[i]) * xh[i];
        db += g[i];
      }
    }
    gamma_.grad[c] += static_cast<float>(dg);
    beta_.grad[c] += static_cast<float>(db);
    // dx = gamma*inv_std/count * (count*dy - sum(dy) - xhat * sum(dy*xhat))
    const float scale = gamma_.value[c] * batch_inv_std_[c] / static_cast<float>(count);
    for (std::int64_t s = 0; s < n; ++s) {
      const float* g = grad_output.data() + (s * channels_ + c) * hw;
      const float* xh = cached_xhat_.data() + (s * channels_ + c) * hw;
      float* gi = grad_input.data() + (s * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        gi[i] = scale * (static_cast<float>(count) * g[i] - static_cast<float>(db) -
                         xh[i] * static_cast<float>(dg));
      }
    }
  }
  return grad_input;
}

std::vector<Parameter*> BatchNorm2d::parameters() { return {&gamma_, &beta_}; }

Tensor BatchNorm2d::inference_scale() const {
  Tensor scale({channels_});
  for (std::int64_t c = 0; c < channels_; ++c) {
    scale[c] = gamma_.value[c] / std::sqrt(running_var_[c] + eps_);
  }
  return scale;
}

Tensor BatchNorm2d::inference_shift() const {
  Tensor shift({channels_});
  for (std::int64_t c = 0; c < channels_; ++c) {
    const float scale = gamma_.value[c] / std::sqrt(running_var_[c] + eps_);
    shift[c] = beta_.value[c] - running_mean_[c] * scale;
  }
  return shift;
}

}  // namespace pecan::nn
