#include "nn/pooling.hpp"

#include <limits>
#include <stdexcept>

namespace pecan::nn {

MaxPool2d::MaxPool2d(std::string name, std::int64_t k, std::int64_t stride)
    : name_(std::move(name)), k_(k), stride_(stride) {
  if (k <= 0 || stride <= 0) throw std::invalid_argument("MaxPool2d: bad k/stride");
}

Tensor MaxPool2d::forward(const Tensor& input) {
  Tensor output = pool(input, training_ ? &argmax_ : nullptr);
  if (training_) input_shape_ = input.shape();
  return output;
}

Tensor MaxPool2d::infer(const Tensor& input, InferContext&) const { return pool(input, nullptr); }

Tensor MaxPool2d::pool(const Tensor& input, std::vector<std::int64_t>* argmax) const {
  if (input.ndim() != 4) throw std::invalid_argument(name_ + ": need NCHW");
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const std::int64_t ho = (h - k_) / stride_ + 1, wo = (w - k_) / stride_ + 1;
  if (ho <= 0 || wo <= 0) throw std::invalid_argument(name_ + ": window larger than input");

  Tensor output({n, c, ho, wo});
  if (argmax) argmax->assign(static_cast<std::size_t>(n * c * ho * wo), 0);
  for (std::int64_t s = 0; s < n * c; ++s) {
    const float* plane = input.data() + s * h * w;
    float* out = output.data() + s * ho * wo;
    for (std::int64_t oi = 0; oi < ho; ++oi) {
      for (std::int64_t oj = 0; oj < wo; ++oj) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = 0;
        for (std::int64_t ki = 0; ki < k_; ++ki) {
          for (std::int64_t kj = 0; kj < k_; ++kj) {
            const std::int64_t idx = (oi * stride_ + ki) * w + oj * stride_ + kj;
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
        }
        out[oi * wo + oj] = best;
        if (argmax) (*argmax)[static_cast<std::size_t>(s * ho * wo + oi * wo + oj)] = s * h * w + best_idx;
      }
    }
  }
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (argmax_.empty()) throw std::logic_error(name_ + ": backward before forward");
  Tensor grad_input(input_shape_);
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[argmax_[static_cast<std::size_t>(i)]] += grad_output[i];
  }
  return grad_input;
}

Tensor GlobalAvgPool::forward(const Tensor& input) {
  InferContext ctx;
  Tensor output = infer(input, ctx);
  input_shape_ = input.shape();
  return output;
}

Tensor GlobalAvgPool::infer(const Tensor& input, InferContext&) const {
  if (input.ndim() != 4) throw std::invalid_argument(name_ + ": need NCHW");
  const std::int64_t n = input.dim(0), c = input.dim(1), hw = input.dim(2) * input.dim(3);
  Tensor output({n, c});
  for (std::int64_t s = 0; s < n * c; ++s) {
    const float* plane = input.data() + s * hw;
    double acc = 0;
    for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
    output[s] = static_cast<float>(acc / static_cast<double>(hw));
  }
  return output;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  if (input_shape_.empty()) throw std::logic_error(name_ + ": backward before forward");
  const std::int64_t hw = input_shape_[2] * input_shape_[3];
  Tensor grad_input(input_shape_);
  const float inv = 1.f / static_cast<float>(hw);
  for (std::int64_t s = 0; s < grad_output.numel(); ++s) {
    float* plane = grad_input.data() + s * hw;
    const float g = grad_output[s] * inv;
    for (std::int64_t i = 0; i < hw; ++i) plane[i] = g;
  }
  return grad_input;
}

}  // namespace pecan::nn
