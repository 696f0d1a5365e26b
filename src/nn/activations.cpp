#include "nn/activations.hpp"

#include <stdexcept>

namespace pecan::nn {

Tensor ReLU::forward(const Tensor& input) {
  InferContext ctx;
  Tensor output = infer(input, ctx);
  if (training_) output_ = output;
  return output;
}

Tensor ReLU::infer(const Tensor& input, InferContext&) const {
  Tensor output(input.shape());
  for (std::int64_t i = 0; i < input.numel(); ++i) output[i] = input[i] > 0.f ? input[i] : 0.f;
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (output_.empty()) throw std::logic_error(name_ + ": backward before forward");
  Tensor grad_input(grad_output.shape());
  // out > 0 exactly where in > 0, so the output is the mask.
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[i] = grad_output[i] * (output_[i] > 0.f ? 1.f : 0.f);
  }
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input) {
  InferContext ctx;
  Tensor output = infer(input, ctx);
  input_shape_ = input.shape();
  return output;
}

Tensor Flatten::infer(const Tensor& input, InferContext&) const {
  if (input.ndim() < 2) throw std::invalid_argument(name_ + ": need rank >= 2");
  const std::int64_t n = input.dim(0);
  return input.reshaped({n, input.numel() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  if (input_shape_.empty()) throw std::logic_error(name_ + ": backward before forward");
  return grad_output.reshaped(input_shape_);
}

}  // namespace pecan::nn
