#include "nn/linear.hpp"

#include <stdexcept>

#include "ops/complexity.hpp"
#include "tensor/sgemm.hpp"

namespace pecan::nn {

Linear::Linear(std::string name, std::int64_t in_features, std::int64_t out_features, bool bias,
               Rng& rng)
    : name_(std::move(name)), in_(in_features), out_(out_features), has_bias_(bias),
      weight_(name_ + ".weight", rng.kaiming_normal({out_features, in_features}, in_features)),
      bias_(name_ + ".bias", Tensor({out_features})) {
  if (in_ <= 0 || out_ <= 0) throw std::invalid_argument("Linear: bad dims");
}

Tensor Linear::forward(const Tensor& input) {
  InferContext ctx;
  Tensor output = infer(input, ctx);
  if (training_) cached_input_ = input;
  return output;
}

Tensor Linear::infer(const Tensor& input, InferContext&) const {
  if (input.ndim() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument(name_ + ": expected [N," + std::to_string(in_) + "], got " +
                                shape_str(input.shape()));
  }
  const std::int64_t n = input.dim(0);
  Tensor output({n, out_});
  // Y[n, out] = X[n, in] * W^T[in, out]
  sgemm(false, true, n, out_, in_, 1.f, input.data(), in_, weight_.value.data(), in_, 0.f,
        output.data(), out_);
  if (has_bias_) {
    for (std::int64_t s = 0; s < n; ++s) {
      float* row = output.data() + s * out_;
      for (std::int64_t o = 0; o < out_; ++o) row[o] += bias_.value[o];
    }
  }
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  const std::int64_t n = cached_input_.dim(0);
  // dW[out, in] += gout^T[out, n] * X[n, in]
  sgemm(true, false, out_, in_, n, 1.f, grad_output.data(), out_, cached_input_.data(), in_, 1.f,
        weight_.grad.data(), in_);
  if (has_bias_) {
    for (std::int64_t s = 0; s < n; ++s) {
      const float* row = grad_output.data() + s * out_;
      for (std::int64_t o = 0; o < out_; ++o) bias_.grad[o] += row[o];
    }
  }
  // dX[n, in] = gout[n, out] * W[out, in]
  Tensor grad_input({n, in_});
  sgemm(false, false, n, in_, out_, 1.f, grad_output.data(), out_, weight_.value.data(), in_, 0.f,
        grad_input.data(), in_);
  return grad_input;
}

std::vector<Parameter*> Linear::parameters() {
  std::vector<Parameter*> params{&weight_};
  if (has_bias_) params.push_back(&bias_);
  return params;
}

ops::OpCount Linear::inference_ops() const { return ops::fc_baseline(in_, out_); }

}  // namespace pecan::nn
