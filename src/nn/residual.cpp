#include "nn/residual.hpp"

#include <stdexcept>

#include "tensor/tensor_ops.hpp"

namespace pecan::nn {

OptionAShortcut::OptionAShortcut(std::string name, std::int64_t cin, std::int64_t cout,
                                 std::int64_t stride)
    : name_(std::move(name)), cin_(cin), cout_(cout), stride_(stride) {
  if (cout < cin) throw std::invalid_argument("OptionAShortcut: cout must be >= cin");
  if (stride <= 0) throw std::invalid_argument("OptionAShortcut: bad stride");
}

Tensor OptionAShortcut::forward(const Tensor& input) {
  InferContext ctx;
  Tensor output = infer(input, ctx);
  input_shape_ = input.shape();
  return output;
}

Tensor OptionAShortcut::infer(const Tensor& input, InferContext&) const {
  if (input.ndim() != 4 || input.dim(1) != cin_) {
    throw std::invalid_argument(name_ + ": expected [N," + std::to_string(cin_) + ",H,W]");
  }
  const std::int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::int64_t ho = (h + stride_ - 1) / stride_, wo = (w + stride_ - 1) / stride_;
  Tensor output({n, cout_, ho, wo});
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t c = 0; c < cin_; ++c) {
      const float* in = input.data() + (s * cin_ + c) * h * w;
      float* out = output.data() + (s * cout_ + c) * ho * wo;
      for (std::int64_t oi = 0; oi < ho; ++oi) {
        for (std::int64_t oj = 0; oj < wo; ++oj) {
          out[oi * wo + oj] = in[(oi * stride_) * w + oj * stride_];
        }
      }
    }
  }
  return output;
}

Tensor OptionAShortcut::backward(const Tensor& grad_output) {
  if (input_shape_.empty()) throw std::logic_error(name_ + ": backward before forward");
  const std::int64_t n = input_shape_[0], h = input_shape_[2], w = input_shape_[3];
  const std::int64_t ho = (h + stride_ - 1) / stride_, wo = (w + stride_ - 1) / stride_;
  Tensor grad_input(input_shape_);
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t c = 0; c < cin_; ++c) {
      const float* gout = grad_output.data() + (s * cout_ + c) * ho * wo;
      float* gin = grad_input.data() + (s * cin_ + c) * h * w;
      for (std::int64_t oi = 0; oi < ho; ++oi) {
        for (std::int64_t oj = 0; oj < wo; ++oj) {
          gin[(oi * stride_) * w + oj * stride_] += gout[oi * wo + oj];
        }
      }
    }
  }
  return grad_input;
}

Residual::Residual(std::string name, std::unique_ptr<Module> main, std::unique_ptr<Module> shortcut,
                   bool relu_after)
    : name_(std::move(name)), main_(std::move(main)), shortcut_(std::move(shortcut)),
      relu_after_(relu_after) {
  if (!main_ || !shortcut_) throw std::invalid_argument("Residual: null branch");
}

Tensor Residual::join(Tensor main_out, const Tensor& short_out) const {
  add_(main_out, short_out);
  if (relu_after_) {
    for (std::int64_t i = 0; i < main_out.numel(); ++i) {
      main_out[i] = main_out[i] > 0.f ? main_out[i] : 0.f;
    }
  }
  return main_out;
}

Tensor Residual::forward(const Tensor& input) {
  Tensor main_out = main_->forward(input);
  Tensor output = join(std::move(main_out), shortcut_->forward(input));
  if (training_ && relu_after_) output_ = output;
  return output;
}

Tensor Residual::infer(const Tensor& input, InferContext& ctx) const {
  Tensor main_out = main_->infer(input, ctx);
  return join(std::move(main_out), shortcut_->infer(input, ctx));
}

Tensor Residual::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  if (relu_after_) {
    if (output_.empty()) throw std::logic_error(name_ + ": backward before forward");
    // The joined output is positive exactly where the ReLU passed.
    for (std::int64_t i = 0; i < grad.numel(); ++i) grad[i] *= output_[i] > 0.f ? 1.f : 0.f;
  }
  Tensor grad_main = main_->backward(grad);
  Tensor grad_short = shortcut_->backward(grad);
  add_(grad_main, grad_short);
  return grad_main;
}

std::vector<Parameter*> Residual::parameters() {
  std::vector<Parameter*> params = main_->parameters();
  for (Parameter* p : shortcut_->parameters()) params.push_back(p);
  return params;
}

void Residual::set_training(bool training) {
  Module::set_training(training);
  main_->set_training(training);
  shortcut_->set_training(training);
}

void Residual::set_epoch_progress(double progress) {
  main_->set_epoch_progress(progress);
  shortcut_->set_epoch_progress(progress);
}

ops::OpCount Residual::inference_ops() const {
  return main_->inference_ops() + shortcut_->inference_ops();
}

}  // namespace pecan::nn
