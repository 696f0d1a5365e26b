// Activation and shape layers: ReLU and Flatten.
#pragma once

#include "nn/module.hpp"

namespace pecan::nn {

class ReLU : public Module {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input, InferContext& ctx) const override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Tensor output_;  ///< training output: its positive entries are the backward mask
};

/// [N, C, H, W] (or any rank >= 2) -> [N, prod(rest)].
class Flatten : public Module {
 public:
  explicit Flatten(std::string name = "flatten") : name_(std::move(name)) {}
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input, InferContext& ctx) const override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Shape input_shape_;
};

}  // namespace pecan::nn
