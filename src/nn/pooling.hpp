// Pooling layers: MaxPool2d (LeNet/VGG) and global average pool (ResNet).
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace pecan::nn {

class MaxPool2d : public Module {
 public:
  MaxPool2d(std::string name, std::int64_t k, std::int64_t stride);
  Tensor forward(const Tensor& input) override;   ///< [N,C,H,W] -> [N,C,Ho,Wo]
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input, InferContext& ctx) const override;  ///< no argmax kept
  std::string name() const override { return name_; }
  std::int64_t kernel() const { return k_; }
  std::int64_t stride() const { return stride_; }

 private:
  /// The one pooling kernel; records the flat input index of each output's
  /// winner into `argmax` when given (the backward cache).
  Tensor pool(const Tensor& input, std::vector<std::int64_t>* argmax) const;

  std::string name_;
  std::int64_t k_, stride_;
  Shape input_shape_;
  std::vector<std::int64_t> argmax_;  ///< flat input index per output element
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Module {
 public:
  explicit GlobalAvgPool(std::string name = "gap") : name_(std::move(name)) {}
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input, InferContext& ctx) const override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Shape input_shape_;
};

}  // namespace pecan::nn
