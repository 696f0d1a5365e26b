// Conv2d: im2col + SGEMM convolution (the paper's baseline CONV layer).
#pragma once

#include "nn/im2col.hpp"
#include "nn/module.hpp"
#include "tensor/rng.hpp"

namespace pecan::nn {

class Conv2d : public Module {
 public:
  /// Weight is stored flattened as [cout, cin*k*k] (the matrix F of
  /// Fig. 1(b)); bias is optional, [cout].
  Conv2d(std::string name, std::int64_t cin, std::int64_t cout, std::int64_t k,
         std::int64_t stride, std::int64_t pad, bool bias, Rng& rng);

  Tensor forward(const Tensor& input) override;   ///< [N, cin, H, W] -> [N, cout, Ho, Wo]
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input, InferContext& ctx) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }
  ops::OpCount inference_ops() const override;

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }
  std::int64_t cin() const { return cin_; }
  std::int64_t cout() const { return cout_; }
  std::int64_t kernel() const { return k_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

  /// Folds BatchNorm (scale, shift per output channel) into weight/bias —
  /// used when building the inference-time network, as the paper notes BN
  /// "can be folded into convolution layers in the inference stage".
  void fold_scale_shift(const Tensor& scale, const Tensor& shift);

 private:
  Conv2dGeometry geometry(std::int64_t hin, std::int64_t win) const;

  std::string name_;
  std::int64_t cin_, cout_, k_, stride_, pad_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;

  Shape input_shape_;    ///< last forward's input, for inference_ops()
  Tensor cached_input_;  ///< backward context; backward() re-unfolds it
};

}  // namespace pecan::nn
