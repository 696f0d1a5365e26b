// AdderNet convolution (Chen et al., CVPR 2020) — the comparison baseline
// of Table 5.
//
// Output pre-activations are NEGATIVE l1 distances between each im2col
// column and each filter row:
//   Y[c_out, i] = -sum_r |X[r, i] - F[c_out, r]|
// so inference needs only subtractions/additions (2*cin*k^2 adds per output
// element) and zero multiplications. Training uses AdderNet's full-precision
// gradient for the filters (dY/dF = X - F) and the clipped HardTanh gradient
// for the inputs (dY/dX = clip(F - X, -1, 1)), as in the original paper.
#pragma once

#include "nn/im2col.hpp"
#include "nn/module.hpp"
#include "tensor/rng.hpp"

namespace pecan::nn {

class AdderConv2d : public Module {
 public:
  AdderConv2d(std::string name, std::int64_t cin, std::int64_t cout, std::int64_t k,
              std::int64_t stride, std::int64_t pad, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input, InferContext& ctx) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }
  ops::OpCount inference_ops() const override;

  Parameter& weight() { return weight_; }  ///< [cout, cin*k*k]

 private:
  Conv2dGeometry geometry(std::int64_t hin, std::int64_t win) const;

  std::string name_;
  std::int64_t cin_, cout_, k_, stride_, pad_;
  Parameter weight_;
  Shape input_shape_;    ///< last forward's input, for inference_ops()
  Tensor cached_input_;  ///< backward context; backward() re-unfolds it
};

}  // namespace pecan::nn
