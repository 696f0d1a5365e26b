#include "core/pecan_linear.hpp"

#include <stdexcept>

namespace pecan::pq {

namespace {
/// The FC reshape around either conv path: [N, in] -> [N, in, 1, 1] ->
/// `conv` -> [N, out].
template <typename Conv>
Tensor as_fc(const Tensor& input, std::int64_t in, std::int64_t out, const std::string& name,
             Conv&& conv) {
  if (input.ndim() != 2 || input.dim(1) != in) {
    throw std::invalid_argument(name + ": expected [N," + std::to_string(in) + "], got " +
                                shape_str(input.shape()));
  }
  const std::int64_t n = input.dim(0);
  return conv(input.reshaped({n, in, 1, 1})).reshaped({n, out});
}
}  // namespace

PecanLinear::PecanLinear(std::string name, std::int64_t in_features, std::int64_t out_features,
                         bool bias, PqLayerConfig config, Rng& rng)
    : in_(in_features), out_(out_features),
      conv_(std::move(name), in_features, out_features, /*k=*/1, /*stride=*/1, /*pad=*/0, bias,
            config, rng) {}

Tensor PecanLinear::forward(const Tensor& input) {
  return as_fc(input, in_, out_, name(), [&](const Tensor& x) { return conv_.forward(x); });
}

Tensor PecanLinear::infer(const Tensor& input, nn::InferContext& ctx) const {
  return as_fc(input, in_, out_, name(), [&](const Tensor& x) { return conv_.infer(x, ctx); });
}

Tensor PecanLinear::backward(const Tensor& grad_output) {
  const std::int64_t n = grad_output.dim(0);
  Tensor grad = conv_.backward(grad_output.reshaped({n, out_, 1, 1}));
  return std::move(grad).reshaped({n, in_});
}

void PecanLinear::set_training(bool training) {
  Module::set_training(training);
  conv_.set_training(training);
}

}  // namespace pecan::pq
