#include "core/introspect.hpp"

#include "core/pecan_linear.hpp"
#include "nn/residual.hpp"

namespace pecan::pq {

namespace {
void collect_impl(nn::Module& module, std::vector<PecanConv2d*>& out) {
  if (auto* conv = dynamic_cast<PecanConv2d*>(&module)) {
    out.push_back(conv);
    return;
  }
  if (auto* fc = dynamic_cast<PecanLinear*>(&module)) {
    out.push_back(&fc->conv());
    return;
  }
  if (auto* seq = dynamic_cast<nn::Sequential*>(&module)) {
    for (std::size_t i = 0; i < seq->size(); ++i) collect_impl(seq->layer(i), out);
    return;
  }
  if (auto* residual = dynamic_cast<nn::Residual*>(&module)) {
    collect_impl(residual->main(), out);
    collect_impl(residual->shortcut(), out);
    return;
  }
}

/// Forward with per-layer interception: calibrates PECAN layers on their
/// input activation, then executes them to produce the next activation.
Tensor calibrate_forward(nn::Module& module, Tensor x, std::int64_t iterations, Rng& rng) {
  if (auto* conv = dynamic_cast<PecanConv2d*>(&module)) {
    conv->kmeans_init_from(x, iterations, rng);
    return conv->forward(x);
  }
  if (auto* fc = dynamic_cast<PecanLinear*>(&module)) {
    const std::int64_t n = x.dim(0);
    Tensor as_conv = x.reshaped({n, fc->in_features(), 1, 1});
    fc->conv().kmeans_init_from(as_conv, iterations, rng);
    return fc->forward(x);
  }
  if (auto* seq = dynamic_cast<nn::Sequential*>(&module)) {
    for (std::size_t i = 0; i < seq->size(); ++i) {
      x = calibrate_forward(seq->layer(i), std::move(x), iterations, rng);
    }
    return x;
  }
  if (auto* residual = dynamic_cast<nn::Residual*>(&module)) {
    Tensor main_out = calibrate_forward(residual->main(), x, iterations, rng);
    return residual->join(std::move(main_out),
                          calibrate_forward(residual->shortcut(), x, iterations, rng));
  }
  return module.forward(x);
}
}  // namespace

std::vector<PecanConv2d*> collect_pecan_layers(nn::Module& model) {
  std::vector<PecanConv2d*> out;
  collect_impl(model, out);
  return out;
}

void kmeans_calibrate(nn::Module& model, const Tensor& batch, std::int64_t iterations, Rng& rng) {
  model.set_training(false);
  calibrate_forward(model, batch, iterations, rng);
}

std::int64_t load_matching(nn::Module& dst, const TensorMap& src) {
  std::int64_t loaded = 0;
  for (nn::Parameter* p : dst.parameters()) {
    auto it = src.find(p->name);
    if (it != src.end() && it->second.same_shape(p->value)) {
      p->value = it->second;
      ++loaded;
    }
  }
  return loaded;
}

}  // namespace pecan::pq
