#include "gradcheck.hpp"

#include <cmath>
#include <vector>

#include "tensor/tensor_ops.hpp"

namespace pecan::nn {

namespace {
float weighted_sum(const Tensor& output, const Tensor& weights) { return dot(output, weights); }
}  // namespace

GradCheckResult grad_check(Module& module, const Tensor& x, const GradCheckOptions& options) {
  module.set_training(true);
  Rng rng(options.seed);

  // Analytic pass.
  module.zero_grad();
  Tensor y = module.forward(x);
  Tensor loss_weights = rng.rand_uniform(y.shape(), -1.f, 1.f);
  Tensor grad_input = module.backward(loss_weights);  // dL/dy = weights for L = <y, w>

  GradCheckResult result;
  auto record = [&](double analytic, double numeric, const std::string& site) {
    const double abs_err = std::fabs(analytic - numeric);
    const double denom =
        std::max({std::fabs(analytic), std::fabs(numeric), options.rel_floor});
    const double rel_err = abs_err / denom;
    if (rel_err > result.max_rel_error) {
      result.max_rel_error = rel_err;
      result.worst_site = site;
    }
    result.max_abs_error = std::max(result.max_abs_error, abs_err);
  };

  auto probe_sites = [&](std::int64_t count) {
    std::vector<std::int64_t> sites;
    if (count <= options.max_probes) {
      sites.resize(static_cast<std::size_t>(count));
      for (std::int64_t i = 0; i < count; ++i) sites[static_cast<std::size_t>(i)] = i;
    } else {
      for (std::int64_t i = 0; i < options.max_probes; ++i) sites.push_back(rng.index(count));
    }
    return sites;
  };

  // Input gradient.
  {
    Tensor x_mut = x;
    for (std::int64_t i : probe_sites(x.numel())) {
      const float saved = x_mut[i];
      x_mut[i] = saved + options.epsilon;
      const float up = weighted_sum(module.forward(x_mut), loss_weights);
      x_mut[i] = saved - options.epsilon;
      const float down = weighted_sum(module.forward(x_mut), loss_weights);
      x_mut[i] = saved;
      record(grad_input[i], (up - down) / (2.f * options.epsilon), "input[" + std::to_string(i) + "]");
    }
  }

  // Parameter gradients. (forward() above may have been re-run with perturbed
  // inputs; the cached analytic grads are still those from the clean pass.)
  for (Parameter* p : module.parameters()) {
    if (!p->trainable) continue;
    for (std::int64_t i : probe_sites(p->value.numel())) {
      const float saved = p->value[i];
      p->value[i] = saved + options.epsilon;
      const float up = weighted_sum(module.forward(x), loss_weights);
      p->value[i] = saved - options.epsilon;
      const float down = weighted_sum(module.forward(x), loss_weights);
      p->value[i] = saved;
      record(p->grad[i], (up - down) / (2.f * options.epsilon),
             p->name + "[" + std::to_string(i) + "]");
    }
  }
  // Leave the module's cached state consistent with the unperturbed input.
  module.forward(x);
  return result;
}

}  // namespace pecan::nn
