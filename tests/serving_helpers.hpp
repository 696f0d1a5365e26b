// Helpers shared by the serving tests (test_runtime, test_server, test_net,
// test_faults): seeded LeNet5/ResNet20 builders, batch slicing, bitwise
// comparison and a loopback NetServer config. No GoogleTest here: each
// helper returns a value the test asserts on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "runtime/net_server.hpp"
#include "tensor/rng.hpp"

namespace pecan {

/// Fresh LeNet5 weights from a seed (make_lenet5 wants an lvalue Rng).
inline std::unique_ptr<nn::Sequential> lenet(std::uint64_t seed,
                                             models::Variant variant = models::Variant::PecanD) {
  Rng rng(seed);
  return models::make_lenet5(variant, rng);
}

/// Fresh float ResNet20 (10 classes) weights from a seed.
inline std::unique_ptr<nn::Sequential> resnet(std::uint64_t seed) {
  Rng rng(seed);
  return models::make_resnet20(models::Variant::Baseline, 10, rng);
}

/// `n` random MNIST-shaped samples, [n, 1, 28, 28].
inline Tensor lenet_batch(Rng& rng, std::int64_t n) { return rng.randn({n, 1, 28, 28}); }

/// Splits a [N, ...] tensor into its N rows.
inline std::vector<Tensor> split_rows(const Tensor& batched) {
  const std::int64_t n = batched.dim(0);
  const std::int64_t row_numel = batched.numel() / n;
  Shape row_shape(batched.shape().begin() + 1, batched.shape().end());
  std::vector<Tensor> rows;
  for (std::int64_t s = 0; s < n; ++s) {
    Tensor row(row_shape);
    std::copy(batched.data() + s * row_numel, batched.data() + (s + 1) * row_numel, row.data());
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Extracts sample `s` of a [N,C,H,W] batch as a [C,H,W] tensor.
inline Tensor nth_sample(const Tensor& batch, std::int64_t s) {
  Tensor sample({batch.dim(1), batch.dim(2), batch.dim(3)});
  const std::int64_t numel = sample.numel();
  std::copy(batch.data() + s * numel, batch.data() + (s + 1) * numel, sample.data());
  return sample;
}

/// True when `actual` is bitwise-equal to `expected` in full.
inline bool matches(const Tensor& actual, const Tensor& expected) {
  if (!actual.same_shape(expected)) return false;
  return std::memcmp(actual.data(), expected.data(),
                     static_cast<std::size_t>(actual.numel()) * sizeof(float)) == 0;
}

/// A NetServer on 127.0.0.1 at an ephemeral port.
inline runtime::NetServerConfig loopback_config(int executors = 2) {
  runtime::NetServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.executors = executors;
  return config;
}

}  // namespace pecan
