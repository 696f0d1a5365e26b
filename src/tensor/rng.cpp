#include "tensor/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/splitmix.hpp"

namespace pecan {

namespace {
std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = util::splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

float Rng::uniform() {
  // 24 high bits -> float in [0, 1).
  return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
}

float Rng::uniform(float lo, float hi) { return lo + (hi - lo) * uniform(); }

float Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  float u1 = uniform();
  while (u1 <= 1e-12f) u1 = uniform();
  const float u2 = uniform();
  const float radius = std::sqrt(-2.f * std::log(u1));
  const float angle = 2.f * std::numbers::pi_v<float> * u2;
  cached_normal_ = radius * std::sin(angle);
  have_cached_normal_ = true;
  return radius * std::cos(angle);
}

float Rng::normal(float mean, float stddev) { return mean + stddev * normal(); }

std::int64_t Rng::index(std::int64_t n) {
  if (n <= 0) throw std::invalid_argument("Rng::index: n must be positive");
  // Rejection-free for our purposes; modulo bias is negligible for n << 2^64.
  return static_cast<std::int64_t>(next_u64() % static_cast<std::uint64_t>(n));
}

void Rng::shuffle(std::vector<std::int64_t>& items) {
  for (std::int64_t i = static_cast<std::int64_t>(items.size()) - 1; i > 0; --i) {
    std::swap(items[static_cast<std::size_t>(i)], items[static_cast<std::size_t>(index(i + 1))]);
  }
}

Rng Rng::fork() { return Rng(next_u64()); }

Tensor Rng::randn(Shape shape, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = normal(mean, stddev);
  return t;
}

Tensor Rng::rand_uniform(Shape shape, float lo, float hi) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = uniform(lo, hi);
  return t;
}

Tensor Rng::kaiming_normal(Shape shape, std::int64_t fan_in) {
  if (fan_in <= 0) throw std::invalid_argument("kaiming_normal: fan_in must be positive");
  const float stddev = std::sqrt(2.f / static_cast<float>(fan_in));
  return randn(std::move(shape), 0.f, stddev);
}

Tensor Rng::xavier_uniform(Shape shape, std::int64_t fan_in, std::int64_t fan_out) {
  if (fan_in <= 0 || fan_out <= 0) throw std::invalid_argument("xavier_uniform: bad fans");
  const float bound = std::sqrt(6.f / static_cast<float>(fan_in + fan_out));
  return rand_uniform(std::move(shape), -bound, bound);
}

}  // namespace pecan
