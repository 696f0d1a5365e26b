#include "core/codebook.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace pecan::pq {

Codebook::Codebook(std::string name, std::int64_t groups, std::int64_t p, std::int64_t d, Rng& rng)
    : name_(std::move(name)), groups_(groups), p_(p), d_(d),
      param_(name_ + ".codebook", rng.randn({groups, p, d}, 0.f, 0.5f)) {
  if (groups <= 0 || p <= 0 || d <= 0) throw std::invalid_argument("Codebook: bad dims");
}

namespace {
float sq_l2(const float* a, const float* b, std::int64_t d) {
  float acc = 0.f;
  for (std::int64_t i = 0; i < d; ++i) {
    const float diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}
}  // namespace

void Codebook::kmeans_init(const Tensor& stacked, std::int64_t iterations, Rng& rng) {
  if (stacked.ndim() != 2 || stacked.dim(0) != groups_ * d_) {
    throw std::invalid_argument("kmeans_init: expected [groups*d, L], got " +
                                shape_str(stacked.shape()));
  }
  const std::int64_t len = stacked.dim(1);
  // With fewer sample columns than prototypes (e.g. FC layers calibrated on
  // a small batch), fit only the first `len` prototypes and keep the random
  // initialization for the rest — they can still be recruited by training.
  const std::int64_t fit_p = std::min(p_, len);

  std::vector<float> points(static_cast<std::size_t>(len * d_));
  std::vector<std::int64_t> assign(static_cast<std::size_t>(len));
  std::vector<float> min_dist(static_cast<std::size_t>(len));

  for (std::int64_t j = 0; j < groups_; ++j) {
    // Gather the group's subvectors as rows: point l = X[j*d:(j+1)*d, l].
    for (std::int64_t l = 0; l < len; ++l) {
      for (std::int64_t i = 0; i < d_; ++i) {
        points[static_cast<std::size_t>(l * d_ + i)] = stacked[(j * d_ + i) * len + l];
      }
    }
    // k-means++ seeding.
    const std::int64_t first = rng.index(len);
    std::copy(points.data() + first * d_, points.data() + (first + 1) * d_, prototype(j, 0));
    for (std::int64_t l = 0; l < len; ++l) {
      min_dist[static_cast<std::size_t>(l)] = sq_l2(&points[static_cast<std::size_t>(l * d_)],
                                                    prototype(j, 0), d_);
    }
    for (std::int64_t m = 1; m < fit_p; ++m) {
      double total = 0;
      for (float v : min_dist) total += v;
      std::int64_t chosen = rng.index(len);  // fallback if all distances are 0
      if (total > 0) {
        double r = rng.uniform() * total, acc = 0;
        for (std::int64_t l = 0; l < len; ++l) {
          acc += min_dist[static_cast<std::size_t>(l)];
          if (acc >= r) {
            chosen = l;
            break;
          }
        }
      }
      std::copy(points.data() + chosen * d_, points.data() + (chosen + 1) * d_,
                prototype(j, m));
      for (std::int64_t l = 0; l < len; ++l) {
        const float dist = sq_l2(&points[static_cast<std::size_t>(l * d_)], prototype(j, m), d_);
        auto& md = min_dist[static_cast<std::size_t>(l)];
        if (dist < md) md = dist;
      }
    }
    // Lloyd iterations.
    std::vector<double> sums(static_cast<std::size_t>(p_ * d_));
    std::vector<std::int64_t> counts(static_cast<std::size_t>(p_));
    for (std::int64_t it = 0; it < iterations; ++it) {
      for (std::int64_t l = 0; l < len; ++l) {
        const float* point = &points[static_cast<std::size_t>(l * d_)];
        float best = std::numeric_limits<float>::max();
        std::int64_t best_m = 0;
        for (std::int64_t m = 0; m < fit_p; ++m) {
          const float dist = sq_l2(point, prototype(j, m), d_);
          if (dist < best) {
            best = dist;
            best_m = m;
          }
        }
        assign[static_cast<std::size_t>(l)] = best_m;
      }
      std::fill(sums.begin(), sums.end(), 0.0);
      std::fill(counts.begin(), counts.end(), 0);
      for (std::int64_t l = 0; l < len; ++l) {
        const std::int64_t m = assign[static_cast<std::size_t>(l)];
        ++counts[static_cast<std::size_t>(m)];
        for (std::int64_t i = 0; i < d_; ++i) {
          sums[static_cast<std::size_t>(m * d_ + i)] += points[static_cast<std::size_t>(l * d_ + i)];
        }
      }
      for (std::int64_t m = 0; m < fit_p; ++m) {
        if (counts[static_cast<std::size_t>(m)] == 0) {
          // Reseed dead prototypes from a random point.
          const std::int64_t l = rng.index(len);
          std::copy(points.data() + l * d_, points.data() + (l + 1) * d_, prototype(j, m));
          continue;
        }
        const double inv = 1.0 / static_cast<double>(counts[static_cast<std::size_t>(m)]);
        for (std::int64_t i = 0; i < d_; ++i) {
          prototype(j, m)[i] = static_cast<float>(sums[static_cast<std::size_t>(m * d_ + i)] * inv);
        }
      }
    }
  }
}

}  // namespace pecan::pq
