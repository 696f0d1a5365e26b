#include "core/pecan_conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ops/complexity.hpp"
#include "tensor/sgemm.hpp"
#include "util/thread_pool.hpp"

namespace pecan::pq {

namespace {
/// Fast tanh: Pade 3/2 approximant, clamped to +-1 beyond |x| = 3 where the
/// approximant exactly reaches 1. Max abs error ~2e-2 — far below what a
/// *surrogate* gradient needs, and ~4x cheaper than std::tanh in the hot
/// l1-backward loop (which evaluates it p*d*L times per group).
inline float fast_tanh(float x) {
  if (x > 3.f) return 1.f;
  if (x < -3.f) return -1.f;
  const float x2 = x * x;
  return x * (27.f + x2) / (27.f + 9.f * x2);
}

/// Surrogate for sgn(x) in the l1-distance gradient (Eq. 6).
inline float sign_surrogate(float x, SignSurrogate kind, float a) {
  switch (kind) {
    case SignSurrogate::EpochTanh: return fast_tanh(a * x);
    case SignSurrogate::Hard: return x > 0.f ? 1.f : (x < 0.f ? -1.f : 0.f);
    case SignSurrogate::Identity: return 1.f;
  }
  return 0.f;
}

/// Softmax backward over p prototypes for each of len columns (Eq. 4):
/// dS = K o (dK - <K, dK>) / tau, with K, dK and dS stored [p, len].
void softmax_backward(const float* k, const float* dk, std::int64_t p, std::int64_t len,
                      float tau, float* ds) {
  for (std::int64_t l = 0; l < len; ++l) {
    double inner = 0;
    for (std::int64_t m = 0; m < p; ++m) {
      inner += static_cast<double>(k[m * len + l]) * dk[m * len + l];
    }
    for (std::int64_t m = 0; m < p; ++m) {
      ds[m * len + l] = k[m * len + l] * (dk[m * len + l] - static_cast<float>(inner)) / tau;
    }
  }
}
}  // namespace

PecanConv2d::PecanConv2d(std::string name, std::int64_t cin, std::int64_t cout, std::int64_t k,
                         std::int64_t stride, std::int64_t pad, bool bias, PqLayerConfig config,
                         Rng& rng)
    : name_(std::move(name)), cin_(cin), cout_(cout), k_(k), stride_(stride), pad_(pad),
      has_bias_(bias), config_(config), D_(derive_groups(cin, k, config.d)), d_(config.d),
      p_(config.p),
      weight_(name_ + ".weight", rng.kaiming_normal({cout, cin * k * k}, cin * k * k)),
      bias_(name_ + ".bias", Tensor({cout})),
      codebook_(name_, D_, p_, d_, rng) {
  if (config_.temperature <= 0.f) throw std::invalid_argument(name_ + ": temperature must be > 0");
}

nn::Conv2dGeometry PecanConv2d::geometry(std::int64_t hin, std::int64_t win) const {
  return nn::Conv2dGeometry{cin_, hin, win, k_, stride_, pad_};
}

void PecanConv2d::set_epoch_progress(double progress) {
  epoch_progress_ = std::clamp(progress, 0.0, 1.0);
}

void PecanConv2d::match_group(std::int64_t j, const float* cols, std::int64_t len, float* k_out,
                              std::int64_t* hard_out, bool training_path) const {
  const float* xj = cols;  // caller passes group base row pointer
  const float tau = config_.temperature;
  if (config_.mode == MatchMode::Angle) {
    // S[m, l] = <C_m, X_l>; K = column softmax(S / tau).
    sgemm(false, false, p_, len, d_, 1.f, codebook_.prototype(j, 0), d_, xj, len, 0.f, k_out, len);
    for (std::int64_t l = 0; l < len; ++l) {
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t m = 0; m < p_; ++m) mx = std::max(mx, k_out[m * len + l]);
      double denom = 0;
      for (std::int64_t m = 0; m < p_; ++m) {
        float& v = k_out[m * len + l];
        v = std::exp((v - mx) / tau);
        denom += v;
      }
      const float inv = static_cast<float>(1.0 / denom);
      std::int64_t best = 0;
      for (std::int64_t m = 0; m < p_; ++m) {
        float& v = k_out[m * len + l];
        v *= inv;
        if (v > k_out[best * len + l]) best = m;
      }
      if (hard_out) hard_out[l] = best;
    }
  } else {
    // dist[m, l] = -||X_l - C_m||_1 (adds/subs only). Parallel over
    // prototypes: each lane writes a disjoint row block of k_out. These
    // inner loops only spread when the group loop above runs serial
    // (few-group layers); under the parallel group loop they run inline.
    // The component loop is the middle axis so the innermost loop runs
    // unit-stride over the columns of X (the l-inner order sums the same
    // i-ascending chain per element, so results are unchanged bitwise).
    const std::int64_t scan_grain = std::max<std::int64_t>(1, (1 << 14) / std::max<std::int64_t>(len * d_, 1));
    util::parallel_for(
        0, p_,
        [&](std::int64_t m0, std::int64_t m1) {
          for (std::int64_t m = m0; m < m1; ++m) {
            const float* proto = codebook_.prototype(j, m);
            float* row = k_out + m * len;
            std::fill(row, row + len, 0.f);
            for (std::int64_t i = 0; i < d_; ++i) {
              const float pi = proto[i];
              const float* xrow = xj + i * len;
              for (std::int64_t l = 0; l < len; ++l) row[l] += std::fabs(xrow[l] - pi);
            }
            for (std::int64_t l = 0; l < len; ++l) row[l] = -row[l];
          }
        },
        scan_grain);
    const std::int64_t argmax_grain = std::max<std::int64_t>(1, (1 << 12) / std::max<std::int64_t>(p_, 1));
    util::parallel_for(
        0, len,
        [&](std::int64_t l0, std::int64_t l1) {
          for (std::int64_t l = l0; l < l1; ++l) {
            std::int64_t best = 0;
            for (std::int64_t m = 1; m < p_; ++m) {
              if (k_out[m * len + l] > k_out[best * len + l]) best = m;
            }
            if (hard_out) hard_out[l] = best;
            if (training_path) {
              // Eq. (4): softmax of the (negative) distances with temperature.
              const float mx = k_out[best * len + l];
              double denom = 0;
              for (std::int64_t m = 0; m < p_; ++m) {
                float& v = k_out[m * len + l];
                v = std::exp((v - mx) / tau);
                denom += v;
              }
              const float inv = static_cast<float>(1.0 / denom);
              for (std::int64_t m = 0; m < p_; ++m) k_out[m * len + l] *= inv;
            }
          }
        },
        argmax_grain);
  }
}

nn::Conv2dGeometry PecanConv2d::input_geometry(const Tensor& input) const {
  if (input.ndim() != 4 || input.dim(1) != cin_) {
    throw std::invalid_argument(name_ + ": expected [N," + std::to_string(cin_) + ",H,W], got " +
                                shape_str(input.shape()));
  }
  return geometry(input.dim(2), input.dim(3));
}

void PecanConv2d::rebuild_xq(std::int64_t j, std::int64_t len, const float* k_buf,
                             const std::int64_t* hard_buf, float* xq_group) const {
  if (config_.mode == MatchMode::Angle) {
    // Xq(j) = C(j) K = storage^T [d, p] * K [p, L].
    sgemm(true, false, d_, len, p_, 1.f, codebook_.prototype(j, 0), d_, k_buf, len, 0.f, xq_group,
          len);
  } else {
    // Hard one-hot lookup (Eq. 5 forward): Xq(j)_l = prototype[k_l].
    for (std::int64_t l = 0; l < len; ++l) {
      const float* proto = codebook_.prototype(j, hard_buf[l]);
      for (std::int64_t i = 0; i < d_; ++i) xq_group[i * len + l] = proto[i];
    }
  }
}

Tensor PecanConv2d::forward(const Tensor& input) {
  const nn::Conv2dGeometry g = input_geometry(input);
  input_shape_ = input.shape();  // inference_ops() reads it in either mode
  float* k_cache = nullptr;
  std::int64_t* hard_cache = nullptr;
  if (training_) {
    const std::int64_t n = input.dim(0), len = g.cols();
    // Reuse the (large) matching-weight cache across steps: match_group
    // overwrites every element, so only reallocate on a shape change.
    const Shape k_shape{n, D_, p_, len};
    if (cached_k_.shape() != k_shape) cached_k_ = Tensor(k_shape);
    cached_hard_.resize(static_cast<std::size_t>(n * D_ * len));
    cached_input_ = input;
    k_cache = cached_k_.data();
    hard_cache = cached_hard_.data();
  }
  nn::InferContext ctx;
  return match_and_project(input, ctx, k_cache, hard_cache);
}

Tensor PecanConv2d::infer(const Tensor& input, nn::InferContext& ctx) const {
  return match_and_project(input, ctx, nullptr, nullptr);
}

Tensor PecanConv2d::match_and_project(const Tensor& input, nn::InferContext& ctx, float* k_cache,
                                      std::int64_t* hard_cache) const {
  const nn::Conv2dGeometry g = input_geometry(input);
  const std::int64_t n = input.dim(0), hin = g.hin, win = g.win;
  const std::int64_t rows = g.rows(), len = g.cols();

  Tensor output({n, cout_, g.hout(), g.wout()});
  // All scratch is arena-backed and claimed before the parallel group loop:
  // lanes only ever write their group's disjoint slices. Serving reuses one
  // sample's K/hard-index slice; training keeps every sample's for backward.
  float* cols = ctx.arena.floats(rows * len);
  float* xq = ctx.arena.floats(rows * len);
  const bool training_path = k_cache != nullptr;
  float* k_all = training_path ? k_cache : ctx.arena.floats(D_ * p_ * len);
  std::int64_t* hard_all = training_path ? hard_cache : ctx.arena.ints(D_ * len);
  const std::int64_t sample_step = training_path ? D_ : 0;

  // Groups are fully independent, so the group loop is the parallel axis
  // (nested parallel_for calls in match_group degrade to inline); layers
  // with few groups fall back to the inner-loop parallelism instead.
  const std::int64_t group_grain = D_ >= 8 ? 1 : D_;
  for (std::int64_t s = 0; s < n; ++s) {
    nn::im2col(input.data() + s * cin_ * hin * win, g, cols);
    util::parallel_for(
        0, D_,
        [&](std::int64_t j0, std::int64_t j1) {
          for (std::int64_t j = j0; j < j1; ++j) {
            float* k_buf = k_all + (s * sample_step + j) * p_ * len;
            std::int64_t* hard_buf = hard_all + (s * sample_step + j) * len;
            match_group(j, cols + j * d_ * len, len, k_buf, hard_buf, training_path);
            rebuild_xq(j, len, k_buf, hard_buf, xq + j * d_ * len);
          }
        },
        group_grain);
    matmul(weight_.value.data(), xq, output.data() + s * cout_ * len, cout_, len, rows);
  }
  if (has_bias_) {
    for (std::int64_t s = 0; s < n; ++s) {
      for (std::int64_t c = 0; c < cout_; ++c) {
        float* out = output.data() + (s * cout_ + c) * len;
        for (std::int64_t l = 0; l < len; ++l) out[l] += bias_.value[c];
      }
    }
  }
  return output;
}

Tensor PecanConv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  const std::int64_t n = cached_input_.dim(0);
  const std::int64_t hin = cached_input_.dim(2), win = cached_input_.dim(3);
  const nn::Conv2dGeometry g = geometry(hin, win);
  const std::int64_t rows = g.rows(), len = g.cols();
  const float tau = config_.temperature;
  const float a = static_cast<float>(std::exp(4.0 * epoch_progress_));  // Eq. (6)

  Tensor grad_input(cached_input_.shape());
  Tensor cols({rows, len});
  Tensor xq({rows, len});
  Tensor dxq({rows, len});
  Tensor dcols({rows, len});
  const std::int64_t group_grain = D_ >= 8 ? 1 : D_;

  for (std::int64_t s = 0; s < n; ++s) {
    // Recompute X and Xq from the cached input and matching weights
    // (memory-lean: only K and the hard indices were cached).
    nn::im2col(cached_input_.data() + s * cin_ * hin * win, g, cols.data());
    util::parallel_for(
        0, D_,
        [&](std::int64_t j0, std::int64_t j1) {
          for (std::int64_t j = j0; j < j1; ++j) {
            rebuild_xq(j, len, cached_k_.data() + ((s * D_ + j) * p_) * len,
                       cached_hard_.data() + (s * D_ + j) * len, xq.data() + j * d_ * len);
          }
        },
        group_grain);

    const float* gout = grad_output.data() + s * cout_ * len;
    // dW += gout * Xq^T ; dXq = W^T * gout.
    sgemm(false, true, cout_, rows, len, 1.f, gout, len, xq.data(), len, 1.f, weight_.grad.data(),
          rows);
    sgemm(true, false, rows, len, cout_, 1.f, weight_.value.data(), rows, gout, len, 0.f,
          dxq.data(), len);
    if (has_bias_) {
      for (std::int64_t c = 0; c < cout_; ++c) {
        double acc = 0;
        for (std::int64_t l = 0; l < len; ++l) acc += gout[c * len + l];
        bias_.grad[c] += static_cast<float>(acc);
      }
    }

    util::parallel_for(
        0, D_,
        [&](std::int64_t jb0, std::int64_t jb1) {
    for (std::int64_t j = jb0; j < jb1; ++j) {
      Tensor dk({p_, len});
      Tensor ddist({p_, len});
      const float* k_buf = cached_k_.data() + ((s * D_ + j) * p_) * len;
      const std::int64_t* hard_buf = cached_hard_.data() + (s * D_ + j) * len;
      const float* xj = cols.data() + j * d_ * len;
      float* dxq_group = dxq.data() + j * d_ * len;
      float* dxj = dcols.data() + j * d_ * len;
      float* cgrad = codebook_.grad(j, 0);

      if (config_.mode == MatchMode::Angle) {
        // Term 1: Xq = C^T K  =>  dC[p,d] += K dXq^T, dK = C dXq.
        sgemm(false, true, p_, d_, len, 1.f, k_buf, len, dxq_group, len, 1.f, cgrad, d_);
        sgemm(false, false, p_, len, d_, 1.f, codebook_.prototype(j, 0), d_, dxq_group, len, 0.f,
              dk.data(), len);
        softmax_backward(k_buf, dk.data(), p_, len, tau, ddist.data());
        // S = C X  =>  dC += dS X^T, dX = C^T dS.
        sgemm(false, true, p_, d_, len, 1.f, ddist.data(), len, xj, len, 1.f, cgrad, d_);
        sgemm(true, false, d_, len, p_, 1.f, codebook_.prototype(j, 0), d_, ddist.data(), len, 0.f,
              dxj, len);
      } else {
        // Term 1 uses the FORWARD (hard) assignment: dC[k_l] += dXq_l;
        // dK flows through the soft path (STE, Eq. 5): dK = C dXq.
        for (std::int64_t l = 0; l < len; ++l) {
          float* crow = codebook_.grad(j, hard_buf[l]);
          for (std::int64_t i = 0; i < d_; ++i) crow[i] += dxq_group[i * len + l];
        }
        sgemm(false, false, p_, len, d_, 1.f, codebook_.prototype(j, 0), d_, dxq_group, len, 0.f,
              dk.data(), len);
        softmax_backward(k_buf, dk.data(), p_, len, tau, ddist.data());
        // l1 distance backward with the sign surrogate (Eq. 6):
        // d(-||X_l - C_m||_1)/dC_m =  surrogate(X - C)
        // d(-||X_l - C_m||_1)/dX_l = -surrogate(X - C)
        // Two passes so each can parallelize over a large axis without
        // write races: dC over prototypes m, dX over column blocks l.
        const std::int64_t surrogate_grain =
            std::max<std::int64_t>(1, (1 << 14) / std::max<std::int64_t>(len * d_, 1));
        util::parallel_for(
            0, p_,
            [&](std::int64_t m0, std::int64_t m1) {
              for (std::int64_t m = m0; m < m1; ++m) {
                const float* proto = codebook_.prototype(j, m);
                float* crow = codebook_.grad(j, m);
                const float* drow = ddist.data() + m * len;
                for (std::int64_t i = 0; i < d_; ++i) {
                  const float* xrow = xj + i * len;
                  double cacc = 0;
                  for (std::int64_t l = 0; l < len; ++l) {
                    cacc += static_cast<double>(drow[l]) *
                            sign_surrogate(xrow[l] - proto[i], config_.surrogate, a);
                  }
                  crow[i] += static_cast<float>(cacc);
                }
              }
            },
            surrogate_grain);
        const std::int64_t column_grain =
            std::max<std::int64_t>(1, (1 << 14) / std::max<std::int64_t>(p_ * d_, 1));
        util::parallel_for(
            0, len,
            [&](std::int64_t l0, std::int64_t l1) {
              for (std::int64_t l = l0; l < l1; ++l) {
                for (std::int64_t i = 0; i < d_; ++i) dxj[i * len + l] = 0.f;
                for (std::int64_t m = 0; m < p_; ++m) {
                  const float* proto = codebook_.prototype(j, m);
                  const float d_ml = ddist[m * len + l];
                  if (d_ml == 0.f) continue;
                  for (std::int64_t i = 0; i < d_; ++i) {
                    dxj[i * len + l] -=
                        d_ml * sign_surrogate(xj[i * len + l] - proto[i], config_.surrogate, a);
                  }
                }
              }
            },
            column_grain);
      }
    }
        },
        group_grain);
    nn::col2im_accumulate(dcols.data(), g, grad_input.data() + s * cin_ * hin * win);
  }
  return grad_input;
}

std::vector<nn::Parameter*> PecanConv2d::parameters() {
  std::vector<nn::Parameter*> params{&weight_, &codebook_.parameter()};
  if (has_bias_) params.push_back(&bias_);
  return params;
}

ops::OpCount PecanConv2d::inference_ops() const {
  if (input_shape_.empty()) return {};
  const nn::Conv2dGeometry g = geometry(input_shape_[2], input_shape_[3]);
  const ops::ConvDims dims{cin_, cout_, k_, g.hout(), g.wout()};
  const ops::PqDims q{p_, D_, d_};
  return config_.mode == MatchMode::Angle ? ops::conv_pecan_a(dims, q) : ops::conv_pecan_d(dims, q);
}

Tensor PecanConv2d::quantize_cols(const Tensor& cols) const {
  if (cols.ndim() != 2 || cols.dim(0) != D_ * d_) {
    throw std::invalid_argument(name_ + ": quantize_cols expects [cin*k^2, L]");
  }
  const std::int64_t len = cols.dim(1);
  Tensor xq(cols.shape());
  Tensor k_buf({p_, len});
  std::vector<std::int64_t> hard(static_cast<std::size_t>(len));
  for (std::int64_t j = 0; j < D_; ++j) {
    match_group(j, cols.data() + j * d_ * len, len, k_buf.data(), hard.data(),
                /*training_path=*/false);
    rebuild_xq(j, len, k_buf.data(), hard.data(), xq.data() + j * d_ * len);
  }
  return xq;
}

std::vector<std::int64_t> PecanConv2d::assignments(const Tensor& cols) const {
  if (cols.ndim() != 2 || cols.dim(0) != D_ * d_) {
    throw std::invalid_argument(name_ + ": assignments expects [cin*k^2, L]");
  }
  const std::int64_t len = cols.dim(1);
  std::vector<std::int64_t> hard(static_cast<std::size_t>(D_ * len));
  Tensor k_buf({p_, len});
  for (std::int64_t j = 0; j < D_; ++j) {
    match_group(j, cols.data() + j * d_ * len, len, k_buf.data(), hard.data() + j * len,
                /*training_path=*/false);
  }
  return hard;
}

void PecanConv2d::kmeans_init_from(const Tensor& batch, std::int64_t iterations, Rng& rng) {
  if (batch.ndim() != 4 || batch.dim(1) != cin_) {
    throw std::invalid_argument(name_ + ": kmeans_init_from expects [N,cin,H,W]");
  }
  const std::int64_t n = batch.dim(0);
  const nn::Conv2dGeometry g = geometry(batch.dim(2), batch.dim(3));
  const std::int64_t rows = g.rows(), len = g.cols();
  // Stack all samples' columns side by side: [rows, n*len].
  Tensor stacked({rows, n * len});
  Tensor cols({rows, len});
  for (std::int64_t s = 0; s < n; ++s) {
    nn::im2col(batch.data() + s * cin_ * g.hin * g.win, g, cols.data());
    for (std::int64_t r = 0; r < rows; ++r) {
      std::copy(cols.data() + r * len, cols.data() + (r + 1) * len,
                stacked.data() + r * n * len + s * len);
    }
  }
  codebook_.kmeans_init(stacked, iterations, rng);
}

void PecanConv2d::load_filter(const Tensor& filter) {
  if (!filter.same_shape(weight_.value)) {
    throw std::invalid_argument(name_ + ": load_filter shape mismatch");
  }
  weight_.value = filter;
}

void PecanConv2d::fold_scale_shift(const Tensor& scale, const Tensor& shift) {
  if (scale.numel() != cout_ || shift.numel() != cout_) {
    throw std::invalid_argument(name_ + ": fold_scale_shift size mismatch");
  }
  const std::int64_t rows = cin_ * k_ * k_;
  for (std::int64_t c = 0; c < cout_; ++c) {
    float* wrow = weight_.value.data() + c * rows;
    for (std::int64_t i = 0; i < rows; ++i) wrow[i] *= scale[c];
    bias_.value[c] = bias_.value[c] * scale[c] + shift[c];
  }
  has_bias_ = true;
}

}  // namespace pecan::pq
