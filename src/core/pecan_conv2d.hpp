// PecanConv2d — a convolution whose input features are replaced by
// product-quantized prototypes (the paper's core layer, §3).
//
// Forward (training AND inference use the same matching math; the CAM
// executor in src/cam is the lookup-table realization of the same layer):
//   X = im2col(input)                         [cin*k^2, L], L = Ho*Wo
//   for each group j (d consecutive rows):
//     PECAN-A: K = softmax(C(j)^T X(j) / tau) (Eq. 2), Xq(j) = C(j) K
//     PECAN-D: k_l = argmax_m -||X(j)_l - C(j)_m||_1 (Eq. 3),
//              Xq(j)_l = C(j)_{k_l}
//   Y = F Xq (+ bias)
//
// Training of PECAN-D follows the paper exactly:
//   * STE (Eq. 5): forward uses the hard one-hot assignment, backward the
//     softmax relaxation of Eq. (4) with temperature tau;
//   * the sign gradient of the l1 distance is replaced by the epoch-aware
//     surrogate tanh(a(X - C)), a = exp(4e/E) (Eq. 6, Fig. 3). The epoch
//     progress e/E is delivered via Module::set_epoch_progress.
#pragma once

#include "core/codebook.hpp"
#include "core/pq_config.hpp"
#include "nn/im2col.hpp"
#include "nn/module.hpp"
#include "tensor/rng.hpp"

namespace pecan::pq {

class PecanConv2d : public nn::Module {
 public:
  PecanConv2d(std::string name, std::int64_t cin, std::int64_t cout, std::int64_t k,
              std::int64_t stride, std::int64_t pad, bool bias, PqLayerConfig config, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Stateless prototype matching: the per-call K/hard-index scratch lives
  /// in `ctx`, so concurrent calls share the (frozen) codebook and filter
  /// safely. A training forward() runs the same loop into its cache.
  Tensor infer(const Tensor& input, nn::InferContext& ctx) const override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return name_; }
  void set_epoch_progress(double progress) override;
  ops::OpCount inference_ops() const override;

  // Introspection for the CAM exporter, Fig. 4/5/6 benches, and tests.
  const PqLayerConfig& config() const { return config_; }
  /// Swaps the backward surrogate (ablation studies); forward is unchanged.
  void set_surrogate(SignSurrogate surrogate) { config_.surrogate = surrogate; }
  std::int64_t groups() const { return codebook_.groups(); }
  std::int64_t cin() const { return cin_; }
  std::int64_t cout() const { return cout_; }
  std::int64_t kernel() const { return k_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }
  bool has_bias() const { return has_bias_; }
  nn::Parameter& weight() { return weight_; }            ///< [cout, cin*k^2]
  const nn::Parameter& weight() const { return weight_; }
  Codebook& codebook() { return codebook_; }
  const Codebook& codebook() const { return codebook_; }
  nn::Parameter& bias() { return bias_; }
  const nn::Parameter& bias() const { return bias_; }

  /// Maps an im2col matrix [cin*k^2, L] to its prototype approximation
  /// (inference path, no caching). Used by the Fig. 5 bench and the
  /// PQ-lookup equivalence tests.
  Tensor quantize_cols(const Tensor& cols) const;

  /// Hard assignment indices per (group, column) under the layer's metric —
  /// argmax dot-product for Angle, argmin l1 for Distance. [groups, L].
  std::vector<std::int64_t> assignments(const Tensor& cols) const;

  /// k-means warm start of the codebooks from real feature statistics:
  /// runs im2col over the given batch and fits prototypes per group
  /// (the classic PQ construction; used for uni-optimization).
  void kmeans_init_from(const Tensor& batch, std::int64_t iterations, Rng& rng);

  /// Copies a baseline convolution's flattened filter matrix (for
  /// uni-optimization from a pretrained CNN).
  void load_filter(const Tensor& filter /* [cout, cin*k^2] */);

  /// BN folding, mirroring nn::Conv2d::fold_scale_shift.
  void fold_scale_shift(const Tensor& scale, const Tensor& shift);

 private:
  nn::Conv2dGeometry geometry(std::int64_t hin, std::int64_t win) const;
  /// Geometry of an [N, cin, H, W] input; throws on any other shape.
  nn::Conv2dGeometry input_geometry(const Tensor& input) const;

  /// The layer's one output path: im2col, per-group matching, Xq, then
  /// Y = F Xq (+ bias). With null caches, K and the hard indices are
  /// per-sample arena scratch (serving); otherwise every sample's land in
  /// `k_cache` [N, D, p, L] and `hard_cache` [N, D, L] with the softmax
  /// relaxation that backward() needs.
  Tensor match_and_project(const Tensor& input, nn::InferContext& ctx, float* k_cache,
                           std::int64_t* hard_cache) const;

  /// Xq(j) [d, L] from the group's matching weights (Angle) or hard
  /// indices (Distance).
  void rebuild_xq(std::int64_t j, std::int64_t len, const float* k_buf,
                  const std::int64_t* hard_buf, float* xq_group) const;

  /// Group matching: fills K [p, L] (soft or attention weights) and, for
  /// Distance mode, hard indices [L]. `training_path` controls whether the
  /// softmax relaxation is computed (needed for backward).
  void match_group(std::int64_t j, const float* cols, std::int64_t len, float* k_out,
                   std::int64_t* hard_out, bool training_path) const;

  std::string name_;
  std::int64_t cin_, cout_, k_, stride_, pad_;
  bool has_bias_;
  PqLayerConfig config_;
  std::int64_t D_, d_, p_;
  nn::Parameter weight_;
  nn::Parameter bias_;
  Codebook codebook_;
  double epoch_progress_ = 0.0;

  Shape input_shape_;  ///< last forward's input, for inference_ops()

  // Backward context.
  Tensor cached_input_;
  Tensor cached_k_;                       ///< [N, D, p, L] soft/attention weights
  std::vector<std::int64_t> cached_hard_; ///< [N, D, L] argmax indices (Distance)
};

}  // namespace pecan::pq
