// CamConv2d — the inference-phase realization of a trained PECAN layer as
// content addressable memory + lookup tables (Algorithm 1 of the paper).
//
// Exported from a trained pq::PecanConv2d:
//   * the codebook of each group j becomes one best-match CamArray;
//   * the products Y(j) = W1(j) C1(j) are precomputed into LutMemory;
//   * per input column, PECAN-D issues one CAM search per group and one
//     LUT accumulate (NO multiplications anywhere — asserted by tests);
//     PECAN-A reads the match-line scores, applies softmax, and performs
//     the weighted LUT sum.
// The layer is an nn::Module so exported networks keep the exact topology
// of their training-time counterparts; backward() deliberately throws.
#pragma once

#include <memory>
#include <vector>

#include "cam/cam_array.hpp"
#include "cam/lut.hpp"
#include "core/pecan_conv2d.hpp"
#include "nn/im2col.hpp"
#include "nn/module.hpp"

namespace pecan::cam {

class CamConv2d : public nn::Module {
 public:
  /// Exports a trained PECAN layer. `counter` is shared across the network.
  CamConv2d(const pq::PecanConv2d& trained, std::shared_ptr<OpCounter> counter);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;  ///< throws: inference only
  /// Stateless CAM search + LUT accumulate; arrays/LUTs are read-only, each
  /// lane tallies its ops and hits locally, and the flush into the usage
  /// histograms + op counter is atomic, so concurrent infer() calls on one
  /// exported network are safe.
  Tensor infer(const Tensor& input, nn::InferContext& ctx) const override;
  std::string name() const override { return name_; }
  ops::OpCount inference_ops() const override;

  pq::MatchMode mode() const { return mode_; }
  /// Convolution geometry of this layer over an [N, cin, hin, win] input.
  nn::Conv2dGeometry geometry(std::int64_t hin, std::int64_t win) const {
    return {cin_, hin, win, k_, stride_, pad_};
  }
  std::int64_t groups() const { return static_cast<std::int64_t>(arrays_.size()); }
  CamArray& array(std::int64_t j) { return arrays_[static_cast<std::size_t>(j)]; }
  const CamArray& array(std::int64_t j) const { return arrays_[static_cast<std::size_t>(j)]; }
  LutMemory& lut(std::int64_t j) { return luts_[static_cast<std::size_t>(j)]; }
  OpCounter& counter() { return *counter_; }

  /// Numeric operating point of the CAM search (export default: Float32).
  /// Setting Int8/Binary prepares the quantized planes in every group's
  /// array. An Angle-mode layer maps Binary to Int8 (softmax needs real
  /// match-line magnitudes) — precision() still reports the requested point,
  /// effective_precision() the one the kernels run at.
  void set_precision(CamPrecision precision);
  CamPrecision precision() const { return precision_; }
  CamPrecision effective_precision() const {
    return (mode_ == pq::MatchMode::Angle && precision_ == CamPrecision::Binary)
               ? CamPrecision::Int8
               : precision_;
  }

  /// Post-BN folding on the exported layer: LUT rows scale, bias shifts.
  void fold_scale_shift(const Tensor& scale, const Tensor& shift);

  /// §5 pruning: drops never-used prototypes from every group's CAM array
  /// and the matching LUT columns. Returns (pruned, total) word counts.
  std::pair<std::int64_t, std::int64_t> prune_unused();

  void reset_usage() const;
  /// Usage histogram of group j (Fig. 6 series).
  const std::vector<std::uint64_t>& usage(std::int64_t j) const {
    return arrays_[static_cast<std::size_t>(j)].usage();
  }

 private:
  std::string name_;
  std::int64_t cin_, cout_, k_, stride_, pad_, d_, p_;
  pq::MatchMode mode_;
  CamPrecision precision_ = CamPrecision::Float32;
  float temperature_;
  bool has_bias_;
  Tensor bias_;
  std::vector<CamArray> arrays_;
  std::vector<LutMemory> luts_;
  std::shared_ptr<OpCounter> counter_;
  Shape input_shape_;
};

/// FC flavor: reshapes [N, F] <-> [N, F, 1, 1] around a CamConv2d.
class CamLinear : public nn::Module {
 public:
  CamLinear(const pq::PecanConv2d& trained_fc_conv, std::shared_ptr<OpCounter> counter);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input, nn::InferContext& ctx) const override;
  std::string name() const override { return conv_.name(); }
  ops::OpCount inference_ops() const override { return conv_.inference_ops(); }
  CamConv2d& conv() { return conv_; }

 private:
  CamConv2d conv_;
  std::int64_t in_, out_;
};

}  // namespace pecan::cam
