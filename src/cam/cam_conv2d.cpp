#include "cam/cam_conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ops/complexity.hpp"
#include "tensor/sgemm.hpp"
#include "util/thread_pool.hpp"

namespace pecan::cam {

namespace {
/// The FC reshape around either conv path: [N, in] -> [N, in, 1, 1] ->
/// `conv` -> [N, out].
template <typename Conv>
Tensor as_fc(const Tensor& input, std::int64_t in, std::int64_t out, const std::string& name,
             Conv&& conv) {
  if (input.ndim() != 2 || input.dim(1) != in) {
    throw std::invalid_argument(name + ": expected [N," + std::to_string(in) + "]");
  }
  const std::int64_t n = input.dim(0);
  return conv(input.reshaped({n, in, 1, 1})).reshaped({n, out});
}
}  // namespace

CamConv2d::CamConv2d(const pq::PecanConv2d& trained, std::shared_ptr<OpCounter> counter)
    : name_(trained.name() + ".cam"), cin_(trained.cin()), cout_(trained.cout()),
      k_(trained.kernel()), stride_(trained.stride()), pad_(trained.pad()),
      d_(trained.config().d), p_(trained.config().p), mode_(trained.config().mode),
      temperature_(trained.config().temperature), has_bias_(trained.has_bias()),
      bias_({cout_}), counter_(std::move(counter)) {
  if (!counter_) throw std::invalid_argument(name_ + ": null counter");
  set_training(false);
  if (has_bias_) bias_ = trained.bias().value;

  const auto& codebook = trained.codebook();
  const std::int64_t D = codebook.groups();
  const SearchMetric metric =
      mode_ == pq::MatchMode::Distance ? SearchMetric::L1BestMatch : SearchMetric::DotProduct;
  arrays_.reserve(static_cast<std::size_t>(D));
  luts_.reserve(static_cast<std::size_t>(D));
  const Tensor& weight = trained.weight().value;  // [cout, cin*k^2]
  const std::int64_t rows = cin_ * k_ * k_;
  for (std::int64_t j = 0; j < D; ++j) {
    // Words of group j: [p, d] slice of the codebook.
    Tensor words({p_, d_});
    std::copy(codebook.prototype(j, 0), codebook.prototype(j, 0) + p_ * d_, words.data());
    // Precompute Y(j) = W1(j) * C(j): [cout, d] block of W times [d, p].
    // W1(j) is the column block of W covering rows j*d .. (j+1)*d.
    Tensor table({cout_, p_});
    for (std::int64_t c = 0; c < cout_; ++c) {
      const float* wrow = weight.data() + c * rows + j * d_;
      for (std::int64_t m = 0; m < p_; ++m) {
        const float* proto = words.data() + m * d_;
        float acc = 0.f;
        for (std::int64_t i = 0; i < d_; ++i) acc += wrow[i] * proto[i];
        table[c * p_ + m] = acc;
      }
    }
    arrays_.emplace_back(std::move(words), metric);
    luts_.emplace_back(std::move(table));
  }
}

Tensor CamConv2d::forward(const Tensor& input) {
  // CAM layers are inference-only (backward() throws), so forward() keeps
  // no cache: it is infer() plus the shape capture for inference_ops().
  nn::InferContext ctx;
  Tensor out = infer(input, ctx);
  input_shape_ = input.shape();
  return out;
}

Tensor CamConv2d::infer(const Tensor& input, nn::InferContext&) const {
  if (input.ndim() != 4 || input.dim(1) != cin_) {
    throw std::invalid_argument(name_ + ": expected [N," + std::to_string(cin_) + ",H,W]");
  }
  const std::int64_t n = input.dim(0), hin = input.dim(2), win = input.dim(3);
  const nn::Conv2dGeometry g = geometry(hin, win);
  const std::int64_t len = g.cols();
  const std::int64_t D = groups();

  Tensor output({n, cout_, g.hout(), g.wout()});

  // Algorithm 1, tile-at-a-time. Per tile and group, the queries are
  // gathered straight from the input image into a contiguous dim-major
  // [d, lb] block (nn::im2col_tile — no full im2col `cols` intermediate is
  // ever materialized) and searched with the blocked kernels; every output
  // element is owned by exactly one work item and accumulated in
  // ascending-j order, which keeps results bitwise-identical to the scalar
  // column-at-a-time path at any thread count and any batch split.
  const std::int64_t ntiles = (len + kCamTileMax - 1) / kCamTileMax;
  const std::int64_t tile_cost = std::max<std::int64_t>(D * p_ * d_ * kCamTileMax, 1);
  const std::int64_t grain = std::max<std::int64_t>(1, (1 << 12) / tile_cost);

  // One tile of one sample: the unit of parallel work. All scratch is
  // per-tile and lane-local, so lanes never touch the caller's arena. Each
  // mode has one blocked CAM entry: winners (or softmax weights) flow
  // straight into the LUT sweep without a hits round-trip, bitwise-identical
  // to the scalar column-at-a-time spec at Float32. The entries charge the
  // chunk's per-group tallies; no shared cache line is written per tile.
  //
  // Every group accumulates into a contiguous [cout, lb] tile that starts
  // at the bias, and the tile is written to the output once. Accumulating
  // in the output plane itself, at row stride len, would map a tile's rows
  // onto a few L1 sets (4096 bytes apart at 32x32). The tile's row stride
  // is lb rounded up to 16 lanes, so a tail tile's masked 16-lane row
  // stores never overlap the next row's loads.
  const CamPrecision eff = effective_precision();
  const auto tile_body = [&](const float* image, float* out_s, std::int64_t l0, std::int64_t lb,
                             float* qtile, float* scores, float* acc,
                             std::vector<CamTally>& tallies) {
    const std::int64_t ld = (lb + 15) & ~std::int64_t{15};
    for (std::int64_t c = 0; c < cout_; ++c) {
      std::fill(acc + c * ld, acc + c * ld + lb, has_bias_ ? bias_[c] : 0.f);
    }
    for (std::int64_t j = 0; j < D; ++j) {
      const CamArray& array = arrays_[static_cast<std::size_t>(j)];
      const LutMemory& lut = luts_[static_cast<std::size_t>(j)];
      CamTally& tally = tallies[static_cast<std::size_t>(j)];
      nn::im2col_tile(image, g, j * d_, d_, l0, lb, qtile);
      if (mode_ == pq::MatchMode::Distance) {
        array.search_accumulate_block(qtile, lb, lut, acc, ld, tally, eff);
      } else {
        array.similarity_softmax_accumulate_block(qtile, lb, temperature_, lut, scores, acc, ld,
                                                  tally, eff);
      }
    }
    for (std::int64_t c = 0; c < cout_; ++c) {
      std::copy(acc + c * ld, acc + c * ld + lb, out_s + c * len + l0);
    }
  };
  const std::int64_t scores_size = mode_ == pq::MatchMode::Angle ? p_ * kCamTileMax : 0;

  // Flat (sample, tile) work axis: with the unfold fused into the per-tile
  // gather there is no per-sample setup left, so every batch shape — a
  // LeNet FC layer (len = 1) with a batch of 64 just as much as one large
  // conv image — spreads across every pool lane, and the old batch-wide
  // im2col hoist (up to 16 MB of arena scratch per context) is gone
  // entirely: peak scratch is the per-lane [d, 64] tile plus one tally per
  // group. Each chunk flushes its tallies once at its end, so every count
  // of this layer is in the shared ledger before infer() returns.
  util::parallel_for(
      0, n * ntiles,
      [&](std::int64_t w0, std::int64_t w1) {
        std::vector<float> qtile(static_cast<std::size_t>(d_ * kCamTileMax));
        std::vector<float> scores(static_cast<std::size_t>(scores_size));
        std::vector<float> acc(static_cast<std::size_t>(cout_ * kCamTileMax));
        std::vector<CamTally> tallies;
        tallies.reserve(static_cast<std::size_t>(D));
        for (const CamArray& array : arrays_) tallies.emplace_back(array.word_count());
        for (std::int64_t w = w0; w < w1; ++w) {
          const std::int64_t s = w / ntiles;
          const std::int64_t l0 = (w % ntiles) * kCamTileMax;
          const std::int64_t lb = std::min<std::int64_t>(kCamTileMax, len - l0);
          tile_body(input.data() + s * cin_ * hin * win, output.data() + s * cout_ * len, l0, lb,
                    qtile.data(), scores.data(), acc.data(), tallies);
        }
        for (std::int64_t j = 0; j < D; ++j) {
          arrays_[static_cast<std::size_t>(j)].flush(tallies[static_cast<std::size_t>(j)],
                                                     *counter_);
        }
      },
      grain);
  return output;
}

Tensor CamConv2d::backward(const Tensor&) {
  throw std::logic_error(name_ + ": CAM layers are inference-only");
}

ops::OpCount CamConv2d::inference_ops() const {
  if (input_shape_.empty()) return {};
  const nn::Conv2dGeometry g = geometry(input_shape_[2], input_shape_[3]);
  const ops::ConvDims dims{cin_, cout_, k_, g.hout(), g.wout()};
  const ops::PqDims q{p_, groups(), d_};
  return mode_ == pq::MatchMode::Angle ? ops::conv_pecan_a(dims, q) : ops::conv_pecan_d(dims, q);
}

void CamConv2d::set_precision(CamPrecision precision) {
  precision_ = precision;
  const CamPrecision eff = effective_precision();
  if (eff == CamPrecision::Float32) return;
  for (auto& array : arrays_) array.prepare_quantized(eff);
}

void CamConv2d::fold_scale_shift(const Tensor& scale, const Tensor& shift) {
  if (scale.numel() != cout_ || shift.numel() != cout_) {
    throw std::invalid_argument(name_ + ": fold_scale_shift size mismatch");
  }
  for (auto& lut : luts_) {
    Tensor& table = lut.table();
    const std::int64_t p = lut.entries();
    for (std::int64_t c = 0; c < cout_; ++c) {
      for (std::int64_t m = 0; m < p; ++m) table[c * p + m] *= scale[c];
    }
  }
  for (std::int64_t c = 0; c < cout_; ++c) bias_[c] = bias_[c] * scale[c] + shift[c];
  has_bias_ = true;
}

std::pair<std::int64_t, std::int64_t> CamConv2d::prune_unused() {
  std::int64_t pruned = 0, total = 0;
  for (std::size_t j = 0; j < arrays_.size(); ++j) {
    const std::int64_t before = arrays_[j].word_count();
    const std::vector<std::int64_t> kept = arrays_[j].prune_unused();
    luts_[j].keep_entries(kept);
    pruned += before - static_cast<std::int64_t>(kept.size());
    total += before;
  }
  return {pruned, total};
}

void CamConv2d::reset_usage() const {
  for (const auto& array : arrays_) array.reset_usage();
}

CamLinear::CamLinear(const pq::PecanConv2d& trained_fc_conv, std::shared_ptr<OpCounter> counter)
    : conv_(trained_fc_conv, std::move(counter)), in_(trained_fc_conv.cin()),
      out_(trained_fc_conv.cout()) {
  if (trained_fc_conv.kernel() != 1) {
    throw std::invalid_argument("CamLinear: expected a k=1 (FC) PECAN layer");
  }
  set_training(false);
}

Tensor CamLinear::forward(const Tensor& input) {
  return as_fc(input, in_, out_, name(), [&](const Tensor& x) { return conv_.forward(x); });
}

Tensor CamLinear::infer(const Tensor& input, nn::InferContext& ctx) const {
  return as_fc(input, in_, out_, name(), [&](const Tensor& x) { return conv_.infer(x, ctx); });
}

Tensor CamLinear::backward(const Tensor&) {
  throw std::logic_error(name() + ": CAM layers are inference-only");
}

}  // namespace pecan::cam
