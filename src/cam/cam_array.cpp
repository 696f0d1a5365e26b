#include "cam/cam_array.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "cam/cam_kernels.hpp"
#include "cam/lut.hpp"

namespace pecan::cam {

const char* precision_name(CamPrecision p) {
  switch (p) {
    case CamPrecision::Float32: return "float32";
    case CamPrecision::Int8: return "int8";
    case CamPrecision::Binary: return "binary";
  }
  return "float32";
}

CamPrecision precision_from_name(const std::string& name) {
  if (name == "float32" || name == "fp32" || name == "float") return CamPrecision::Float32;
  if (name == "int8") return CamPrecision::Int8;
  if (name == "binary" || name == "bin" || name == "sign") return CamPrecision::Binary;
  throw std::invalid_argument("unknown cam precision '" + name +
                              "' (expected float32 | int8 | binary)");
}

AffineQuant affine_qparams(const float* values, std::int64_t n) {
  float mn = values[0], mx = values[0];
  for (std::int64_t i = 1; i < n; ++i) {
    mn = std::min(mn, values[i]);
    mx = std::max(mx, values[i]);
  }
  AffineQuant q;
  if (mx > mn) {
    q.scale = (mx - mn) / 255.f;
  } else {
    // Zero range (all-equal words): any grid works, distances are all equal.
    q.scale = 1.f;
  }
  q.inv_scale = 1.f / q.scale;
  const std::int32_t zp = static_cast<std::int32_t>(std::lround(-mn / q.scale));
  q.zero_point = zp < 0 ? 0 : (zp > 255 ? 255 : zp);
  return q;
}

CamArray::CamArray(Tensor words, SearchMetric metric)
    : words_(std::move(words)), metric_(metric) {
  if (words_.ndim() != 2) throw std::invalid_argument("CamArray: words must be [p, d]");
  p_ = words_.dim(0);
  d_ = words_.dim(1);
  if (p_ <= 0 || d_ <= 0) throw std::invalid_argument("CamArray: empty array");
  usage_.assign(static_cast<std::size_t>(p_), 0);
}

static_assert(kCamTileMax == detail::kKernelTile, "CAM tile width and kernel tile must agree");

const char* kernel_isa() { return detail::resolved_kernels().isa; }

namespace {

// Per-lane scratch for the quantized scans (query codes, VPMADDWD pair
// rows, int32 dot rows, packed sign words). thread_local so the blocked
// kernels stay allocation-free on the steady path at any thread count;
// sized for the widest table so a lane can run any of them.
thread_local std::vector<std::uint8_t> tl_codes;
thread_local std::vector<std::uint32_t> tl_pairs;
thread_local std::vector<std::int32_t> tl_dots;
thread_local std::vector<std::uint64_t> tl_bits;

template <typename T>
T* grow(std::vector<T>& v, std::int64_t n) {
  if (v.size() < static_cast<std::size_t>(n)) v.resize(static_cast<std::size_t>(n));
  return v.data();
}

detail::KernelScratch lane_scratch(std::int64_t p, std::int64_t d) {
  return {grow(tl_codes, 2 * (d + 8) * kCamTileMax), grow(tl_pairs, (d + 1) / 2 * kCamTileMax),
          grow(tl_dots, p * kCamTileMax), grow(tl_bits, kCamTileMax * ((d + 63) / 64))};
}

}  // namespace

void CamArray::prepare_quantized(CamPrecision precision) {
  if (precision == CamPrecision::Float32) return;
  if (precision == CamPrecision::Int8) {
    qparams_ = affine_qparams(words_.data(), p_ * d_);
    qstride_ = (d_ + 15) & ~std::int64_t{15};
    qwords_.assign(static_cast<std::size_t>(p_ * qstride_), 0);
    qwsum_.assign(static_cast<std::size_t>(p_), 0);
    // Pair-interleaved codes for the VPMADDWD dot scan: word ip packs codes
    // (w_{2ip}, w_{2ip+1}) into uint16 halves; odd d pads the high half with
    // 0, which contributes 0 to every product.
    wpair_dp_ = (d_ + 1) / 2;
    wpairs_.assign(static_cast<std::size_t>(p_ * wpair_dp_), 0);
    for (std::int64_t m = 0; m < p_; ++m) {
      std::uint8_t* w = qwords_.data() + m * qstride_;
      const float* src = words_.data() + m * d_;
      std::int32_t s = 0;
      for (std::int64_t i = 0; i < d_; ++i) {
        w[i] = affine_quantize(src[i], qparams_);
        s += w[i];
      }
      qwsum_[static_cast<std::size_t>(m)] = s;
      std::uint32_t* wp = wpairs_.data() + m * wpair_dp_;
      for (std::int64_t ip = 0; ip < wpair_dp_; ++ip) {
        const std::uint32_t lo = w[2 * ip];
        const std::uint32_t hi = 2 * ip + 1 < d_ ? w[2 * ip + 1] : 0;
        wp[ip] = lo | (hi << 16);
      }
    }
    int8_ready_ = true;
    return;
  }
  // Binary: little-endian sign planes, bit i%64 of word i/64 set iff
  // component i clears that component's threshold. Thresholds are
  // calibrated to the per-component mean over the stored words rather than
  // fixed at 0: one-sided subspaces (first-layer image patches are almost
  // entirely non-negative) would binarize to all-ones against 0 and carry
  // zero Hamming information, while per-component centering keeps each bit
  // position near maximum entropy. The 0/1 sign BYTE plane next to the
  // packed words feeds the lane-parallel Hamming scan (same bits,
  // byte-addressable).
  bthresh_.assign(static_cast<std::size_t>(d_), 0.f);
  for (std::int64_t i = 0; i < d_; ++i) {
    double sum = 0;
    for (std::int64_t m = 0; m < p_; ++m) sum += words_.data()[m * d_ + i];
    bthresh_[static_cast<std::size_t>(i)] = static_cast<float>(sum / static_cast<double>(p_));
  }
  bword_stride_ = (d_ + 63) / 64;
  bwords_.assign(static_cast<std::size_t>(p_ * bword_stride_), 0);
  wbytes_.assign(static_cast<std::size_t>(p_ * d_), 0);
  for (std::int64_t m = 0; m < p_; ++m) {
    std::uint64_t* w = bwords_.data() + m * bword_stride_;
    std::uint8_t* wb = wbytes_.data() + m * d_;
    const float* src = words_.data() + m * d_;
    for (std::int64_t i = 0; i < d_; ++i) {
      if (src[i] >= bthresh_[static_cast<std::size_t>(i)]) {
        w[i >> 6] |= (std::uint64_t{1} << (i & 63));
        wb[i] = 1;
      }
    }
  }
  binary_ready_ = true;
}

bool CamArray::quantized_ready(CamPrecision precision) const {
  if (precision == CamPrecision::Int8) return int8_ready_;
  if (precision == CamPrecision::Binary) return binary_ready_;
  return true;
}

detail::FloatPlane CamArray::float_plane() const {
  return {words_.data(), mlnoise_.empty() ? nullptr : mlnoise_.data(), p_, d_};
}

detail::Int8Plane CamArray::int8_plane() const {
  if (!int8_ready_) throw std::logic_error("CamArray: prepare_quantized(Int8) not called");
  return {qwords_.data(), qwsum_.data(), wpairs_.data(), p_, d_, qstride_, wpair_dp_,
          qparams_.inv_scale, qparams_.zero_point};
}

void CamArray::check_tally(const CamTally& tally) const {
  if (static_cast<std::int64_t>(tally.usage.size()) != p_) {
    throw std::invalid_argument("CamArray: tally is sized for a different word count");
  }
}

void CamArray::check_block(std::int64_t lb, const LutMemory& lut, const CamTally& tally) const {
  if (lb > kCamTileMax) throw std::invalid_argument("CamArray: tile larger than kCamTileMax");
  if (lut.entries() != p_) {
    throw std::invalid_argument("CamArray: LUT entry count does not match word count");
  }
  check_tally(tally);
}

void CamArray::search_accumulate_block(const float* queries, std::int64_t lb, const LutMemory& lut,
                                       float* out, std::int64_t out_stride, CamTally& tally,
                                       CamPrecision precision) const {
  if (lb <= 0) return;
  if (metric_ != SearchMetric::L1BestMatch) {
    throw std::invalid_argument(
        "CamArray: best-match search is L1-only (dot arrays serve through "
        "similarity_softmax_accumulate_block)");
  }
  check_block(lb, lut, tally);
  const detail::KernelTable& k = detail::active_kernels();
  const auto n = static_cast<std::uint64_t>(lb);
  std::int32_t hit32[kCamTileMax];
  if (precision == CamPrecision::Int8) {
    k.int8_l1_hits(int8_plane(), queries, lb, lane_scratch(p_, d_), hit32);
    tally.ops.adds_q += static_cast<std::uint64_t>(2 * p_ * d_) * n;
  } else if (precision == CamPrecision::Binary) {
    if (!binary_ready_) throw std::logic_error("CamArray: prepare_quantized(Binary) not called");
    const detail::BinaryPlane plane{bwords_.data(), wbytes_.data(), bthresh_.data(), p_, d_,
                                    bword_stride_};
    k.binary_hits(plane, queries, lb, lane_scratch(p_, d_), hit32);
    // Same op accounting for every table: the byte-plane scan computes the
    // identical XOR+popcount totals, just spread across lanes.
    tally.ops.xor_popcounts += static_cast<std::uint64_t>(p_ * bword_stride_) * n;
  } else {
    // Match-line noise injects in the Float32 scans only (float_plane()
    // carries it), after each word's full accumulation — identically to the
    // scalar spec, so blocked == scalar holds with noise on.
    k.f32_l1_hits(float_plane(), queries, lb, hit32);
    tally.ops.adds += static_cast<std::uint64_t>(2 * p_ * d_) * n;
  }
  tally.ops.cam_searches += n;
  for (std::int64_t l = 0; l < lb; ++l) ++tally.usage[static_cast<std::size_t>(hit32[l])];
  // Fused epilogue: the winners go straight into the LUT row sweep while
  // still hot. With p_ <= 64 each table row is held in registers and looked
  // up by permutes, with no gather. hits are < p_ by construction, so no
  // per-element bounds re-check is needed.
  k.lut_accumulate(lut.table().data(), lut.cout(), p_, hit32, lb, out, out_stride);
  tally.ops.adds += static_cast<std::uint64_t>(lut.cout()) * n;
  tally.ops.lut_reads += n;
}

void CamArray::similarity_softmax_accumulate_block(const float* queries, std::int64_t lb,
                                                   float temperature, const LutMemory& lut,
                                                   float* scores, float* out,
                                                   std::int64_t out_stride, CamTally& tally,
                                                   CamPrecision precision) const {
  if (lb <= 0) return;
  check_block(lb, lut, tally);
  if (precision == CamPrecision::Binary) {
    throw std::invalid_argument(
        "CamArray: binary sign-plane has no match-line magnitudes; use Int8 for softmax layers");
  }
  const auto reads = static_cast<std::uint64_t>(p_ * d_ * lb);
  if (precision == CamPrecision::Int8) {
    // Integer crossbar read, dequantized to real-value scores so the softmax
    // temperature keeps its calibrated meaning.
    detail::active_kernels().int8_dot_scores(int8_plane(), queries, lb,
                                             qparams_.scale * qparams_.scale,
                                             lane_scratch(p_, d_), scores);
    tally.ops.adds_q += reads;
    tally.ops.muls_q += reads;
  } else {
    // Each score is bitwise-equal to the scalar spec's read of its query,
    // match-line noise included.
    detail::active_kernels().f32_dot_scores(float_plane(), queries, lb, scores);
    tally.ops.adds += reads;
    tally.ops.muls += reads;
  }
  tally.ops.cam_searches += static_cast<std::uint64_t>(lb);
  // Column softmax of the [p, lb] score tile, in place — same per-element
  // operations as the scalar spec (float exp, double denominator, one float
  // normalize multiply) so the Float32 path stays bitwise-identical to the
  // scalar spec's score read + softmax + weighted accumulate.
  for (std::int64_t l = 0; l < lb; ++l) {
    float mx = scores[l];
    std::int64_t best = 0;
    for (std::int64_t m = 1; m < p_; ++m) {
      const float v = scores[m * lb + l];
      if (v > mx) {
        mx = v;
        best = m;
      }
    }
    ++tally.usage[static_cast<std::size_t>(best)];
    double denom = 0;
    for (std::int64_t m = 0; m < p_; ++m) {
      float& v = scores[m * lb + l];
      v = std::exp((v - mx) / temperature);
      denom += v;
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t m = 0; m < p_; ++m) scores[m * lb + l] *= inv;
  }
  lut.weighted_accumulate_block(scores, lb, out, out_stride, tally.ops);
}

void CamArray::flush(CamTally& tally, OpCounter& counter) const {
  check_tally(tally);
  count_into(tally.ops, counter, bank_port_);
  tally.ops = {};
  for (std::size_t m = 0; m < tally.usage.size(); ++m) {
    if (tally.usage[m] == 0) continue;
    std::atomic_ref<std::uint64_t>(usage_[m]).fetch_add(tally.usage[m], std::memory_order_relaxed);
    tally.usage[m] = 0;
  }
}

void CamArray::set_matchline_noise(std::vector<float> offsets) {
  if (static_cast<std::int64_t>(offsets.size()) != p_) {
    throw std::invalid_argument("CamArray: matchline noise needs one offset per word (" +
                                std::to_string(p_) + "), got " +
                                std::to_string(offsets.size()));
  }
  mlnoise_ = std::move(offsets);
}

std::vector<std::int64_t> CamArray::prune_unused() {
  std::vector<std::int64_t> kept;
  for (std::int64_t m = 0; m < p_; ++m) {
    if (usage_[static_cast<std::size_t>(m)] > 0) kept.push_back(m);
  }
  if (kept.empty()) kept.push_back(0);  // never leave an empty array
  Tensor compact({static_cast<std::int64_t>(kept.size()), d_});
  std::vector<std::uint64_t> usage_compact;
  usage_compact.reserve(kept.size());
  std::vector<float> noise_compact;
  if (!mlnoise_.empty()) noise_compact.reserve(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const float* src = words_.data() + kept[i] * d_;
    std::copy(src, src + d_, compact.data() + static_cast<std::int64_t>(i) * d_);
    usage_compact.push_back(usage_[static_cast<std::size_t>(kept[i])]);
    // A word keeps its match-line offset across pruning: the offset models
    // the physical line the word stays on.
    if (!mlnoise_.empty()) noise_compact.push_back(mlnoise_[static_cast<std::size_t>(kept[i])]);
  }
  words_ = std::move(compact);
  p_ = words_.dim(0);
  usage_ = std::move(usage_compact);
  mlnoise_ = std::move(noise_compact);
  // Quantized planes snapshot the words, so pruning invalidates them;
  // rebuild whichever planes were already prepared.
  if (int8_ready_) prepare_quantized(CamPrecision::Int8);
  if (binary_ready_) prepare_quantized(CamPrecision::Binary);
  return kept;
}

}  // namespace pecan::cam
