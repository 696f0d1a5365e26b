// Behavioural model of a best-match content addressable memory array.
//
// One CamArray holds the p prototypes of one PQ group as its stored words.
// Each PECAN mode reads the array one way:
//   L1 metric  — analog/ternary CAM best-match (PECAN-D): the match-line
//                discharge is proportional to the l1 mismatch, so the
//                winner-take-all picks argmin ||q - w||_1. Costs 2*p*d adds.
//   Dot metric — crossbar inner-product read (PECAN-A): returns all p
//                similarity scores for the softmax, p*d MACs. There is no
//                dot-metric best match: PECAN-A weighs every word.
// Each mode has one blocked entry that serving calls
// (search_accumulate_block / similarity_softmax_accumulate_block), pinned
// bitwise to the scalar spec in tests/cam_reference.hpp. The blocked
// entries charge a caller-owned CamTally; flush() publishes it.
// The array also keeps a per-word usage histogram (Fig. 6) and supports
// pruning never-used words (§5 of the paper).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cam/op_counter.hpp"
#include "tensor/tensor.hpp"

namespace pecan::cam {

class LutMemory;

namespace detail {
struct FloatPlane;
struct Int8Plane;
}  // namespace detail

enum class SearchMetric { L1BestMatch, DotProduct };

/// Numeric operating point of a CAM search. Float32 is the bitwise spec;
/// Int8 stores affine-quantized uint8 prototypes (queries are quantized
/// per tile with the same scale/zero-point, so L1/dot scans run on 4x
/// narrower lanes); Binary bit-packs prototype/query threshold-sign planes
/// (thresholded at the array's mean stored value) into uint64 words and
/// resolves the L1 best match via XOR+popcount Hamming distance (only
/// meaningful for L1 — dot/softmax needs real magnitudes, so Angle-mode
/// layers fall back to Int8).
enum class CamPrecision { Float32, Int8, Binary };

const char* precision_name(CamPrecision p);
CamPrecision precision_from_name(const std::string& name);

/// Affine uint8 quantization parameters of one CAM subspace:
/// q(x) = clamp(round(x / scale) + zero_point, 0, 255). The zero point
/// cancels in L1 distances; dot products correct for it with precomputed
/// per-word code sums.
struct AffineQuant {
  float scale = 1.f;            ///< > 0 even for zero-range inputs
  float inv_scale = 1.f;        ///< 1 / scale, precomputed: quantization is a hot loop
  std::int32_t zero_point = 0;  ///< uint8 code of real zero
};

/// Min/max-derived params covering `values[0..n)`. A zero range (all-equal
/// values, e.g. a pruned-to-one-word array) degenerates to scale=1 so the
/// grid stays valid.
AffineQuant affine_qparams(const float* values, std::int64_t n);

/// Round-half-away-from-zero onto the uint8 grid. Multiply + truncate, no
/// libm call: per-tile query quantization runs this d*lb times and must not
/// cost more than the narrow-lane scan it enables.
inline std::uint8_t affine_quantize(float v, const AffineQuant& q) {
  const float r = v * q.inv_scale;
  std::int32_t code = static_cast<std::int32_t>(r >= 0.f ? r + 0.5f : r - 0.5f) + q.zero_point;
  code = code < 0 ? 0 : (code > 255 ? 255 : code);
  return static_cast<std::uint8_t>(code);
}

/// ISA tier of the CAM tile-scan kernels this process serves from:
/// "baseline" (the build's default flags) or "x86-64-v4" (AVX-512), picked
/// once from the running CPU (cam/cam_kernels.hpp).
const char* kernel_isa();

/// Max columns per blocked search call. Sized so the per-tile scratch
/// (distances, hits, packed queries) lives in L1 next to the word being
/// scanned, and so the kernels can keep it on the stack.
inline constexpr std::int64_t kCamTileMax = 64;

/// Lane-local ledger of blocked calls on ONE array: plain op counts and
/// per-word hit counts, charged without atomics or shared cache lines by the
/// blocked entries and published by CamArray::flush. A serving lane keeps
/// one per array it searches and flushes it once per layer chunk, so a
/// tally holds far fewer than 2^32 hits on any word between flushes.
struct CamTally {
  explicit CamTally(std::int64_t words) : usage(static_cast<std::size_t>(words), 0) {}
  ops::OpTotals ops;
  std::vector<std::uint32_t> usage;  ///< [word_count()] hits per word since the last flush
};

class CamArray {
 public:
  /// words: [p, d] row-major (prototype-major, as pq::Codebook stores them).
  CamArray(Tensor words, SearchMetric metric);

  std::int64_t word_count() const { return p_; }
  std::int64_t word_dim() const { return d_; }
  SearchMetric metric() const { return metric_; }
  const Tensor& words() const { return words_; }
  /// Mutable access for hardware non-ideality models (cam/nonideal.hpp).
  Tensor& mutable_words() { return words_; }

  /// PECAN-D blocked entry: resolves the L1 best match of each query in a
  /// tile of lb <= kCamTileMax queries packed dim-major (component i of
  /// query l at queries[i * lb + l], see nn::im2col_tile) and adds lut column
  /// hit[l] into column l of the [cout, lb] output tile while the hit
  /// indices are still in registers. The call's ops and hits go into
  /// `tally` (plain adds, no atomics); flush() publishes them. At Float32 the
  /// output, and after flush() the OpCounter totals and the usage histogram,
  /// are bitwise-identical to the scalar spec's search + LUT accumulate per
  /// query (same scan order, same summation order, same lowest-index
  /// tie-break).
  /// Int8 and Binary resolve the same argmin over their quantized distances
  /// (same tie-break) and require prepare_quantized() first. lut.entries()
  /// and the tally's usage row must match word_count(); a DotProduct array
  /// throws std::invalid_argument.
  void search_accumulate_block(const float* queries, std::int64_t lb, const LutMemory& lut,
                               float* out, std::int64_t out_stride, CamTally& tally,
                               CamPrecision precision = CamPrecision::Float32) const;

  /// PECAN-A blocked entry: computes the tile's match-line scores (float
  /// dot products at Float32; dequantized int8 crossbar reads at Int8),
  /// softmaxes each column in place in `scores` (size >= p * lb), tallies
  /// the pre-softmax argmax as the usage hit, and weighted-accumulates into
  /// the [cout, lb] output tile. At Float32 the output, and after flush()
  /// the OpCounter totals, are bitwise-identical to the scalar spec's match
  /// line read + softmax + weighted LUT accumulate per query. Binary has no
  /// meaningful scores — callers map Binary to Int8 first; passing Binary
  /// here throws.
  void similarity_softmax_accumulate_block(const float* queries, std::int64_t lb,
                                           float temperature, const LutMemory& lut, float* scores,
                                           float* out, std::int64_t out_stride, CamTally& tally,
                                           CamPrecision precision = CamPrecision::Float32) const;

  /// Publishes a tally of this array's blocked calls — once into `counter`,
  /// mirrored into the bank port, and into the usage histogram — then zeroes
  /// it. The amounts equal what the scalar spec counts per query.
  void flush(CamTally& tally, OpCounter& counter) const;

  /// Builds the quantized plane(s) for `precision` from the current words:
  /// Int8 snapshots affine-quantized prototypes + per-word code sums, Binary
  /// packs sign planes. Float32 is a no-op. Must be re-run by callers that
  /// mutate words directly (mutable_words); prune_unused() re-prepares any
  /// plane that was already built.
  void prepare_quantized(CamPrecision precision);
  bool quantized_ready(CamPrecision precision) const;
  const AffineQuant& qparams() const { return qparams_; }
  /// Sign-plane binarization thresholds, one per component: the mean of
  /// that component over the stored words, calibrated by
  /// prepare_quantized(Binary). A fixed 0 threshold would collapse
  /// one-sided subspaces (e.g. first-layer image patches) to all-ones
  /// planes with zero Hamming information; per-component centering keeps
  /// every bit position near maximum entropy.
  const std::vector<float>& binary_thresholds() const { return bthresh_; }

  /// Per-word hit histogram (Fig. 6). flush() adds to it atomically: many
  /// lanes flush into one array at once and the histogram feeds §5 pruning,
  /// so no hit may be dropped.
  const std::vector<std::uint64_t>& usage() const { return usage_; }
  void reset_usage() const { std::fill(usage_.begin(), usage_.end(), 0); }

  /// Removes words whose usage count is zero; returns the kept->old index
  /// map so the owner can compact its LUT rows identically (§5 pruning).
  std::vector<std::int64_t> prune_unused();

  /// Wires this array to a simulated bank's op ledger (cam::BankMap):
  /// flush() mirrors its exact amounts into the port alongside the caller's
  /// OpCounter — one extra relaxed atomic per field per flush, nothing on
  /// the per-call path. nullptr detaches. The port must outlive every
  /// concurrent search (the engine wires it at compile time, before serving
  /// starts).
  void set_bank_port(OpCounter* port) { bank_port_ = port; }
  OpCounter* bank_port() const { return bank_port_; }

  /// Static per-word match-line offsets (cam/nonideal device variation):
  /// offsets[m] is added to word m's L1 distance / dot score in the FLOAT32
  /// search paths — the same perturbation a mis-calibrated match line
  /// applies to every search it serves. Empty = off, and the off path is
  /// bitwise-untouched (the offsets are applied after each word's full
  /// accumulation, so the blocked entries stay identical to the scalar spec
  /// with noise on, too). Quantized (Int8/Binary) scans never inject:
  /// noise is a Float32-only study (cam::apply_matchline_noise enforces this).
  void set_matchline_noise(std::vector<float> offsets);
  void clear_matchline_noise() { mlnoise_.clear(); }
  const std::vector<float>& matchline_noise() const { return mlnoise_; }

 private:
  detail::FloatPlane float_plane() const;
  detail::Int8Plane int8_plane() const;  ///< throws unless prepare_quantized(Int8) ran
  /// Argument checks shared by the blocked entries and flush().
  void check_tally(const CamTally& tally) const;
  void check_block(std::int64_t lb, const LutMemory& lut, const CamTally& tally) const;

  Tensor words_;
  std::int64_t p_, d_;
  SearchMetric metric_;
  mutable std::vector<std::uint64_t> usage_;
  OpCounter* bank_port_ = nullptr;  ///< simulated bank ledger (BankMap), may be null
  std::vector<float> mlnoise_;      ///< per-word match-line offsets, empty = off

  // Int8 plane: affine-quantized prototype codes [p, qstride_] with rows
  // zero-padded to a 16-byte multiple (aligned rows, tail-free byte loads).
  // qwsum_ holds per-word code sums (cancels the zero point in dot-metric
  // scores); wpairs_ carries the same codes pair-interleaved as uint16
  // halves of a uint32 ([p, (d+1)/2], odd d zero-padded) so the dot scan
  // can multiply-accumulate along the dimension axis with VPMADDWD.
  std::vector<std::uint8_t> qwords_;
  std::vector<std::int32_t> qwsum_;
  std::vector<std::uint32_t> wpairs_;
  std::int64_t qstride_ = 0;
  std::int64_t wpair_dp_ = 0;
  AffineQuant qparams_;
  bool int8_ready_ = false;

  // Binary plane: threshold-sign bits packed little-endian into uint64
  // words, bword_stride_ = ceil(d / 64) words per prototype; wbytes_ is the
  // same plane as 0/1 bytes ([p, d]) for the lane-parallel Hamming scan.
  std::vector<std::uint64_t> bwords_;
  std::vector<std::uint8_t> wbytes_;
  std::int64_t bword_stride_ = 0;
  std::vector<float> bthresh_;
  bool binary_ready_ = false;
};

}  // namespace pecan::cam
