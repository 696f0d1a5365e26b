// Hardware non-ideality models for the CAM simulator.
//
// The paper positions PECAN for RRAM-crossbar / analog-CAM deployment.
// Physical CAMs are not exact: stored conductances quantize to a few bits
// and match-line currents carry device noise. This module models both so a
// deployment study can ask "how many bits / how much noise can the network
// tolerate?" — the natural hardware question behind the paper's §1 claims.
//
//   * quantize_to_intn: symmetric per-array uniform quantization of the
//     CAM words and LUT tables to n-bit integers (dequantized back to the
//     float grid, i.e. "fake quantization" — values sit exactly on the
//     2^n-1 levels a memristive cell can hold).
//   * Match-line noise: static per-word Gaussian offsets of the match-line
//     distance/score, modeling device variation — each stored word sits on
//     a physical line whose discharge is mis-calibrated by a fixed amount,
//     so the SAME perturbation applies to every search that line serves.
//     Offsets are drawn PER BANK (cam::BankMap placement) from a seeded
//     deterministic stream: two banks with the same seed but different ids
//     get different variation, matching how process variation is
//     die-location-dependent. Injection happens inside the Float32 CamArray
//     scan paths (see CamArray::set_matchline_noise); with no offsets set
//     the search path is bitwise-untouched.
//
// Both are offline studies over a CamNetworkExport: the serving engine runs
// one fixed, noise-free CAM part. bench_ablation_bitwidth reports accuracy
// and argmax agreement with the clean export per bit width and per sigma.
#pragma once

#include <cstdint>

#include "cam/bank_map.hpp"
#include "cam/cam_conv2d.hpp"
#include "cam/convert.hpp"
#include "tensor/rng.hpp"

namespace pecan::cam {

struct QuantizationReport {
  std::int64_t tensors = 0;        ///< arrays + tables quantized
  double max_abs_error = 0;        ///< worst absolute rounding error
  double mean_abs_error = 0;       ///< per-tensor mean absolute error, averaged over tensors
  std::int64_t levels = 0;         ///< 2^bits - 1
};

/// Fake-quantizes every CAM word and LUT entry of `layer` to `bits` bits
/// (symmetric, per-array scale). Returns rounding-error statistics. `bits`
/// outside [2, 16] throws std::invalid_argument before anything is touched.
QuantizationReport quantize_to_intn(CamConv2d& layer, int bits);

/// Whole-network variant, with the same `bits` check even when the export
/// has no CAM layers.
QuantizationReport quantize_to_intn(CamNetworkExport& network, int bits);

/// Device-variation knob for the match-line noise model. `sigma` is the
/// offset magnitude RELATIVE to each array's mean stored-word l1 norm
/// (a dimensionless variation coefficient: 0.01 ~= "match lines are
/// mis-calibrated by ~1% of a typical word's full discharge"), so one
/// sigma is meaningful across layers whose word scales differ by orders
/// of magnitude. sigma = 0 draws all-zero offsets (still installed —
/// use clear_matchline_noise to truly detach).
struct MatchlineNoiseConfig {
  double sigma = 0.0;
  std::uint64_t seed = 0x5EEDCA15ull;
};

struct MatchlineNoiseReport {
  std::int64_t arrays = 0;        ///< arrays that received offsets
  std::int64_t words = 0;         ///< total match lines perturbed
  double mean_abs_offset = 0.0;   ///< mean |offset| across all words
  double max_abs_offset = 0.0;    ///< worst single-line |offset|
};

/// Draws and installs static per-word match-line offsets for every array of
/// `network`, seeded PER BANK from `banks`' placement: each bank gets an
/// independent stream derived from (config.seed, bank id), and arrays are
/// visited in the deterministic assignment order, so the same export + bank
/// count + noise config always yields the same device. Offsets are
/// offset[m] = sigma * mean_word_l1_norm(array) * N(0, 1). Throws
/// std::invalid_argument on an export whose layers do not all run at
/// Float32: quantized scans never inject, so the study would silently
/// measure a noise-free part.
MatchlineNoiseReport apply_matchline_noise(CamNetworkExport& network, const BankMap& banks,
                                           const MatchlineNoiseConfig& config);

/// Detaches all offsets; the search paths return to the bitwise spec.
void clear_matchline_noise(CamNetworkExport& network);

}  // namespace pecan::cam
