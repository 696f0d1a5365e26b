// CAM tile-scan kernels behind a runtime-dispatched function table.
//
// Internal to cam/: CamArray is the public face (op tallies, usage
// tallies, argument checks); this header is what it calls through, and
// what tests/test_kernels.cpp reaches to pin every table against the
// baseline one.
//
// One kernel source (cam_kernels.inc) is compiled twice:
//   cam_kernels_baseline.cpp   — the build's default flags (portable loops);
//   cam_kernels_x86_64_v4.cpp  — -march=x86-64-v4, only on x86-64 GCC/Clang,
//                                so the same loops plus the AVX-512 intrinsic
//                                paths (register-resident float L1 scan,
//                                VPSADBW / VPMADDWD / byte-plane Hamming
//                                scans, register-resident LUT epilogue).
// Each TU defines one KernelTable; active_kernels() picks the widest table
// the running CPU supports, once per process.
//
// Rules for the kernel source (the v4 object is linked into every binary,
// including ones that run on CPUs without AVX-512):
//   * Every function has internal linkage and nothing instantiates a std::
//     template or calls a shared inline function (std::fill, std::fabs,
//     Tensor/vector members, affine_quantize): the object must emit no weak
//     COMDAT symbol, or the linker may keep its AVX-512 copy for baseline
//     callers. The check_kernel_symbols ctest enforces this with nm.
//   * Scratch comes from the caller; the kernels never allocate or throw
//     (the v4 TU is built with -fno-exceptions).
//   * The build compiles everything with -ffp-contract=off, so no a*b+c is
//     fused into an FMA and all tables stay bitwise equal.
#pragma once

#include <cstdint>

namespace pecan::cam::detail {

/// Tile width the kernels are written for (cam_array.hpp's kCamTileMax is
/// pinned to it). Non-inline constexpr: internal linkage, no weak symbol.
constexpr std::int64_t kKernelTile = 64;

/// Float32 words [p, d] plus optional per-word match-line offsets (nullptr
/// = off), added after each word's full d-term accumulation.
struct FloatPlane {
  const float* words;
  const float* noise;
  std::int64_t p, d;
};

/// Int8 plane: affine codes [p, stride] (rows zero-padded to 16 bytes),
/// per-word code sums, and the same codes pair-interleaved as uint16 halves
/// of a uint32 ([p, pair_dp], odd d zero-padded) for VPMADDWD.
struct Int8Plane {
  const std::uint8_t* codes;
  const std::int32_t* wsum;
  const std::uint32_t* pairs;
  std::int64_t p, d, stride, pair_dp;
  float inv_scale;
  std::int32_t zero_point;
};

/// Binary plane: packed sign words [p, word_stride], the same bits as 0/1
/// bytes [p, d], and the per-component thresholds [d].
struct BinaryPlane {
  const std::uint64_t* words;
  const std::uint8_t* bytes;
  const float* thresh;
  std::int64_t p, d, word_stride;
};

/// Per-lane scratch for the quantized scans; sizes in elements.
struct KernelScratch {
  std::uint8_t* codes;   ///< >= 2 * (d + 8) * kKernelTile
  std::uint32_t* pairs;  ///< >= (d + 1) / 2 * kKernelTile
  std::int32_t* dots;    ///< >= p * kKernelTile
  std::uint64_t* bits;   ///< >= kKernelTile * ceil(d / 64)
};

/// One compilation of the kernel source. Every entry scans a dim-major
/// [d, lb] query tile (lb <= kKernelTile). The *_hits entries are PECAN-D's
/// L1 best match and write the winner index of each query (lowest index on
/// ties); the *_scores entries are PECAN-A's match-line reads and write
/// [p, lb] score rows for the softmax. All tables are bitwise-equal entry by
/// entry.
struct KernelTable {
  const char* isa;  ///< "baseline" or "x86-64-v4"
  void (*f32_l1_hits)(const FloatPlane& w, const float* queries, std::int64_t lb,
                      std::int32_t* hits);
  void (*f32_dot_scores)(const FloatPlane& w, const float* queries, std::int64_t lb,
                         float* scores);
  void (*int8_l1_hits)(const Int8Plane& w, const float* queries, std::int64_t lb,
                       const KernelScratch& s, std::int32_t* hits);
  /// Dequantized crossbar read: scale_sq * (sum q*w - zp*wsum - zp*qsum + d*zp^2).
  void (*int8_dot_scores)(const Int8Plane& w, const float* queries, std::int64_t lb,
                          float scale_sq, const KernelScratch& s, float* scores);
  void (*binary_hits)(const BinaryPlane& w, const float* queries, std::int64_t lb,
                      const KernelScratch& s, std::int32_t* hits);
  /// Fused LUT epilogue: out[c * out_stride + l] += table[c * p + hits[l]].
  void (*lut_accumulate)(const float* table, std::int64_t cout, std::int64_t p,
                         const std::int32_t* hits, std::int64_t lb, float* out,
                         std::int64_t out_stride);
};

extern const KernelTable kBaselineKernels;
extern const KernelTable kX86_64V4Kernels;  ///< defined only where the v4 TU is built

/// The table this process serves from: the widest one the CPU supports,
/// resolved once with __builtin_cpu_supports.
const KernelTable& resolved_kernels();

/// The table CamArray calls on this thread: resolved_kernels(), unless a
/// ScopedKernelTable is live on the thread.
const KernelTable& active_kernels();

/// Tables the running CPU can execute, baseline first.
struct SupportedKernels {
  const KernelTable* tables[2];
  int count;
};
SupportedKernels supported_kernels();

/// Pins active_kernels() on the calling thread to `table` for the guard's
/// lifetime (tests compare tables through the full CamArray path with it).
class ScopedKernelTable {
 public:
  explicit ScopedKernelTable(const KernelTable& table);
  ~ScopedKernelTable();
  ScopedKernelTable(const ScopedKernelTable&) = delete;
  ScopedKernelTable& operator=(const ScopedKernelTable&) = delete;

 private:
  const KernelTable* prev_;
};

}  // namespace pecan::cam::detail
