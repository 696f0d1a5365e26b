// Blocked-kernel equivalence tests: each PECAN mode's blocked CAM entry
// (search_accumulate_block for D, similarity_softmax_accumulate_block for A)
// and the register-blocked sgemm must reproduce their scalar reference specs
// (cam_reference.hpp, sgemm_reference) BITWISE across odd tail sizes and any
// thread count — and charge the OpCounter and the usage histogram
// identically. These invariants are what lets the serving hot path swap
// kernels without perturbing the paper's numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cam/cam_array.hpp"
#include "cam/cam_conv2d.hpp"
#include "cam/cam_kernels.hpp"
#include "cam/lut.hpp"
#include "cam_spec.hpp"
#include "nn/im2col.hpp"
#include "nn/infer_context.hpp"
#include "tensor/rng.hpp"
#include "tensor/sgemm.hpp"
#include "util/thread_pool.hpp"

namespace pecan {
namespace {

using cam::CamArray;
using cam::kCamTileMax;
using cam::LutMemory;
using cam::OpCounter;
using cam::SearchMetric;

// Sweep axes: tails that do not divide the tile (len mod kCamTileMax != 0),
// tiny and odd subvector dims, single-word arrays.
const std::int64_t kLens[] = {1, 5, 63, 64, 65, 130};
const std::int64_t kDims[] = {1, 2, 9};
const std::int64_t kWords[] = {1, 32};
constexpr std::int64_t kCout = 13;
constexpr float kTemp = 0.75f;

// Fused == scalar spec for one mode at Float32, with match-line noise off
// and on (the offsets land after each word's full accumulation on both
// sides). With noise on, the offsets must really move the result, and an
// offset vector of the wrong length is refused.
void expect_blocked_matches_spec(SearchMetric metric, std::uint64_t seed) {
  for (const std::int64_t len : kLens) {
    for (const std::int64_t d : kDims) {
      for (const std::int64_t p : kWords) {
        for (const bool noise : {false, true}) {
          Rng rng(seed + static_cast<std::uint64_t>(len * 1000 + d * 100 + p * 2 + noise));
          CamArray array(rng.randn({p, d}), metric);
          if (noise) {
            const Tensor offsets = rng.randn({p});
            array.set_matchline_noise(std::vector<float>(offsets.data(), offsets.data() + p));
          }
          const LutMemory lut(rng.randn({kCout, p}));
          const Tensor cols = rng.randn({d, len});  // queries are strided columns
          const std::string what = "len=" + std::to_string(len) + " d=" + std::to_string(d) +
                                   " p=" + std::to_string(p) + " noise=" + std::to_string(noise);
          const camspec::Outcome spec = camspec::run_spec(array, lut, cols, kTemp);
          camspec::expect_same(spec, camspec::run_blocked(array, lut, cols, kTemp), what);
          if (!noise) continue;
          const std::vector<float> wrong_length(static_cast<std::size_t>(p + 1));
          EXPECT_THROW(array.set_matchline_noise(wrong_length), std::invalid_argument) << what;
          // A lone query's winner can survive unit offsets; over several
          // queries of a multi-word array some result must move.
          if (p > 1 && len > 1) {
            array.clear_matchline_noise();
            EXPECT_NE(camspec::run_spec(array, lut, cols, kTemp).out, spec.out) << what;
          }
        }
      }
    }
  }
}

TEST(FusedEpilogue, DistanceMatchesScalarSpecAcrossTails) {
  expect_blocked_matches_spec(SearchMetric::L1BestMatch, 1000);
}

TEST(FusedEpilogue, AngleMatchesScalarSpecAcrossTails) {
  expect_blocked_matches_spec(SearchMetric::DotProduct, 2000);
}

// ------------------------------------------------- fused im2col tile pack

// The fused gather must equal the two-pass im2col -> pack_cols_tile
// pipeline BITWISE for every tile and row group — that equality is what
// lets CamConv2d::infer drop the full `cols` intermediate. Sweep odd
// geometry mixes (stride/pad/dilation, non-square, k=1 FC-style, tile
// tails with Lb not dividing len) and the issue's subvector dims.
TEST(Im2colTile, FusedMatchesTwoPassAcrossGeometries) {
  struct Geo {
    std::int64_t cin, hin, win, k, stride, pad, dilation;
  };
  const Geo geos[] = {
      {1, 9, 9, 3, 1, 1, 1},    // len 81: one full 64-tile + a 17 tail
      {3, 7, 5, 3, 1, 0, 1},    // non-square, no pad
      {2, 11, 9, 3, 2, 1, 1},   // strided
      {2, 11, 11, 3, 1, 2, 2},  // dilated + padded, len 121
      {1, 12, 10, 3, 2, 2, 2},  // stride+pad+dilation mix
      {4, 6, 6, 1, 1, 0, 1},    // 1x1 kernel (the FC path)
      {1, 8, 8, 2, 3, 1, 1},    // even kernel, stride 3
      {2, 10, 7, 3, 3, 0, 3},   // heavy dilation: k_eff == win
  };
  for (const Geo& geo : geos) {
    const nn::Conv2dGeometry g{geo.cin, geo.hin, geo.win, geo.k, geo.stride, geo.pad, geo.dilation};
    g.validate();
    const std::int64_t rows = g.rows(), len = g.cols();
    Rng rng(static_cast<std::uint64_t>(geo.cin * 1000 + geo.hin * 10 + geo.stride));
    const Tensor image = rng.randn({geo.cin, geo.hin, geo.win});
    const Tensor cols = nn::im2col(image, g);

    std::vector<float> fused(static_cast<std::size_t>(9 * kCamTileMax));
    std::vector<float> two_pass(static_cast<std::size_t>(9 * kCamTileMax));
    for (const std::int64_t d : {std::int64_t{1}, std::int64_t{2}, std::int64_t{9}}) {
      for (std::int64_t row0 = 0; row0 + d <= rows; row0 += d) {
        for (std::int64_t l0 = 0; l0 < len; l0 += kCamTileMax) {
          const std::int64_t lb = std::min<std::int64_t>(kCamTileMax, len - l0);
          nn::im2col_tile(image.data(), g, row0, d, l0, lb, fused.data());
          camspec::pack_cols_tile(cols.data() + row0 * len, len, d, l0, lb, two_pass.data());
          for (std::int64_t i = 0; i < d * lb; ++i) {
            ASSERT_EQ(two_pass[static_cast<std::size_t>(i)], fused[static_cast<std::size_t>(i)])
                << "cin=" << geo.cin << " k=" << geo.k << " stride=" << geo.stride
                << " pad=" << geo.pad << " dilation=" << geo.dilation << " d=" << d
                << " row0=" << row0 << " l0=" << l0 << " i=" << i;
          }
        }
      }
    }
  }
}

// im2col's dilation handling checked against the index definition directly
// (not against another library routine): cols[(c*k+ki)*k+kj, oi*wo+oj] must
// read im[c, oi*stride + ki*dilation - pad, oj*stride + kj*dilation - pad],
// zero outside the image. Guards the shared definition both the fused and
// the two-pass path are tested against above.
TEST(Im2colTile, DilationMatchesIndexDefinition) {
  const nn::Conv2dGeometry g{2, 11, 11, 3, 2, 1, 2};
  g.validate();
  Tensor image({2, 11, 11});
  for (std::int64_t i = 0; i < image.numel(); ++i) image[i] = static_cast<float>(i) * 0.25f;
  const Tensor cols = nn::im2col(image, g);
  const std::int64_t ho = g.hout(), wo = g.wout();
  for (std::int64_t c = 0; c < g.cin; ++c) {
    for (std::int64_t ki = 0; ki < g.k; ++ki) {
      for (std::int64_t kj = 0; kj < g.k; ++kj) {
        for (std::int64_t oi = 0; oi < ho; ++oi) {
          for (std::int64_t oj = 0; oj < wo; ++oj) {
            const std::int64_t ii = oi * g.stride + ki * g.dilation - g.pad;
            const std::int64_t jj = oj * g.stride + kj * g.dilation - g.pad;
            const float expected = (ii < 0 || ii >= g.hin || jj < 0 || jj >= g.win)
                                       ? 0.f
                                       : image[(c * g.hin + ii) * g.win + jj];
            ASSERT_EQ(expected, cols[((c * g.k + ki) * g.k + kj) * (ho * wo) + oi * wo + oj])
                << "c=" << c << " ki=" << ki << " kj=" << kj << " oi=" << oi << " oj=" << oj;
          }
        }
      }
    }
  }
}

TEST(FusedEpilogue, RejectsOversizedTile) {
  Rng rng(7);
  CamArray l1(rng.randn({4, 3}), SearchMetric::L1BestMatch);
  CamArray dot(rng.randn({4, 3}), SearchMetric::DotProduct);
  const LutMemory lut(rng.randn({2, 4}));
  cam::CamTally tally(4);
  std::vector<float> queries(static_cast<std::size_t>(3 * (kCamTileMax + 1)));
  std::vector<float> scores(static_cast<std::size_t>(4 * (kCamTileMax + 1)));
  std::vector<float> out(static_cast<std::size_t>(2 * (kCamTileMax + 1)));
  EXPECT_THROW(l1.search_accumulate_block(queries.data(), kCamTileMax + 1, lut, out.data(),
                                          kCamTileMax + 1, tally),
               std::invalid_argument);
  EXPECT_THROW(dot.similarity_softmax_accumulate_block(queries.data(), kCamTileMax + 1, 1.f, lut,
                                                       scores.data(), out.data(), kCamTileMax + 1,
                                                       tally),
               std::invalid_argument);
}

TEST(LutBlock, WeightedBlockMatchesScalar) {
  Rng rng(12);
  const std::int64_t cout = 9, p = 6, len = 70;
  LutMemory lut(rng.randn({cout, p}));
  Tensor weights = rng.rand_uniform({p, len});  // column l = softmax weights of query l

  Tensor scalar_out = rng.randn({cout, len});
  Tensor blocked_out = scalar_out;
  OpCounter scalar_counter;
  ops::OpTotals blocked_tally;
  std::vector<float> wcol(static_cast<std::size_t>(p));
  for (std::int64_t l = 0; l < len; ++l) {
    for (std::int64_t m = 0; m < p; ++m) wcol[static_cast<std::size_t>(m)] = weights[m * len + l];
    camspec::weighted_accumulate(lut, wcol.data(), scalar_out.data() + l, len, scalar_counter);
  }
  std::vector<float> wtile(static_cast<std::size_t>(p * kCamTileMax));
  for (std::int64_t l0 = 0; l0 < len; l0 += kCamTileMax) {
    const std::int64_t lb = std::min<std::int64_t>(kCamTileMax, len - l0);
    camspec::pack_cols_tile(weights.data(), len, p, l0, lb, wtile.data());
    lut.weighted_accumulate_block(wtile.data(), lb, blocked_out.data() + l0, len, blocked_tally);
  }
  for (std::int64_t i = 0; i < scalar_out.numel(); ++i) {
    ASSERT_EQ(scalar_out[i], blocked_out[i]) << i;
  }
  EXPECT_TRUE(scalar_counter.totals() == blocked_tally);
}

TEST(SgemmBlocked, BitwiseMatchesReferenceAcrossTails) {
  // Odd sizes around the 6x16 register tile, all transpose combinations,
  // non-trivial alpha/beta.
  struct Combo {
    bool ta, tb;
    float alpha, beta;
  };
  const Combo combos[] = {{false, false, 1.f, 0.f},
                          {true, false, 0.7f, 1.f},
                          {false, true, 1.f, 0.3f},
                          {true, true, 0.7f, 0.f}};
  for (const std::int64_t m : {1, 3, 6, 7, 13}) {
    for (const std::int64_t n : {1, 15, 16, 17, 33}) {
      for (const std::int64_t k : {1, 2, 9, 64, 130}) {
        for (const Combo& combo : combos) {
          Rng rng(static_cast<std::uint64_t>(m * 10000 + n * 100 + k));
          Tensor a = combo.ta ? rng.randn({k, m}) : rng.randn({m, k});
          Tensor b = combo.tb ? rng.randn({n, k}) : rng.randn({k, n});
          Tensor c0 = rng.randn({m, n});
          Tensor c_blocked = c0;
          Tensor c_ref = c0;
          const std::int64_t lda = combo.ta ? m : k;
          const std::int64_t ldb = combo.tb ? k : n;
          sgemm(combo.ta, combo.tb, m, n, k, combo.alpha, a.data(), lda, b.data(), ldb,
                combo.beta, c_blocked.data(), n);
          sgemm_reference(combo.ta, combo.tb, m, n, k, combo.alpha, a.data(), lda, b.data(), ldb,
                          combo.beta, c_ref.data(), n);
          for (std::int64_t i = 0; i < c_ref.numel(); ++i) {
            ASSERT_EQ(c_ref[i], c_blocked[i])
                << "m=" << m << " n=" << n << " k=" << k << " ta=" << combo.ta
                << " tb=" << combo.tb << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(SgemmBlocked, DeterministicAcrossThreadCounts) {
  Rng rng(42);
  const std::int64_t m = 37, n = 45, k = 129;
  Tensor a = rng.randn({m, k});
  Tensor b = rng.randn({k, n});
  Tensor c_ref({m, n});
  sgemm_reference(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.f, c_ref.data(), n);
  for (const int threads : {1, 3, 7}) {
    util::set_global_threads(threads);
    Tensor c({m, n});
    matmul(a.data(), b.data(), c.data(), m, n, k);
    for (std::int64_t i = 0; i < c.numel(); ++i) {
      ASSERT_EQ(c_ref[i], c[i]) << "threads=" << threads << " i=" << i;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  util::set_global_threads(hw > 0 ? static_cast<int>(hw) : 1);
}

// Tile-at-a-time CamConv2d::infer against the column-at-a-time scalar spec
// (the pre-blocking algorithm) run group by group over each sample's im2col
// matrix with the same arrays/LUTs, starting from the layer's bias — the
// end-to-end bitwise guarantee across a len with an odd tile tail.
void column_at_a_time_reference(cam::CamConv2d& layer, const Tensor& input, const Tensor& bias,
                                float temperature, Tensor& out) {
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const nn::Conv2dGeometry g = layer.geometry(h, w);
  const std::int64_t len = g.cols(), cout = out.dim(1);
  OpCounter scratch_counter;  // reference ops are not under test
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t co = 0; co < cout; ++co) {
      float* row = out.data() + (s * cout + co) * len;
      std::fill(row, row + len, bias[co]);
    }
    const Tensor cols = nn::im2col(
        Tensor({c, h, w}, std::vector<float>(input.data() + s * c * h * w,
                                             input.data() + (s + 1) * c * h * w)),
        g);
    for (std::int64_t j = 0; j < layer.groups(); ++j) {
      const CamArray& array = layer.array(j);
      std::vector<std::uint64_t> usage(static_cast<std::size_t>(array.word_count()), 0);
      camspec::spec_columns(array, layer.lut(j), cols.data() + j * array.word_dim() * len, len,
                            temperature, cam::CamPrecision::Float32, out.data() + s * cout * len,
                            scratch_counter, usage);
    }
  }
}

// The layer shapes the served models run, each through every epilogue path
// of the LUT accumulate: ResNet20-D's d = 3, p = 64 stage convs (full and
// tail tiles, stride 1 and 2, folded-BN bias), its p = 128 conv1 (the gather
// fallback), a p = 37 array as pruning leaves one (masked table-row loads),
// a LeNet5-D FC layer (lb = 1, the scalar loop) and PECAN-A, whose weighted
// accumulate writes the same accumulator tile.
TEST(CamConv2dTiled, InferMatchesColumnAtATimeReference) {
  struct Case {
    const char* what;
    pq::MatchMode mode;
    std::int64_t p, d, cin, cout, k, stride, pad, hw, n;
    bool bias;
  };
  constexpr auto kD = pq::MatchMode::Distance;
  const Case cases[] = {
      // 9x9 input, k=3, pad=1 -> len = 81: one full 64-tile plus a 17 tail.
      {"pecan-d p8 d9", kD, 8, 9, 3, 5, 3, 1, 1, 9, 2, false},
      {"pecan-a p8 d9", pq::MatchMode::Angle, 8, 9, 3, 5, 3, 1, 1, 9, 2, true},
      {"resnet20-d stage1 (len 100)", kD, 64, 3, 16, 16, 3, 1, 1, 10, 2, true},
      {"resnet20-d stage2 stride 2 (len 64)", kD, 64, 3, 16, 32, 3, 2, 1, 16, 2, true},
      {"resnet20-d stage3 stride 2 (len 36)", kD, 64, 3, 32, 64, 3, 2, 1, 12, 2, true},
      {"resnet20-d stage3 (len 81)", kD, 64, 3, 64, 64, 3, 1, 1, 9, 2, true},
      {"resnet20-d conv1 p128", kD, 128, 3, 3, 16, 3, 1, 1, 9, 2, true},
      {"pruned p37", kD, 37, 3, 8, 16, 3, 1, 1, 9, 2, true},
      {"lenet5-d fc1 (lb 1)", kD, 64, 8, 400, 128, 1, 1, 0, 1, 3, true},
  };
  for (const Case& tc : cases) {
    Rng rng(static_cast<std::uint64_t>(20 + tc.p * 7 + tc.cin * 3 + tc.cout));
    pq::PqLayerConfig cfg;
    cfg.mode = tc.mode;
    cfg.p = tc.p;
    cfg.d = tc.d;
    cfg.temperature = 1.f;
    pq::PecanConv2d trained("t", tc.cin, tc.cout, tc.k, tc.stride, tc.pad, tc.bias, cfg, rng);
    trained.set_training(false);
    Tensor bias({tc.cout});
    if (tc.bias) {
      bias = rng.randn({tc.cout});
      trained.bias().value = bias;
    }
    cam::CamConv2d exported(trained, std::make_shared<OpCounter>());
    Tensor x = rng.randn({tc.n, tc.cin, tc.hw, tc.hw});

    nn::InferContext ctx;
    Tensor tiled = exported.infer(x, ctx);
    const nn::Conv2dGeometry g = exported.geometry(tc.hw, tc.hw);
    Tensor reference({tc.n, tc.cout, g.hout(), g.wout()});
    column_at_a_time_reference(exported, x, bias, cfg.temperature, reference);
    ASSERT_TRUE(tiled.same_shape(reference)) << tc.what;
    for (std::int64_t i = 0; i < tiled.numel(); ++i) {
      ASSERT_EQ(reference[i], tiled[i]) << tc.what << " i=" << i;
    }
  }
}

TEST(CamConv2dTiled, LargeGeometryBatchedMatchesPerSampleInfer) {
  // Batch-size invariance at a geometry that used to overflow the old
  // batch-wide unfold cap: with the fused im2col_tile gather there is one
  // code path at every batch size, and a batched infer must stay bitwise
  // equal to per-sample infers (this is also what batch sharding rests on).
  Rng rng(33);
  pq::PqLayerConfig cfg;
  cfg.mode = pq::MatchMode::Distance;
  cfg.p = 8;
  cfg.d = 9;
  cfg.temperature = 1.f;
  pq::PecanConv2d trained("big", 8, 4, 3, 1, 1, true, cfg, rng);
  trained.set_training(false);
  cam::CamConv2d exported(trained, std::make_shared<OpCounter>());
  // rows = 72, len = 100*100 = 1e4, n = 6 -> 4.32M floats: over the cap.
  Tensor x = rng.randn({6, 8, 100, 100});

  nn::InferContext ctx;
  Tensor batched = exported.infer(x, ctx);
  for (std::int64_t s = 0; s < 6; ++s) {
    Tensor sample({1, 8, 100, 100},
                  std::vector<float>(x.data() + s * 8 * 100 * 100,
                                     x.data() + (s + 1) * 8 * 100 * 100));
    nn::InferContext sample_ctx;
    Tensor one = exported.infer(sample, sample_ctx);
    const float* batched_s = batched.data() + s * one.numel();
    for (std::int64_t i = 0; i < one.numel(); ++i) {
      ASSERT_EQ(one[i], batched_s[i]) << "s=" << s << " i=" << i;
    }
  }
}

// ------------------------------------------------- quantized search planes

using cam::CamPrecision;

// d=16/17 cross the int8 L1 kernel's 8-dim group boundary.
const std::int64_t kQDims[] = {1, 2, 9, 16, 17};

TEST(QuantizedSearch, Int8L1MatchesScalarQuantizedReference) {
  for (const std::int64_t len : kLens) {
    for (const std::int64_t d : kQDims) {
      for (const std::int64_t p : kWords) {
        Rng rng(static_cast<std::uint64_t>(5000 + len * 100 + d * 10 + p));
        CamArray array(rng.randn({p, d}), SearchMetric::L1BestMatch);
        array.prepare_quantized(CamPrecision::Int8);
        Tensor cols = rng.randn({d, len});

        // With the index LUT each output is 0.5 plus the query's winner, so
        // the tiles compare winners; totals and usage are compared as well.
        const LutMemory lut = camspec::index_lut(p);
        const camspec::Outcome got =
            camspec::run_blocked(array, lut, cols, kTemp, CamPrecision::Int8);
        camspec::expect_same(camspec::run_spec(array, lut, cols, kTemp, CamPrecision::Int8), got,
                             "len=" + std::to_string(len) + " d=" + std::to_string(d) +
                                 " p=" + std::to_string(p));

        // Quantized searches land in the int8-lane counters; the float
        // ledger sees only the [1, p] LUT's one add per search.
        const ops::OpTotals& snap = got.counter;
        EXPECT_EQ(snap.cam_searches, static_cast<std::uint64_t>(len));
        EXPECT_EQ(snap.adds_q, static_cast<std::uint64_t>(2 * p * d * len));
        EXPECT_EQ(snap.adds, static_cast<std::uint64_t>(len));
        EXPECT_EQ(snap.lut_reads, static_cast<std::uint64_t>(len));
        EXPECT_EQ(snap.muls, 0u);
        EXPECT_EQ(snap.muls_q, 0u);
        EXPECT_EQ(snap.xor_popcounts, 0u);
      }
    }
  }
}

TEST(QuantizedSearch, BinaryHammingMatchesSignReference) {
  // d=64/65 cross the uint64 sign-word boundary of the packed plane.
  for (const std::int64_t len : kLens) {
    for (const std::int64_t d : {1, 2, 9, 17, 64, 65}) {
      for (const std::int64_t p : kWords) {
        Rng rng(static_cast<std::uint64_t>(7000 + len * 100 + d * 10 + p));
        CamArray array(rng.randn({p, d}), SearchMetric::L1BestMatch);
        array.prepare_quantized(CamPrecision::Binary);
        Tensor cols = rng.randn({d, len});

        const LutMemory lut = camspec::index_lut(p);
        const camspec::Outcome got =
            camspec::run_blocked(array, lut, cols, kTemp, CamPrecision::Binary);
        camspec::expect_same(camspec::run_spec(array, lut, cols, kTemp, CamPrecision::Binary), got,
                             "len=" + std::to_string(len) + " d=" + std::to_string(d) +
                                 " p=" + std::to_string(p));

        const ops::OpTotals& snap = got.counter;
        const std::int64_t bwords = (d + 63) / 64;
        EXPECT_EQ(snap.cam_searches, static_cast<std::uint64_t>(len));
        EXPECT_EQ(snap.xor_popcounts, static_cast<std::uint64_t>(p * bwords * len));
        EXPECT_EQ(snap.adds, static_cast<std::uint64_t>(len));
        EXPECT_EQ(snap.adds_q, 0u);
      }
    }
  }
}

TEST(QuantizedSearch, RequiresPreparedPlaneAndL1ForBinary) {
  Rng rng(71);
  cam::CamTally tally(4);
  std::vector<float> queries(static_cast<std::size_t>(9), 0.f);
  const LutMemory lut(rng.randn({3, 4}));
  std::vector<float> scores(static_cast<std::size_t>(4 * kCamTileMax));
  std::vector<float> out(3, 0.f);

  CamArray l1(rng.randn({4, 9}), SearchMetric::L1BestMatch);
  const auto search_l1 = [&](cam::CamPrecision precision) {
    l1.search_accumulate_block(queries.data(), 1, lut, out.data(), 1, tally, precision);
  };
  EXPECT_THROW(search_l1(CamPrecision::Int8), std::logic_error);
  EXPECT_THROW(search_l1(CamPrecision::Binary), std::logic_error);
  EXPECT_FALSE(l1.quantized_ready(CamPrecision::Int8));
  l1.prepare_quantized(CamPrecision::Int8);
  EXPECT_TRUE(l1.quantized_ready(CamPrecision::Int8));
  EXPECT_NO_THROW(search_l1(CamPrecision::Int8));

  CamArray dot(rng.randn({4, 9}), SearchMetric::DotProduct);
  const auto softmax_dot = [&](cam::CamPrecision precision) {
    dot.similarity_softmax_accumulate_block(queries.data(), 1, 1.f, lut, scores.data(), out.data(),
                                            1, tally, precision);
  };
  EXPECT_THROW(softmax_dot(CamPrecision::Int8), std::logic_error);
  dot.prepare_quantized(CamPrecision::Int8);
  dot.prepare_quantized(CamPrecision::Binary);
  // The sign plane carries no magnitudes, so the binary softmax read
  // refuses instead of silently degrading.
  EXPECT_THROW(softmax_dot(CamPrecision::Binary), std::invalid_argument);
  // A dot array has no best-match search at any precision: PECAN-A weighs
  // every word, so the D entry refuses instead of reaching a missing kernel.
  for (const CamPrecision precision :
       {CamPrecision::Float32, CamPrecision::Int8, CamPrecision::Binary}) {
    EXPECT_THROW(dot.search_accumulate_block(queries.data(), 1, lut, out.data(), 1, tally,
                                             precision),
                 std::invalid_argument)
        << cam::precision_name(precision);
  }
}

// ------------------------------------------------- fused search epilogue

// The D entry with a real LUT at every precision against the scalar spec:
// search() at Float32, the independent quantized references at Int8/Binary,
// each followed by one scalar LUT accumulate per query.
TEST(FusedEpilogue, MatchesScalarAtEveryPrecision) {
  constexpr std::int64_t kP = 32, kD = 9;
  for (const CamPrecision precision :
       {CamPrecision::Float32, CamPrecision::Int8, CamPrecision::Binary}) {
    for (const std::int64_t len : kLens) {
      Rng rng(static_cast<std::uint64_t>(8000 + len * 10 + static_cast<int>(precision)));
      CamArray array(rng.randn({kP, kD}), SearchMetric::L1BestMatch);
      if (precision != CamPrecision::Float32) array.prepare_quantized(precision);
      const LutMemory lut(rng.randn({kCout, kP}));
      const Tensor cols = rng.randn({kD, len});
      camspec::expect_same(camspec::run_spec(array, lut, cols, kTemp, precision),
                           camspec::run_blocked(array, lut, cols, kTemp, precision),
                           std::string("precision=") + cam::precision_name(precision) +
                               " len=" + std::to_string(len));
    }
  }
}

TEST(FusedEpilogue, RejectsMismatchedLut) {
  Rng rng(81);
  CamArray array(rng.randn({8, 4}), SearchMetric::L1BestMatch);
  LutMemory wrong(rng.randn({3, 7}));  // 7 entries vs 8 words
  cam::CamTally tally(8);
  std::vector<float> queries(static_cast<std::size_t>(4), 0.f);
  std::vector<float> out(3, 0.f);
  EXPECT_THROW(array.search_accumulate_block(queries.data(), 1, wrong, out.data(), 1, tally),
               std::invalid_argument);
  // A tally sized for another array is refused as well, at the entry and at
  // the flush.
  const LutMemory lut(rng.randn({3, 8}));
  cam::CamTally other(7);
  OpCounter counter;
  EXPECT_THROW(array.search_accumulate_block(queries.data(), 1, lut, out.data(), 1, other),
               std::invalid_argument);
  EXPECT_THROW(array.flush(other, counter), std::invalid_argument);
}

TEST(FusedWeighted, Int8MatchesExactIntegerReference) {
  constexpr std::int64_t kP = 8;
  // Odd d exercises the dot scan's pair padding inside the fused read. The
  // spec reads each query's scores with the exact-integer dequantized
  // reference, then softmaxes and weighted-accumulates them; the integer
  // crossbar read lands in the int8-lane ledger on both sides.
  for (const std::int64_t d : {std::int64_t{9}, std::int64_t{16}}) {
    for (const std::int64_t len : {std::int64_t{1}, std::int64_t{64}, std::int64_t{65}}) {
      Rng rng(static_cast<std::uint64_t>(9500 + d * 100 + len));
      CamArray array(rng.randn({kP, d}), SearchMetric::DotProduct);
      array.prepare_quantized(CamPrecision::Int8);
      LutMemory lut(rng.randn({kCout, kP}));
      Tensor cols = rng.randn({d, len});
      camspec::expect_same(camspec::run_spec(array, lut, cols, kTemp, CamPrecision::Int8),
                           camspec::run_blocked(array, lut, cols, kTemp, CamPrecision::Int8),
                           "d=" + std::to_string(d) + " len=" + std::to_string(len));
    }
  }
}

// ------------------------------------------------- cross-ISA kernel tables

// The CAM scans dispatch at runtime between kernel tables compiled for
// different ISA tiers (cam/cam_kernels.hpp). Every table the host can run
// must reproduce the baseline table BITWISE through the two blocked CamArray
// entries: output tiles, OpCounter totals and usage histograms.

using cam::detail::KernelTable;
using cam::detail::ScopedKernelTable;

// The blocked entry of the array's mode with `table` pinned on this thread.
camspec::Outcome sweep(const KernelTable& table, const CamArray& array, const LutMemory& lut,
                       const Tensor& cols, CamPrecision precision) {
  const ScopedKernelTable pin(table);
  return camspec::run_blocked(array, lut, cols, kTemp, precision);
}

TEST(CrossIsaKernels, TablesResolveOnceWidestLastAndPinPerThread) {
  // Named in --gtest_output reports (CI writes it to the job summary).
  RecordProperty("kernel_isa", cam::kernel_isa());
  const cam::detail::SupportedKernels supported = cam::detail::supported_kernels();
  ASSERT_GE(supported.count, 1);
  EXPECT_EQ(supported.tables[0], &cam::detail::kBaselineKernels);
  EXPECT_STREQ(supported.tables[0]->isa, "baseline");
  const KernelTable& resolved = cam::detail::resolved_kernels();
  EXPECT_EQ(&resolved, supported.tables[supported.count - 1]);
  EXPECT_STREQ(cam::kernel_isa(), resolved.isa);
  EXPECT_EQ(&cam::detail::active_kernels(), &resolved);
  {
    const ScopedKernelTable outer(cam::detail::kBaselineKernels);
    EXPECT_EQ(&cam::detail::active_kernels(), &cam::detail::kBaselineKernels);
    {
      const ScopedKernelTable inner(resolved);
      EXPECT_EQ(&cam::detail::active_kernels(), &resolved);
    }
    EXPECT_EQ(&cam::detail::active_kernels(), &cam::detail::kBaselineKernels);
    // The pin is per thread; the process-wide answer does not move.
    EXPECT_STREQ(cam::kernel_isa(), resolved.isa);
  }
  EXPECT_EQ(&cam::detail::active_kernels(), &resolved);
}

// Word/query shapes the Float32 L1 sweep adds on top of random data.
enum class ScanInput {
  Random,
  DuplicateWords,  ///< every upper-half word copies a lower one: exact ties
  NonFinite,       ///< +-inf / NaN query components, a NaN word and an inf word
};

const char* scan_input_name(ScanInput in) {
  switch (in) {
    case ScanInput::Random: return "random";
    case ScanInput::DuplicateWords: return "duplicate-words";
    case ScanInput::NonFinite: return "non-finite";
  }
  return "?";
}

/// Rewrites random words [p, d] and query columns [d, len] into `in`'s shape.
void shape_scan_input(ScanInput in, Tensor& words, Tensor& cols) {
  const std::int64_t p = words.dim(0), d = words.dim(1), len = cols.dim(1);
  if (in == ScanInput::DuplicateWords) {
    // Word m and word m - half score the same distance bit for bit, so the
    // winner must be the lower index.
    const std::int64_t half = (p + 1) / 2;
    for (std::int64_t m = half; m < p; ++m) {
      for (std::int64_t i = 0; i < d; ++i) words[m * d + i] = words[(m - half) * d + i];
    }
  } else if (in == ScanInput::NonFinite) {
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (std::int64_t l = 0; l < len; ++l) {
      if (l % 5 == 1) cols[l] = kInf;                   // every distance +inf
      if (l % 5 == 2) cols[(d - 1) * len + l] = -kInf;  // every distance +inf
      if (l % 5 == 3) cols[(d / 2) * len + l] = nan;    // every distance NaN
    }
    // A NaN word never wins; an inf word only ties other inf distances.
    if (p > 1) words[1 * d] = nan;
    if (p > 2) words[2 * d + d - 1] = kInf;
  }
}

TEST(CrossIsaKernels, EveryHostTableBitwiseMatchesBaseline) {
  const cam::detail::SupportedKernels supported = cam::detail::supported_kernels();
  if (supported.count < 2) GTEST_SKIP() << "host runs the baseline kernel table only";
  const KernelTable& baseline = *supported.tables[0];
  std::string compared;
  for (int t = 1; t < supported.count; ++t) {
    compared += std::string(t > 1 ? "," : "") + supported.tables[t]->isa;
  }
  RecordProperty("compared_tables", compared);

  struct Config {
    CamPrecision precision;
    SearchMetric metric;
  };
  const Config configs[] = {
      {CamPrecision::Float32, SearchMetric::L1BestMatch},
      {CamPrecision::Float32, SearchMetric::DotProduct},
      {CamPrecision::Int8, SearchMetric::L1BestMatch},
      {CamPrecision::Int8, SearchMetric::DotProduct},
      {CamPrecision::Binary, SearchMetric::L1BestMatch},
  };
  // The word counts cross every LUT epilogue bound of the wide tables: the
  // 16-entry table-row registers (16/17), the two-register permute halves
  // (32/33), the last permuted row size and the gather fallback (64/65).
  // p = 300 also exceeds the byte-lane Hamming scan's 256-word bound, so
  // that in-kernel fallback is pinned too.
  const std::int64_t kTableWords[] = {1, 16, 17, 32, 33, 64, 65, 300};
  // The Float32 L1 scan gets the widest sweep: the register-resident v4
  // scan masks its last 16-lane chunk (lb 15/16/17), runs at the ResNet20-D
  // preset d = 3 with d fixed (lb 63/64) and read at run time (narrower
  // tiles), and at d = 16, must keep the lowest index on exact ties and must
  // never let a NaN distance win. lb 3 and 4 sit either side of the LUT
  // epilogue's scalar cut-off.
  const std::vector<std::int64_t> lens(std::begin(kLens), std::end(kLens));
  const std::vector<std::int64_t> dims(std::begin(kDims), std::end(kDims));
  const std::vector<std::int64_t> l1_lens = {1, 3, 4, 5, 15, 16, 17, 63, 64, 65, 130};
  const std::vector<std::int64_t> l1_dims = {1, 2, 3, 9, 16};
  for (int t = 1; t < supported.count; ++t) {
    const KernelTable& table = *supported.tables[t];
    for (const Config& cfg : configs) {
      const bool f32_l1 =
          cfg.precision == CamPrecision::Float32 && cfg.metric == SearchMetric::L1BestMatch;
      std::vector<ScanInput> inputs = {ScanInput::Random};
      if (f32_l1) inputs = {ScanInput::Random, ScanInput::DuplicateWords, ScanInput::NonFinite};
      for (const std::int64_t len : f32_l1 ? l1_lens : lens) {
        for (const std::int64_t d : f32_l1 ? l1_dims : dims) {
          for (const std::int64_t p : kTableWords) {
            for (const ScanInput in : inputs) {
              for (const bool noise : {false, true}) {
                Rng rng(static_cast<std::uint64_t>(12000 + len * 1000 + d * 100 + p +
                                                   static_cast<int>(cfg.precision) * 7 +
                                                   static_cast<int>(cfg.metric) * 3 + noise));
                Tensor words = rng.randn({p, d});
                Tensor cols = rng.randn({d, len});
                shape_scan_input(in, words, cols);
                CamArray array(std::move(words), cfg.metric);
                if (noise) {
                  const Tensor offsets = rng.randn({p});
                  array.set_matchline_noise(
                      std::vector<float>(offsets.data(), offsets.data() + p));
                }
                if (cfg.precision != CamPrecision::Float32) {
                  array.prepare_quantized(cfg.precision);
                }
                const LutMemory lut(rng.randn({kCout, p}));
                const std::string what =
                    std::string(table.isa) + " precision=" + cam::precision_name(cfg.precision) +
                    " metric=" + std::to_string(static_cast<int>(cfg.metric)) +
                    " len=" + std::to_string(len) + " d=" + std::to_string(d) +
                    " p=" + std::to_string(p) + " input=" + scan_input_name(in) +
                    " noise=" + std::to_string(noise);
                camspec::expect_same(sweep(baseline, array, lut, cols, cfg.precision),
                                     sweep(table, array, lut, cols, cfg.precision), what);
              }
            }
          }
        }
      }
    }
  }
}

TEST(CrossIsaKernels, ConcurrentLanesOnMixedTablesShareOneLedger) {
  // Lanes pinned to different tables search one array at once: each lane's
  // output tile matches the baseline sweep, and the shared histogram and
  // counter see exactly the sum of the lanes (thread_local scratch and pins,
  // lane-local tallies flushed into the atomic ledgers).
  const cam::detail::SupportedKernels supported = cam::detail::supported_kernels();
  constexpr std::int64_t kP = 32, kD = 9, kLen = 130, kLanes = 4;
  Rng rng(12345);
  CamArray array(rng.randn({kP, kD}), SearchMetric::L1BestMatch);
  array.prepare_quantized(CamPrecision::Int8);
  const LutMemory lut(rng.randn({kCout, kP}));
  const Tensor cols = rng.randn({kD, kLen});
  const camspec::Outcome want = sweep(*supported.tables[0], array, lut, cols, CamPrecision::Int8);
  array.reset_usage();

  OpCounter shared;
  std::vector<std::vector<float>> outs(kLanes);
  std::vector<std::thread> lanes;
  for (std::int64_t i = 0; i < kLanes; ++i) {
    lanes.emplace_back([&, i] {
      const ScopedKernelTable pin(*supported.tables[i % supported.count]);
      std::vector<float> out(static_cast<std::size_t>(kCout * kLen), 0.5f);
      std::vector<float> qtile(static_cast<std::size_t>(kD * kCamTileMax));
      cam::CamTally tally(kP);
      for (std::int64_t l0 = 0; l0 < kLen; l0 += kCamTileMax) {
        const std::int64_t lb = std::min<std::int64_t>(kCamTileMax, kLen - l0);
        camspec::pack_cols_tile(cols.data(), kLen, kD, l0, lb, qtile.data());
        array.search_accumulate_block(qtile.data(), lb, lut, out.data() + l0, kLen, tally,
                                      CamPrecision::Int8);
      }
      array.flush(tally, shared);
      outs[static_cast<std::size_t>(i)] = std::move(out);
    });
  }
  for (std::thread& t : lanes) t.join();

  for (const std::vector<float>& out : outs) {
    EXPECT_EQ(std::memcmp(out.data(), want.out.data(), out.size() * sizeof(float)), 0);
  }
  const ops::OpTotals total = shared.totals();
  EXPECT_EQ(total.cam_searches, kLanes * want.counter.cam_searches);
  EXPECT_EQ(total.adds, kLanes * want.counter.adds);
  EXPECT_EQ(total.adds_q, kLanes * want.counter.adds_q);
  EXPECT_EQ(total.lut_reads, kLanes * want.counter.lut_reads);
  std::vector<std::uint64_t> want_usage = want.usage;
  for (std::uint64_t& u : want_usage) u *= kLanes;
  EXPECT_EQ(array.usage(), want_usage);
}

}  // namespace
}  // namespace pecan
