// Kernel before/after harness: the primitives behind serving — each PECAN
// mode's CAM entry (PECAN-D best match + LUT column, PECAN-A match-line
// scores + softmax + weighted LUT sum), SGEMM, im2col — each measured with
// the scalar reference ("before": the column-at-a-time strided CAM spec of
// tests/cam_reference.hpp, which the test suites pin the blocked entries
// against; naive i-k-j gemm) and the blocked kernel the hot path runs
// ("after": the fused [d, Lb] tile entries, 6x16 register-blocked gemm),
// plus end-to-end CamConv2d/CamLinear img/s. Emits BENCH_kernels.json so the perf
// trajectory has checked-in data points.
//
//   ./bench_kernels                 full run (~1 min), writes BENCH_kernels.json
//   ./bench_kernels --smoke         seconds-scale CI run, same JSON schema
//   ./bench_kernels --json out.json --threads 2
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "cam/cam_array.hpp"
#include "cam/cam_conv2d.hpp"
#include "cam/lut.hpp"
#include "cam_reference.hpp"
#include "core/pecan_linear.hpp"
#include "nn/im2col.hpp"
#include "nn/infer_context.hpp"
#include "ops/energy_model.hpp"
#include "tensor/rng.hpp"
#include "tensor/sgemm.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace pecan;

namespace {

using bench::Row;

volatile float g_sink = 0.f;  // defeats dead-code elimination

/// A before/after row: `scalar` is the reference rate, `blocked` the rate of
/// the kernel serving runs, `speedup` their ratio. gb_per_s, when set, is
/// the blocked kernel's effective bandwidth.
Row ratio_row(std::string name, std::string unit, double scalar, double blocked) {
  Row row;
  row.name = std::move(name);
  row.unit = std::move(unit);
  row.scalar = scalar;
  row.blocked = blocked;
  row.speedup = blocked / scalar;
  return row;
}

/// Runs body() until `min_time` elapsed (after one warmup call) and returns
/// calls per second.
template <typename F>
double rate(F&& body, double min_time) {
  body();
  util::Timer timer;
  std::int64_t reps = 0;
  do {
    body();
    ++reps;
  } while (timer.elapsed_s() < min_time);
  return static_cast<double>(reps) / timer.elapsed_s();
}

/// Calls per second of `a` and of `b` from three alternating windows of
/// rate() each; each side keeps its best window. Two adjacent windows alone
/// let a stall or a load change that hits only one of them swing the ratio;
/// the best of alternating windows does not. Every timed ratio row is
/// measured this way.
template <typename A, typename B>
std::pair<double, double> paired_rates(A&& a, B&& b, double min_time) {
  double ra = 0.0, rb = 0.0;
  for (int round = 0; round < 3; ++round) {
    ra = std::max(ra, rate(a, min_time));
    rb = std::max(rb, rate(b, min_time));
  }
  return {ra, rb};
}

constexpr float kTemperature = 1.f;

// The CAM rows time each mode through the one blocked entry serving calls
// (CamArray::search_accumulate_block for PECAN-D,
// similarity_softmax_accumulate_block for PECAN-A). Their LUT is [1, p], so
// the scan, not the LUT sweep, dominates both sides.
struct CamBench {
  cam::CamArray array;
  cam::LutMemory lut;
  Tensor cols;  ///< [d, len] query columns
  std::vector<float> out, qtile, scores;
  cam::OpCounter counter;
  cam::CamTally tally;
  std::vector<std::uint64_t> usage;  ///< the scalar spec's hit counts

  CamBench(Rng&& rng, cam::SearchMetric metric, std::int64_t p, std::int64_t d, std::int64_t len)
      : array(rng.randn({p, d}), metric), lut(rng.randn({1, p})), cols(rng.randn({d, len})),
        out(static_cast<std::size_t>(len)), qtile(static_cast<std::size_t>(d * cam::kCamTileMax)),
        scores(static_cast<std::size_t>(p * cam::kCamTileMax)), tally(p),
        usage(static_cast<std::size_t>(p)) {}

  bool l1() const { return array.metric() == cam::SearchMetric::L1BestMatch; }

  /// The scalar spec, one strided query column at a time.
  void scalar() {
    camspec::spec_columns(array, lut, cols.data(), cols.dim(1), kTemperature,
                          cam::CamPrecision::Float32, out.data(), counter, usage);
    g_sink = out[0];
  }

  /// The blocked entry at `prec`, tile by tile, flushed once per sweep as a
  /// serving chunk flushes once per layer.
  void blocked(cam::CamPrecision prec) {
    const std::int64_t d = array.word_dim(), len = cols.dim(1);
    for (std::int64_t l0 = 0; l0 < len; l0 += cam::kCamTileMax) {
      const std::int64_t lb = std::min<std::int64_t>(cam::kCamTileMax, len - l0);
      camspec::pack_cols_tile(cols.data(), len, d, l0, lb, qtile.data());
      if (l1()) {
        array.search_accumulate_block(qtile.data(), lb, lut, out.data() + l0, len, tally, prec);
      } else {
        array.similarity_softmax_accumulate_block(qtile.data(), lb, kTemperature, lut,
                                                  scores.data(), out.data() + l0, len, tally,
                                                  prec);
      }
    }
    array.flush(tally, counter);
    g_sink = out[0];
  }
};

// Scalar CAM spec vs the Float32 blocked entry of the same mode.
Row bench_cam_search(cam::SearchMetric metric, std::int64_t p, std::int64_t d, std::int64_t len,
                     double min_time) {
  CamBench b(Rng(static_cast<std::uint64_t>(p * 100 + d)), metric, p, d, len);
  const auto [scalar_rate, blocked_rate] =
      paired_rates([&] { b.scalar(); }, [&] { b.blocked(cam::CamPrecision::Float32); }, min_time);

  Row row = ratio_row(std::string(b.l1() ? "cam_l1_search" : "cam_dot_scores") + "_p" +
                          std::to_string(p) + "_d" + std::to_string(d),
                      "searches/s", scalar_rate * static_cast<double>(len),
                      blocked_rate * static_cast<double>(len));
  // Per search the scan touches the full word array plus the query.
  row.gb_per_s = row.blocked * static_cast<double>((p * d + d) * 4) / 1e9;
  return row;
}

// Quantized operating point vs Float32 through the same blocked entry in
// the same process: the "scalar" side here is deliberately the Float32
// entry, so the row's speedup reads "int8/binary over float spec" — the
// number the quantized operating point has to justify — and stays
// hardware-portable the same way the other ratio rows do. Rows are
// qcam/-prefixed so CI can gate exactly this family (check_bench.py
// --gate-prefix qcam/) with absolute floors.
Row bench_qcam_search(cam::SearchMetric metric, cam::CamPrecision prec, std::int64_t p,
                      std::int64_t d, std::int64_t len, double min_time) {
  CamBench b(Rng(static_cast<std::uint64_t>(p * 100 + d)), metric, p, d, len);
  b.array.prepare_quantized(prec);
  const auto [float_rate, quant_rate] = paired_rates(
      [&] { b.blocked(cam::CamPrecision::Float32); }, [&] { b.blocked(prec); }, min_time);

  Row row = ratio_row(std::string("qcam/") + cam::precision_name(prec) +
                          (b.l1() ? "_l1" : "_dot") + "_p" + std::to_string(p) + "_d" +
                          std::to_string(d),
                      "searches/s", float_rate * static_cast<double>(len),
                      quant_rate * static_cast<double>(len));
  // Bytes actually touched per search by the quantized scan: uint8 codes
  // (words + query) for int8, packed uint64 sign words for binary.
  const double bytes = prec == cam::CamPrecision::Binary
                           ? static_cast<double>((p + 1) * ((d + 63) / 64) * 8)
                           : static_cast<double>((p + 1) * d);
  row.gb_per_s = row.blocked * bytes / 1e9;
  return row;
}

// The pre-PR scalar gemm kernel, kept verbatim as the "before" side: i-k-j
// loop that streams the whole C row through memory once per k step, with
// the same pool-parallel row partition the old sgemm used.
void old_streaming_gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
                        const float* b, float* c) {
  constexpr std::int64_t kBlockK = 256;
  const std::int64_t grain =
      std::max<std::int64_t>(1, (1 << 16) / std::max<std::int64_t>(n * k, 1));
  util::parallel_for(
      0, m,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          std::fill(c + i * n, c + (i + 1) * n, 0.f);
          for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
            const std::int64_t k1 = std::min(k, k0 + kBlockK);
            for (std::int64_t kk = k0; kk < k1; ++kk) {
              const float aik = a[i * k + kk];
              if (aik == 0.f) continue;
              const float* brow = b + kk * n;
              float* crow = c + i * n;
              for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
            }
          }
        }
      },
      grain);
}

Row bench_sgemm(std::int64_t n, double min_time) {
  Rng rng(static_cast<std::uint64_t>(n));
  Tensor a = rng.randn({n, n});
  Tensor b = rng.randn({n, n});
  Tensor c({n, n});
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);
  const auto [ref_rate, blocked_rate] = paired_rates(
      [&] {
        old_streaming_gemm(n, n, n, a.data(), b.data(), c.data());
        g_sink = c[0];
      },
      [&] {
        matmul(a.data(), b.data(), c.data(), n, n, n);
        g_sink = c[0];
      },
      min_time);
  return ratio_row("sgemm_" + std::to_string(n), "gflop/s", ref_rate * flops / 1e9,
                   blocked_rate * flops / 1e9);
}

Row bench_im2col(std::int64_t c, std::int64_t hw, double min_time) {
  Rng rng(static_cast<std::uint64_t>(c));
  Tensor image = rng.randn({c, hw, hw});
  nn::Conv2dGeometry g{c, hw, hw, 3, 1, 1};
  Tensor cols({g.rows(), g.cols()});
  const double reps = rate(
      [&] {
        nn::im2col(image.data(), g, cols.data());
        g_sink = cols[0];
      },
      min_time);
  Row row;
  row.name = "im2col_c" + std::to_string(c) + "_hw" + std::to_string(hw);
  row.unit = "unfolds/s";
  row.blocked = reps;
  row.gb_per_s = reps * static_cast<double>((g.rows() * g.cols() + c * hw * hw) * 4) / 1e9;
  return row;
}

// Fused unfold->pack vs the two-pass pipeline it replaced on the CAM hot
// path: "scalar" materializes the full im2col `cols` matrix once and then
// packs every [d, Lb] tile from it (write + re-read of the largest
// intermediate); "blocked" gathers each tile straight from the image with
// nn::im2col_tile. One rep produces the identical D x ntiles tile stream
// CamConv2d::infer consumes.
Row bench_im2col_tile(std::int64_t c, std::int64_t hw, std::int64_t d, double min_time) {
  Rng rng(static_cast<std::uint64_t>(c * 10 + d));
  Tensor image = rng.randn({c, hw, hw});
  const nn::Conv2dGeometry g{c, hw, hw, 3, 1, 1};
  const std::int64_t rows = g.rows(), len = g.cols();
  const std::int64_t D = rows / d;
  const std::int64_t ntiles = (len + cam::kCamTileMax - 1) / cam::kCamTileMax;
  Tensor cols({rows, len});
  std::vector<float> qtile(static_cast<std::size_t>(d * cam::kCamTileMax));

  const auto [two_pass_rate, fused_rate] = paired_rates(
      [&] {
        nn::im2col(image.data(), g, cols.data());
        for (std::int64_t j = 0; j < D; ++j) {
          for (std::int64_t l0 = 0; l0 < len; l0 += cam::kCamTileMax) {
            const std::int64_t lb = std::min<std::int64_t>(cam::kCamTileMax, len - l0);
            camspec::pack_cols_tile(cols.data() + j * d * len, len, d, l0, lb, qtile.data());
            g_sink = qtile[0];
          }
        }
      },
      [&] {
        for (std::int64_t j = 0; j < D; ++j) {
          for (std::int64_t l0 = 0; l0 < len; l0 += cam::kCamTileMax) {
            const std::int64_t lb = std::min<std::int64_t>(cam::kCamTileMax, len - l0);
            nn::im2col_tile(image.data(), g, j * d, d, l0, lb, qtile.data());
            g_sink = qtile[0];
          }
        }
      },
      min_time);

  Row row = ratio_row("im2col_tile_c" + std::to_string(c) + "_hw" + std::to_string(hw) + "_d" +
                          std::to_string(d),
                      "tiles/s", two_pass_rate * static_cast<double>(D * ntiles),
                      fused_rate * static_cast<double>(D * ntiles));
  // Each fused tile reads d*lb gathered floats and writes the packed tile.
  row.gb_per_s = row.blocked * static_cast<double>(d * cam::kCamTileMax * 8) / 1e9;
  return row;
}

/// One PECAN conv layer's CAM path (bias on, stride 1), `batch` images per
/// infer(), in img/s.
struct ConvShape {
  const char* name;
  pq::MatchMode mode;
  std::int64_t p, d, cin, cout, k, pad, hw;
  std::uint64_t seed;
};

Row bench_camconv(const ConvShape& shape, double min_time) {
  Rng rng(shape.seed);
  pq::PqLayerConfig cfg;
  cfg.mode = shape.mode;
  cfg.p = shape.p;
  cfg.d = shape.d;
  cfg.temperature = 1.f;
  pq::PecanConv2d trained("bench", shape.cin, shape.cout, shape.k, 1, shape.pad, true, cfg, rng);
  trained.set_training(false);
  cam::CamConv2d layer(trained, std::make_shared<cam::OpCounter>());
  const std::int64_t batch = 8;
  Tensor x = rng.randn({batch, shape.cin, shape.hw, shape.hw});
  nn::InferContext ctx;
  const double reps = rate(
      [&] {
        ctx.reset();
        Tensor out = layer.infer(x, ctx);
        g_sink = out[0];
      },
      min_time);
  Row row;
  row.name = shape.name;
  row.unit = "img/s";
  row.blocked = reps * static_cast<double>(batch);
  return row;
}

Row bench_camlinear(double min_time) {
  Rng rng(32);
  pq::PqLayerConfig cfg;
  cfg.mode = pq::MatchMode::Distance;
  cfg.p = 32;
  cfg.d = 8;
  cfg.temperature = 1.f;
  pq::PecanLinear trained("bench_fc", 256, 128, true, cfg, rng);
  trained.set_training(false);
  cam::CamLinear layer(trained.conv(), std::make_shared<cam::OpCounter>());
  const std::int64_t batch = 64;  // len = 1 per sample: the sample-parallel case
  Tensor x = rng.randn({batch, 256});
  nn::InferContext ctx;
  const double reps = rate(
      [&] {
        ctx.reset();
        Tensor out = layer.infer(x, ctx);
        g_sink = out[0];
      },
      min_time);
  Row row;
  row.name = "camlinear_fc256x128_d";
  row.unit = "img/s";
  row.blocked = reps * static_cast<double>(batch);
  return row;
}

Row bench_bank_energy(cam::CamPrecision prec) {
  // Energy per inference at one operating point, from the EXACT op ledger:
  // integer op counts x the ops::EnergyModel per-op table. No timing in the
  // numbers at all, so the row is machine-independent and deterministic —
  // the one kind of bench row that can carry a tight CI gate. Reported as a
  // rate (inferences per microjoule, higher = better) so speedup keeps its
  // "after/before" meaning: the row's speedup IS the energy-reduction
  // factor of this precision over the float32 spec point.
  const ops::EnergyModel model;
  const auto nj_per_inf = [&](cam::CamPrecision p) {
    Rng rng(33);
    pq::PqLayerConfig cfg;
    cfg.mode = pq::MatchMode::Distance;
    cfg.p = 32;
    cfg.d = 6;
    cfg.temperature = 1.f;
    pq::PecanConv2d trained("bench", 6, 16, 5, 1, 0, true, cfg, rng);
    trained.set_training(false);
    auto counter = std::make_shared<cam::OpCounter>();
    cam::CamConv2d layer(trained, counter);
    layer.set_precision(p);
    const std::int64_t batch = 8;
    Tensor x = rng.randn({batch, 6, 14, 14});
    nn::InferContext ctx;
    ctx.reset();
    Tensor out = layer.infer(x, ctx);
    g_sink = out[0];
    return model.energy(counter->totals()).total_pj() / 1e3 / static_cast<double>(batch);
  };
  const double f32_nj = nj_per_inf(cam::CamPrecision::Float32);
  const double my_nj = nj_per_inf(prec);
  return ratio_row(std::string("bank/energy_lenet_d_") + cam::precision_name(prec), "inf/uJ",
                   1e3 / f32_nj, 1e3 / my_nj);
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const std::string json_path = args.get("json", "BENCH_kernels.json");
  const long threads = args.get_int("threads", 0);
  if (threads > 0) util::set_global_threads(static_cast<int>(threads));

  const double min_time = smoke ? 0.02 : 0.4;
  const std::int64_t len = smoke ? 512 : 4096;
  std::printf("CAM scan kernels: %s\n", cam::kernel_isa());

  std::vector<Row> rows;
  rows.push_back(bench_cam_search(cam::SearchMetric::L1BestMatch, 64, 9, len, min_time));
  rows.push_back(bench_cam_search(cam::SearchMetric::L1BestMatch, 32, 16, len, min_time));
  rows.push_back(bench_cam_search(cam::SearchMetric::L1BestMatch, 8, 4, len, min_time));
  // ResNet20-D's PECAN-D word shape (report-only: no reference row).
  rows.push_back(bench_cam_search(cam::SearchMetric::L1BestMatch, 64, 3, len, min_time));
  rows.push_back(bench_cam_search(cam::SearchMetric::DotProduct, 16, 9, len, min_time));
  rows.push_back(bench_cam_search(cam::SearchMetric::DotProduct, 8, 16, len, min_time));
  // A row plus the absolute floors emitted as its "gate" object, which
  // check_bench.py enforces on top of the ratio check when the row is gated.
  // Timed floors sit far below the recorded full-run values so --smoke
  // noise cannot trip them.
  const auto gated = [](Row r, double min_speedup, double min_gb_per_s = -1) {
    r.gate = {{"min_speedup", min_speedup}};
    if (min_gb_per_s >= 0) r.gate.emplace_back("min_gb_per_s", min_gb_per_s);
    return r;
  };
  // Quantized operating points, measured against the Float32 entry.
  // Floors: speedup-vs-float must stay comfortably above 1 even under smoke
  // noise; GB/s floors catch a quantized path that stopped behaving like a
  // narrow-lane scan (values are a fraction of the recorded full-run rates).
  constexpr auto kL1 = cam::SearchMetric::L1BestMatch;
  constexpr auto kInt8 = cam::CamPrecision::Int8, kBinary = cam::CamPrecision::Binary;
  rows.push_back(gated(bench_qcam_search(kL1, kInt8, 64, 9, len, min_time), 1.5, 1.0));
  rows.push_back(gated(bench_qcam_search(kL1, kInt8, 32, 16, len, min_time), 1.5, 1.0));
  rows.push_back(gated(bench_qcam_search(kL1, kBinary, 64, 9, len, min_time), 2.0, 0.1));
  rows.push_back(gated(bench_qcam_search(kL1, kBinary, 32, 16, len, min_time), 2.0, 0.1));
  // The dot entry's win over float is modest (~1.1x full-run: VPMADDWD
  // halves the multiplies but the float kernel was already FMA-bound, not
  // bandwidth-bound, and the softmax costs the same at either precision).
  // Floor below parity so smoke noise cannot trip it; it still catches a
  // quantized dot path that collapsed.
  rows.push_back(gated(
      bench_qcam_search(cam::SearchMetric::DotProduct, kInt8, 16, 9, len, min_time), 0.8));
  rows.push_back(bench_sgemm(64, min_time));
  rows.push_back(bench_sgemm(128, min_time));
  rows.push_back(bench_sgemm(256, min_time));
  rows.push_back(bench_im2col(16, 32, min_time));
  rows.push_back(bench_im2col(128, 32, min_time));
  rows.push_back(bench_im2col_tile(16, 32, 8, min_time));
  rows.push_back(bench_im2col_tile(64, 16, 8, min_time));
  constexpr auto kDist = pq::MatchMode::Distance;
  rows.push_back(bench_camconv({"camconv_lenet_d", kDist, 32, 6, 6, 16, 5, 0, 14, 30}, min_time));
  rows.push_back(bench_camconv(
      {"camconv_lenet_a", pq::MatchMode::Angle, 32, 6, 6, 16, 5, 0, 14, 31}, min_time));
  // ResNet20-D stage-1 and stage-3 convs (report-only: no reference rows).
  rows.push_back(
      bench_camconv({"camconv_resnet20_s1_d", kDist, 64, 3, 16, 16, 3, 1, 32, 34}, min_time));
  rows.push_back(
      bench_camconv({"camconv_resnet20_s3_d", kDist, 64, 3, 64, 64, 3, 1, 8, 35}, min_time));
  rows.push_back(bench_camlinear(min_time));
  // Exact energy-per-inference rows (bank/ prefix, gated as a family in CI).
  // These are ledger math, not timing, so the floors sit just under the
  // true ratios — any change to the op accounting or the energy table that
  // moves an operating point's energy shows up as a gate failure. True
  // ratios, exact on every machine: float32 1.0, int8 ~12.3x, binary ~15.7x.
  rows.push_back(gated(bench_bank_energy(cam::CamPrecision::Float32), 0.99));
  rows.push_back(gated(bench_bank_energy(kInt8), 10.0));
  rows.push_back(gated(bench_bank_energy(kBinary), 12.0));

  std::printf("%-28s %14s %14s %9s %9s  %s\n", "kernel", "scalar", "blocked", "speedup",
              "GB/s", "unit");
  for (const Row& r : rows) {
    std::printf("%-28s %14.4g %14.4g %9.3g %9.4g  %s\n", r.name.c_str(), r.scalar, r.blocked,
                r.speedup, r.gb_per_s, r.unit.c_str());
  }
  bench::write_json(json_path,
                    {{"bench", "\"kernels\""},
                     {"threads", std::to_string(util::global_lanes())},
                     {"smoke", smoke ? "true" : "false"},
                     {"kernel_isa", "\"" + std::string(cam::kernel_isa()) + "\""}},
                    rows);
  bench::warn_unused(args);
  return 0;
}
