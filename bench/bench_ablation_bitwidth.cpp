// Ablation — CAM non-idealities (cam/nonideal.hpp) on a trained PECAN-D
// LeNet. The paper targets RRAM/analog-CAM deployment, where a cell holds
// only a few bits and match lines carry device variation. Two tables:
//   * cell precision: accuracy as the CAM words and LUT entries are
//     quantized to n-bit memristive levels — "how many bits are enough";
//   * match-line noise: accuracy, and argmax agreement with the clean
//     export, as static per-word offsets of relative size sigma perturb a
//     4-bank part — "how much device variation is tolerable".
#include <cstdio>

#include "bench_common.hpp"
#include "cam/bank_map.hpp"
#include "cam/convert.hpp"
#include "cam/nonideal.hpp"
#include "models/lenet.hpp"
#include "nn/loss.hpp"

using namespace pecan;

int main(int argc, char** argv) {
  bench::init_bench_logging();
  util::Args args(argc, argv);
  bench::TrainSettings s = bench::settings_from_args(args, {/*train=*/240, /*test=*/80,
                                                            /*epochs=*/5, /*batch=*/8});

  bench::print_header("Ablation — CAM bit width and match-line noise vs accuracy (LeNet PECAN-D)");
  bench::print_scale_note(s);

  auto split = data::generate_split(data::mnist_like_spec(), s.train_samples, s.test_samples);
  Rng rng(s.seed);
  auto model = models::make_lenet5(models::Variant::PecanD, rng);
  const double fp_acc = bench::train_and_eval(*model, models::Variant::PecanD, split, s);
  model->set_training(false);

  std::printf("\nfloat32 CAM reference accuracy: %.2f%%\n\n", fp_acc);
  std::printf("%6s %10s %14s %14s\n", "bits", "Acc.(%)", "mean |err|", "max |err|");
  for (int bits : {8, 6, 5, 4, 3, 2}) {
    cam::CamNetworkExport exported = cam::convert_to_cam(*model);
    const cam::QuantizationReport report = cam::quantize_to_intn(exported, bits);
    Tensor logits = exported.net->forward(split.test.images);
    const double acc = nn::accuracy_percent(logits, split.test.labels);
    std::printf("%6d %10.2f %14.5f %14.5f\n", bits, acc, report.mean_abs_error,
                report.max_abs_error);
    std::fflush(stdout);
  }
  std::printf("\nShape check: accuracy should hold to within a few points down to ~4 bits and\n"
              "collapse at 2 — the classic memristive-precision cliff.\n");

  // Match-line noise on the serving engine's part: arrays placed round-robin
  // onto 4 banks, offsets drawn per bank at the default seed.
  // Agreement is accuracy against the clean export's argmax as the labels.
  const Tensor clean_logits = cam::convert_to_cam(*model).net->forward(split.test.images);
  const std::int64_t n = clean_logits.dim(0), classes = clean_logits.dim(1);
  std::vector<std::int64_t> clean_argmax(static_cast<std::size_t>(n), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = clean_logits.data() + i * classes;
    std::int64_t& best = clean_argmax[static_cast<std::size_t>(i)];
    for (std::int64_t c = 1; c < classes; ++c) {
      if (row[c] > row[best]) best = c;
    }
  }
  std::printf("\n%8s %10s %14s %14s\n", "sigma", "Acc.(%)", "agree(%)", "mean |off|");
  for (double sigma : {1e-4, 1e-3, 1e-2}) {
    cam::CamNetworkExport exported = cam::convert_to_cam(*model);
    cam::BankMap banks(exported, 4);
    cam::MatchlineNoiseConfig noise;
    noise.sigma = sigma;
    const cam::MatchlineNoiseReport report = cam::apply_matchline_noise(exported, banks, noise);
    Tensor logits = exported.net->forward(split.test.images);
    std::printf("%8.0e %10.2f %14.2f %14.5f\n", sigma,
                nn::accuracy_percent(logits, split.test.labels),
                nn::accuracy_percent(logits, clean_argmax), report.mean_abs_offset);
    std::fflush(stdout);
  }
  std::printf("\nShape check: agreement with the clean export should fall as sigma grows;\n"
              "offsets scale with each array's mean word L1 norm, far above typical\n"
              "best-vs-second-best match margins.\n");
  return 0;
}
