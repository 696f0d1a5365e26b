// Quickstart: the full PECAN lifecycle in ~100 lines.
//
//   1. generate a synthetic image-classification dataset;
//   2. build a PECAN-D LeNet5 (distance-based: multiplier-free inference);
//   3. train it end-to-end (STE + epoch-aware sign surrogate, Eq. 4-6);
//   4. export the trained network to the CAM simulator (Algorithm 1:
//      best-match search + lookup tables);
//   5. run inference through the CAM and verify (a) it matches the direct
//      forward pass and (b) it used ZERO multiplications.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <algorithm>
#include <cstdio>

#include "cam/convert.hpp"
#include "core/introspect.hpp"
#include "core/strategy.hpp"
#include "data/synthetic.hpp"
#include "models/lenet.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/logging.hpp"

using namespace pecan;

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::Warn);
  util::Args args(argc, argv);
  const std::int64_t train_n = args.get_int("train-samples", 240);
  const std::int64_t test_n = args.get_int("test-samples", 80);
  const std::int64_t epochs = args.get_int("epochs", 5);

  // 1. Data: an MNIST-shaped synthetic task (28x28x1, 10 classes).
  std::printf("[1/5] generating %lld train / %lld test synthetic MNIST-like samples\n",
              static_cast<long long>(train_n), static_cast<long long>(test_n));
  const auto split = data::generate_split(data::mnist_like_spec(), train_n, test_n);

  // 2. Model: LeNet5 where every conv/FC is a PECAN-D layer (Table A2
  //    codebook settings). Codebooks are k-means-initialized from real
  //    activation statistics — the classic PQ construction.
  std::printf("[2/5] building PECAN-D LeNet5 and k-means-initializing codebooks\n");
  Rng rng(7);
  auto model = models::make_lenet5(models::Variant::PecanD, rng);
  Rng km(17);
  const std::int64_t calib = std::min<std::int64_t>(split.train.size(), 48);
  pq::kmeans_calibrate(*model, data::take(split.train, calib).images, 5, km);
  const pq::ParameterCensus census = pq::census(*model);
  std::printf("      %lld codebook tensors (%lld prototypes' worth of floats), "
              "%lld weight tensors\n", static_cast<long long>(census.codebook_tensors),
              static_cast<long long>(census.codebook_scalars),
              static_cast<long long>(census.other_tensors));

  // 3. Train end-to-end (co-optimization: weights AND prototypes learn).
  std::printf("[3/5] training %lld epochs (STE forward = hard argmax; backward = Eq. 4-6)\n",
              static_cast<long long>(epochs));
  nn::Adam opt(model->parameters(), 2e-3);
  nn::DatasetView train{&split.train.images, &split.train.labels};
  nn::DatasetView test{&split.test.images, &split.test.labels};
  nn::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 8;
  cfg.evaluate_each_epoch = false;
  nn::fit(*model, opt, train, test, cfg);
  const double direct_acc = nn::evaluate(*model, test);
  std::printf("      test accuracy (direct forward): %.2f%%\n", direct_acc);

  // 4. Export to content addressable memory: each codebook group becomes a
  //    best-match CAM array; W x prototype products become lookup tables.
  std::printf("[4/5] exporting to the CAM simulator (Algorithm 1)\n");
  model->set_training(false);
  cam::CamNetworkExport exported = cam::convert_to_cam(*model);
  std::printf("      %zu CAM layers exported\n", exported.cam_layers.size());

  // 5. CAM inference: table lookups only — count every arithmetic op.
  std::printf("[5/5] running inference through the CAM\n");
  std::int64_t correct = 0;
  const std::int64_t classes = 10;
  Tensor logits = exported.net->forward(split.test.images);
  for (std::int64_t i = 0; i < test_n; ++i) {
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      if (logits[i * classes + c] > logits[i * classes + best]) best = c;
    }
    if (best == split.test.labels[static_cast<std::size_t>(i)]) ++correct;
  }
  const double cam_acc = 100.0 * static_cast<double>(correct) / static_cast<double>(test_n);

  std::printf("\nresults\n-------\n");
  std::printf("direct forward accuracy : %.2f%%\n", direct_acc);
  std::printf("CAM inference accuracy  : %.2f%%  (must match)\n", cam_acc);
  std::printf("CAM searches            : %s\n",
              util::human_count(exported.counter->cam_searches).c_str());
  std::printf("LUT reads               : %s\n",
              util::human_count(exported.counter->lut_reads).c_str());
  std::printf("additions               : %s\n", util::human_count(exported.counter->adds).c_str());
  std::printf("multiplications         : %s   <-- the paper's headline: truly multiplier-free\n",
              util::human_count(exported.counter->muls).c_str());
  return exported.counter->muls == 0 && cam_acc == direct_acc ? 0 : 1;
}
