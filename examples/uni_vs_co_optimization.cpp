// Training-strategy walkthrough (§4.4.2): the two ways to obtain a PECAN
// network, on the same task —
//   co-optimization : train weights AND prototypes from scratch;
//   uni-optimization: pretrain a regular CNN, transfer + freeze its
//                     weights, k-means the codebooks, learn prototypes only.
// Also demonstrates checkpointing: the co-optimized model is saved and
// reloaded through the binary tensor format before evaluation.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/introspect.hpp"
#include "core/strategy.hpp"
#include "data/synthetic.hpp"
#include "models/lenet.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "tensor/serialize.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

using namespace pecan;

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::Warn);
  util::Args args(argc, argv);
  const std::int64_t train_n = args.get_int("train-samples", 240);
  const std::int64_t test_n = args.get_int("test-samples", 80);
  const std::int64_t epochs = args.get_int("epochs", 5);
  const std::string ckpt = args.get("checkpoint", "/tmp/pecan_coopt.bin");

  const auto split = data::generate_split(data::mnist_like_spec(), train_n, test_n);
  const std::int64_t calib = std::min<std::int64_t>(split.train.size(), 48);
  nn::DatasetView train{&split.train.images, &split.train.labels};
  nn::DatasetView test{&split.test.images, &split.test.labels};

  auto fit_with = [&](nn::Module& model, std::vector<nn::Parameter*> params, double lr) {
    nn::Adam opt(std::move(params), lr);
    nn::TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.batch_size = 8;
    cfg.evaluate_each_epoch = false;
    nn::fit(model, opt, train, test, cfg);
    return nn::evaluate(model, test);
  };

  // --- Strategy 1: co-optimization from scratch --------------------------
  std::printf("strategy 1: co-optimization (weights + prototypes from scratch)\n");
  Rng rng1(21);
  auto co_model = models::make_lenet5(models::Variant::PecanD, rng1);
  Rng km1(22);
  pq::kmeans_calibrate(*co_model, data::take(split.train, calib).images, 5, km1);
  const double co_acc = fit_with(*co_model, co_model->parameters(), 2e-3);
  std::printf("  accuracy: %.2f%%\n", co_acc);

  // Checkpoint round trip: the reloaded model must reproduce the trained
  // model's test logits bit for bit.
  save_tensors(ckpt, co_model->state_dict());
  Rng rng_reload(99);
  auto reloaded = models::make_lenet5(models::Variant::PecanD, rng_reload);
  reloaded->load_state_dict(load_tensors(ckpt));
  co_model->set_training(false);
  reloaded->set_training(false);
  const Tensor trained_logits = co_model->forward(split.test.images);
  const Tensor reloaded_logits = reloaded->forward(split.test.images);
  const bool bitwise = trained_logits.same_shape(reloaded_logits) &&
                       std::memcmp(trained_logits.data(), reloaded_logits.data(),
                                   static_cast<std::size_t>(trained_logits.numel()) *
                                       sizeof(float)) == 0;
  std::printf("  checkpoint %s round trip: %.2f%%, test logits %s\n", ckpt.c_str(),
              nn::evaluate(*reloaded, test), bitwise ? "bitwise identical" : "DIFFER");

  // --- Strategy 2: uni-optimization from a pretrained CNN ----------------
  std::printf("\nstrategy 2: uni-optimization (pretrained CNN, frozen weights)\n");
  Rng rng2(31);
  auto baseline = models::make_lenet5(models::Variant::Baseline, rng2);
  const double base_acc = fit_with(*baseline, baseline->parameters(), 1e-3);
  std::printf("  pretrained baseline accuracy: %.2f%%\n", base_acc);

  Rng rng3(41);
  auto uni_model = models::make_lenet5(models::Variant::PecanD, rng3);
  const std::int64_t transferred = pq::load_matching(*uni_model, baseline->state_dict());
  Rng km2(42);
  pq::kmeans_calibrate(*uni_model, data::take(split.train, calib).images, 5, km2);
  const auto codebook_params = pq::trainable_parameters(*uni_model, pq::TrainingStrategy::UniOptimize);
  std::printf("  transferred %lld weight tensors; training %zu codebook tensors only\n",
              static_cast<long long>(transferred), codebook_params.size());
  const double uni_acc = fit_with(*uni_model, codebook_params, 2e-3);
  std::printf("  uni-optimized accuracy: %.2f%%\n", uni_acc);

  std::printf("\nsummary (cf. paper Table 6: freezing costs accuracy, especially for PECAN-D)\n");
  std::printf("  baseline CNN     : %.2f%%\n", base_acc);
  std::printf("  PECAN-D co-opt   : %.2f%%\n", co_acc);
  std::printf("  PECAN-D uni-opt  : %.2f%%\n", uni_acc);
  return bitwise ? 0 : 1;
}
