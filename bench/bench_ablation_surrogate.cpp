// Ablation (DESIGN.md §5 starred decision): the epoch-aware tanh surrogate
// of Eq. (6) vs its alternatives, on PECAN-D LeNet training.
//
//   EpochTanh — the paper's schedule: tanh(a(X-C)), a = exp(4e/E)
//   Hard      — the raw sign function (zero gradient almost everywhere;
//               the paper argues this "makes it impossible to train")
//   Identity  — straight-through (pretend d|X-C|/dC = 1)
//
// The bench trains the same model under each surrogate and reports final
// loss and accuracy. The paper's claim is that the epoch-aware schedule is
// the stable choice.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "models/lenet.hpp"

using namespace pecan;

int main(int argc, char** argv) {
  bench::init_bench_logging();
  util::Args args(argc, argv);
  bench::TrainSettings s = bench::settings_from_args(args, {/*train=*/240, /*test=*/80,
                                                            /*epochs=*/6, /*batch=*/8});

  bench::print_header("Ablation — sign-gradient surrogate for PECAN-D (Eq. 6)");
  bench::print_scale_note(s);

  auto split = data::generate_split(data::mnist_like_spec(), s.train_samples, s.test_samples);
  const pq::SignSurrogate kinds[] = {pq::SignSurrogate::EpochTanh, pq::SignSurrogate::Hard,
                                     pq::SignSurrogate::Identity};
  const char* names[] = {"EpochTanh (paper)", "Hard sign", "Identity (STE)"};

  std::printf("\n%-20s %12s %10s\n", "Surrogate", "final loss", "Acc.(%)");
  for (int k = 0; k < 3; ++k) {
    Rng rng(s.seed);
    auto model = models::make_lenet5(models::Variant::PecanD, rng);
    // The surrogate only affects backward; patch it per layer.
    for (pq::PecanConv2d* layer : pq::collect_pecan_layers(*model)) {
      layer->set_surrogate(kinds[k]);
    }
    Rng km(s.seed + 17);
    const std::int64_t calib = std::min<std::int64_t>(split.train.size(), 48);
    pq::kmeans_calibrate(*model, data::take(split.train, calib).images, 5, km);
    nn::Adam opt(model->parameters(), 2e-3);
    nn::DatasetView train{&split.train.images, &split.train.labels};
    nn::DatasetView test{&split.test.images, &split.test.labels};
    nn::TrainConfig cfg;
    cfg.epochs = s.epochs;
    cfg.batch_size = s.batch;
    cfg.evaluate_each_epoch = false;
    cfg.shuffle_seed = s.seed;
    const auto result = nn::fit(*model, opt, train, test, cfg);
    std::printf("%-20s %12.4f %10s\n", names[k], result.final_train_loss,
                util::percent(nn::evaluate(*model, test)).c_str());
    std::fflush(stdout);
  }
  std::printf("\nShape check (paper §3.2): the epoch-aware surrogate should match or beat the\n"
              "hard sign (whose gradient is zero almost everywhere for sharp codebooks).\n");
  return 0;
}
