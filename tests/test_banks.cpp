// Tests for the multi-bank CAM backend: deterministic placement
// (cam::BankMap), exact per-bank op-ledger mirroring (the bank ledgers
// partition the network ledger BY CONSTRUCTION), the energy accounting
// built on top of it, and the match-line noise model — including the two
// load-bearing contracts: noise OFF leaves serving bitwise-identical at any
// bank count, and noise ON is a pure deterministic function of
// (export, bank config, seed). The concurrency suites run under TSan in CI.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "cam/bank_map.hpp"
#include "cam/cam_array.hpp"
#include "cam/convert.hpp"
#include "cam/nonideal.hpp"
#include "cam_spec.hpp"
#include "models/lenet.hpp"
#include "ops/energy_model.hpp"
#include "runtime/engine.hpp"
#include "tensor/rng.hpp"
#include "util/thread_pool.hpp"

namespace pecan {
namespace {

std::unique_ptr<nn::Sequential> lenet(std::uint64_t seed,
                                      models::Variant variant = models::Variant::PecanD) {
  Rng rng(seed);
  auto net = models::make_lenet5(variant, rng);
  net->set_training(false);
  return net;
}

Tensor mnist_batch(std::uint64_t seed, std::int64_t n) {
  Rng rng(seed);
  return rng.randn({n, 1, 28, 28});
}

void expect_bitwise(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "element " << i;
  }
}

// ----------------------------------------------------------------- placement

TEST(BankMap, RoundRobinPlacementIsDeterministicAndModular) {
  auto net_a = lenet(5);
  auto net_b = lenet(5);
  cam::CamNetworkExport export_a = cam::convert_to_cam(*net_a);
  cam::CamNetworkExport export_b = cam::convert_to_cam(*net_b);

  cam::BankConfig config;
  config.banks = 3;
  cam::BankMap map_a(export_a, config);
  cam::BankMap map_b(export_b, config);

  ASSERT_EQ(map_a.assignments().size(), map_b.assignments().size());
  ASSERT_GT(map_a.assignments().size(), 0u);
  for (std::size_t i = 0; i < map_a.assignments().size(); ++i) {
    const cam::BankAssignment& a = map_a.assignments()[i];
    const cam::BankAssignment& b = map_b.assignments()[i];
    // Same export + same config => same placement, array for array.
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.layer, b.layer);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.words, b.words);
    // Round-robin is ordinal % banks, by definition.
    EXPECT_EQ(a.bank, static_cast<std::int64_t>(i) % config.banks);
  }
}

TEST(BankMap, CapacityAwarePacksLeastLoadedAndThrowsWhenModelCannotFit) {
  auto net = lenet(5);
  cam::CamNetworkExport exported = cam::convert_to_cam(*net);

  std::int64_t total_words = 0, max_words = 0;
  for (cam::CamConv2d* layer : exported.cam_layers) {
    for (std::int64_t j = 0; j < layer->groups(); ++j) {
      total_words += layer->array(j).word_count();
      max_words = std::max(max_words, layer->array(j).word_count());
    }
  }

  cam::BankConfig config;
  config.banks = 4;
  config.placement = cam::BankPlacement::CapacityAware;
  config.capacity_words = total_words;  // roomy: every array fits anywhere
  {
    cam::BankMap map(exported, config);
    const std::vector<cam::BankStats> stats = map.stats(ops::EnergyModel{});
    std::int64_t placed = 0, occupied_banks = 0;
    for (const cam::BankStats& s : stats) {
      placed += s.words;
      occupied_banks += s.words > 0 ? 1 : 0;
      EXPECT_LE(s.words, config.capacity_words);
      EXPECT_NEAR(s.occupancy,
                  static_cast<double>(s.words) / static_cast<double>(config.capacity_words),
                  1e-12);
    }
    EXPECT_EQ(placed, total_words);       // every word landed exactly once
    EXPECT_GT(occupied_banks, 1);         // least-loaded actually spreads
  }
  // A part whose banks cannot hold even the largest subspace is rejected at
  // placement time, with the offending layer/group named.
  config.capacity_words = max_words - 1;
  EXPECT_THROW(cam::BankMap(exported, config), std::invalid_argument);
}

TEST(BankMap, ValidatesConfig) {
  auto net = lenet(5);
  cam::CamNetworkExport exported = cam::convert_to_cam(*net);
  cam::BankConfig config;
  config.banks = 0;
  EXPECT_THROW(cam::BankMap(exported, config), std::invalid_argument);
  config.banks = 2;
  config.capacity_words = -1;
  EXPECT_THROW(cam::BankMap(exported, config), std::invalid_argument);
}

// ----------------------------------------------------- per-bank op ledgers

TEST(BankLedger, BankSearchesAndEnergyPartitionTheNetworkLedger) {
  // PECAN-D runs the best-match search + LUT gather epilogue; PECAN-A runs
  // the similarity + softmax + weighted-accumulate epilogue, whose LUT ops
  // reach the bank port through LutMemory::weighted_accumulate_block.
  for (const models::Variant variant : {models::Variant::PecanD, models::Variant::PecanA}) {
    SCOPED_TRACE(variant == models::Variant::PecanD ? "PECAN-D" : "PECAN-A");
    util::set_global_threads(2);
    runtime::EngineConfig config;
    config.path = runtime::ExecPath::Cam;
    config.bank_config.banks = 4;
    runtime::Engine engine(lenet(7, variant), config);
    engine.forward_batch(mnist_batch(11, 6));
    engine.forward_batch(mnist_batch(13, 3));
    util::set_global_threads(1);

    const runtime::EngineStats stats = engine.stats();
    ASSERT_EQ(stats.banks.size(), 4u);
    ASSERT_NE(engine.counter(), nullptr);

    // The ports mirror the SAME aggregates the network counter receives, so
    // the per-bank search counts partition the network total EXACTLY.
    std::uint64_t bank_searches = 0;
    double bank_energy_pj = 0.0;
    for (const cam::BankStats& b : stats.banks) {
      EXPECT_GT(b.searches, 0u);  // round-robin over >4 arrays: no idle bank
      bank_searches += b.searches;
      bank_energy_pj += b.energy_pj;
    }
    EXPECT_EQ(bank_searches, engine.counter()->cam_searches.load());

    // Energy: exact integer counts x the same table on both sides; only the
    // double summation order differs between "price each bank then sum" and
    // "sum the ledgers then price".
    EXPECT_GT(stats.energy_pj, 0.0);
    EXPECT_NEAR(bank_energy_pj, stats.energy_pj, 1e-6 * stats.energy_pj);

    // 9 samples served through forward_batch: the per-inference figure is
    // the total over exactly those samples.
    EXPECT_EQ(stats.direct_samples, 9u);
    EXPECT_NEAR(stats.energy_per_inference_nj, stats.energy_pj / 1e3 / 9.0,
                1e-9 * stats.energy_per_inference_nj);
  }
}

TEST(BankLedger, ConcurrentForwardsKeepBankLedgersExact) {
  // TSan suite: 4 client threads hammer one multi-bank engine; afterwards
  // the bank ledgers must still partition the network ledger exactly —
  // relaxed-atomic mirroring loses nothing under contention.
  util::set_global_threads(2);
  runtime::EngineConfig config;
  config.path = runtime::ExecPath::Cam;
  config.bank_config.banks = 3;
  runtime::Engine engine(lenet(7), config);

  constexpr int kClients = 4, kReps = 3;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&engine, c] {
      for (int r = 0; r < kReps; ++r) {
        engine.forward_batch(mnist_batch(static_cast<std::uint64_t>(100 + c * 10 + r), 2));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  util::set_global_threads(1);

  const runtime::EngineStats stats = engine.stats();
  std::uint64_t bank_searches = 0;
  for (const cam::BankStats& b : stats.banks) bank_searches += b.searches;
  EXPECT_EQ(bank_searches, engine.counter()->cam_searches.load());
  EXPECT_EQ(stats.direct_samples, static_cast<std::uint64_t>(kClients * kReps * 2));
}

// ------------------------------------------------- noise-off bitwise identity

TEST(BankIdentity, AnyBankCountServesBitwiseIdenticalToSingleBank) {
  // The placement only decides which LEDGER the mirrors land in — it must
  // never change what is computed. Asserted across bank counts and both
  // placement policies, with threads on (runs under TSan in CI).
  Tensor batch = mnist_batch(23, 5);

  util::set_global_threads(3);
  runtime::EngineConfig reference_config;
  reference_config.path = runtime::ExecPath::Cam;
  reference_config.bank_config.banks = 1;
  runtime::Engine reference(lenet(19), reference_config);
  Tensor expected = reference.forward_batch(batch);

  for (std::int64_t banks : {2, 4, 7}) {
    for (cam::BankPlacement placement :
         {cam::BankPlacement::RoundRobin, cam::BankPlacement::CapacityAware}) {
      runtime::EngineConfig config = reference_config;
      config.bank_config.banks = banks;
      config.bank_config.placement = placement;
      runtime::Engine engine(lenet(19), config);
      Tensor out = engine.forward_batch(batch);
      expect_bitwise(out, expected);
    }
  }
  util::set_global_threads(1);
}

TEST(BankIdentity, QuantizedPrecisionsUnaffectedByBankCount) {
  // The PR 7 quantized paths mirror into the ports too; their outputs must
  // be equally placement-independent.
  Tensor batch = mnist_batch(29, 4);
  for (cam::CamPrecision precision : {cam::CamPrecision::Int8, cam::CamPrecision::Binary}) {
    runtime::EngineConfig config;
    config.path = runtime::ExecPath::Cam;
    config.cam_precision = precision;
    config.bank_config.banks = 1;
    runtime::Engine reference(lenet(19), config);
    Tensor expected = reference.forward_batch(batch);

    config.bank_config.banks = 5;
    runtime::Engine engine(lenet(19), config);
    expect_bitwise(engine.forward_batch(batch), expected);
  }
}

// ------------------------------------------------------- match-line noise

TEST(MatchlineNoise, ScalarAndBlockedSearchAgreeWithNoiseOn) {
  // The offsets apply after each word's full accumulation, so both modes'
  // blocked entry == scalar spec bitwise equivalence must hold with noise ON
  // too: D's best match + LUT column and A's softmax-weighted LUT sum.
  const std::int64_t p = 24, d = 7, cout = 5;
  for (const cam::SearchMetric metric :
       {cam::SearchMetric::L1BestMatch, cam::SearchMetric::DotProduct}) {
    for (const std::int64_t len : {std::int64_t{11}, std::int64_t{70}}) {
      Rng rng(31 + static_cast<std::uint64_t>(len));
      cam::CamArray array(rng.randn({p, d}), metric);
      std::vector<float> offsets(static_cast<std::size_t>(p));
      for (float& o : offsets) o = rng.normal(0.f, 2.f);
      array.set_matchline_noise(offsets);
      const cam::LutMemory lut(rng.randn({cout, p}));
      const Tensor cols = rng.randn({d, len});
      const camspec::Outcome spec = camspec::run_spec(array, lut, cols, 0.5f);
      camspec::expect_same(spec, camspec::run_blocked(array, lut, cols, 0.5f),
                           "metric=" + std::to_string(static_cast<int>(metric)) +
                               " len=" + std::to_string(len));
      // The offsets really move the winners: the noiseless spec differs.
      array.clear_matchline_noise();
      EXPECT_NE(camspec::run_spec(array, lut, cols, 0.5f).out, spec.out);
    }
  }
  // Wrong-length offset vectors are rejected.
  cam::CamArray array(Rng(32).randn({p, d}), cam::SearchMetric::L1BestMatch);
  EXPECT_THROW(array.set_matchline_noise(std::vector<float>(3)), std::invalid_argument);
}

TEST(MatchlineNoise, SeededDrawIsDeterministicAndClears) {
  auto net_a = lenet(19);
  auto net_b = lenet(19);
  cam::CamNetworkExport export_a = cam::convert_to_cam(*net_a);
  cam::CamNetworkExport export_b = cam::convert_to_cam(*net_b);
  cam::BankConfig bank_config;
  bank_config.banks = 3;
  cam::BankMap map_a(export_a, bank_config);
  cam::BankMap map_b(export_b, bank_config);

  const cam::MatchlineNoiseConfig noise{0.05, 99};
  const cam::MatchlineNoiseReport report_a = cam::apply_matchline_noise(export_a, map_a, noise);
  const cam::MatchlineNoiseReport report_b = cam::apply_matchline_noise(export_b, map_b, noise);
  EXPECT_GT(report_a.arrays, 0);
  EXPECT_GT(report_a.mean_abs_offset, 0.0);
  EXPECT_GE(report_a.max_abs_offset, report_a.mean_abs_offset);
  EXPECT_EQ(report_a.words, report_b.words);
  EXPECT_DOUBLE_EQ(report_a.mean_abs_offset, report_b.mean_abs_offset);
  EXPECT_DOUBLE_EQ(report_a.max_abs_offset, report_b.max_abs_offset);

  // Same device word for word...
  for (std::size_t li = 0; li < export_a.cam_layers.size(); ++li) {
    for (std::int64_t j = 0; j < export_a.cam_layers[li]->groups(); ++j) {
      const std::vector<float>& oa = export_a.cam_layers[li]->array(j).matchline_noise();
      const std::vector<float>& ob = export_b.cam_layers[li]->array(j).matchline_noise();
      ASSERT_EQ(oa.size(), ob.size());
      for (std::size_t m = 0; m < oa.size(); ++m) EXPECT_EQ(oa[m], ob[m]);
    }
  }
  // ...and a different seed is a different device.
  cam::apply_matchline_noise(export_b, map_b, {0.05, 100});
  bool any_diff = false;
  for (std::size_t li = 0; li < export_a.cam_layers.size() && !any_diff; ++li) {
    for (std::int64_t j = 0; j < export_a.cam_layers[li]->groups() && !any_diff; ++j) {
      const std::vector<float>& oa = export_a.cam_layers[li]->array(j).matchline_noise();
      const std::vector<float>& ob = export_b.cam_layers[li]->array(j).matchline_noise();
      for (std::size_t m = 0; m < oa.size(); ++m) {
        if (oa[m] != ob[m]) {
          any_diff = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(any_diff);

  // clear_matchline_noise restores the bitwise spec path.
  cam::clear_matchline_noise(export_a);
  for (cam::CamConv2d* layer : export_a.cam_layers) {
    for (std::int64_t j = 0; j < layer->groups(); ++j) {
      EXPECT_TRUE(layer->array(j).matchline_noise().empty());
    }
  }
}

TEST(MatchlineNoise, EngineNoiseIsSeededDeterministicAndPerturbs) {
  Tensor batch = mnist_batch(37, 4);

  runtime::EngineConfig clean_config;
  clean_config.path = runtime::ExecPath::Cam;
  runtime::Engine clean(lenet(19), clean_config);
  Tensor clean_out = clean.forward_batch(batch);

  runtime::EngineConfig noisy_config = clean_config;
  noisy_config.noise_sigma = 0.5;  // large on purpose: logits must move
  noisy_config.noise_seed = 77;
  runtime::Engine noisy_a(lenet(19), noisy_config);
  runtime::Engine noisy_b(lenet(19), noisy_config);
  Tensor out_a = noisy_a.forward_batch(batch);
  Tensor out_b = noisy_b.forward_batch(batch);

  // Same seed => the same device => bitwise-identical noisy serving.
  expect_bitwise(out_a, out_b);
  EXPECT_GT(noisy_a.noise_report().mean_abs_offset, 0.0);

  // And the device actually perturbs the match lines.
  bool differs = false;
  for (std::int64_t i = 0; i < clean_out.numel(); ++i) {
    if (out_a[i] != clean_out[i]) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(MatchlineNoise, AccuracyUnderVariationTracksTheGoldenShadow) {
  // Shadow sampling on every parent request: infinitesimal sigma must grade
  // ALL samples as agreeing; the documented smoke tolerance (sigma = 1e-4 on
  // the UNTRAINED LeNet-5 smoke model holds >= 0.85 argmax agreement,
  // measured 0.91 — see docs/STATS_REFERENCE.md) must hold on the fixed
  // seeds used here; and a grossly mis-calibrated device must actually show
  // up in the stat.
  Tensor batch = mnist_batch(41, 8);

  runtime::EngineConfig config;
  config.path = runtime::ExecPath::Cam;
  config.noise_sigma = 1e-6;
  config.noise_shadow_every = 1;
  {
    runtime::Engine engine(lenet(19), config);
    engine.forward_batch(batch);
    const runtime::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.noise_shadow_samples, 8u);
    EXPECT_EQ(stats.noise_shadow_agree, 8u);
    EXPECT_DOUBLE_EQ(stats.accuracy_under_variation, 1.0);
  }
  double acc_small = 0.0;
  config.noise_sigma = 1e-4;
  {
    runtime::Engine engine(lenet(19), config);
    for (std::uint64_t s = 0; s < 4; ++s) {
      engine.forward_batch(mnist_batch(50 + s, 8));
    }
    const runtime::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.noise_shadow_samples, 32u);
    acc_small = stats.accuracy_under_variation;
    EXPECT_GE(acc_small, 0.85);  // measured 0.91 on these seeds
    EXPECT_LE(acc_small, 1.0);
  }
  config.noise_sigma = 0.01;  // 100x worse device: the stat must notice
  {
    runtime::Engine engine(lenet(19), config);
    for (std::uint64_t s = 0; s < 4; ++s) {
      engine.forward_batch(mnist_batch(50 + s, 8));
    }
    EXPECT_LT(engine.stats().accuracy_under_variation, acc_small);
  }
  // Cadence: every 2nd parent request samples (the first always does).
  config.noise_shadow_every = 2;
  {
    runtime::Engine engine(lenet(19), config);
    for (std::uint64_t s = 0; s < 4; ++s) {
      engine.forward_batch(mnist_batch(60 + s, 3));
    }
    EXPECT_EQ(engine.stats().noise_shadow_samples, 6u);  // requests 0 and 2
  }
}

TEST(MatchlineNoise, EngineValidatesNoiseConfig) {
  runtime::EngineConfig config;
  config.noise_sigma = 0.1;  // Float path: no CAM arrays to perturb
  EXPECT_THROW(runtime::Engine(lenet(19), config), std::invalid_argument);

  config.path = runtime::ExecPath::Cam;
  config.cam_precision = cam::CamPrecision::Int8;  // quantized scans never inject
  EXPECT_THROW(runtime::Engine(lenet(19), config), std::invalid_argument);

  config.cam_precision = cam::CamPrecision::Float32;
  config.noise_sigma = -0.1;
  EXPECT_THROW(runtime::Engine(lenet(19), config), std::invalid_argument);

  config.noise_sigma = 0.1;
  config.noise_shadow_every = 0;
  EXPECT_THROW(runtime::Engine(lenet(19), config), std::invalid_argument);
}

}  // namespace
}  // namespace pecan
