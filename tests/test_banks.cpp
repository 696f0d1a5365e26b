// Tests for the multi-bank CAM backend: deterministic round-robin placement
// (cam::BankMap), exact per-bank op-ledger mirroring (the bank ledgers
// partition the network ledger BY CONSTRUCTION) on the engine's fixed
// 4-bank part, the energy accounting built on top of it, and the match-line
// noise study over an export — including the two load-bearing contracts:
// placement leaves the computed logits bitwise-identical at any bank count,
// and noise is a pure deterministic function of (export, bank count, seed).
// The concurrency suites run under TSan in CI.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cam/bank_map.hpp"
#include "cam/cam_array.hpp"
#include "cam/convert.hpp"
#include "cam/nonideal.hpp"
#include "cam_spec.hpp"
#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "nn/im2col.hpp"
#include "nn/residual.hpp"
#include "ops/energy_model.hpp"
#include "runtime/engine.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"
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

/// One forward of an export through the stateless serving path.
Tensor serve(const cam::CamNetworkExport& exported, const Tensor& batch) {
  nn::InferContext ctx;
  return exported.net->infer(batch, ctx);
}

/// Rows of two [N, classes] logit tensors whose argmax agrees.
std::int64_t argmax_agreement(const Tensor& a, const Tensor& b) {
  const std::int64_t n = a.dim(0), classes = a.dim(1);
  std::int64_t agree = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* ra = a.data() + i * classes;
    const float* rb = b.data() + i * classes;
    std::int64_t arg_a = 0, arg_b = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      if (ra[c] > ra[arg_a]) arg_a = c;
      if (rb[c] > rb[arg_b]) arg_b = c;
    }
    if (arg_a == arg_b) ++agree;
  }
  return agree;
}

// ----------------------------------------------------------------- placement

TEST(BankMap, RoundRobinPlacementIsDeterministicAndModular) {
  auto net_a = lenet(5);
  auto net_b = lenet(5);
  cam::CamNetworkExport export_a = cam::convert_to_cam(*net_a);
  cam::CamNetworkExport export_b = cam::convert_to_cam(*net_b);

  const std::int64_t banks = 3;
  cam::BankMap map_a(export_a, banks);
  cam::BankMap map_b(export_b, banks);

  ASSERT_EQ(map_a.assignments().size(), map_b.assignments().size());
  ASSERT_GT(map_a.assignments().size(), 0u);
  for (std::size_t i = 0; i < map_a.assignments().size(); ++i) {
    const cam::BankAssignment& a = map_a.assignments()[i];
    const cam::BankAssignment& b = map_b.assignments()[i];
    // Same export + same bank count => same placement, array for array.
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.layer, b.layer);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.words, b.words);
    // Round-robin is ordinal % banks, by definition.
    EXPECT_EQ(a.bank, static_cast<std::int64_t>(i) % banks);
  }
}

TEST(BankMap, ValidatesConfig) {
  auto net = lenet(5);
  cam::CamNetworkExport exported = cam::convert_to_cam(*net);
  EXPECT_THROW(cam::BankMap(exported, 0), std::invalid_argument);
  EXPECT_THROW(cam::BankMap(exported, -1), std::invalid_argument);
}

// ----------------------------------------------------- per-bank op ledgers

TEST(BankLedger, BankSearchesAndEnergyPartitionTheNetworkLedger) {
  // PECAN-D runs the best-match search + LUT lookup epilogue; PECAN-A runs
  // the similarity + softmax + weighted-accumulate epilogue, whose LUT ops
  // reach the bank port through LutMemory::weighted_accumulate_block.
  for (const models::Variant variant : {models::Variant::PecanD, models::Variant::PecanA}) {
    SCOPED_TRACE(variant == models::Variant::PecanD ? "PECAN-D" : "PECAN-A");
    util::set_global_threads(2);
    runtime::EngineConfig config;
    config.path = runtime::ExecPath::Cam;
    runtime::Engine engine(lenet(7, variant), config);
    engine.forward_batch(mnist_batch(11, 6));
    engine.forward_batch(mnist_batch(13, 3));
    util::set_global_threads(1);

    const runtime::EngineStats stats = engine.stats();
    ASSERT_EQ(stats.banks.size(), 4u);  // the engine's fixed part
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

// ------------------------------------- ledger exactness under chunk flushes

/// The column-at-a-time spec's ledger of one array: op totals and usage.
struct ArraySpec {
  ops::OpTotals ops;
  std::vector<std::uint64_t> usage;
};

/// One layer's column-at-a-time spec over `x` ([N, C, H, W]): the scalar
/// spec (cam_reference.hpp) of each group at the layer's precision, one
/// query at a time over each sample's im2col matrix. Only the ops and the
/// usage are kept; the usage hit of a PECAN-A query is its pre-softmax
/// argmax whatever the temperature, so the spec runs at temperature 1.
std::vector<ArraySpec> column_spec(cam::CamConv2d& layer, const Tensor& x) {
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const nn::Conv2dGeometry g = layer.geometry(h, w);
  const std::int64_t len = g.cols();
  std::vector<ArraySpec> specs(static_cast<std::size_t>(layer.groups()));
  for (std::int64_t s = 0; s < n; ++s) {
    const Tensor image({c, h, w}, std::vector<float>(x.data() + s * c * h * w,
                                                     x.data() + (s + 1) * c * h * w));
    const Tensor cols = nn::im2col(image, g);
    for (std::int64_t j = 0; j < layer.groups(); ++j) {
      const cam::CamArray& array = layer.array(j);
      const cam::LutMemory& lut = layer.lut(j);
      ArraySpec& spec = specs[static_cast<std::size_t>(j)];
      spec.usage.resize(static_cast<std::size_t>(array.word_count()), 0);
      cam::OpCounter counter;
      std::vector<float> out(static_cast<std::size_t>(lut.cout() * len), 0.f);
      camspec::spec_columns(array, lut, cols.data() + j * array.word_dim() * len, len,
                            1.f, layer.effective_precision(), out.data(), counter, spec.usage);
      spec.ops += counter.totals();
    }
  }
  return specs;
}

/// Walks an exported network in execution order, appending each CAM layer's
/// column spec over the input that layer sees. Activations propagate with
/// the ordinary infer() of each step.
Tensor spec_walk(nn::Module& module, const Tensor& x, nn::InferContext& ctx,
                 std::vector<std::vector<ArraySpec>>& specs) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&module)) {
    Tensor y = x;
    for (std::size_t i = 0; i < seq->size(); ++i) y = spec_walk(seq->layer(i), y, ctx, specs);
    return y;
  }
  if (auto* res = dynamic_cast<nn::Residual*>(&module)) {
    // Same arithmetic as nn::Residual::infer.
    Tensor main_out = spec_walk(res->main(), x, ctx, specs);
    add_(main_out, spec_walk(res->shortcut(), x, ctx, specs));
    if (res->relu_after()) {
      for (std::int64_t i = 0; i < main_out.numel(); ++i) {
        if (main_out[i] < 0.f) main_out[i] = 0.f;
      }
    }
    return main_out;
  }
  if (auto* conv = dynamic_cast<cam::CamConv2d*>(&module)) {
    specs.push_back(column_spec(*conv, x));
  } else if (auto* fc = dynamic_cast<cam::CamLinear*>(&module)) {
    specs.push_back(column_spec(fc->conv(), x.reshaped({x.dim(0), x.dim(1), 1, 1})));
  }
  return module.infer(x, ctx);
}

struct LedgerModel {
  std::string name;
  models::Variant variant;
  Tensor batch;
};

std::unique_ptr<nn::Sequential> ledger_net(const LedgerModel& m) {
  Rng rng(41);
  auto net = m.name == "lenet5" ? models::make_lenet5(m.variant, rng)
                                : models::make_resnet20(m.variant, 10, rng);
  net->set_training(false);
  return net;
}

TEST(BankLedger, FlushedTalliesMatchColumnSpecEverywhere) {
  // Serving charges lane-local tallies and flushes them once per layer
  // chunk. Whatever the lane count and sharding, the network counter, every
  // bank port and every usage histogram must end up exactly where the
  // column-at-a-time spec puts them. ResNet20 runs on 8x8 images to keep the
  // scalar spec cheap; the layers do not care about the spatial size.
  const LedgerModel models_under_test[] = {
      {"lenet5", models::Variant::PecanD, mnist_batch(51, 4)},
      {"lenet5", models::Variant::PecanA, mnist_batch(52, 4)},
      {"resnet20", models::Variant::PecanD, Rng(53).randn({4, 3, 8, 8})},
      {"resnet20", models::Variant::PecanA, Rng(54).randn({4, 3, 8, 8})},
  };
  for (const LedgerModel& m : models_under_test) {
    std::vector<cam::CamPrecision> precisions = {cam::CamPrecision::Float32,
                                                 cam::CamPrecision::Int8};
    if (m.variant == models::Variant::PecanD) precisions.push_back(cam::CamPrecision::Binary);
    for (const cam::CamPrecision precision : precisions) {
      auto spec_net = ledger_net(m);
      cam::CamNetworkExport spec_export = cam::convert_to_cam(*spec_net);
      spec_export.set_precision(precision);
      std::vector<std::vector<ArraySpec>> specs;
      nn::InferContext spec_ctx;
      spec_walk(*spec_export.net, m.batch, spec_ctx, specs);
      ops::OpTotals spec_total;
      for (const std::vector<ArraySpec>& layer : specs) {
        for (const ArraySpec& a : layer) spec_total += a.ops;
      }

      for (const int lanes : {1, 4}) {
        for (const bool sharded : {false, true}) {
          SCOPED_TRACE(m.name + " " + models::variant_name(m.variant) + " " +
                       cam::precision_name(precision) + " lanes=" + std::to_string(lanes) +
                       (sharded ? " sharded" : " unsharded"));
          util::set_global_threads(lanes);
          runtime::EngineConfig config;
          config.path = runtime::ExecPath::Cam;
          config.cam_precision = precision;
          config.shard_samples = sharded ? 1 : m.batch.dim(0);
          runtime::Engine engine(ledger_net(m), config);
          const std::vector<cam::CamConv2d*>& layers = engine.cam_export().cam_layers;
          ASSERT_EQ(layers.size(), specs.size());

          // Deltas over the one forward: whatever compile-time work touched
          // the ledgers is excluded on both sides.
          std::map<const cam::OpCounter*, ops::OpTotals> port_before, port_want;
          std::vector<std::vector<std::vector<std::uint64_t>>> usage_before(layers.size());
          for (std::size_t li = 0; li < layers.size(); ++li) {
            for (std::int64_t j = 0; j < layers[li]->groups(); ++j) {
              const cam::CamArray& array = layers[li]->array(j);
              ASSERT_NE(array.bank_port(), nullptr);
              port_before[array.bank_port()] = array.bank_port()->totals();
              port_want[array.bank_port()] += specs[li][static_cast<std::size_t>(j)].ops;
              usage_before[li].push_back(array.usage());
            }
          }
          const ops::OpTotals net_before = engine.counter()->totals();
          engine.forward_batch(m.batch);
          util::set_global_threads(1);

          EXPECT_TRUE(engine.counter()->totals() == net_before + spec_total);
          for (const auto& [port, want] : port_want) {
            EXPECT_TRUE(port->totals() == port_before[port] + want);
          }
          for (std::size_t li = 0; li < layers.size(); ++li) {
            for (std::int64_t j = 0; j < layers[li]->groups(); ++j) {
              const auto g = static_cast<std::size_t>(j);
              const std::vector<std::uint64_t>& before = usage_before[li][g];
              const std::vector<std::uint64_t>& after = layers[li]->array(j).usage();
              ASSERT_EQ(after.size(), before.size());
              std::vector<std::uint64_t> got(after.size());
              for (std::size_t w = 0; w < after.size(); ++w) got[w] = after[w] - before[w];
              EXPECT_EQ(got, specs[li][g].usage) << layers[li]->name() << " group " << j;
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------ placement bitwise identity

TEST(BankIdentity, AnyBankCountServesBitwiseIdenticalToSingleBank) {
  // The placement only decides which LEDGER the mirrors land in — it must
  // never change what is computed. Each bank count places a fresh export,
  // served with threads on (runs under TSan in CI), against an export that
  // was never placed at all.
  const Tensor batch = mnist_batch(23, 5);
  util::set_global_threads(3);
  auto reference_net = lenet(19);
  const Tensor expected = serve(cam::convert_to_cam(*reference_net), batch);

  for (const std::int64_t banks : {1, 2, 4, 7}) {
    SCOPED_TRACE("banks=" + std::to_string(banks));
    auto net = lenet(19);
    cam::CamNetworkExport exported = cam::convert_to_cam(*net);
    cam::BankMap map(exported, banks);
    expect_bitwise(serve(exported, batch), expected);
  }
  util::set_global_threads(1);
}

TEST(BankIdentity, QuantizedPrecisionsUnaffectedByBankCount) {
  // The quantized paths mirror into the ports too; their outputs must be
  // equally placement-independent.
  const Tensor batch = mnist_batch(29, 4);
  for (const cam::CamPrecision precision : {cam::CamPrecision::Int8, cam::CamPrecision::Binary}) {
    SCOPED_TRACE(cam::precision_name(precision));
    std::vector<Tensor> outs;
    for (const std::int64_t banks : {1, 5}) {
      auto net = lenet(19);
      cam::CamNetworkExport exported = cam::convert_to_cam(*net);
      exported.set_precision(precision);
      cam::BankMap map(exported, banks);
      outs.push_back(serve(exported, batch));
    }
    expect_bitwise(outs[1], outs[0]);
  }
}

// ------------------------------------------------------- match-line noise

TEST(MatchlineNoise, SeededDrawIsDeterministicAndClears) {
  auto net_a = lenet(19);
  auto net_b = lenet(19);
  cam::CamNetworkExport export_a = cam::convert_to_cam(*net_a);
  cam::CamNetworkExport export_b = cam::convert_to_cam(*net_b);
  cam::BankMap map_a(export_a, 3);
  cam::BankMap map_b(export_b, 3);

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

TEST(MatchlineNoise, SeededNoiseIsDeterministicAndPerturbs) {
  const Tensor batch = mnist_batch(37, 4);
  auto net = lenet(19);
  const Tensor clean_out = serve(cam::convert_to_cam(*net), batch);

  const cam::MatchlineNoiseConfig noise{0.5, 77};  // large on purpose: logits must move
  cam::CamNetworkExport export_a = cam::convert_to_cam(*net);
  cam::CamNetworkExport export_b = cam::convert_to_cam(*net);
  cam::BankMap map_a(export_a, 4);
  cam::BankMap map_b(export_b, 4);
  EXPECT_GT(cam::apply_matchline_noise(export_a, map_a, noise).mean_abs_offset, 0.0);
  cam::apply_matchline_noise(export_b, map_b, noise);
  const Tensor out_a = serve(export_a, batch);

  // Same seed => the same device => bitwise-identical noisy serving.
  expect_bitwise(out_a, serve(export_b, batch));

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

/// Argmax agreement over mnist_batch(50..53, 8) between the clean LeNet5-D
/// export and the same export on a 4-bank part whose match lines carry
/// noise of `sigma` at the default seed.
std::int64_t agreement_under_noise(double sigma) {
  auto net = lenet(19);
  const cam::CamNetworkExport clean = cam::convert_to_cam(*net);
  cam::CamNetworkExport noisy = cam::convert_to_cam(*net);
  cam::BankMap map(noisy, 4);
  cam::MatchlineNoiseConfig noise;
  noise.sigma = sigma;
  cam::apply_matchline_noise(noisy, map, noise);
  std::int64_t agree = 0;
  for (std::uint64_t s = 50; s < 54; ++s) {
    const Tensor batch = mnist_batch(s, 8);
    agree += argmax_agreement(serve(noisy, batch), serve(clean, batch));
  }
  return agree;
}

TEST(MatchlineNoise, AgreementWithCleanExportDegradesWithSigma) {
  // The documented tolerance (docs/ARCHITECTURE.md) on the UNTRAINED
  // LeNet-5 smoke model: infinitesimal sigma agrees on every sample,
  // sigma = 1e-4 holds >= 0.85 (measured 29/32 on these seeds), and a 100x
  // worse device must show up (measured 9/32).
  EXPECT_EQ(agreement_under_noise(1e-6), 32);
  const std::int64_t small = agreement_under_noise(1e-4);
  EXPECT_GE(static_cast<double>(small) / 32.0, 0.85);
  EXPECT_LT(agreement_under_noise(1e-2), small);
}

TEST(MatchlineNoise, RejectsNegativeSigmaAndQuantizedExports) {
  {
    auto net = lenet(19);
    cam::CamNetworkExport exported = cam::convert_to_cam(*net);
    cam::BankMap map(exported, 4);
    EXPECT_THROW(cam::apply_matchline_noise(exported, map, {-0.1, 1}), std::invalid_argument);
  }
  // Quantized scans never inject the float match-line offsets, so noise on
  // an Int8/Binary export would silently study a noise-free part.
  for (const cam::CamPrecision precision : {cam::CamPrecision::Int8, cam::CamPrecision::Binary}) {
    SCOPED_TRACE(cam::precision_name(precision));
    auto net = lenet(19);
    cam::CamNetworkExport exported = cam::convert_to_cam(*net);
    exported.set_precision(precision);
    cam::BankMap map(exported, 4);
    EXPECT_THROW(cam::apply_matchline_noise(exported, map, {0.01, 1}), std::invalid_argument);
    for (const cam::CamConv2d* layer : exported.cam_layers) {
      for (std::int64_t j = 0; j < layer->groups(); ++j) {
        EXPECT_TRUE(layer->array(j).matchline_noise().empty());
      }
    }
  }
}

}  // namespace
}  // namespace pecan
