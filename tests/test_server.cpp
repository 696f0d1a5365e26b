// Tests for the multi-model serving front-end: the Server's model table
// (lease ownership across hot-swaps, generations that survive undeploy and
// are never reused, races on one name), and its three acceptance
// guarantees — (a) per-sample results through the Server are bitwise-
// identical to a direct Engine forward for every registered model under >=4
// concurrent client threads, (b) hot-swap during sustained traffic loses no
// request and never mixes old/new weights within one reply, (c) reject-mode
// admission control sheds with a distinct error while accepted requests
// still complete. Plus ModelArtifact failure paths (truncated file, bad
// magic, v1 files, failed deploy).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "runtime/model_artifact.hpp"
#include "runtime/server.hpp"
#include "tensor/rng.hpp"
#include "tensor/serialize.hpp"
#include "util/thread_pool.hpp"

#include "serving_helpers.hpp"

namespace pecan {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------------- helpers

void expect_bitwise(const Tensor& actual, const Tensor& expected, const std::string& what) {
  ASSERT_TRUE(actual.same_shape(expected)) << what;
  for (std::int64_t i = 0; i < actual.numel(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << what << " element " << i;
  }
}

// --------------------------------------------------------------- model table

TEST(Server, DeploySwapUndeployLifecycle) {
  runtime::Server server;
  EXPECT_EQ(server.generation("m"), 0u);  // never deployed
  EXPECT_FALSE(server.has_model("m"));
  EXPECT_THROW(server.lease("m"), runtime::UnknownModelError);
  EXPECT_THROW(server.stats("m"), runtime::UnknownModelError);

  Rng rng(7), data(229);
  const Tensor batch = lenet_batch(data, 2);
  EXPECT_EQ(server.deploy("m", models::make_lenet5(models::Variant::PecanD, rng)), 1u);
  std::shared_ptr<runtime::Engine> first = server.lease("m");
  EXPECT_TRUE(server.has_model("m"));
  EXPECT_EQ(server.models(), std::vector<std::string>{"m"});

  EXPECT_EQ(server.deploy("m", models::make_lenet5(models::Variant::PecanD, rng)), 2u);
  EXPECT_EQ(server.generation("m"), 2u);
  std::shared_ptr<runtime::Engine> second = server.lease("m");
  EXPECT_NE(second, first);
  // The held lease is the retired engine's only owner, and it still serves.
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(first->forward_batch(batch).dim(0), 2);

  server.undeploy("m");
  EXPECT_EQ(second.use_count(), 1);
  EXPECT_FALSE(server.has_model("m"));
  EXPECT_TRUE(server.models().empty());
  EXPECT_THROW(server.lease("m"), runtime::UnknownModelError);
  EXPECT_THROW(server.undeploy("m"), runtime::UnknownModelError);
}

TEST(Server, RedeployAfterUndeployContinuesGeneration) {
  util::set_global_threads(1);
  Rng rng(7), data(233);
  const Tensor batch = lenet_batch(data, 2);
  runtime::EngineConfig config;
  config.max_pending = 1;  // a single-thread burst overruns it

  runtime::Server server;
  ASSERT_EQ(server.deploy("m", models::make_lenet5(models::Variant::PecanD, rng), config), 1u);
  std::vector<std::future<Tensor>> accepted;
  std::uint64_t shed = 0;
  for (int i = 0; i < 1000 && shed == 0; ++i) {
    try {
      accepted.push_back(server.submit("m", nth_sample(batch, i % 2)));
    } catch (const runtime::OverloadedError&) {
      ++shed;
    }
  }
  ASSERT_EQ(shed, 1u);
  for (auto& future : accepted) EXPECT_EQ(future.get().numel(), 10);
  EXPECT_EQ(server.stats("m").shed_total, 1u);

  server.undeploy("m");
  EXPECT_EQ(server.generation("m"), 1u);  // kept, not reset

  EXPECT_EQ(server.deploy("m", models::make_lenet5(models::Variant::PecanD, rng), config), 2u);
  const runtime::ModelServerStats stats = server.stats("m");
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.shed_total, 1u);    // carried over from generation 1
  EXPECT_EQ(stats.engine.shed, 0u);   // the new engine has shed nothing
  EXPECT_EQ(server.generation("m"), 2u);
}

// Two writers hot-swap, undeploy and redeploy one name while three readers
// route through it. Run under TSan: the table's one mutex must order every
// access, each call must either succeed or throw UnknownModelError, and no
// generation may repeat or go backwards.
TEST(Server, ConcurrentSwapUndeployAndReadsOnOneName) {
  util::set_global_threads(1);
  constexpr int kWriters = 2;
  constexpr int kRounds = 6;
  Rng data(239);
  const Tensor batch = lenet_batch(data, 2);

  runtime::Server server;
  std::vector<std::uint64_t> deployed;  // every generation deploy() returned
  std::mutex deployed_mutex;
  const auto deploy = [&](std::uint64_t seed) {
    const std::uint64_t g = server.deploy("m", lenet(seed));
    std::lock_guard<std::mutex> lock(deployed_mutex);
    deployed.push_back(g);
  };
  deploy(7);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> ok{0}, unknown{0}, other{0};
  const auto guarded = [&](auto&& call) {
    try {
      call();
      ok.fetch_add(1);
    } catch (const runtime::UnknownModelError&) {
      unknown.fetch_add(1);
    } catch (...) {
      other.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        guarded([&] { deploy(static_cast<std::uint64_t>(8 + w)); });  // hot-swap
        guarded([&] { server.undeploy("m"); });
        guarded([&] { deploy(static_cast<std::uint64_t>(10 + w)); });  // redeploy
      }
    });
  }
  threads.emplace_back([&] {
    while (!done.load()) {
      guarded([&] { EXPECT_EQ(server.submit("m", nth_sample(batch, 0)).get().numel(), 10); });
    }
  });
  threads.emplace_back([&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      guarded([&] {
        const std::uint64_t g = server.stats("m").generation;
        EXPECT_GE(g, last) << "a reader saw the generation go backwards";
        last = g;
      });
    }
  });
  threads.emplace_back([&] {
    while (!done.load()) {
      guarded([&] {
        const std::vector<std::string> names = server.models();
        EXPECT_TRUE(names.empty() || names == std::vector<std::string>{"m"});
      });
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  done.store(true);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(other.load(), 0u);
  EXPECT_GT(ok.load(), 0u);
  // Generations 1..N were each handed out exactly once, and the table kept
  // counting across every undeploy.
  std::sort(deployed.begin(), deployed.end());
  ASSERT_EQ(deployed.size(), static_cast<std::size_t>(1 + 2 * kWriters * kRounds));
  for (std::size_t i = 0; i < deployed.size(); ++i) EXPECT_EQ(deployed[i], i + 1);
  EXPECT_EQ(server.generation("m"), deployed.back());
}

// ------------------------------------------- (a) multi-model bitwise identity

TEST(Server, ConcurrentClientsBitwiseIdenticalForEveryModel) {
  util::set_global_threads(2);
  // Three models with distinct architectures and execution paths served by
  // ONE process: LeNet5 PECAN-D (float), LeNet5 PECAN-A (CAM export), and
  // ResNet20 Baseline (float).
  runtime::Server server;
  Rng rng_d(7), rng_a(19), rng_r(109);
  server.deploy("lenet-d", models::make_lenet5(models::Variant::PecanD, rng_d));
  server.deploy("lenet-a", models::make_lenet5(models::Variant::PecanA, rng_a),
                {runtime::ExecPath::Cam});
  server.deploy("resnet", models::make_resnet20(models::Variant::Baseline, 10, rng_r));
  EXPECT_EQ(server.models(), (std::vector<std::string>{"lenet-a", "lenet-d", "resnet"}));

  // Reference: a direct Engine forward with identical weights per model.
  struct RefModel {
    std::string name;
    Tensor batch;
    std::vector<Tensor> rows;
  };
  std::vector<RefModel> refs;
  {
    Rng rng(7), data(11);
    runtime::Engine direct(models::make_lenet5(models::Variant::PecanD, rng));
    Tensor batch = lenet_batch(data, 4);
    refs.push_back({"lenet-d", batch, split_rows(direct.forward_batch(batch))});
  }
  {
    Rng rng(19), data(13);
    runtime::Engine direct(models::make_lenet5(models::Variant::PecanA, rng),
                           {runtime::ExecPath::Cam});
    Tensor batch = lenet_batch(data, 4);
    refs.push_back({"lenet-a", batch, split_rows(direct.forward_batch(batch))});
  }
  {
    Rng rng(109), data(17);
    runtime::Engine direct(models::make_resnet20(models::Variant::Baseline, 10, rng));
    Tensor batch = data.randn({2, 3, 32, 32});
    refs.push_back({"resnet", batch, split_rows(direct.forward_batch(batch))});
  }

  constexpr int kClients = 5;  // acceptance requires >= 4
  constexpr int kReps = 3;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int rep = 0; rep < kReps; ++rep) {
        for (const RefModel& ref : refs) {
          // Synchronous batch through the front door...
          std::vector<Tensor> rows = split_rows(server.forward_batch(ref.name, ref.batch));
          ASSERT_EQ(rows.size(), ref.rows.size());
          for (std::size_t s = 0; s < rows.size(); ++s) {
            ASSERT_TRUE(matches(rows[s], ref.rows[s]))
                << ref.name << " forward_batch sample " << s;
          }
          // ...and micro-batched per-sample submits.
          std::vector<std::future<Tensor>> futures;
          for (std::int64_t s = 0; s < ref.batch.dim(0); ++s) {
            futures.push_back(server.submit(ref.name, nth_sample(ref.batch, s)));
          }
          for (std::size_t s = 0; s < futures.size(); ++s) {
            Tensor row = futures[s].get();
            ASSERT_TRUE(matches(row, ref.rows[s])) << ref.name << " submit sample " << s;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  util::set_global_threads(1);

  for (const RefModel& ref : refs) {
    const runtime::ModelServerStats stats = server.stats(ref.name);
    EXPECT_EQ(stats.generation, 1u);
    EXPECT_EQ(stats.shed_total, 0u);
    EXPECT_EQ(stats.engine.shed, 0u);
    EXPECT_EQ(stats.engine.requests,
              static_cast<std::uint64_t>(kClients * kReps * ref.batch.dim(0)));
    EXPECT_EQ(stats.engine.direct_batches, static_cast<std::uint64_t>(kClients * kReps));
    EXPECT_EQ(stats.engine.in_flight, 0);
  }
  EXPECT_THROW(server.submit("unknown", Tensor({1, 28, 28})), runtime::UnknownModelError);
  EXPECT_THROW(server.forward_batch("unknown", Tensor({1, 1, 28, 28})),
               runtime::UnknownModelError);
}

// ---------------------------------------------------- (b) hot-swap under load

TEST(Server, HotSwapLosesNoRequestAndNeverMixesWeights) {
  util::set_global_threads(2);
  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  constexpr std::int64_t kSamples = 4;

  Rng data(211);
  const Tensor batch = lenet_batch(data, kSamples);

  // Two weight generations with visibly different logits.
  std::vector<Tensor> ref_old, ref_new;
  {
    runtime::Engine direct(lenet(7));
    ref_old = split_rows(direct.forward_batch(batch));
  }
  {
    runtime::Engine direct(lenet(8));
    ref_new = split_rows(direct.forward_batch(batch));
  }
  for (std::int64_t s = 0; s < kSamples; ++s) {
    ASSERT_FALSE(matches(ref_old[static_cast<std::size_t>(s)],
                         ref_new[static_cast<std::size_t>(s)]))
        << "generations must be distinguishable";
  }

  runtime::Server server;
  server.deploy("m", lenet(7));

  std::atomic<std::uint64_t> submitted{0}, served{0}, matched_old{0}, matched_new{0},
      mixed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < kPerClient; ++r) {
        const std::int64_t s = r % kSamples;
        std::future<Tensor> future = server.submit("m", nth_sample(batch, s));
        submitted.fetch_add(1);
        // No exception path: block-mode, unbounded queue, never undeployed —
        // every accepted request must be answered with real logits.
        Tensor row = future.get();
        served.fetch_add(1);
        const bool is_old = matches(row, ref_old[static_cast<std::size_t>(s)]);
        const bool is_new = matches(row, ref_new[static_cast<std::size_t>(s)]);
        if (is_old) matched_old.fetch_add(1);
        if (is_new) matched_new.fetch_add(1);
        if (!is_old && !is_new) mixed.fetch_add(1);
      }
    });
  }

  // Swap generations repeatedly while the traffic runs: 7 -> 8 -> 7 -> 8.
  std::uint64_t generation = 1;
  for (const std::uint64_t seed : {8u, 7u, 8u}) {
    std::this_thread::sleep_for(5ms);
    generation = server.deploy("m", lenet(seed));
  }
  for (std::thread& t : clients) t.join();
  util::set_global_threads(1);

  EXPECT_EQ(generation, 4u);
  EXPECT_EQ(server.generation("m"), 4u);
  // (b) part one: sustained traffic across three hot-swaps, zero losses.
  EXPECT_EQ(submitted.load(), static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(served.load(), submitted.load());
  // (b) part two: every reply is ENTIRELY one generation's weights.
  EXPECT_EQ(mixed.load(), 0u);
  EXPECT_EQ(matched_old.load() + matched_new.load(), served.load());

  const runtime::ModelServerStats stats = server.stats("m");
  EXPECT_EQ(stats.generation, 4u);
  EXPECT_EQ(stats.shed_total, 0u);
  // The final generation (seed 8) is the one serving now.
  const std::vector<Tensor> final_rows = split_rows(server.forward_batch("m", batch));
  for (std::size_t s = 0; s < final_rows.size(); ++s) {
    ASSERT_TRUE(matches(final_rows[s], ref_new[s])) << "post-swap sample " << s;
  }
}

// ------------------------------------------------- (c) admission control

TEST(Server, RejectModeShedsWithDistinctErrorWhileAcceptedComplete) {
  util::set_global_threads(1);
  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  constexpr std::int64_t kSamples = 4;

  Rng data(307);
  const Tensor batch = lenet_batch(data, kSamples);
  std::vector<Tensor> ref;
  {
    runtime::Engine direct(lenet(7));
    ref = split_rows(direct.forward_batch(batch));
  }

  runtime::Server server;
  runtime::EngineConfig config;
  config.max_pending = 1;  // tiny pending queue: bursts must shed, batches hold one sample
  server.deploy("m", lenet(7), config);

  std::atomic<std::uint64_t> shed{0}, accepted{0}, correct{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<std::pair<std::int64_t, std::future<Tensor>>> futures;
      for (int r = 0; r < kPerClient; ++r) {
        const std::int64_t s = r % kSamples;
        try {
          futures.emplace_back(s, server.submit("m", nth_sample(batch, s)));
          accepted.fetch_add(1);
        } catch (const runtime::OverloadedError&) {
          shed.fetch_add(1);  // the distinct shed error — "try again later"
        }
      }
      for (auto& [s, future] : futures) {
        Tensor row = future.get();  // accepted requests always complete...
        if (matches(row, ref[static_cast<std::size_t>(s)])) correct.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // A 200-submit burst against a 1-deep queue must shed, and everything
  // accepted must still be answered bitwise-correctly.
  EXPECT_GT(shed.load(), 0u);
  EXPECT_GT(accepted.load(), 0u);
  EXPECT_EQ(shed.load() + accepted.load(), static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(correct.load(), accepted.load());

  const runtime::ModelServerStats stats = server.stats("m");
  EXPECT_EQ(stats.shed_total, shed.load());
  EXPECT_EQ(stats.engine.shed, shed.load());
  EXPECT_EQ(stats.engine.requests, accepted.load());
  EXPECT_EQ(stats.engine.queue_depth, 0);  // all drained
}

// ------------------------------------------------------- undeploy semantics

TEST(Server, UndeployStopsRoutingAndDrainsInFlight) {
  Rng rng(7), data(331);
  runtime::Server server;
  server.deploy("m", models::make_lenet5(models::Variant::PecanD, rng));
  const Tensor batch = lenet_batch(data, 2);

  std::vector<std::future<Tensor>> futures;
  for (std::int64_t s = 0; s < 2; ++s) {
    futures.push_back(server.submit("m", nth_sample(batch, s)));
  }
  server.undeploy("m");
  // Already-accepted requests drain on the retired engine: real logits.
  for (auto& future : futures) EXPECT_EQ(future.get().numel(), 10);
  EXPECT_FALSE(server.has_model("m"));
  EXPECT_THROW(server.submit("m", nth_sample(batch, 0)), runtime::UnknownModelError);
  EXPECT_THROW(server.stats("m"), runtime::UnknownModelError);
  EXPECT_THROW(server.undeploy("m"), runtime::UnknownModelError);
}

// ------------------------------------------- deploy failure leaves old model

TEST(Server, FailedDeployKeepsOldModelServingAndRegistryUnchanged) {
  Rng rng(7), data(337);
  const Tensor batch = lenet_batch(data, 2);

  auto trained = models::make_lenet5(models::Variant::PecanD, rng);
  trained->set_training(false);
  const runtime::ModelArtifact good =
      runtime::make_artifact("lenet5", models::Variant::PecanD, 10, *trained);

  runtime::Server server;
  server.deploy("m", good);
  const std::vector<Tensor> ref = split_rows(server.forward_batch("m", batch));

  // Failure 1: a weight tensor is missing from the artifact.
  runtime::ModelArtifact missing_weight = good;
  missing_weight.weights.erase(missing_weight.weights.begin());
  EXPECT_THROW(server.deploy("m", missing_weight), std::runtime_error);

  // Failure 2: PQ-config drift (artifact trained against different presets).
  runtime::ModelArtifact drifted = good;
  drifted.pq_configs.begin()->second = "mode=distance;p=999;d=999;tau=0.5";
  EXPECT_THROW(server.deploy("m", drifted), std::runtime_error);

  // Failure 3: unknown model family.
  runtime::ModelArtifact alien = good;
  alien.model = "alexnet";
  EXPECT_THROW(server.deploy("m", alien), std::invalid_argument);

  // The model table is untouched: same generation, same weights, still serving.
  EXPECT_EQ(server.generation("m"), 1u);
  EXPECT_EQ(server.models(), std::vector<std::string>{"m"});
  EXPECT_EQ(server.stats("m").generation, 1u);
  const std::vector<Tensor> after = split_rows(server.forward_batch("m", batch));
  for (std::size_t s = 0; s < ref.size(); ++s) {
    ASSERT_TRUE(matches(after[s], ref[s])) << "old model must keep serving, sample " << s;
  }
}

// ------------------------------------------------ ModelArtifact failure paths

void write_bytes(const std::string& path, const void* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
}

TEST(ModelArtifact, TruncatedFileThrowsCleanly) {
  Rng rng(7);
  auto net = models::make_lenet5(models::Variant::PecanD, rng);
  const runtime::ModelArtifact artifact =
      runtime::make_artifact("lenet5", models::Variant::PecanD, 10, *net);
  const std::string path = "/tmp/pecan_truncated_artifact.bin";
  runtime::save_artifact(path, artifact);

  // Truncate at several depths: inside the metadata block, inside a tensor
  // header, and inside tensor data. Every cut must throw, never crash or
  // return a partial artifact.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 1000u);
  for (const std::size_t keep :
       {std::size_t{6}, std::size_t{40}, bytes.size() / 2, bytes.size() - 1}) {
    write_bytes(path, bytes.data(), keep);
    EXPECT_THROW(runtime::load_artifact(path), std::runtime_error) << "kept " << keep << " bytes";
  }
  std::remove(path.c_str());
}

TEST(ModelArtifact, BadMagicThrows) {
  const std::string path = "/tmp/pecan_bad_magic.bin";
  const char junk[] = "NOPE this is not a PECAN tensor file, not even close";
  write_bytes(path, junk, sizeof junk);
  try {
    runtime::load_artifact(path);
    FAIL() << "expected bad-magic error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(ModelArtifact, V1FileLoadsAsTensorsButIsNotAnArtifact) {
  // Hand-written v1 file: magic | version=1 | u64 count | per tensor:
  // u32 name_len | name | u32 ndim | i64 dims | f32 data (no metadata
  // block, no explicit numel — the pre-artifact checkpoint format).
  const std::string path = "/tmp/pecan_v1_checkpoint.bin";
  {
    std::ofstream out(path, std::ios::binary);
    const auto pod = [&out](const auto& v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof v);
    };
    out.write("PCAN", 4);
    pod(std::uint32_t{1});  // version 1
    pod(std::uint64_t{1});  // one tensor
    pod(std::uint32_t{1});  // name length
    out.write("w", 1);
    pod(std::uint32_t{2});  // ndim
    pod(std::int64_t{2});
    pod(std::int64_t{2});
    for (float v : {1.0f, 2.0f, 3.0f, 4.0f}) pod(v);
  }

  // The tensor loader still reads v1 checkpoints...
  TensorFile file = load_tensor_file(path);
  EXPECT_TRUE(file.meta.empty());
  ASSERT_EQ(file.tensors.count("w"), 1u);
  EXPECT_EQ(file.tensors.at("w").shape(), (Shape{2, 2}));
  EXPECT_EQ(file.tensors.at("w")[3], 4.0f);

  // ...but a v1 file carries no architecture metadata, so loading it as a
  // model artifact must fail loudly (missing artifact.format), not rebuild
  // a wrong network.
  try {
    runtime::load_artifact(path);
    FAIL() << "expected missing-metadata error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("artifact.format"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(Server, StatsReportCamPrecisionAcrossHotSwap) {
  Rng rng(301);
  auto trained = models::make_lenet5(models::Variant::PecanD, rng);
  trained->set_training(false);
  // Bake int8 into the artifact: a Float32 CAM config must adopt it.
  const runtime::ModelArtifact artifact = runtime::make_artifact(
      "lenet5", models::Variant::PecanD, 10, *trained, cam::CamPrecision::Int8);

  runtime::Server server;
  runtime::EngineConfig config;
  config.path = runtime::ExecPath::Cam;
  server.deploy("m", artifact, config);
  EXPECT_EQ(server.stats("m").cam_precision, cam::CamPrecision::Int8);

  // Hold a lease on generation 1 across the swap: the old engine keeps its
  // operating point until the last lease drops, while stats() flips
  // atomically with the generation.
  std::shared_ptr<runtime::Engine> old_lease = server.lease("m");
  runtime::EngineConfig binary_config = config;
  binary_config.cam_precision = cam::CamPrecision::Binary;
  const std::uint64_t generation = server.deploy("m", artifact, binary_config);
  EXPECT_EQ(generation, 2u);
  EXPECT_EQ(server.stats("m").cam_precision, cam::CamPrecision::Binary);
  EXPECT_EQ(old_lease->cam_precision(), cam::CamPrecision::Int8);

  // Both generations still answer real requests at their own precision.
  Rng data(307);
  Tensor batch = data.randn({1, 1, 28, 28});
  EXPECT_EQ(server.forward_batch("m", batch).dim(1), 10);
  EXPECT_EQ(old_lease->forward_batch(batch).dim(1), 10);
  old_lease.reset();  // drop the last gen-1 lease; old engine unloads here
  EXPECT_EQ(server.stats("m").cam_precision, cam::CamPrecision::Binary);
}

}  // namespace
}  // namespace pecan
