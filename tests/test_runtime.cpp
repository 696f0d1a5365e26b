// Tests for the serving runtime: ThreadPool, atomic op counting, the
// ModelArtifact round-trip, and the Engine's batched-vs-sequential bitwise
// equivalence guarantees (both execution paths, both PECAN flavors).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cam/convert.hpp"
#include "core/introspect.hpp"
#include "data/synthetic.hpp"
#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "nn/batchnorm.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "runtime/engine.hpp"
#include "runtime/model_artifact.hpp"
#include "tensor/rng.hpp"
#include "util/thread_pool.hpp"

#include "serving_helpers.hpp"

namespace pecan {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRunsInlineBelowGrain) {
  util::ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(
      0, 8,
      [&](std::int64_t i0, std::int64_t i1) {
        // Single inline call receives the whole range.
        EXPECT_EQ(i0, 0);
        EXPECT_EQ(i1, 8);
        ran = true;
      },
      /*grain=*/64);
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, NestedParallelForDegradesInline) {
  util::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      pool.parallel_for(0, 10, [&](std::int64_t j0, std::int64_t j1) {
        total.fetch_add(static_cast<int>(j1 - j0));
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::int64_t i0, std::int64_t) {
                                   if (i0 > 0) throw std::runtime_error("chunk failure");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsValueAndRethrows) {
  util::ThreadPool pool(2);
  auto ok = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(ok.get(), 42);
  auto bad = pool.submit([]() -> int { throw std::logic_error("task failure"); });
  EXPECT_THROW(bad.get(), std::logic_error);
}

TEST(ThreadPool, OpCounterStaysExactUnderThreads) {
  util::ThreadPool pool(4);
  cam::OpCounter counter;
  constexpr std::int64_t kIncrements = 20000;
  pool.parallel_for(0, kIncrements, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      counter.adds.fetch_add(1, std::memory_order_relaxed);
      counter.cam_searches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(counter.adds.load(), static_cast<std::uint64_t>(kIncrements));
  EXPECT_EQ(counter.cam_searches.load(), static_cast<std::uint64_t>(kIncrements));
  counter.reset();
  EXPECT_EQ(counter.adds.load(), 0u);
}

// ------------------------------------------------------------------ helpers

/// Per-sample forward through `net` (the sequential serving baseline).
std::vector<Tensor> forward_per_sample(nn::Module& net, const Tensor& batch) {
  const std::int64_t n = batch.dim(0);
  const std::int64_t sample_numel = batch.numel() / n;
  std::vector<Tensor> outputs;
  for (std::int64_t s = 0; s < n; ++s) {
    Tensor sample({1, batch.dim(1), batch.dim(2), batch.dim(3)});
    std::copy(batch.data() + s * sample_numel, batch.data() + (s + 1) * sample_numel,
              sample.data());
    outputs.push_back(net.forward(sample));
  }
  return outputs;
}

void expect_bitwise_rows(const Tensor& batched, const std::vector<Tensor>& rows) {
  const std::int64_t n = batched.dim(0);
  ASSERT_EQ(n, static_cast<std::int64_t>(rows.size()));
  const std::int64_t row_numel = batched.numel() / n;
  for (std::int64_t s = 0; s < n; ++s) {
    ASSERT_EQ(rows[static_cast<std::size_t>(s)].numel(), row_numel);
    for (std::int64_t i = 0; i < row_numel; ++i) {
      // EXPECT_EQ, not NEAR: batching must be bit-exact.
      EXPECT_EQ(batched[s * row_numel + i], rows[static_cast<std::size_t>(s)][i])
          << "sample " << s << " element " << i;
    }
  }
}

// ------------------------------------------------- batched-vs-sequential

class EngineEquivalence : public ::testing::TestWithParam<models::Variant> {};

TEST_P(EngineEquivalence, FloatPathBatchedMatchesSequential) {
  Rng rng(7);
  auto reference = models::make_lenet5(GetParam(), rng);
  reference->set_training(false);
  Rng rng2(7);
  auto served = models::make_lenet5(GetParam(), rng2);  // identical weights

  Rng data_rng(11);
  Tensor batch = lenet_batch(data_rng, 5);
  std::vector<Tensor> rows = forward_per_sample(*reference, batch);

  util::set_global_threads(3);
  runtime::Engine engine(std::move(served));
  Tensor batched = engine.forward_batch(batch);
  util::set_global_threads(1);
  expect_bitwise_rows(batched, rows);
}

TEST_P(EngineEquivalence, CamPathBatchedMatchesSequential) {
  Rng rng(19);
  auto trained = models::make_lenet5(GetParam(), rng);
  trained->set_training(false);

  cam::CamNetworkExport reference = cam::convert_to_cam(*trained);
  Rng data_rng(23);
  Tensor batch = lenet_batch(data_rng, 3);
  std::vector<Tensor> rows = forward_per_sample(*reference.net, batch);

  util::set_global_threads(3);
  runtime::Engine engine(std::move(trained), {runtime::ExecPath::Cam});
  Tensor batched = engine.forward_batch(batch);
  util::set_global_threads(1);
  expect_bitwise_rows(batched, rows);
  ASSERT_NE(engine.counter(), nullptr);
  EXPECT_GT(engine.counter()->cam_searches.load(), 0u);
  if (GetParam() == models::Variant::PecanD) {
    // "Truly multiplier-free DNN": the invariant must hold when the CAM
    // executor runs multi-threaded too.
    EXPECT_EQ(engine.counter()->muls.load(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, EngineEquivalence,
                         ::testing::Values(models::Variant::PecanA, models::Variant::PecanD),
                         [](const auto& info) {
                           return info.param == models::Variant::PecanA ? "PecanA" : "PecanD";
                         });

// ------------------------------------------------------------ micro-batching

TEST(Engine, SubmitReturnsSameLogitsAsDirectForward) {
  Rng rng(31);
  auto reference = models::make_lenet5(models::Variant::PecanD, rng);
  reference->set_training(false);
  Rng rng2(31);
  auto served = models::make_lenet5(models::Variant::PecanD, rng2);

  Rng data_rng(37);
  Tensor batch = lenet_batch(data_rng, 6);
  std::vector<Tensor> rows = forward_per_sample(*reference, batch);

  runtime::Engine engine(std::move(served));
  // More samples than one micro-batch holds.
  constexpr std::int64_t kSubmits = runtime::kMaxBatch + 4;
  std::vector<std::future<Tensor>> futures;
  for (std::int64_t s = 0; s < kSubmits; ++s) {
    futures.push_back(engine.submit(nth_sample(batch, s % 6)));
  }
  for (std::int64_t s = 0; s < kSubmits; ++s) {
    Tensor logits = futures[static_cast<std::size_t>(s)].get();
    const Tensor& row = rows[static_cast<std::size_t>(s % 6)];
    ASSERT_EQ(logits.numel(), row.numel());
    for (std::int64_t i = 0; i < logits.numel(); ++i) EXPECT_EQ(logits[i], row[i]);
  }
  // shutdown() joins the batcher, making the stats final before reading.
  engine.shutdown();
  const runtime::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kSubmits));
  EXPECT_EQ(stats.batched_samples, static_cast<std::uint64_t>(kSubmits));
  // Submit-path accounting: one END-TO-END latency sample per sample.
  EXPECT_EQ(stats.latency_samples, static_cast<std::uint64_t>(kSubmits));
  EXPECT_GE(stats.batches, 2u);  // kMaxBatch forces at least two batches
  EXPECT_THROW(engine.submit(Tensor({1, 28, 28})), std::runtime_error);
}

TEST(Engine, RejectsNonSampleSubmissions) {
  Rng rng(41);
  runtime::Engine engine(models::make_lenet5(models::Variant::PecanD, rng));
  EXPECT_THROW(engine.submit(Tensor({28, 28})), std::invalid_argument);
}

TEST(Engine, FlattensPlanAcrossContainers) {
  Rng rng(43);
  runtime::Engine engine(models::make_lenet5(models::Variant::PecanD, rng));
  // LeNet5: conv1, relu, pool, conv2, relu, pool, flatten, fc1, relu, fc2,
  // relu, fc3 = 12 steps.
  EXPECT_EQ(engine.plan_size(), 12);
}

// --------------------------------------------- SLO scheduler + priorities

// Satellite fix: EngineStats percentiles come from a bounded sliding window,
// so a long-running engine reports CURRENT tail latency. After a spike of
// slow requests, enough fast ones must fully displace it.
TEST(EngineSlo, PercentilesRecoverAfterLoadSpike) {
  util::set_global_threads(1);
  Rng rng(211);
  runtime::Engine engine(models::make_lenet5(models::Variant::PecanD, rng));

  Rng data_rng(223);
  const Tensor spike = lenet_batch(data_rng, 32);  // 32x the work per request
  const Tensor fast = lenet_batch(data_rng, 1);
  // 16 spikes: over the 1040 samples of the whole run, the lifetime p99
  // (sorted index floor(0.99 * 1039) = 1028) would still be a spike, so only
  // a window that forgets passes the check below.
  constexpr int kSpikes = 16;
  for (int i = 0; i < kSpikes; ++i) engine.forward_batch(spike);
  const double p99_spike = engine.stats().p99_ms;
  EXPECT_GT(p99_spike, 0.0);

  // The engine's window holds the last 1024 samples: a full window of fast
  // forwards displaces every spike sample.
  constexpr int kWindow = 1024;
  for (int i = 0; i < kWindow; ++i) engine.forward_batch(fast);
  const runtime::EngineStats after = engine.stats();
  EXPECT_EQ(after.latency_samples, std::uint64_t{kSpikes + kWindow});
  // The window has fully turned over: the spike is gone from the
  // percentiles, not averaged into lifetime history. 32x less work per
  // request leaves a wide margin.
  EXPECT_LT(after.p99_ms, p99_spike * 0.5);
  EXPECT_LE(after.p50_ms, after.p99_ms);
}

// With an unreachable SLO the controller must back the effective batch size
// down to its floor — and the outputs must stay
// bitwise-identical while it does (the controller only moves batching
// boundaries, never the math).
TEST(EngineSlo, ControllerShrinksBatchUnderSloPressureBitwiseIdentical) {
  Rng rng(233);
  auto reference = models::make_lenet5(models::Variant::PecanD, rng);
  reference->set_training(false);
  Rng rng2(233);
  auto served = models::make_lenet5(models::Variant::PecanD, rng2);

  Rng data_rng(239);
  const Tensor batch = lenet_batch(data_rng, 4);
  std::vector<Tensor> rows = forward_per_sample(*reference, batch);

  runtime::EngineConfig config;
  config.slo_target_ms = 1e-6;  // unreachable: every windowed p99 breaches it
  runtime::Engine engine(std::move(served), config);
  EXPECT_EQ(engine.stats().eff_max_batch, runtime::kMaxBatch);  // controller starts at the bound

  std::vector<std::future<Tensor>> futures;
  for (int r = 0; r < 32; ++r) {
    futures.push_back(engine.submit(nth_sample(batch, r % 4)));
  }
  for (int r = 0; r < 32; ++r) {
    Tensor logits = futures[static_cast<std::size_t>(r)].get();
    const Tensor& ref = rows[static_cast<std::size_t>(r % 4)];
    ASSERT_EQ(logits.numel(), ref.numel());
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
      EXPECT_EQ(logits[i], ref[i]) << "request " << r;
    }
  }
  engine.shutdown();
  const runtime::EngineStats stats = engine.stats();
  // 32 requests against a micro-ms SLO: the multiplicative decrease reaches
  // the floor (8 -> 4 -> 2 -> 1 takes three post-window batches; at least
  // 24 batches ran after the 8-sample window filled).
  EXPECT_EQ(stats.eff_max_batch, 1);
  EXPECT_EQ(stats.requests, 32u);
}

TEST(EngineSlo, ControllerGrowthStopsAtMaxBatch) {
  // A loose SLO with a deep queue takes the growth branch after every
  // batch once the window fills; kMaxBatch is its ceiling, so the effective
  // batch size never leaves its start value.
  Rng rng(241);
  runtime::EngineConfig config;
  config.slo_target_ms = 1e6;  // always comfortably under: grow whenever deep
  runtime::Engine engine(models::make_lenet5(models::Variant::PecanD, rng), config);

  Rng data_rng(251);
  const Tensor batch = lenet_batch(data_rng, 4);
  constexpr int kBurst = 64;
  std::vector<std::future<Tensor>> futures;
  for (int r = 0; r < kBurst; ++r) futures.push_back(engine.submit(nth_sample(batch, r % 4)));
  for (std::future<Tensor>& f : futures) f.get();
  engine.shutdown();

  const runtime::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(stats.eff_max_batch, runtime::kMaxBatch);
}

// --------------------------------------------------- concurrent serving

/// Hammer forward_batch() from several client threads and require every
/// result to stay bitwise-identical to the single-threaded per-sample
/// forward — the tentpole guarantee of the stateless infer() path.
void hammer_concurrent_clients(runtime::Engine& engine, const Tensor& batch,
                               const std::vector<Tensor>& rows, int clients, int reps) {
  std::vector<Tensor> results(static_cast<std::size_t>(clients * reps));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < reps; ++r) {
        results[static_cast<std::size_t>(c * reps + r)] = engine.forward_batch(batch);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Tensor& out : results) expect_bitwise_rows(out, rows);
}

TEST_P(EngineEquivalence, FloatPathConcurrentClientsBitwiseIdentical) {
  Rng rng(83);
  auto reference = models::make_lenet5(GetParam(), rng);
  reference->set_training(false);
  Rng rng2(83);
  auto served = models::make_lenet5(GetParam(), rng2);

  Rng data_rng(89);
  Tensor batch = lenet_batch(data_rng, 4);
  std::vector<Tensor> rows = forward_per_sample(*reference, batch);

  util::set_global_threads(3);
  runtime::Engine engine(std::move(served));
  hammer_concurrent_clients(engine, batch, rows, /*clients=*/4, /*reps=*/4);
  const runtime::EngineStats stats = engine.stats();
  util::set_global_threads(1);
  EXPECT_EQ(stats.direct_batches, 16u);
  EXPECT_EQ(stats.in_flight, 0);  // all drained
  EXPECT_GE(stats.peak_in_flight, 1);
  EXPECT_GE(stats.contexts, 1);
  // With auto batch sharding each client's forward can lease one context
  // per shard, so the context pool is no longer bounded by the client
  // count alone. 4 clients x 3 lanes (set_global_threads(3) = caller + 2
  // workers) = 12 is the per-call worst case; the tighter live bound is
  // the threads that can run an execution at once (4 clients + 2 workers).
  EXPECT_LE(stats.contexts, 4 * 3);
  EXPECT_GT(stats.p99_ms, 0.0);
  EXPECT_LE(stats.p50_ms, stats.p99_ms);
  // Latency percentiles cover parent requests only: 16 forward_batch calls
  // produced exactly 16 samples no matter how many shards they spawned.
  EXPECT_EQ(stats.latency_samples, 16u);
}

TEST_P(EngineEquivalence, CamPathConcurrentClientsBitwiseIdentical) {
  Rng rng(97);
  auto trained = models::make_lenet5(GetParam(), rng);
  trained->set_training(false);

  cam::CamNetworkExport reference = cam::convert_to_cam(*trained);
  Rng data_rng(101);
  Tensor batch = lenet_batch(data_rng, 3);
  std::vector<Tensor> rows = forward_per_sample(*reference.net, batch);

  util::set_global_threads(3);
  runtime::Engine engine(std::move(trained), {runtime::ExecPath::Cam});
  hammer_concurrent_clients(engine, batch, rows, /*clients=*/4, /*reps=*/2);
  util::set_global_threads(1);
  ASSERT_NE(engine.counter(), nullptr);
  if (GetParam() == models::Variant::PecanD) {
    EXPECT_EQ(engine.counter()->muls.load(), 0u);
  }
}

TEST(EngineConcurrency, ConcurrentSubmitAndForwardBatchAgree) {
  // Mixed workload: direct batches and micro-batched submits in flight at
  // once; both must match the sequential reference bitwise.
  Rng rng(103);
  auto reference = models::make_lenet5(models::Variant::PecanD, rng);
  reference->set_training(false);
  Rng rng2(103);
  auto served = models::make_lenet5(models::Variant::PecanD, rng2);

  Rng data_rng(107);
  Tensor batch = lenet_batch(data_rng, 4);
  std::vector<Tensor> rows = forward_per_sample(*reference, batch);
  const std::int64_t sample_numel = batch.numel() / 4;

  util::set_global_threads(3);
  runtime::Engine engine(std::move(served));
  std::vector<std::future<Tensor>> futures;
  std::thread direct([&] {
    for (int r = 0; r < 4; ++r) expect_bitwise_rows(engine.forward_batch(batch), rows);
  });
  for (std::int64_t s = 0; s < 4; ++s) {
    Tensor sample({1, 28, 28});
    std::copy(batch.data() + s * sample_numel, batch.data() + (s + 1) * sample_numel,
              sample.data());
    futures.push_back(engine.submit(std::move(sample)));
  }
  for (std::int64_t s = 0; s < 4; ++s) {
    Tensor logits = futures[static_cast<std::size_t>(s)].get();
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
      EXPECT_EQ(logits[i], rows[static_cast<std::size_t>(s)][i]);
    }
  }
  direct.join();
  util::set_global_threads(1);
}

TEST(EngineConcurrency, ResNetServingPlanMatchesEvalForward) {
  // Residual / BatchNorm / GAP / option-A shortcuts through the stateless
  // plan — the layers the LeNet tests don't reach.
  Rng rng(109);
  auto reference = models::make_resnet20(models::Variant::Baseline, 10, rng);
  reference->set_training(false);
  Rng rng2(109);
  auto served = models::make_resnet20(models::Variant::Baseline, 10, rng2);

  Rng data_rng(113);
  Tensor batch = data_rng.randn({2, 3, 32, 32});
  Tensor expected = reference->forward(batch);

  util::set_global_threads(3);
  runtime::Engine engine(std::move(served));
  Tensor out = engine.forward_batch(batch);
  util::set_global_threads(1);
  ASSERT_TRUE(out.same_shape(expected));
  for (std::int64_t i = 0; i < out.numel(); ++i) EXPECT_EQ(out[i], expected[i]);
}

// ------------------------------------------------------- batch sharding

/// Usage histograms of every CAM layer/group, flattened for comparison.
std::vector<std::vector<std::uint64_t>> collect_usage(runtime::Engine& engine) {
  std::vector<std::vector<std::uint64_t>> usage;
  for (const cam::CamConv2d* layer : engine.cam_export().cam_layers) {
    for (std::int64_t j = 0; j < layer->groups(); ++j) usage.push_back(layer->usage(j));
  }
  return usage;
}

/// Sharded forward_batch must be bitwise-identical to the unsharded run —
/// outputs, OpCounter totals, and per-word usage histograms — at any
/// thread count and shard size. This is THE guarantee that makes
/// shard_samples a pure performance knob.
TEST(EngineSharding, CamShardedMatchesUnshardedBitwise) {
  constexpr std::int64_t kBatch = 5;
  Rng data_rng(151);
  const Tensor batch = lenet_batch(data_rng, kBatch);
  for (const int threads : {1, 3, 7}) {
    util::set_global_threads(threads);
    for (const models::Variant variant : {models::Variant::PecanA, models::Variant::PecanD}) {
      runtime::EngineConfig reference_config;
      reference_config.path = runtime::ExecPath::Cam;
      reference_config.shard_samples = kBatch;  // >= N: stays one execution
      Rng rng(157);
      runtime::Engine reference(models::make_lenet5(variant, rng), reference_config);
      const Tensor expected = reference.forward_batch(batch);
      const std::uint64_t ref_adds = reference.counter()->adds.load();
      const std::uint64_t ref_muls = reference.counter()->muls.load();
      const std::uint64_t ref_searches = reference.counter()->cam_searches.load();
      const auto ref_usage = collect_usage(reference);
      EXPECT_EQ(reference.stats().sharded_batches, 0u);

      for (const std::int64_t shard : {std::int64_t{0}, std::int64_t{1}, std::int64_t{3}}) {
        runtime::EngineConfig config = reference_config;
        config.shard_samples = shard;
        Rng rng2(157);
        runtime::Engine engine(models::make_lenet5(variant, rng2), config);
        const Tensor out = engine.forward_batch(batch);
        ASSERT_TRUE(out.same_shape(expected));
        for (std::int64_t i = 0; i < out.numel(); ++i) {
          ASSERT_EQ(expected[i], out[i])
              << "variant=" << models::variant_name(variant) << " threads=" << threads
              << " shard=" << shard << " i=" << i;
        }
        EXPECT_EQ(ref_adds, engine.counter()->adds.load()) << "shard=" << shard;
        EXPECT_EQ(ref_muls, engine.counter()->muls.load()) << "shard=" << shard;
        EXPECT_EQ(ref_searches, engine.counter()->cam_searches.load()) << "shard=" << shard;
        EXPECT_EQ(ref_usage, collect_usage(engine))
            << "usage drift at threads=" << threads << " shard=" << shard;

        const runtime::EngineStats stats = engine.stats();
        if (shard == 1) {
          // 5 single-sample shards from one parent request.
          EXPECT_EQ(stats.sharded_batches, 1u);
          EXPECT_EQ(stats.shard_executions, 5u);
        }
        EXPECT_EQ(stats.direct_batches, 1u);
      }
    }
  }
  util::set_global_threads(1);
}

TEST(EngineSharding, FloatShardedMatchesUnshardedBitwise) {
  constexpr std::int64_t kBatch = 6;
  Rng data_rng(163);
  const Tensor batch = lenet_batch(data_rng, kBatch);
  for (const int threads : {1, 3, 7}) {
    util::set_global_threads(threads);
    runtime::EngineConfig reference_config;
    reference_config.shard_samples = kBatch;
    Rng rng(167);
    runtime::Engine reference(models::make_lenet5(models::Variant::PecanD, rng), reference_config);
    const Tensor expected = reference.forward_batch(batch);
    for (const std::int64_t shard : {std::int64_t{0}, std::int64_t{1}, std::int64_t{3}}) {
      runtime::EngineConfig config = reference_config;
      config.shard_samples = shard;
      Rng rng2(167);
      runtime::Engine engine(models::make_lenet5(models::Variant::PecanD, rng2), config);
      const Tensor out = engine.forward_batch(batch);
      ASSERT_TRUE(out.same_shape(expected));
      for (std::int64_t i = 0; i < out.numel(); ++i) {
        ASSERT_EQ(expected[i], out[i]) << "threads=" << threads << " shard=" << shard << " i=" << i;
      }
    }
  }
  util::set_global_threads(1);
}

TEST(EngineSharding, LatencyAttributedToParentRequest) {
  // 3 parent requests x 6 shards each: the latency window must hold exactly
  // 3 samples (sharding must not inflate the percentile stats), while the
  // shard counters expose the fan-out.
  Rng rng(173);
  runtime::EngineConfig config;
  config.shard_samples = 1;
  runtime::Engine engine(models::make_lenet5(models::Variant::PecanD, rng), config);
  Rng data_rng(179);
  const Tensor batch = lenet_batch(data_rng, 6);
  for (int r = 0; r < 3; ++r) engine.forward_batch(batch);
  const runtime::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.direct_batches, 3u);
  EXPECT_EQ(stats.latency_samples, 3u);
  EXPECT_EQ(stats.sharded_batches, 3u);
  EXPECT_EQ(stats.shard_executions, 18u);
  EXPECT_GT(stats.p99_ms, 0.0);
}

TEST(EngineSharding, RejectsNegativeShardSamples) {
  Rng rng(181);
  runtime::EngineConfig config;
  config.shard_samples = -1;
  EXPECT_THROW(runtime::Engine(models::make_lenet5(models::Variant::PecanD, rng), config),
               std::invalid_argument);
}

TEST(EngineSharding, PrewarmedEngineServesWithoutArenaGrowth) {
  // from_artifact knows the input geometry, so its warm-up forward sizes
  // the first context: a fresh Float-path engine (PecanConv2d matching
  // draws im2col / assignment scratch from the arena) reports non-zero
  // scratch before any request, and serving a request at the warmed
  // geometry grows nothing.
  Rng rng(191);
  auto trained = models::make_lenet5(models::Variant::PecanD, rng);
  trained->set_training(false);
  runtime::ModelArtifact artifact =
      runtime::make_artifact("lenet5", models::Variant::PecanD, 10, *trained);
  auto engine = runtime::Engine::from_artifact(artifact);
  EXPECT_GT(engine->stats().scratch_bytes, 0);
  Rng data_rng(193);
  Tensor sample = data_rng.randn({1, 1, 28, 28});
  const std::int64_t warmed = engine->stats().scratch_bytes;
  engine->forward_batch(sample);
  EXPECT_EQ(engine->stats().scratch_bytes, warmed);
}

TEST(EngineSharding, PrewarmResetsOpCounterAndUsage) {
  // The CAM-path warm-up forward is not traffic: the op counter and the §5
  // usage histograms it touched must read zero on a fresh engine, then
  // count normally once real requests arrive.
  Rng rng(195);
  auto trained = models::make_lenet5(models::Variant::PecanD, rng);
  trained->set_training(false);
  runtime::ModelArtifact artifact =
      runtime::make_artifact("lenet5", models::Variant::PecanD, 10, *trained);
  auto engine = runtime::Engine::from_artifact(artifact, {runtime::ExecPath::Cam});
  EXPECT_EQ(engine->counter()->cam_searches.load(), 0u);
  EXPECT_EQ(engine->counter()->adds.load(), 0u);
  for (const auto& group_usage : collect_usage(*engine)) {
    for (const std::uint64_t count : group_usage) EXPECT_EQ(count, 0u);
  }
  Rng data_rng(197);
  engine->forward_batch(data_rng.randn({1, 1, 28, 28}));
  EXPECT_GT(engine->counter()->cam_searches.load(), 0u);
}

// ----------------------------------------------- submit validation + races

TEST(Engine, RejectsZeroElementSubmissionsUpFront) {
  // Built from a bare network (no artifact geometry): a [0,28,28] sample
  // used to reach the batcher thread and poison its whole micro-batch.
  Rng rng(127);
  runtime::Engine engine(models::make_lenet5(models::Variant::PecanD, rng));
  EXPECT_THROW(engine.submit(Tensor({0, 28, 28})), std::invalid_argument);
  EXPECT_THROW(engine.submit(Tensor({1, 0, 28})), std::invalid_argument);
  EXPECT_THROW(engine.forward_batch(Tensor({0, 1, 28, 28})), std::invalid_argument);
  EXPECT_THROW(engine.forward_batch(Tensor()), std::invalid_argument);
}

TEST(Engine, ShutdownDuringConcurrentSubmitsNeverBreaksPromises) {
  Rng rng(131);
  runtime::Engine engine(models::make_lenet5(models::Variant::PecanD, rng));
  constexpr int kClients = 4;
  constexpr int kPerClient = 24;

  std::atomic<std::uint64_t> served{0}, rejected{0}, failed_cleanly{0}, broken{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      Rng data_rng(137);
      std::vector<std::future<Tensor>> futures;
      for (int r = 0; r < kPerClient; ++r) {
        try {
          futures.push_back(engine.submit(data_rng.randn({1, 28, 28})));
        } catch (const std::runtime_error&) {
          rejected.fetch_add(1);  // clean post-shutdown rejection
        }
      }
      for (auto& future : futures) {
        try {
          Tensor logits = future.get();
          if (logits.numel() == 10) served.fetch_add(1);
        } catch (const std::future_error&) {
          broken.fetch_add(1);  // broken promise — the bug this test guards
        } catch (const std::exception&) {
          failed_cleanly.fetch_add(1);
        }
      }
    });
  }
  // Race shutdown against the submitters; some requests land before it,
  // some after.
  engine.shutdown();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(broken.load(), 0u);
  EXPECT_EQ(served.load() + rejected.load() + failed_cleanly.load(),
            static_cast<std::uint64_t>(kClients * kPerClient));
  // Post-shutdown, submits keep throwing cleanly and forward_batch works.
  EXPECT_THROW(engine.submit(Tensor({1, 28, 28})), std::runtime_error);
  EXPECT_EQ(engine.forward_batch(Tensor({1, 1, 28, 28})).dim(1), 10);
}

TEST(Engine, ConcurrentShutdownCallsAreSafe) {
  Rng rng(139);
  runtime::Engine engine(models::make_lenet5(models::Variant::PecanD, rng));
  engine.submit(Rng(141).randn({1, 28, 28})).get();
  std::vector<std::thread> closers;
  for (int i = 0; i < 4; ++i) closers.emplace_back([&] { engine.shutdown(); });
  for (std::thread& t : closers) t.join();
  EXPECT_THROW(engine.submit(Tensor({1, 28, 28})), std::runtime_error);
}

// ----------------------------------------------------------- ModelArtifact

TEST(ModelArtifact, SaveLoadBuildReproducesLogitsBitwise) {
  Rng rng(53);
  auto trained = models::make_lenet5(models::Variant::PecanD, rng);
  trained->set_training(false);
  Rng data_rng(59);
  Tensor batch = lenet_batch(data_rng, 2);
  Tensor expected = trained->forward(batch);

  runtime::ModelArtifact artifact =
      runtime::make_artifact("lenet5", models::Variant::PecanD, 10, *trained);
  const std::string path = "/tmp/pecan_artifact_test.bin";
  runtime::save_artifact(path, artifact);

  runtime::ModelArtifact loaded = runtime::load_artifact(path);
  EXPECT_EQ(loaded.model, "lenet5");
  EXPECT_EQ(loaded.variant, models::Variant::PecanD);
  EXPECT_EQ(loaded.num_classes, 10);
  EXPECT_EQ(loaded.in_channels, 1);
  EXPECT_EQ(loaded.pq_configs.size(), 5u);  // conv1, conv2, fc1-3

  auto rebuilt = runtime::build_network(loaded);
  Tensor actual = rebuilt->forward(batch);
  ASSERT_TRUE(actual.same_shape(expected));
  for (std::int64_t i = 0; i < actual.numel(); ++i) EXPECT_EQ(actual[i], expected[i]);
  std::remove(path.c_str());
}

TEST(ModelArtifact, EngineFromArtifactServesCamPath) {
  Rng rng(61);
  auto trained = models::make_lenet5(models::Variant::PecanA, rng);
  trained->set_training(false);
  runtime::ModelArtifact artifact =
      runtime::make_artifact("lenet5", models::Variant::PecanA, 10, *trained);
  const std::string path = "/tmp/pecan_artifact_cam_test.bin";
  runtime::save_artifact(path, artifact);

  cam::CamNetworkExport reference = cam::convert_to_cam(*trained);
  Rng data_rng(67);
  Tensor batch = lenet_batch(data_rng, 2);
  std::vector<Tensor> rows = forward_per_sample(*reference.net, batch);

  auto engine = runtime::Engine::from_artifact(runtime::load_artifact(path),
                                               {runtime::ExecPath::Cam});
  expect_bitwise_rows(engine->forward_batch(batch), rows);
  std::remove(path.c_str());
}

TEST(ModelArtifact, EngineValidatesInputGeometryFromArtifact) {
  Rng rng(79);
  auto net = models::make_lenet5(models::Variant::PecanD, rng);
  runtime::ModelArtifact artifact =
      runtime::make_artifact("lenet5", models::Variant::PecanD, 10, *net);
  const std::string path = "/tmp/pecan_artifact_geom_test.bin";
  runtime::save_artifact(path, artifact);
  auto engine = runtime::Engine::from_artifact(runtime::load_artifact(path));
  // Wrong geometry is rejected synchronously, before queuing — a bad
  // sample must not poison a coalesced micro-batch.
  EXPECT_THROW(engine->submit(Tensor({3, 32, 32})), std::invalid_argument);
  EXPECT_THROW(engine->forward_batch(Tensor({1, 3, 32, 32})), std::invalid_argument);
  Tensor ok = engine->forward_batch(Tensor({1, 1, 28, 28}));
  EXPECT_EQ(ok.dim(1), 10);
  std::remove(path.c_str());
}

TEST(ModelArtifact, RejectsNonArtifactFiles) {
  const std::string path = "/tmp/pecan_not_an_artifact.bin";
  save_tensors(path, {{"weight", Tensor({2, 2})}});
  EXPECT_THROW(runtime::load_artifact(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelArtifact, RejectsUnknownModelFamily) {
  Rng rng(71);
  auto net = models::make_lenet5(models::Variant::PecanD, rng);
  EXPECT_THROW(runtime::make_artifact("alexnet", models::Variant::PecanD, 10, *net),
               std::invalid_argument);
}

TEST(ModelArtifact, StoresNoDerivedKeysAndServesWithFamilyGeometry) {
  Rng rng(101);
  auto net = models::make_lenet5(models::Variant::PecanD, rng);
  const std::string path = "/tmp/pecan_artifact_keys_test.bin";
  runtime::save_artifact(path, runtime::make_artifact("lenet5", models::Variant::PecanD, 10, *net));

  // Geometry follows from the family and the operating point from the
  // deploy config, so neither is written.
  const TensorFile file = load_tensor_file(path);
  for (const auto& [key, value] : file.meta) {
    EXPECT_NE(key.rfind("input.", 0), 0u) << key;
    EXPECT_NE(key, "cam.precision");
  }
  const runtime::ModelArtifact loaded = runtime::load_artifact(path);
  EXPECT_EQ((Shape{loaded.in_channels, loaded.in_height, loaded.in_width}), (Shape{1, 28, 28}));
  auto engine = runtime::Engine::from_artifact(loaded);
  EXPECT_EQ(engine->forward_batch(Tensor({1, 1, 28, 28})).dim(1), 10);
  EXPECT_THROW(engine->forward_batch(Tensor({1, 3, 32, 32})), std::invalid_argument);
  EXPECT_THROW(engine->submit(Tensor({3, 32, 32})), std::invalid_argument);

  // The 32x32 RGB families derive their own geometry the same way.
  Rng resnet_rng(103);
  auto resnet = models::make_resnet20(models::Variant::Baseline, 10, resnet_rng);
  const runtime::ModelArtifact rgb =
      runtime::make_artifact("resnet20", models::Variant::Baseline, 10, *resnet);
  EXPECT_EQ((Shape{rgb.in_channels, rgb.in_height, rgb.in_width}), (Shape{3, 32, 32}));

  // An artifact of the previous format — the one that stored these keys —
  // is refused by its format tag, so a baked precision is never dropped
  // silently.
  MetaMap old_meta = file.meta;
  old_meta["artifact.format"] = "pecan.model_artifact.v1";
  old_meta["cam.precision"] = "int8";
  save_tensors(path, file.tensors, old_meta);
  try {
    runtime::load_artifact(path);
    FAIL() << "expected an unsupported-format error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported artifact format"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ModelArtifact, MetadataIntegerMustSpanItsValue) {
  Rng rng(107);
  auto net = models::make_lenet5(models::Variant::PecanD, rng);
  const std::string path = "/tmp/pecan_artifact_int_test.bin";
  runtime::save_artifact(path, runtime::make_artifact("lenet5", models::Variant::PecanD, 10, *net));
  const TensorFile file = load_tensor_file(path);
  for (const std::string bad : {"10abc", "10 ", "", "ten"}) {
    MetaMap meta = file.meta;
    meta["num_classes"] = bad;
    save_tensors(path, file.tensors, meta);
    try {
      runtime::load_artifact(path);
      FAIL() << "expected '" << bad << "' to be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("not an integer"), std::string::npos) << e.what();
    }
  }
  save_tensors(path, file.tensors, file.meta);
  EXPECT_EQ(runtime::load_artifact(path).num_classes, 10);
  std::remove(path.c_str());
}

// ---------------------------------------------------- quantized operating point

TEST(ModelArtifact, EngineConfigAloneDecidesCamPrecision) {
  Rng rng(83);
  auto trained = models::make_lenet5(models::Variant::PecanD, rng);
  trained->set_training(false);
  const std::string path = "/tmp/pecan_artifact_precision_test.bin";
  runtime::save_artifact(path,
                         runtime::make_artifact("lenet5", models::Variant::PecanD, 10, *trained));
  const runtime::ModelArtifact loaded = runtime::load_artifact(path);
  std::remove(path.c_str());

  // The artifact carries no operating point to defer to: every precision,
  // Float32 included, is the config's, and every one serves.
  Rng data_rng(89);
  const Tensor batch = lenet_batch(data_rng, 2);
  for (const cam::CamPrecision precision :
       {cam::CamPrecision::Float32, cam::CamPrecision::Int8, cam::CamPrecision::Binary}) {
    runtime::EngineConfig config;
    config.path = runtime::ExecPath::Cam;
    config.cam_precision = precision;
    auto engine = runtime::Engine::from_artifact(loaded, config);
    EXPECT_EQ(engine->cam_precision(), precision);
    const Tensor logits = engine->forward_batch(batch);
    EXPECT_EQ(logits.dim(1), 10);
    for (std::int64_t i = 0; i < logits.numel(); ++i) ASSERT_TRUE(std::isfinite(logits[i]));
  }

  // Float32 is the bitwise spec: the loaded artifact serves the rows of a
  // direct export of the trained network.
  cam::CamNetworkExport reference = cam::convert_to_cam(*trained);
  auto float_engine = runtime::Engine::from_artifact(loaded, {runtime::ExecPath::Cam});
  expect_bitwise_rows(float_engine->forward_batch(batch),
                      forward_per_sample(*reference.net, batch));

  // Quantized CAM search on the float path is a configuration error.
  runtime::EngineConfig bad;
  bad.path = runtime::ExecPath::Float;
  bad.cam_precision = cam::CamPrecision::Int8;
  EXPECT_THROW(runtime::Engine::from_artifact(loaded, bad), std::invalid_argument);
}

TEST(ModelArtifact, QuantizedPrecisionDeltasStayWithinBudget) {
  // End-to-end accuracy check of the quantized operating points on a
  // TRAINED model (random weights would hide real quantization damage
  // behind chance-level accuracy): int8 must track the float CAM path
  // within 0.5 pt. The binary sign-plane is the capacity extreme — one bit
  // per component through every CAM layer, with no binarization-aware
  // training — so its documented budget is coarse: within 60 pt of float
  // AND at least 3x the 10-class chance rate, i.e. the thresholded plane
  // must retain real class information (a zero-information plane serves
  // chance-level ~10%; see README "Performance" for the measured points).
  Rng rng(97);
  auto split = data::generate_split(data::mnist_like_spec(), 240, 80);
  auto model = models::make_lenet5(models::Variant::PecanD, rng);
  Rng km(41);
  pq::kmeans_calibrate(*model, data::take(split.train, 48).images, 5, km);
  nn::Adam opt(model->parameters(), 2e-3);
  nn::DatasetView train{&split.train.images, &split.train.labels};
  nn::DatasetView test{&split.test.images, &split.test.labels};
  nn::TrainConfig train_config;
  train_config.epochs = 6;
  train_config.batch_size = 8;
  train_config.shuffle_seed = 11;
  train_config.evaluate_each_epoch = false;
  nn::fit(*model, opt, train, test, train_config);
  model->set_training(false);

  const runtime::ModelArtifact artifact =
      runtime::make_artifact("lenet5", models::Variant::PecanD, 10, *model);
  const auto accuracy_at = [&](cam::CamPrecision precision) {
    runtime::EngineConfig config;
    config.path = runtime::ExecPath::Cam;
    config.cam_precision = precision;
    auto engine = runtime::Engine::from_artifact(artifact, config);
    return nn::accuracy_percent(engine->forward_batch(split.test.images), split.test.labels);
  };
  const double float_acc = accuracy_at(cam::CamPrecision::Float32);
  const double int8_acc = accuracy_at(cam::CamPrecision::Int8);
  const double binary_acc = accuracy_at(cam::CamPrecision::Binary);
  std::printf("[operating points] float=%.2f%% int8=%.2f%% binary=%.2f%%\n", float_acc, int8_acc,
              binary_acc);

  EXPECT_GT(float_acc, 50.0);  // the trained model must actually work
  EXPECT_GE(int8_acc, float_acc - 0.5) << "float=" << float_acc << " int8=" << int8_acc;
  EXPECT_GE(binary_acc, float_acc - 60.0) << "float=" << float_acc << " binary=" << binary_acc;
  EXPECT_GE(binary_acc, 30.0) << "binary plane lost class information: " << binary_acc;
}

// ------------------------------------------------------------------ buffers

TEST(Buffers, BatchNormRunningStatsSurviveStateDict) {
  nn::BatchNorm2d bn("bn", 3);
  Rng rng(73);
  bn.forward(rng.randn({4, 3, 5, 5}));  // training step updates running stats
  TensorMap state = bn.state_dict();
  ASSERT_TRUE(state.count("bn.running_mean"));
  ASSERT_TRUE(state.count("bn.running_var"));

  nn::BatchNorm2d restored("bn", 3);
  restored.load_state_dict(state);
  for (std::int64_t c = 0; c < 3; ++c) {
    EXPECT_EQ(restored.running_mean()[c], bn.running_mean()[c]);
    EXPECT_EQ(restored.running_var()[c], bn.running_var()[c]);
  }
}

TEST(Buffers, MissingRunningStatThrows) {
  // state_dict() always writes buffers, so a state map without one is a
  // wrong file, not an old one: loading it must not keep stale statistics.
  nn::BatchNorm2d bn("bn", 3);
  TensorMap state = bn.state_dict();
  ASSERT_EQ(state.erase("bn.running_mean"), 1u);
  nn::BatchNorm2d restored("bn", 3);
  try {
    restored.load_state_dict(state);
    FAIL() << "expected a missing-buffer error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bn.running_mean"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace pecan
