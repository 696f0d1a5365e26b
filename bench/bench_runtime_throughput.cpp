// Serving-engine throughput/latency bench.
//
// Measures, for LeNet5 and VGG-Small in both PECAN execution paths:
//   * sequential baseline: per-sample forward() at 1 thread (the seed's
//     serving story) — images/sec;
//   * batched + threaded: runtime::Engine::forward_batch at --threads —
//     images/sec and the speedup over the baseline;
//   * micro-batched serving: Engine::submit request stream — p50/p99
//     end-to-end latency and the average coalesced batch size;
//   * concurrent-clients sweep: 1/2/4/8 threads calling forward_batch()
//     simultaneously — images/sec and scaling vs one client. Before the
//     stateless infer() path this was flat (every forward serialized on a
//     single engine mutex); now each client leases its own InferContext.
//   * multi-model server sweep: ONE runtime::Server serving LeNet5-D
//     (float) and LeNet5-A (CAM) concurrently — per-model images/sec and
//     latency with 1/2/4 clients per model, plus a reject-mode overload row
//     that reports shed counts.
//   * SLO open-loop sweep: 8 submit() clients driving a reject-mode server
//     at 2x its measured capacity on COORDINATED-OMISSION-FREE Poisson (and
//     bursty) arrival schedules — each client's sender follows its
//     pre-computed schedule no matter how far completions lag, and every
//     latency is measured from the request's SCHEDULED arrival, so a stall
//     penalizes the tail instead of pausing the workload (mirroring
//     bench_net_throughput's open loop). Run once with a fixed batching
//     config and once with the adaptive SLO controller + 4 priority
//     classes (2 high-priority clients, 6 low): the slo/... rows record
//     fixed-vs-adaptive p99, the high-vs-low priority gap, and which class
//     the sheds landed on — the rows bench/check_bench.py gates (absolute
//     p99 ceilings + ratio floors) against BENCH_runtime.json.
//
// --json <path> writes every row (img/s, p50/p99 ms, shed counts) as a
// machine-readable file; CI uploads it next to BENCH_kernels.json.
// --smoke shrinks every knob to CI size (and implies --skip-vgg).
//
// Weights are randomly initialized — arithmetic cost is shape-determined,
// so trained weights would time identically. Defaults are sized for a CI
// smoke run; scale --lenet-samples / --vgg-samples / --latency-requests up
// for stable numbers. The speedup column only shows hardware parallelism
// when the machine has it (flagged when hardware_concurrency < --threads).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "models/lenet.hpp"
#include "models/vgg_small.hpp"
#include "runtime/engine.hpp"
#include "runtime/server.hpp"
#include "tensor/rng.hpp"
#include "util/bounded_queue.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace pecan;

/// One machine-readable result row for --json. Fields < 0 are omitted.
struct JsonRow {
  std::string name;  ///< e.g. "lenet5-D/float/serve" or "server/c4/lenet5-A"
  double img_per_s = -1;
  double speedup = -1;
  double p50_ms = -1;
  double p99_ms = -1;
  double avg_batch = -1;
  long long shed = -1;  ///< admission-control sheds (-1 = not applicable)
};

std::vector<JsonRow> g_json_rows;

void write_json(const std::string& path, int threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_runtime_throughput: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"runtime_throughput\",\n  \"threads\": %d,\n", threads);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < g_json_rows.size(); ++i) {
    const JsonRow& r = g_json_rows[i];
    std::fprintf(f, "    {\"name\": \"%s\"", r.name.c_str());
    if (r.img_per_s >= 0) std::fprintf(f, ", \"img_per_s\": %.4g", r.img_per_s);
    if (r.speedup >= 0) std::fprintf(f, ", \"speedup\": %.3g", r.speedup);
    if (r.p50_ms >= 0) std::fprintf(f, ", \"p50_ms\": %.4g", r.p50_ms);
    if (r.p99_ms >= 0) std::fprintf(f, ", \"p99_ms\": %.4g", r.p99_ms);
    if (r.avg_batch >= 0) std::fprintf(f, ", \"avg_batch\": %.3g", r.avg_batch);
    if (r.shed >= 0) std::fprintf(f, ", \"shed\": %lld", r.shed);
    std::fprintf(f, "}%s\n", i + 1 < g_json_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

struct ModelSpec {
  const char* name;
  const char* family;
  models::Variant variant;
  std::int64_t c, h, w;
  std::int64_t samples;
};

std::unique_ptr<nn::Sequential> build(const ModelSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  if (std::string(spec.family) == "lenet5") return models::make_lenet5(spec.variant, rng);
  return models::make_vgg_small(spec.variant, /*num_classes=*/10, rng);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  return values[index];
}

void run_spec(const ModelSpec& spec, runtime::ExecPath path, int threads, std::int64_t batch,
              std::int64_t latency_requests) {
  Rng data_rng(1234);
  const Tensor inputs = data_rng.randn({spec.samples, spec.c, spec.h, spec.w});
  const std::int64_t sample_numel = spec.c * spec.h * spec.w;
  const char* path_name = path == runtime::ExecPath::Float ? "float" : "cam";

  // Sequential baseline: one sample at a time, one thread.
  util::set_global_threads(1);
  double base_s;
  {
    runtime::Engine engine(build(spec, 99), {path, /*max_batch=*/1});
    util::Timer timer;
    for (std::int64_t s = 0; s < spec.samples; ++s) {
      Tensor sample({1, spec.c, spec.h, spec.w});
      std::copy(inputs.data() + s * sample_numel, inputs.data() + (s + 1) * sample_numel,
                sample.data());
      engine.forward_batch(sample);
    }
    base_s = timer.elapsed_s();
  }
  const double base_ips = static_cast<double>(spec.samples) / base_s;

  // Batched + threaded.
  util::set_global_threads(threads);
  double thr_s;
  {
    runtime::Engine engine(build(spec, 99), {path, batch});
    util::Timer timer;
    for (std::int64_t s0 = 0; s0 < spec.samples; s0 += batch) {
      const std::int64_t b = std::min(batch, spec.samples - s0);
      Tensor chunk({b, spec.c, spec.h, spec.w});
      std::copy(inputs.data() + s0 * sample_numel, inputs.data() + (s0 + b) * sample_numel,
                chunk.data());
      engine.forward_batch(chunk);
    }
    thr_s = timer.elapsed_s();
  }
  const double thr_ips = static_cast<double>(spec.samples) / thr_s;

  // Micro-batched request stream: submit single samples, collect futures.
  std::vector<double> latencies_ms;
  double avg_batch = 0.0;
  {
    runtime::Engine engine(build(spec, 99), {path, batch, std::chrono::microseconds(500)});
    std::vector<std::chrono::steady_clock::time_point> starts;
    std::vector<std::future<Tensor>> futures;
    starts.reserve(static_cast<std::size_t>(latency_requests));
    for (std::int64_t r = 0; r < latency_requests; ++r) {
      const std::int64_t s = r % spec.samples;
      Tensor sample({spec.c, spec.h, spec.w});
      std::copy(inputs.data() + s * sample_numel, inputs.data() + (s + 1) * sample_numel,
                sample.data());
      starts.push_back(std::chrono::steady_clock::now());
      futures.push_back(engine.submit(std::move(sample)));
    }
    for (std::size_t r = 0; r < futures.size(); ++r) {
      futures[r].get();
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - starts[r])
              .count());
    }
    engine.shutdown();
    const runtime::EngineStats stats = engine.stats();
    avg_batch = stats.batches == 0 ? 0.0
                                   : static_cast<double>(stats.batched_samples) /
                                         static_cast<double>(stats.batches);
    // Cam path: the request stream above also fed the exact energy ledger —
    // surface joules-per-inference and the bank spread alongside latency.
    if (stats.energy_pj > 0.0) {
      double bank_min = -1.0, bank_max = -1.0;
      for (const cam::BankStats& b : stats.banks) {
        const double e = b.energy_pj;
        if (bank_min < 0 || e < bank_min) bank_min = e;
        if (e > bank_max) bank_max = e;
      }
      std::printf("%-10s %-6s energy %.1f nJ/inf over %zu banks (per-bank %.0f..%.0f pJ)\n",
                  spec.name, path_name, stats.energy_per_inference_nj, stats.banks.size(),
                  bank_min, bank_max);
    }
  }

  std::printf("%-10s %-6s %8.2f %10.2f %7.2fx %9.1f %9.1f %7.1f\n", spec.name, path_name,
              base_ips, thr_ips, thr_ips / base_ips, percentile(latencies_ms, 0.50),
              percentile(latencies_ms, 0.99), avg_batch);
  std::fflush(stdout);

  const std::string prefix = std::string(spec.name) + "/" + path_name;
  JsonRow base_row;
  base_row.name = prefix + "/base";
  base_row.img_per_s = base_ips;
  g_json_rows.push_back(base_row);
  JsonRow thr_row;
  thr_row.name = prefix + "/batched";
  thr_row.img_per_s = thr_ips;
  thr_row.speedup = thr_ips / base_ips;
  g_json_rows.push_back(thr_row);
  JsonRow serve_row;
  serve_row.name = prefix + "/serve";
  serve_row.p50_ms = percentile(latencies_ms, 0.50);
  serve_row.p99_ms = percentile(latencies_ms, 0.99);
  serve_row.avg_batch = avg_batch;
  serve_row.shed = 0;  // unbounded queue: the request stream never sheds
  g_json_rows.push_back(serve_row);
}

/// Concurrent-clients sweep: `clients` threads each push `rounds` batches
/// of size `batch` through ONE engine at the same time. With the stateless
/// infer() path the engine admits them all in parallel; the row reports
/// aggregate images/sec and the scaling factor over the 1-client run.
void run_concurrent_sweep(const ModelSpec& spec, runtime::ExecPath path, std::int64_t batch,
                          std::int64_t rounds) {
  const char* path_name = path == runtime::ExecPath::Float ? "float" : "cam";
  Rng data_rng(4321);
  const Tensor chunk = data_rng.randn({batch, spec.c, spec.h, spec.w});

  double one_client_ips = 0.0;
  for (const int clients : {1, 2, 4, 8}) {
    runtime::Engine engine(build(spec, 99), {path, batch});
    engine.forward_batch(chunk);  // warm the per-worker context arenas
    util::Timer timer;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (std::int64_t r = 0; r < rounds; ++r) engine.forward_batch(chunk);
      });
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = timer.elapsed_s();
    const double ips = static_cast<double>(clients * rounds * batch) / elapsed;
    if (clients == 1) one_client_ips = ips;
    const runtime::EngineStats stats = engine.stats();
    std::printf("%-10s %-6s %7d %10.2f %7.2fx %9.2f %9.2f %5lld\n", spec.name, path_name, clients,
                ips, ips / one_client_ips, stats.p50_ms, stats.p99_ms,
                static_cast<long long>(stats.peak_in_flight));
    std::fflush(stdout);

    JsonRow row;
    row.name = std::string(spec.name) + "/" + path_name + "/clients" + std::to_string(clients);
    row.img_per_s = ips;
    row.speedup = ips / one_client_ips;
    row.p50_ms = stats.p50_ms;
    row.p99_ms = stats.p99_ms;
    g_json_rows.push_back(row);
  }
}

/// Batch-sharding sweep: ONE client pushing whole batches of N samples
/// through forward_batch, with EngineConfig::shard_samples swept over
/// {none (=N, a single in-flight execution), auto (0, one shard per pool
/// lane), 1, 4, 16}. The speedup column is sharded img/s over the
/// unsharded row at the same N — the measured value of letting one big
/// request use the client-level parallelism the stateless path already
/// gives separate clients. These rows are the ones bench/check_bench.py
/// gates against the checked-in BENCH_runtime.json (the sharded/unsharded
/// ratio is measured on one machine in one process, so it is stable where
/// absolute img/s is not — though it does scale with the machine's core
/// count, hence the generous 0.5x floor).
void run_shard_sweep(int threads, std::int64_t rounds) {
  util::set_global_threads(threads);
  Rng data_rng(6021);
  const ModelSpec spec{"lenet5-D", "lenet5", models::Variant::PecanD, 1, 28, 28, 0};
  const std::int64_t sample_numel = 28 * 28;
  const Tensor pool_inputs = data_rng.randn({256, 1, 28, 28});

  std::printf("\nbatch-sharding sweep (1 client, forward_batch, %d threads):\n", threads);
  std::printf("%-10s %6s %7s %10s %9s\n", "model", "batch", "shard", "img/s", "speedup");

  struct Setting {
    const char* label;
    std::int64_t shard_of_n;  ///< -1 = use N (unsharded baseline)
  };
  const Setting settings[] = {{"none", -1}, {"auto", 0}, {"1", 1}, {"4", 4}, {"16", 16}};
  for (const std::int64_t n : {std::int64_t{8}, std::int64_t{64}, std::int64_t{256}}) {
    Tensor chunk({n, 1, 28, 28});
    std::copy(pool_inputs.data(), pool_inputs.data() + n * sample_numel, chunk.data());
    const std::int64_t reps = std::max<std::int64_t>(1, rounds * 512 / n);
    double none_ips = 0.0;
    for (const Setting& setting : settings) {
      // A shard size >= N degenerates to the unsharded path: measuring it
      // would gate baseline-vs-baseline noise as a "sharding" result.
      if (setting.shard_of_n >= n) continue;
      runtime::EngineConfig config;
      config.shard_samples = setting.shard_of_n < 0 ? n : setting.shard_of_n;
      runtime::Engine engine(build(spec, 99), config);
      engine.forward_batch(chunk);  // warm the per-shard context arenas
      util::Timer timer;
      for (std::int64_t r = 0; r < reps; ++r) engine.forward_batch(chunk);
      const double ips = static_cast<double>(n * reps) / timer.elapsed_s();
      if (setting.shard_of_n < 0) none_ips = ips;
      const double speedup = none_ips > 0 ? ips / none_ips : -1;
      std::printf("%-10s %6lld %7s %10.2f %8.2fx\n", spec.name, static_cast<long long>(n),
                  setting.label, ips, speedup);
      std::fflush(stdout);

      JsonRow row;
      row.name = std::string("shard/") + spec.name + "/N" + std::to_string(n) + "/" +
                 setting.label;
      row.img_per_s = ips;
      if (setting.shard_of_n >= 0) row.speedup = speedup;
      g_json_rows.push_back(row);
    }
  }
}

/// Multi-model server sweep: ONE Server serving LeNet5-D (float path) and
/// LeNet5-A (CAM path) at once, each hammered by its own client threads via
/// submit(). Reports per-model aggregate images/sec and the engines' own
/// p50/p99, then overloads a reject-mode redeploy to show admission-control
/// shedding (the queue-depth/shed stats surface in action).
void run_server_sweep(std::int64_t requests_per_client, std::int64_t max_batch) {
  Rng data_rng(5150);
  const Tensor samples = data_rng.randn({8, 1, 28, 28});
  const std::int64_t sample_numel = 28 * 28;
  const auto nth = [&](std::int64_t s) {
    Tensor sample({1, 28, 28});
    std::copy(samples.data() + (s % 8) * sample_numel, samples.data() + (s % 8 + 1) * sample_numel,
              sample.data());
    return sample;
  };
  const auto build_lenet = [](models::Variant variant) {
    Rng rng(99);
    return models::make_lenet5(variant, rng);
  };

  runtime::EngineConfig config;
  config.max_batch = max_batch;
  config.batch_wait = std::chrono::microseconds(200);
  runtime::EngineConfig cam_config = config;
  cam_config.path = runtime::ExecPath::Cam;

  std::printf("\nmulti-model server sweep (2 models, submit() streams, %lld req/client):\n",
              static_cast<long long>(requests_per_client));
  std::printf("%-10s %-6s %7s %10s %9s %9s %6s\n", "model", "path", "clients", "img/s", "p50 ms",
              "p99 ms", "shed");

  const char* names[2] = {"lenet5-D", "lenet5-A"};
  const char* paths[2] = {"float", "cam"};
  for (const int clients_per_model : {1, 2, 4}) {
    // Fresh server per phase: engine stats and latency windows start clean,
    // so each row's p50/p99 covers only its own client count.
    runtime::Server server;
    server.deploy("lenet5-D", build_lenet(models::Variant::PecanD), config);
    server.deploy("lenet5-A", build_lenet(models::Variant::PecanA), cam_config);

    // Per-model elapsed = when ITS last client finishes (the two models
    // run concurrently but at very different speeds; a shared join window
    // would understate the faster one).
    std::vector<double> finish(static_cast<std::size_t>(2 * clients_per_model), 0.0);
    util::Timer timer;
    std::vector<std::thread> threads;
    for (int m = 0; m < 2; ++m) {
      for (int c = 0; c < clients_per_model; ++c) {
        threads.emplace_back([&, m, c] {
          std::vector<std::future<Tensor>> futures;
          futures.reserve(static_cast<std::size_t>(requests_per_client));
          for (std::int64_t r = 0; r < requests_per_client; ++r) {
            futures.push_back(server.submit(names[m], nth(r)));
          }
          for (auto& future : futures) future.get();
          finish[static_cast<std::size_t>(m * clients_per_model + c)] = timer.elapsed_s();
        });
      }
    }
    for (std::thread& t : threads) t.join();

    for (int m = 0; m < 2; ++m) {
      double elapsed_m = 0.0;
      for (int c = 0; c < clients_per_model; ++c) {
        elapsed_m = std::max(elapsed_m,
                             finish[static_cast<std::size_t>(m * clients_per_model + c)]);
      }
      const double ips =
          static_cast<double>(clients_per_model * requests_per_client) / elapsed_m;
      const runtime::ModelServerStats stats = server.stats(names[m]);
      std::printf("%-10s %-6s %7d %10.2f %9.2f %9.2f %6llu\n", names[m], paths[m],
                  clients_per_model, ips, stats.engine.p50_ms, stats.engine.p99_ms,
                  static_cast<unsigned long long>(stats.shed_total));
      std::fflush(stdout);
      JsonRow row;
      row.name = std::string("server/") + names[m] + "/clients" + std::to_string(clients_per_model);
      row.img_per_s = ips;
      row.p50_ms = stats.engine.p50_ms;
      row.p99_ms = stats.engine.p99_ms;
      row.shed = static_cast<long long>(stats.shed_total);
      g_json_rows.push_back(row);
    }
  }

  // Overload row: a reject-mode deploy with a tiny pending queue, bursted —
  // the shed column is the point.
  runtime::EngineConfig reject_config = config;
  reject_config.max_batch = 1;
  reject_config.max_pending = 2;
  reject_config.backpressure = runtime::Backpressure::Reject;
  runtime::Server server;
  server.deploy("lenet5-D", build_lenet(models::Variant::PecanD), reject_config);

  std::atomic<long long> accepted{0};
  std::vector<std::thread> burst;
  util::Timer timer;
  for (int c = 0; c < 4; ++c) {
    burst.emplace_back([&] {
      std::vector<std::future<Tensor>> futures;
      for (std::int64_t r = 0; r < requests_per_client; ++r) {
        try {
          futures.push_back(server.submit("lenet5-D", nth(r)));
          accepted.fetch_add(1);
        } catch (const runtime::OverloadedError&) {
          // shed — counted by the server
        }
      }
      for (auto& future : futures) future.get();
    });
  }
  for (std::thread& t : burst) t.join();
  const double elapsed = timer.elapsed_s();
  const runtime::ModelServerStats stats = server.stats("lenet5-D");
  const double ips = static_cast<double>(accepted.load()) / elapsed;
  std::printf("%-10s %-6s %7s %10.2f %9.2f %9.2f %6llu  (reject mode, max_pending=2)\n",
              "lenet5-D", "float", "burst", ips, stats.engine.p50_ms, stats.engine.p99_ms,
              static_cast<unsigned long long>(stats.shed_total));
  JsonRow row;
  row.name = "server/lenet5-D/overload-reject";
  row.img_per_s = ips;
  row.p50_ms = stats.engine.p50_ms;
  row.p99_ms = stats.engine.p99_ms;
  row.shed = static_cast<long long>(stats.shed_total);
  g_json_rows.push_back(row);
}

// ------------------------------------------------------ SLO open-loop sweep

using Clock = std::chrono::steady_clock;

/// Poisson arrivals: exponential inter-arrival gaps at `rate` req/s.
std::vector<double> poisson_schedule(std::size_t n, double rate, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> offsets;
  offsets.reserve(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gap(gen);
    offsets.push_back(t);
  }
  return offsets;
}

/// Bursty arrivals: `burst` simultaneous requests every `burst / rate`
/// seconds — same average rate as the Poisson stream, maximally clumped.
std::vector<double> bursty_schedule(std::size_t n, double rate, std::size_t burst) {
  std::vector<double> offsets;
  offsets.reserve(n);
  const double gap = static_cast<double>(burst) / rate;
  for (std::size_t i = 0; i < n; ++i) {
    offsets.push_back(static_cast<double>(i / burst) * gap);
  }
  return offsets;
}

/// One open-loop client: priority class, arrival schedule, and what it saw.
struct OpenClient {
  std::int64_t priority = 0;
  std::vector<double> offsets_s;
  std::vector<double> latencies_ms;  ///< completed requests only
  long long shed = 0;                ///< submit rejections + evicted futures
};

/// Drives every client's schedule against `server` concurrently. Per client,
/// a SENDER thread follows the pre-computed arrival schedule no matter how
/// far completions lag (an overloaded server cannot slow the workload down —
/// the coordinated-omission trap), handing accepted futures to a COLLECTOR
/// thread; each latency runs from the request's SCHEDULED arrival to future
/// completion. A request sheds either at submit() (queue full) or at
/// future.get() (evicted by a higher class); both count as `shed`.
void run_open_clients(runtime::Server& server, const std::string& model, const Tensor& samples,
                      std::vector<OpenClient>& clients) {
  const std::int64_t sample_numel = samples.numel() / samples.dim(0);
  const auto nth = [&](std::int64_t s) {
    Tensor sample({samples.dim(1), samples.dim(2), samples.dim(3)});
    std::copy(samples.data() + (s % samples.dim(0)) * sample_numel,
              samples.data() + (s % samples.dim(0) + 1) * sample_numel, sample.data());
    return sample;
  };
  struct InFlight {
    Clock::time_point arrival;
    std::future<Tensor> future;
  };
  // Lead-in so the first arrivals are not already in the past.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);

  std::vector<std::thread> threads;
  for (OpenClient& client : clients) {
    threads.emplace_back([&, t0] {
      util::PriorityBucketQueue<InFlight> handoff(1);  // unbounded sender->collector
      std::atomic<long long> evicted{0};
      std::thread collector([&] {
        std::vector<InFlight> batch;
        for (;;) {
          batch.clear();
          if (handoff.pop_batch(batch, 64, std::chrono::microseconds(0), 1,
                                [](const InFlight&, const InFlight&) { return true; }) == 0) {
            return;
          }
          for (InFlight& item : batch) {
            try {
              item.future.get();
              client.latencies_ms.push_back(
                  std::chrono::duration<double, std::milli>(Clock::now() - item.arrival).count());
            } catch (const runtime::OverloadedError&) {
              evicted.fetch_add(1);  // accepted, then shed by a higher class
            }
          }
        }
      });
      for (std::size_t i = 0; i < client.offsets_s.size(); ++i) {
        const Clock::time_point arrival =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(client.offsets_s[i]));
        std::this_thread::sleep_until(arrival);
        try {
          InFlight item{arrival,
                        server.submit(model, nth(static_cast<std::int64_t>(i)), client.priority)};
          handoff.push(item, 0);
        } catch (const runtime::OverloadedError&) {
          ++client.shed;
        }
      }
      handoff.close();
      collector.join();
      client.shed += evicted.load();
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Merges the latency vectors of every client whose priority satisfies
/// `want` (negative = all classes).
std::vector<double> merged_latencies(const std::vector<OpenClient>& clients, std::int64_t want) {
  std::vector<double> all;
  for (const OpenClient& c : clients) {
    if (want >= 0 && c.priority != want) continue;
    all.insert(all.end(), c.latencies_ms.begin(), c.latencies_ms.end());
  }
  return all;
}

long long merged_shed(const std::vector<OpenClient>& clients, std::int64_t want) {
  long long total = 0;
  for (const OpenClient& c : clients) {
    if (want < 0 || c.priority == want) total += c.shed;
  }
  return total;
}

void emit_slo_row(const char* label, const std::string& name, const std::vector<double>& lats,
                  long long shed, double speedup) {
  const double p50 = percentile(lats, 0.50), p99 = percentile(lats, 0.99);
  std::printf("%-22s %9.3f %9.3f %6lld %8s\n", label, p50, p99, shed,
              speedup >= 0 ? (std::to_string(speedup).substr(0, 4) + "x").c_str() : "-");
  std::fflush(stdout);
  JsonRow row;
  row.name = name;
  row.p50_ms = p50;
  row.p99_ms = p99;
  row.shed = shed;
  row.speedup = speedup;
  g_json_rows.push_back(row);
}

/// The SLO sweep: measures closed-loop capacity, then drives 8 open-loop
/// clients at 2x that rate — once against fixed batching knobs, once with
/// the adaptive controller + priority classes. The interesting comparisons
/// (adaptive p99 vs fixed p99, low-class p99 vs high-class p99, low-class
/// sheds vs high-class sheds) land in the speedup column so check_bench.py
/// can hold ratio floors against them; the adaptive rows also carry
/// absolute p99 ceilings in the checked-in reference.
void run_slo_sweep(std::int64_t per_client, double slo_ms) {
  util::set_global_threads(1);  // inline kernels: service time is the batcher's
  constexpr int kClients = 8;
  constexpr int kHiClients = 2;  // clients 0..1 high class, 2..7 default class
  constexpr std::int64_t kHiClass = 3;
  Rng data_rng(7177);
  const Tensor samples = data_rng.randn({8, 1, 28, 28});
  const auto build_lenet = [] {
    Rng rng(99);
    return models::make_lenet5(models::Variant::PecanD, rng);
  };

  runtime::EngineConfig fixed_config;
  fixed_config.max_batch = 8;
  fixed_config.batch_wait = std::chrono::microseconds(200);
  fixed_config.max_pending = 128;
  fixed_config.backpressure = runtime::Backpressure::Reject;

  // Closed-loop capacity probe: how fast the fixed config drains a backlog.
  double capacity_rps;
  {
    runtime::EngineConfig probe_config = fixed_config;
    probe_config.max_pending = 0;  // unbounded: the probe must not shed
    runtime::Server server;
    server.deploy("m", build_lenet(), probe_config);
    const std::int64_t probe = std::max<std::int64_t>(64, per_client);
    std::vector<std::future<Tensor>> futures;
    futures.reserve(static_cast<std::size_t>(probe));
    util::Timer timer;
    for (std::int64_t r = 0; r < probe; ++r) {
      Tensor sample({1, 28, 28});
      std::copy(samples.data() + (r % 8) * 28 * 28, samples.data() + (r % 8 + 1) * 28 * 28,
                sample.data());
      futures.push_back(server.submit("m", std::move(sample)));
    }
    for (auto& future : futures) future.get();
    capacity_rps = static_cast<double>(probe) / timer.elapsed_s();
  }
  const double rate = 2.0 * capacity_rps;  // deliberate overload
  const double client_rate = rate / kClients;

  std::printf("\nSLO open-loop sweep (8 clients, %.0f req/s = 2x measured capacity, "
              "%lld req/client,\n  latency from scheduled arrival, slo_target=%.0f ms):\n",
              rate, static_cast<long long>(per_client), slo_ms);
  std::printf("%-22s %9s %9s %6s %8s\n", "row", "p50 ms", "p99 ms", "shed", "ratio");

  const auto make_clients = [&](bool bursty) {
    std::vector<OpenClient> clients(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients[static_cast<std::size_t>(c)].priority = c < kHiClients ? kHiClass : 0;
      clients[static_cast<std::size_t>(c)].offsets_s =
          bursty ? bursty_schedule(static_cast<std::size_t>(per_client), client_rate, 16)
                 : poisson_schedule(static_cast<std::size_t>(per_client), client_rate,
                                    42 + static_cast<std::uint64_t>(c));
    }
    return clients;
  };

  // Fixed baseline: same admission limits, no controller, one class.
  std::vector<double> fixed_lats;
  long long fixed_shed = 0;
  {
    runtime::Server server;
    server.deploy("m", build_lenet(), fixed_config);
    std::vector<OpenClient> clients = make_clients(false);
    for (OpenClient& c : clients) c.priority = 0;  // single class
    run_open_clients(server, "m", samples, clients);
    fixed_lats = merged_latencies(clients, -1);
    fixed_shed = merged_shed(clients, -1);
    emit_slo_row("fixed", "slo/open8/fixed", fixed_lats, fixed_shed, -1);
  }

  runtime::EngineConfig adaptive_config = fixed_config;
  adaptive_config.priority_classes = 4;
  adaptive_config.slo_target_ms = slo_ms;

  // Adaptive: the controller shrinks the micro-batch and caps queue depth
  // against the SLO while high-class requests jump the line.
  {
    runtime::Server server;
    server.deploy("m", build_lenet(), adaptive_config);
    std::vector<OpenClient> clients = make_clients(false);
    run_open_clients(server, "m", samples, clients);
    const std::vector<double> all = merged_latencies(clients, -1);
    const std::vector<double> hi = merged_latencies(clients, kHiClass);
    const std::vector<double> lo = merged_latencies(clients, 0);
    const long long hi_shed = merged_shed(clients, kHiClass);
    const long long lo_shed = merged_shed(clients, 0);
    const double adaptive_p99 = percentile(all, 0.99);
    emit_slo_row("adaptive", "slo/open8/adaptive", all, hi_shed + lo_shed,
                 adaptive_p99 > 0 ? percentile(fixed_lats, 0.99) / adaptive_p99 : -1);
    emit_slo_row("adaptive/hi", "slo/open8/adaptive/hi", hi, hi_shed, -1);
    emit_slo_row("adaptive/lo", "slo/open8/adaptive/lo", lo, lo_shed, -1);
    // Priority gap: low-class p99 over high-class p99 (>1 = classes work).
    JsonRow gap;
    gap.name = "slo/open8/priority-gap";
    gap.speedup = percentile(hi, 0.99) > 0 ? percentile(lo, 0.99) / percentile(hi, 0.99) : -1;
    g_json_rows.push_back(gap);
    // Shed skew: low-class sheds over high-class sheds, +1-smoothed
    // (>=1 = the queue sheds its LOWEST class first, the admission
    // contract).
    JsonRow skew;
    skew.name = "slo/open8/shed-skew";
    skew.speedup = static_cast<double>(lo_shed + 1) / static_cast<double>(hi_shed + 1);
    g_json_rows.push_back(skew);
    std::printf("%-22s %9s %9s %6s %7.2fx\n", "priority-gap (lo/hi)", "-", "-", "-", gap.speedup);
    std::printf("%-22s %9s %9s %6s %7.2fx\n", "shed-skew (lo/hi)", "-", "-", "-", skew.speedup);
    std::fflush(stdout);
  }

  // Bursty arrivals against the adaptive config — report-only (burst clumps
  // make the tail noisy by construction).
  {
    runtime::Server server;
    server.deploy("m", build_lenet(), adaptive_config);
    std::vector<OpenClient> clients = make_clients(true);
    run_open_clients(server, "m", samples, clients);
    emit_slo_row("adaptive/bursty", "slo/open8/bursty", merged_latencies(clients, -1),
                 merged_shed(clients, -1), -1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  // --smoke shrinks every knob to CI size; explicit flags still override.
  const bool smoke = args.get_bool("smoke", false);
  const int threads = static_cast<int>(args.get_int("threads", smoke ? 2 : 4));
  const std::int64_t batch = args.get_int("batch", 8);
  const std::int64_t lenet_samples = args.get_int("lenet-samples", smoke ? 16 : 64);
  const std::int64_t vgg_samples = args.get_int("vgg-samples", 4);
  const std::int64_t latency_requests = args.get_int("latency-requests", smoke ? 8 : 24);
  const bool skip_vgg = args.get_bool("skip-vgg", smoke);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("runtime serving bench: threads=%d batch=%lld (hardware_concurrency=%u)\n", threads,
              static_cast<long long>(batch), hw);
  if (hw < static_cast<unsigned>(threads)) {
    std::printf("note: only %u hardware threads — speedup over the 1-thread baseline is\n"
                "      bounded by the hardware, not by the engine\n",
                hw);
  }
  std::printf("%-10s %-6s %8s %10s %8s %9s %9s %7s\n", "model", "path", "base i/s", "thr i/s",
              "speedup", "p50 ms", "p99 ms", "avg b");

  const ModelSpec lenet_d{"lenet5-D", "lenet5", models::Variant::PecanD, 1, 28, 28, lenet_samples};
  const ModelSpec lenet_a{"lenet5-A", "lenet5", models::Variant::PecanA, 1, 28, 28, lenet_samples};
  const ModelSpec vgg_d{"vgg-s-D", "vgg_small", models::Variant::PecanD, 3, 32, 32, vgg_samples};
  const ModelSpec vgg_a{"vgg-s-A", "vgg_small", models::Variant::PecanA, 3, 32, 32, vgg_samples};

  for (const auto& spec : {lenet_d, lenet_a}) {
    run_spec(spec, runtime::ExecPath::Float, threads, batch, latency_requests);
    run_spec(spec, runtime::ExecPath::Cam, threads, batch, latency_requests);
  }
  if (!skip_vgg) {
    for (const auto& spec : {vgg_d, vgg_a}) {
      run_spec(spec, runtime::ExecPath::Float, threads, batch, latency_requests);
      run_spec(spec, runtime::ExecPath::Cam, threads, batch,
               std::min<std::int64_t>(latency_requests, 8));
    }
  }

  // Concurrent-clients sweep: the acceptance gate for the stateless infer
  // path is >1.5x at 4 clients on the Float path (given the hardware).
  const std::int64_t rounds = args.get_int("client-rounds", smoke ? 2 : 4);
  // Kernels run inline (1-thread pool) so the sweep isolates CLIENT-level
  // parallelism — exactly what the old per-engine exec mutex serialized.
  util::set_global_threads(1);
  std::printf("\nconcurrent clients sweep (batch=%lld, %lld rounds/client, inline kernels):\n",
              static_cast<long long>(batch), static_cast<long long>(rounds));
  std::printf("%-10s %-6s %7s %10s %8s %9s %9s %5s\n", "model", "path", "clients", "img/s",
              "scaling", "p50 ms", "p99 ms", "peak");
  run_concurrent_sweep(lenet_d, runtime::ExecPath::Float, batch, rounds);
  run_concurrent_sweep(lenet_d, runtime::ExecPath::Cam, batch, rounds);

  // Batch sharding: the acceptance sweep for one big request using the
  // pool's client-level parallelism (8 threads per the issue's criterion;
  // override with --shard-threads on narrower CI machines).
  run_shard_sweep(static_cast<int>(args.get_int("shard-threads", smoke ? 2 : 8)),
                  args.get_int("shard-rounds", 2));

  // Multi-model server: both models live in one process, kernels threaded.
  util::set_global_threads(threads);
  run_server_sweep(args.get_int("server-requests", smoke ? 16 : 24), batch);

  // SLO open-loop sweep: fixed vs adaptive micro-batching at 2x capacity.
  run_slo_sweep(args.get_int("slo-requests", smoke ? 40 : 300),
                static_cast<double>(args.get_int("slo-ms", 25)));

  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) write_json(json_path, threads);

  for (const std::string& key : args.unused()) {
    std::fprintf(stderr, "warning: unused argument --%s\n", key.c_str());
  }
  return 0;
}
