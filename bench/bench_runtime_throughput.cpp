// Serving-engine gate bench: the two row families bench/check_bench.py gates
// against BENCH_runtime.json.
//
//   * shard/... — batch-sharding sweep: one client pushing whole batches of
//     N samples through Engine::forward_batch with
//     EngineConfig::shard_samples swept over {none, auto, 1, 4, 16}; the
//     speedup column is sharded img/s over unsharded img/s at the same N.
//   * slo/... — SLO open-loop sweep: 8 submit() clients driving a
//     reject-mode server at 2x its measured capacity on
//     COORDINATED-OMISSION-FREE Poisson (and bursty) arrival schedules —
//     each client's sender follows its pre-computed schedule no matter how
//     far completions lag, and every latency is measured from the request's
//     SCHEDULED arrival, so a stall penalizes the tail instead of pausing
//     the workload (mirroring bench_net_throughput's open loop). Run once
//     with a fixed batching config and once with the adaptive SLO
//     controller + 4 priority classes (2 high-priority clients, 6 low): the
//     rows record fixed-vs-adaptive p99, the high-vs-low priority gap, and
//     which class the sheds landed on (absolute p99 ceilings + ratio
//     floors in the reference).
//
// Throughput, latency and client scaling of the served models end to end
// are perfbench's job (perfbench/README.md); these sweeps stay because
// perfbench's bounds do not catch a regression in either mechanism.
//
//   ./bench_runtime_throughput --smoke --json out.json   CI size
//   ./bench_runtime_throughput --json BENCH_runtime.json full size
//
// --shard-threads / --shard-rounds size the shard sweep; --slo-requests /
// --slo-ms size the SLO sweep. The JSON header's "threads" is the shard
// sweep's pool size (--shard-threads); the SLO sweep always runs inline. Weights are randomly initialized — cost is
// shape-determined, so trained weights would time identically.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.hpp"
#include "models/lenet.hpp"
#include "runtime/engine.hpp"
#include "runtime/server.hpp"
#include "tensor/rng.hpp"
#include "util/bounded_queue.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace pecan;
using bench::bursty_schedule;
using bench::percentile;
using bench::poisson_schedule;

std::vector<bench::Row> g_json_rows;

/// Both sweeps serve this one LeNet5 PECAN-D build.
std::unique_ptr<nn::Sequential> build_lenet() {
  Rng rng(99);
  return models::make_lenet5(models::Variant::PecanD, rng);
}

/// Batch-sharding sweep: ONE client pushing whole batches of N samples
/// through forward_batch, with EngineConfig::shard_samples swept over
/// {none (=N, a single in-flight execution), auto (0, one shard per pool
/// lane), 1, 4, 16}. The speedup column is sharded img/s over the
/// unsharded row at the same N — the measured value of letting one big
/// request use the client-level parallelism the stateless path already
/// gives separate clients. The sharded/unsharded ratio is measured on one
/// machine in one process, so it is stable where absolute img/s is not —
/// though it does scale with the machine's core count, hence the generous
/// 0.5x floor.
void run_shard_sweep(int threads, std::int64_t rounds) {
  util::set_global_threads(threads);
  Rng data_rng(6021);
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
      runtime::Engine engine(build_lenet(), config);
      engine.forward_batch(chunk);  // warm the per-shard context arenas
      util::Timer timer;
      for (std::int64_t r = 0; r < reps; ++r) engine.forward_batch(chunk);
      const double ips = static_cast<double>(n * reps) / timer.elapsed_s();
      if (setting.shard_of_n < 0) none_ips = ips;
      const double speedup = none_ips > 0 ? ips / none_ips : -1;
      std::printf("%-10s %6lld %7s %10.2f %8.2fx\n", "lenet5-D", static_cast<long long>(n),
                  setting.label, ips, speedup);
      std::fflush(stdout);

      bench::Row row;
      row.name = "shard/lenet5-D/N" + std::to_string(n) + "/" + setting.label;
      row.img_per_s = ips;
      if (setting.shard_of_n >= 0) row.speedup = speedup;
      g_json_rows.push_back(row);
    }
  }
}

// ------------------------------------------------------ SLO open-loop sweep

using Clock = std::chrono::steady_clock;

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
  bench::Row row;
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
    bench::Row gap;
    gap.name = "slo/open8/priority-gap";
    gap.speedup = percentile(hi, 0.99) > 0 ? percentile(lo, 0.99) / percentile(hi, 0.99) : -1;
    g_json_rows.push_back(gap);
    // Shed skew: low-class sheds over high-class sheds, +1-smoothed
    // (>=1 = the queue sheds its LOWEST class first, the admission
    // contract).
    bench::Row skew;
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
  std::printf("runtime serving gate bench (hardware_concurrency=%u)\n",
              std::thread::hardware_concurrency());

  // Batch sharding: one big request using the pool's client-level
  // parallelism (8 threads on a full run; narrower CI machines get 2).
  const int shard_threads = static_cast<int>(args.get_int("shard-threads", smoke ? 2 : 8));
  run_shard_sweep(shard_threads, args.get_int("shard-rounds", 2));

  // SLO open-loop sweep: fixed vs adaptive micro-batching at 2x capacity.
  run_slo_sweep(args.get_int("slo-requests", smoke ? 40 : 300),
                static_cast<double>(args.get_int("slo-ms", 25)));

  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    bench::write_json(json_path,
                      {{"bench", "\"runtime_throughput\""},
                       {"threads", std::to_string(shard_threads)}},
                      g_json_rows);
  }
  bench::warn_unused(args);
  return 0;
}
