// Multi-model serving demo: one runtime::Server, three models, live traffic.
//
// What it shows, end to end:
//   1. Deployment — three named models with different architectures and
//      execution paths live in ONE process: LeNet5 PECAN-D on the float
//      path, ResNet20 Baseline on the float path, and LeNet5 PECAN-A
//      exported to the CAM+LUT simulator.
//   2. Concurrent clients — each model gets its own client threads pushing
//      single-sample submit() streams; the engines micro-batch and run the
//      kernels on the shared pool.
//   3. Hot-swap — mid-traffic, LeNet5-D is redeployed with fresh weights.
//      In-flight requests drain on the old engine, new requests hit the new
//      one, and the generation counter ticks. No request is lost.
//   4. Admission control — the last act redeploys LeNet5-D with a tiny
//      reject-mode pending queue and bursts it; the shed counter and the
//      distinct OverloadedError are the overload-protection story.
//
//   5. Network serving — with --listen <port> the same three models go on
//      the wire: a runtime::NetServer speaks the length-prefixed binary
//      protocol on the given port until SIGINT/SIGTERM, then drains
//      gracefully (stop accepting, finish in-flight requests, flush
//      replies) and prints final per-model counters. Point
//      bench_net_throughput at it for a measured-RPS run.
//
// SIGINT/SIGTERM trigger graceful drain in BOTH modes: the demo's client
// loops stop submitting and in-flight futures complete before exit, instead
// of the process dying mid-flight.
//
// Weights are random (this is a serving demo, not an accuracy demo); the
// numbers are shapes-and-throughput, which random weights time identically.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "runtime/net_server.hpp"
#include "runtime/server.hpp"
#include "tensor/rng.hpp"
#include "util/cli.hpp"
#include "util/fault_injector.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace pecan;

namespace {

// Async-signal-safe stop flag: the handlers only set it; all draining runs
// on ordinary threads that poll it.
volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop_signal(int) { g_stop = 1; }

void install_signal_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

struct ModelTraffic {
  const char* name;
  Shape sample_shape;
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> shed{0};
};

void print_stats(runtime::Server& server, const char* when) {
  std::printf("\n[%s]\n", when);
  std::printf("%-14s %4s %8s %8s %6s %9s %9s %6s\n", "model", "gen", "requests", "batches",
              "depth", "p50 ms", "p99 ms", "shed");
  for (const std::string& name : server.models()) {
    const runtime::ModelServerStats s = server.stats(name);
    std::printf("%-14s %4llu %8llu %8llu %6lld %9.2f %9.2f %6llu\n", name.c_str(),
                static_cast<unsigned long long>(s.generation),
                static_cast<unsigned long long>(s.engine.requests),
                static_cast<unsigned long long>(s.engine.batches),
                static_cast<long long>(s.engine.queue_depth), s.engine.p50_ms, s.engine.p99_ms,
                static_cast<unsigned long long>(s.shed_total));
  }
}

/// The drain-time report both modes end with: swap-surviving per-model
/// generation and shed counters next to the live engine totals.
void print_final_counters(runtime::Server& server) {
  std::printf("\nfinal per-model counters:\n");
  std::printf("%-14s %4s %8s %6s\n", "model", "gen", "requests", "shed");
  for (const std::string& name : server.models()) {
    const runtime::ModelServerStats s = server.stats(name);
    std::printf("%-14s %4llu %8llu %6llu\n", name.c_str(),
                static_cast<unsigned long long>(s.generation),
                static_cast<unsigned long long>(s.engine.requests),
                static_cast<unsigned long long>(s.shed_total));
  }
}

/// --listen mode: the three deployed models on a real socket until
/// SIGINT/SIGTERM, then graceful drain.
int serve_forever(runtime::Server& server, const std::string& host, std::uint16_t port,
                  int executors) {
  runtime::NetServerConfig net_config;
  net_config.host = host;
  net_config.port = port;
  net_config.executors = executors;
  runtime::NetServer net(server, net_config);
  net.start();
  std::printf("listening on %s:%u, CAM kernels %s (SIGINT/SIGTERM to drain)\n",
              net.host().c_str(), static_cast<unsigned>(net.port()), cam::kernel_isa());
  std::fflush(stdout);

  while (!g_stop) std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::printf("\nsignal received: draining (stop accepting, flush in-flight replies)...\n");
  net.stop();
  const runtime::NetServerStats net_stats = net.stats();
  std::printf("wire totals: %llu conns, %llu frames, %llu ok / %llu error replies "
              "(%llu shed), %llu decode errors\n",
              static_cast<unsigned long long>(net_stats.connections_accepted),
              static_cast<unsigned long long>(net_stats.frames),
              static_cast<unsigned long long>(net_stats.replies_ok),
              static_cast<unsigned long long>(net_stats.replies_error),
              static_cast<unsigned long long>(net_stats.sheds),
              static_cast<unsigned long long>(net_stats.decode_errors));
  print_final_counters(server);
  server.shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  const int threads = static_cast<int>(args.get_int("threads", 2));
  const std::int64_t requests = args.get_int("requests", 48);
  const int clients = static_cast<int>(args.get_int("clients", 2));
  const bool listen = args.has("listen");
  const std::uint16_t listen_port = args.get_port("listen", 0);
  const std::string host = args.get("host", "127.0.0.1");
  const int net_workers = static_cast<int>(args.get_int("net-workers", 2));
  // CAM operating point of the CAM-exported deploy (float32 | int8 | binary).
  const cam::CamPrecision cam_precision =
      cam::precision_from_name(args.get("cam-precision", "float32"));
  // Chaos knobs (docs/FAULTS.md): arm fault-injection sites for resilience
  // drills, e.g. --fault-spec 'net.read_short:p=0.05;engine.stall:p=0.01,latency_ms=20'
  const std::string fault_spec = args.get("fault-spec", "");
  const std::int64_t fault_seed = args.get_int("fault-seed", 42);
  util::set_global_threads(threads);
  install_signal_handlers();
  if (!fault_spec.empty()) {
    util::FaultInjector::instance().set_seed(static_cast<std::uint64_t>(fault_seed));
    util::FaultInjector::instance().arm_spec(fault_spec);
    std::printf("fault injection armed: %s (seed %lld)\n", fault_spec.c_str(),
                static_cast<long long>(fault_seed));
  }

  if (!listen) {
    std::printf(
        "model_server demo: %d clients/model x %lld requests, %d kernel threads, "
        "CAM kernels %s\n",
        clients, static_cast<long long>(requests), threads, cam::kernel_isa());
  }

  // --- 1. deploy three models ------------------------------------------------
  runtime::Server server;
  runtime::EngineConfig config;
  {
    Rng rng(7);
    server.deploy("lenet5-d", models::make_lenet5(models::Variant::PecanD, rng), config);
  }
  {
    Rng rng(19);
    runtime::EngineConfig cam = config;
    cam.path = runtime::ExecPath::Cam;  // CAM search + LUT accumulate export
    cam.cam_precision = cam_precision;
    server.deploy("lenet5-a.cam", models::make_lenet5(models::Variant::PecanA, rng), cam);
  }
  {
    Rng rng(31);
    server.deploy("resnet20", models::make_resnet20(models::Variant::Baseline, 10, rng), config);
  }
  std::printf("deployed:");
  for (const std::string& name : server.models()) std::printf(" %s", name.c_str());
  std::printf("\n");

  // --- network serving mode --------------------------------------------------
  if (listen) return serve_forever(server, host, listen_port, net_workers);

  // --- 2. concurrent traffic + 3. a hot-swap in the middle -------------------
  ModelTraffic traffic[3] = {{"lenet5-d", {1, 28, 28}},
                             {"lenet5-a.cam", {1, 28, 28}},
                             {"resnet20", {3, 32, 32}}};
  util::Timer timer;
  std::vector<std::thread> workers;
  for (ModelTraffic& t : traffic) {
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&t, &server, requests, c] {
        Rng data_rng(1000 + c);
        std::vector<std::future<Tensor>> futures;
        futures.reserve(static_cast<std::size_t>(requests));
        for (std::int64_t r = 0; r < requests && !g_stop; ++r) {
          futures.push_back(server.submit(t.name, data_rng.randn(t.sample_shape)));
        }
        // A signal stops NEW submissions; everything already accepted still
        // completes below — that is the graceful part of the drain.
        for (auto& future : futures) {
          future.get();
          t.served.fetch_add(1);
        }
      });
    }
  }

  // Hot-swap LeNet5-D while its clients are mid-stream: generation 2 takes
  // over, generation 1 drains. Clients notice nothing.
  {
    Rng rng(8);  // fresh weights
    const std::uint64_t generation =
        server.deploy("lenet5-d", models::make_lenet5(models::Variant::PecanD, rng), config);
    std::printf("hot-swapped lenet5-d mid-traffic -> generation %llu\n",
                static_cast<unsigned long long>(generation));
  }
  for (std::thread& t : workers) t.join();
  const double elapsed = timer.elapsed_s();

  std::printf("\ntraffic done in %.2fs:\n", elapsed);
  for (const ModelTraffic& t : traffic) {
    std::printf("  %-14s %5llu served (%.1f img/s)\n", t.name,
                static_cast<unsigned long long>(t.served.load()),
                static_cast<double>(t.served.load()) / elapsed);
  }
  print_stats(server, "after hot-swap traffic");

  // --- 4. overload protection ------------------------------------------------
  runtime::EngineConfig reject = config;
  reject.max_pending = 2;
  {
    Rng rng(8);
    server.deploy("lenet5-d", models::make_lenet5(models::Variant::PecanD, rng), reject);
  }
  std::atomic<std::uint64_t> burst_served{0}, burst_shed{0};
  std::vector<std::thread> burst;
  for (int c = 0; c < 4; ++c) {
    burst.emplace_back([&, c] {
      Rng data_rng(2000 + c);
      std::vector<std::future<Tensor>> futures;
      for (std::int64_t r = 0; r < requests && !g_stop; ++r) {
        try {
          futures.push_back(server.submit("lenet5-d", data_rng.randn({1, 28, 28})));
        } catch (const runtime::OverloadedError&) {
          burst_shed.fetch_add(1);  // the distinct "try again later" signal
        }
      }
      for (auto& future : futures) {
        future.get();
        burst_served.fetch_add(1);
      }
    });
  }
  for (std::thread& t : burst) t.join();
  std::printf("\noverload burst against max_pending=2 (reject mode): %llu served, %llu shed\n",
              static_cast<unsigned long long>(burst_served.load()),
              static_cast<unsigned long long>(burst_shed.load()));
  print_stats(server, "after overload burst");
  print_final_counters(server);
  if (g_stop) std::printf("(drained early on signal — all accepted requests completed)\n");

  server.shutdown();
  for (const std::string& key : args.unused()) {
    std::fprintf(stderr, "warning: unused argument --%s\n", key.c_str());
  }
  return 0;
}
