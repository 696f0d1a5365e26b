// Network serving load generator for runtime::NetServer.
//
// Two traffic shapes against a live wire endpoint:
//
//   * Closed-loop sweep — {1, 2, 4, 8} concurrent connections, each a
//     think-time-free request loop (send, wait, repeat). Reports aggregate
//     RPS and per-request p50/p99; the speedup column is RPS(cN)/RPS(c1),
//     the connection-scaling ratio check_bench.py gates (a same-machine,
//     same-process ratio — stable where absolute RPS is not).
//
//   * Open-loop, coordinated-omission-free — a sender thread follows a
//     PRE-COMPUTED arrival schedule (Poisson or bursty) over one pipelined
//     connection, never pausing for replies; a receiver thread matches
//     replies by request id. Latency is measured from the SCHEDULED arrival
//     time, so a stalled server inflates the tail instead of silently
//     thinning the arrival stream (the classic closed-loop lie).
//
// By default the bench self-hosts: it deploys LeNet5 PECAN-D in-process,
// starts a NetServer on an ephemeral loopback port, and measures through a
// real socket. Point it at an external `model_server --listen <port>` with
// --host/--port (model name via --model). --smoke shrinks every count for
// CI; --json writes the machine-readable rows next to BENCH_runtime.json.
//
// --faults replaces both loops with a goodput-under-chaos mode: the bench
// arms seeded fault-injection specs (docs/FAULTS.md) against its own
// self-hosted server and drives self-healing RetryPolicy clients through
// the wreckage. Two scenarios:
//
//   * fault/chaos    — torn reads, chunked sends, and connections killed
//                      mid-request; no deadlines. The self-healing client
//                      must reconnect + replay its way to goodput ~1.0.
//   * fault/deadline — a fraction of requests hit an injected executor
//                      delay longer than their deadline budget; those MUST
//                      expire (bounded expired_frac), everything else must
//                      complete.
//
// goodput = fraction of requests that completed with a BITWISE-correct
// reply; expired_frac = fraction that ended DEADLINE_EXCEEDED. Both are
// hardware-independent (probabilities, not rates), so BENCH_net.json gates
// them with absolute min_goodput / max_expired_frac bounds. Fault sites are
// process-global: against an external server (--port) only the client-side
// sites fire locally — arm the server via `model_server --fault-spec`.
//
// Weights are random — wire + serving cost is shape-determined.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_report.hpp"
#include "models/lenet.hpp"
#include "runtime/engine.hpp"
#include "runtime/net_client.hpp"
#include "runtime/net_server.hpp"
#include "runtime/server.hpp"
#include "tensor/rng.hpp"
#include "util/cli.hpp"
#include "util/fault_injector.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace pecan;
using Clock = std::chrono::steady_clock;

using bench::bursty_schedule;
using bench::percentile;
using bench::poisson_schedule;

std::vector<bench::Row> g_json_rows;

struct RunResult {
  double rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  long long shed = 0;
};

// ------------------------------------------------------------- closed loop

/// `connections` think-time-free request loops, each over its own socket.
RunResult run_closed(const std::string& host, std::uint16_t port, const std::string& model,
                     const Tensor& sample, int connections, std::int64_t per_client) {
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(connections));
  std::atomic<long long> shed{0};
  util::Timer timer;
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      runtime::NetClient client(host, port);
      auto& lats = latencies[static_cast<std::size_t>(c)];
      lats.reserve(static_cast<std::size_t>(per_client));
      for (std::int64_t r = 0; r < per_client; ++r) {
        const Clock::time_point t0 = Clock::now();
        try {
          client.infer(model, sample);
        } catch (const runtime::OverloadedError&) {
          shed.fetch_add(1);
          continue;  // shed requests do not contribute a service latency
        }
        lats.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = timer.elapsed_s();

  RunResult out;
  std::vector<double> all;
  for (const auto& lats : latencies) all.insert(all.end(), lats.begin(), lats.end());
  out.rps = static_cast<double>(connections * per_client) / elapsed;
  out.p50_ms = percentile(all, 0.50);
  out.p99_ms = percentile(all, 0.99);
  out.shed = shed.load();
  return out;
}

// --------------------------------------------------------------- open loop

/// Runs `offsets_s` (pre-computed arrival offsets, seconds from t0) as an
/// open-loop stream over ONE pipelined connection: the sender follows the
/// schedule no matter how far replies lag, the receiver matches replies by
/// id, and each latency is measured from the request's SCHEDULED arrival —
/// a stall penalizes the tail instead of pausing the workload.
RunResult run_open(const std::string& host, std::uint16_t port, const std::string& model,
                   const Tensor& sample, const std::vector<double>& offsets_s) {
  runtime::NetClient client(host, port);
  std::mutex mutex;
  std::unordered_map<std::uint64_t, Clock::time_point> scheduled;
  const std::size_t total = offsets_s.size();

  std::vector<double> latencies;
  latencies.reserve(total);
  long long shed = 0, errors = 0;
  // Lead-in so the first arrivals are not already in the past.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);

  std::thread receiver([&] {
    for (std::size_t i = 0; i < total; ++i) {
      const runtime::NetClient::Reply reply = client.recv();
      const Clock::time_point now = Clock::now();
      Clock::time_point arrival;
      for (;;) {  // the reply can outrun the sender's bookkeeping insert
        std::unique_lock<std::mutex> lock(mutex);
        const auto it = scheduled.find(reply.request_id);
        if (it != scheduled.end()) {
          arrival = it->second;
          scheduled.erase(it);
          break;
        }
        lock.unlock();
        std::this_thread::yield();
      }
      if (reply.status == runtime::wire::Status::Ok) {
        latencies.push_back(std::chrono::duration<double, std::milli>(now - arrival).count());
      } else if (reply.status == runtime::wire::Status::Overloaded) {
        ++shed;
      } else {
        ++errors;
      }
    }
  });

  for (const double offset : offsets_s) {
    const Clock::time_point arrival =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(offset));
    std::this_thread::sleep_until(arrival);
    const std::uint64_t id = client.send_infer(model, sample);
    std::lock_guard<std::mutex> lock(mutex);
    scheduled.emplace(id, arrival);
  }
  receiver.join();
  if (errors > 0) std::fprintf(stderr, "open loop: %lld unexpected error replies\n", errors);

  RunResult out;
  const double span =
      std::chrono::duration<double>(Clock::now() - t0).count();  // schedule start -> last reply
  out.rps = span > 0 ? static_cast<double>(total) / span : 0.0;
  out.p50_ms = percentile(latencies, 0.50);
  out.p99_ms = percentile(latencies, 0.99);
  out.shed = shed;
  return out;
}

// --------------------------------------------------------------- fault mode

struct ChaosResult {
  long long ok = 0;       ///< completed with a bitwise-correct reply
  long long expired = 0;  ///< ended DEADLINE_EXCEEDED (client- or server-side)
  long long failed = 0;   ///< any other failure, or a bit-inexact reply
  double rps = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;

  long long total() const { return ok + expired + failed; }
  double goodput() const {
    return total() > 0 ? static_cast<double>(ok) / static_cast<double>(total()) : 0.0;
  }
  double expired_frac() const {
    return total() > 0 ? static_cast<double>(expired) / static_cast<double>(total()) : 0.0;
  }
};

/// Closed-loop chaos pass: `connections` self-healing clients each push
/// `per_client` single-sample infers (optionally deadlined) through whatever
/// fault spec is currently armed, and every Ok reply is checked bitwise
/// against the fault-free reference output.
ChaosResult run_chaos(const std::string& host, std::uint16_t port, const std::string& model,
                      const Tensor& sample, const Tensor& expected, int connections,
                      std::int64_t per_client, std::uint32_t deadline_ms) {
  std::atomic<long long> ok{0}, expired{0}, failed{0};
  std::atomic<std::uint64_t> retries{0}, reconnects{0};
  util::Timer timer;
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&] {
      runtime::RetryPolicy policy;
      policy.max_attempts = 10;
      policy.base_backoff = std::chrono::milliseconds(2);
      policy.max_backoff = std::chrono::milliseconds(20);
      runtime::NetClient client(host, port, policy);
      for (std::int64_t r = 0; r < per_client; ++r) {
        try {
          const Tensor out = client.infer(model, sample, 0, deadline_ms);
          const bool exact =
              out.same_shape(expected) &&
              std::memcmp(out.data(), expected.data(),
                          static_cast<std::size_t>(out.numel()) * sizeof(float)) == 0;
          (exact ? ok : failed).fetch_add(1);
        } catch (const runtime::DeadlineExceededError&) {
          expired.fetch_add(1);
        } catch (const std::exception&) {
          failed.fetch_add(1);
        }
      }
      retries.fetch_add(client.retries());
      reconnects.fetch_add(client.reconnects());
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = timer.elapsed_s();

  ChaosResult out;
  out.ok = ok.load();
  out.expired = expired.load();
  out.failed = failed.load();
  out.rps = elapsed > 0 ? static_cast<double>(out.total()) / elapsed : 0.0;
  out.retries = retries.load();
  out.reconnects = reconnects.load();
  return out;
}

void emit_chaos(const char* label, const std::string& row_name, const ChaosResult& r) {
  std::printf("%-14s %9.1f %8.3f %12.3f %6lld %7lld %6lld %7llu %10llu\n", label, r.rps,
              r.goodput(), r.expired_frac(), r.ok, r.expired, r.failed,
              static_cast<unsigned long long>(r.retries),
              static_cast<unsigned long long>(r.reconnects));
  std::fflush(stdout);
  bench::Row row;
  row.name = row_name;
  row.rps = r.rps;
  row.goodput = r.goodput();
  row.expired_frac = r.expired_frac();
  g_json_rows.push_back(row);
}

void emit(const char* label, const std::string& row_name, const RunResult& r, double speedup) {
  std::printf("%-14s %9.1f %8s %9.3f %9.3f %6lld\n", label, r.rps,
              speedup >= 0 ? (std::to_string(speedup).substr(0, 4) + "x").c_str() : "-", r.p50_ms,
              r.p99_ms, r.shed);
  std::fflush(stdout);
  bench::Row row;
  row.name = row_name;
  row.rps = r.rps;
  row.speedup = speedup;
  row.p50_ms = r.p50_ms;
  row.p99_ms = r.p99_ms;
  row.shed = r.shed;
  g_json_rows.push_back(row);
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const bool faults = args.get_bool("faults", false);
  const std::string host = args.get("host", "127.0.0.1");
  std::uint16_t port = args.get_port("port", 0);  // 0 = self-host
  const std::string model = args.get("model", "lenet5-d");
  const int threads = static_cast<int>(args.get_int("threads", 2));
  const int executors = static_cast<int>(args.get_int("executors", 4));
  const std::int64_t closed_requests = args.get_int("requests", smoke ? 25 : 200);
  const auto open_requests =
      static_cast<std::size_t>(args.get_int("open-requests", smoke ? 80 : 400));
  const double rate_arg = args.get_double("rate", 0);  // 0 = derive from closed-loop c1
  const auto burst = static_cast<std::size_t>(args.get_int("burst", 16));
  const std::string json_path = args.get("json", "");

  // Self-host unless the caller pointed us at an external server.
  std::unique_ptr<runtime::Server> server;
  std::unique_ptr<runtime::NetServer> net;
  if (port == 0) {
    util::set_global_threads(threads);
    server = std::make_unique<runtime::Server>();
    {
      Rng rng(7);
      server->deploy(model, models::make_lenet5(models::Variant::PecanD, rng));
    }
    runtime::NetServerConfig net_config;
    net_config.host = host;
    net_config.executors = executors;
    net = std::make_unique<runtime::NetServer>(*server, net_config);
    net->start();
    port = net->port();
    std::printf("self-hosted NetServer on %s:%u (model %s, %d executors, %d kernel threads)\n",
                host.c_str(), static_cast<unsigned>(port), model.c_str(), executors, threads);
  } else {
    std::printf("targeting external server %s:%u (model %s)\n", host.c_str(),
                static_cast<unsigned>(port), model.c_str());
  }

  Rng data_rng(1234);
  const Tensor sample = data_rng.randn({1, 28, 28});
  {  // connectivity + warm-up (arena growth, first-request costs)
    runtime::NetClient probe(host, port);
    probe.ping();
    for (int i = 0; i < (smoke ? 2 : 8); ++i) probe.infer(model, sample);
  }

  if (faults) {
    // Chaos mode. The bitwise reference comes from a fault-free call BEFORE
    // any spec is armed; every Ok reply under chaos must reproduce it.
    Tensor expected;
    {
      runtime::NetClient reference(host, port);
      expected = reference.infer(model, sample);
    }
    util::FaultInjector& injector = util::FaultInjector::instance();
    const int connections = 4;
    std::printf("\nfault mode (%d self-healing connections x %lld req, seeded specs):\n",
                connections, static_cast<long long>(closed_requests));
    std::printf("%-14s %9s %8s %12s %6s %7s %6s %7s %10s\n", "scenario", "RPS", "goodput",
                "expired_frac", "ok", "expired", "failed", "retries", "reconnects");
    {
      // Torn reads + chunked sends + connections killed mid-request: the
      // retrying client must heal every request (no deadlines to expire).
      injector.set_seed(4242);
      injector.arm_spec("net.read_short:p=0.2;socket.send_chunk:p=0.05;net.exec.kill_conn:p=0.1");
      const ChaosResult r =
          run_chaos(host, port, model, sample, expected, connections, closed_requests, 0);
      injector.disarm_all();
      emit_chaos("fault/chaos", "fault/chaos", r);
    }
    {
      // An injected executor delay longer than the per-request deadline
      // budget: delayed requests MUST expire, the rest must complete.
      injector.set_seed(4242);
      injector.arm_spec("net.exec.delay:p=0.3,latency_ms=120");
      const ChaosResult r =
          run_chaos(host, port, model, sample, expected, connections, closed_requests, 80);
      injector.disarm_all();
      emit_chaos("fault/deadline", "fault/deadline", r);
    }
  } else {
    std::printf("\nclosed loop (%lld req/connection):\n",
                static_cast<long long>(closed_requests));
    std::printf("%-14s %9s %8s %9s %9s %6s\n", "shape", "RPS", "scaling", "p50 ms", "p99 ms",
                "shed");
    double c1_rps = 0;
    for (const int connections : {1, 2, 4, 8}) {
      const RunResult r = run_closed(host, port, model, sample, connections, closed_requests);
      if (connections == 1) c1_rps = r.rps;
      const std::string label = "closed/c" + std::to_string(connections);
      emit(label.c_str(), "net/" + label, r, c1_rps > 0 ? r.rps / c1_rps : -1);
    }

    // Open-loop rate: default to ~60% of the single-connection closed-loop
    // service rate — busy but below saturation, so the CO-free latency numbers
    // describe queueing jitter rather than a divergent backlog.
    const double rate = rate_arg > 0 ? rate_arg : std::max(50.0, 0.6 * c1_rps);
    std::printf("\nopen loop (%zu requests at %.0f req/s average, latency from scheduled "
                "arrival):\n",
                open_requests, rate);
    std::printf("%-14s %9s %8s %9s %9s %6s\n", "shape", "RPS", "scaling", "p50 ms", "p99 ms",
                "shed");
    emit("open/poisson", "net/open/poisson",
         run_open(host, port, model, sample, poisson_schedule(open_requests, rate, 42)), -1);
    emit("open/bursty", "net/open/bursty",
         run_open(host, port, model, sample, bursty_schedule(open_requests, rate, burst)), -1);
  }

  if (net) {
    net->stop();
    const runtime::NetServerStats stats = net->stats();
    std::printf("\nwire totals: %llu conns, %llu frames, %llu ok / %llu error replies, "
                "%llu KiB in / %llu KiB out\n",
                static_cast<unsigned long long>(stats.connections_accepted),
                static_cast<unsigned long long>(stats.frames),
                static_cast<unsigned long long>(stats.replies_ok),
                static_cast<unsigned long long>(stats.replies_error),
                static_cast<unsigned long long>(stats.bytes_in >> 10),
                static_cast<unsigned long long>(stats.bytes_out >> 10));
    server->shutdown();
  }

  if (!json_path.empty()) {
    bench::write_json(json_path,
                      {{"bench", "\"net_throughput\""}, {"executors", std::to_string(executors)}},
                      g_json_rows);
  }
  bench::warn_unused(args);
  return 0;
}
