// Shared machinery of the serving benchmark: statistics, in-memory trace
// spans, the metric report, model preparation with bitwise references, the
// self-hosted Server + NetServer stack, and the load generators.
//
// Everything here calls the serving stack only through its public headers;
// spans are recorded around those calls, never inside src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "models/variant.hpp"
#include "runtime/engine.hpp"
#include "runtime/net_client.hpp"
#include "runtime/net_server.hpp"
#include "runtime/server.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using namespace pecan;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);

// ------------------------------------------------------------- statistics

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// True when at least ten samples lie beyond the q-quantile, the rule for
/// reporting a tail percentile at all.
bool tail_supported(std::size_t n, double q);

// ------------------------------------------------------------------ spans

/// One timed call: name, start, end, and the span (or request) that caused
/// it. Spans of one request share a root id.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  Clock::time_point start{};
  Clock::time_point end{};
};

/// In-memory span store, written out once at exit. Thread-safe.
class SpanLog {
 public:
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t record(const std::string& name, Clock::time_point start, Clock::time_point end,
                       std::uint64_t parent = 0, std::uint64_t id = 0);
  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// CSV: id,parent,name,start_us,dur_us (start relative to the first span).
  void write_csv(const std::string& path) const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) as one span when `log` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  Clock::time_point start_;
};

// ----------------------------------------------------------------- report

/// Named metrics with units, in insertion order. Human-readable lines go to
/// stdout as they are added; the closing JSON line is built by main().
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void end_to_end(const std::string& name, double value, const std::string& unit,
                  const std::string& note = "");
  void per_layer(const std::string& name, double value, const std::string& unit,
                 const std::string& note = "");
  const std::vector<Metric>& end_to_end() const { return e2e_; }
  const std::vector<Metric>& per_layer() const { return layer_; }

  std::uint64_t attempted = 0;  ///< requests sent in measured windows
  std::uint64_t failed = 0;     ///< wrong outputs, unexpected errors, timeouts
  std::uint64_t mismatches = 0; ///< Ok replies that differ bitwise from the reference
  bool check_ok = true;         ///< harness self-checks (energy cross-check)

 private:
  std::vector<Metric> e2e_, layer_;
};

// ----------------------------------------------------------------- models

/// One deployed model: how it is built, served and called, plus its request
/// pool and the bitwise reference output of every pool sample.
struct ModelSpec {
  std::string name;    ///< registry name, e.g. "lenet5-d"
  std::string family;  ///< artifact family: "lenet5" | "resnet20"
  models::Variant variant = models::Variant::PecanD;
  runtime::EngineConfig config;
  std::uint8_t priority = 0;
  std::uint32_t deadline_ms = 0;
  std::string artifact_path;
  std::vector<Tensor> samples;   ///< [C,H,W] request pool
  std::vector<Tensor> expected;  ///< reference logits row per sample
};

/// Builds the network from `model_seed`, saves its artifact under
/// `out_dir`, draws `pool` input samples from `input_seed`, and computes
/// every sample's reference output on a twin engine compiled from the same
/// artifact with the same config (the wire == in-process contract).
void prepare_model(ModelSpec& spec, std::uint64_t model_seed, std::uint64_t input_seed,
                   std::size_t pool, const std::string& out_dir);

/// Stacks pool samples [first, first+n) into one [n,C,H,W] batch.
Tensor stack_samples(const ModelSpec& spec, std::size_t first, std::size_t n);

bool bitwise_equal(const Tensor& a, const Tensor& b);
bool bitwise_equal_row(const Tensor& batch_out, std::int64_t row, const Tensor& expected_row);

// ------------------------------------------------------------------ stack

/// Self-hosted serving stack: Server + NetServer on loopback + clients.
struct Stack {
  std::unique_ptr<runtime::Server> server;
  std::unique_ptr<runtime::NetServer> net;
  std::vector<std::unique_ptr<runtime::NetClient>> clients;

  Stack() = default;
  Stack(Stack&&) = default;
  /// Stops this stack first: the NetServer must stop before its Server goes.
  Stack& operator=(Stack&& other) noexcept;
  ~Stack();
  void stop();
};

/// Brings a stack up from the artifacts on disk: load + deploy every model,
/// start the NetServer, connect `connections` clients, and send one INFER
/// of the first model's first sample on client 0. `seconds` is the time from
/// the start of this call to that first Ok reply (set-up time); the reply
/// must match its reference bitwise or this throws.
Stack bring_up(const std::vector<ModelSpec>& specs, runtime::NetServerConfig net_config,
               int connections, SpanLog* spans, double& seconds);

/// Brings the stack up `trials` times, tearing down all but the last, and
/// returns the last one; `setup_s` is the median set-up time. `warm` runs
/// on the first stack: heavy traffic that lets the host bring every vCPU up
/// to speed (an idle VM serves at about one core for its first second of
/// load) before the remaining set-ups and the measured window.
Stack bring_up_median(const std::vector<ModelSpec>& specs,
                      const runtime::NetServerConfig& net_config, int connections, int trials,
                      SpanLog* spans, double& setup_s, const std::function<void(Stack&)>& warm);

// ------------------------------------------------------ load generators

/// One scheduled INFER of an open-loop workload.
struct Arrival {
  double at_s = 0.0;  ///< offset from the schedule start
  int model = 0;      ///< index into the spec list
  int sample = 0;     ///< index into that model's pool
  int conn = 0;       ///< client index
};

/// What happened to one scheduled request.
struct Outcome {
  bool replied = false;
  runtime::wire::Status status = runtime::wire::Status::Ok;
  bool exact = false;        ///< Ok and bitwise equal to the reference
  double latency_ms = 0.0;   ///< reply time - scheduled send time
  double rtt_ms = 0.0;       ///< reply time - actual send time
  double late_ms = 0.0;      ///< actual send time - scheduled send time
};

/// Poisson arrivals at `rate` req/s for `n` requests, pool samples drawn
/// uniformly, connections assigned round-robin from `first_conn`.
std::vector<Arrival> poisson_schedule(std::size_t n, double rate, int model, std::size_t pool,
                                      int conns, int first_conn, std::uint64_t seed);
/// Merges schedules by arrival time.
std::vector<Arrival> merge_schedules(const std::vector<std::vector<Arrival>>& parts);

/// Open loop over pipelined connections: one sender follows `schedule`
/// regardless of replies; one receiver per connection matches replies by id
/// and checks each Ok payload bitwise. Requests unanswered `grace_s` after
/// the last arrival are cut off by stopping the NetServer (counted as
/// timeouts). With `spans`, records net_client.send_infer (the call) and
/// net_client.infer (actual send -> reply) per request.
std::vector<Outcome> run_open_loop(Stack& stack, const std::vector<Arrival>& schedule,
                                   const std::vector<ModelSpec>& specs, SpanLog* spans,
                                   double grace_s = 30.0);

/// In-process replay of `schedule`: `workers` threads play the NetServer
/// executors — each takes the next arrival, waits for its time, and calls
/// Server::submit -> future::get. Returns the submit->get duration (ms) of
/// each arrival, -1 where it was shed, expired or wrong; counts replies that
/// differ bitwise from the reference into `mismatches`. Records
/// server.submit spans with submit/get children.
std::vector<double> replay_in_process(runtime::Server& server,
                                      const std::vector<Arrival>& schedule,
                                      const std::vector<ModelSpec>& specs, int workers,
                                      SpanLog* spans, std::uint64_t& mismatches);

/// Tallies of a set of outcomes.
struct Tally {
  std::uint64_t sent = 0, ok = 0, shed = 0, expired = 0, errors = 0, mismatches = 0,
                timeouts = 0;
  std::uint64_t failed_total() const { return shed + expired + errors + mismatches + timeouts; }
};
Tally tally(const std::vector<Outcome>& outcomes, const std::vector<Arrival>& schedule,
            int model = -1);
void print_tally(const std::string& label, const Tally& t);

// ---------------------------------------------------------- layer probes

/// Per-step result of the outside plan walk.
struct StepCost {
  std::string name;         ///< Engine::plan_names() entry
  double us = 0.0;          ///< median wall time of the step per forward
  bool cam = false;         ///< step holds CAM layers
  double searches = 0.0;    ///< CAM searches per inference
  double bytes = 0.0;       ///< computed scanned bytes per inference
  ops::OpTotals ledger{};   ///< full op-ledger delta per inference
};

/// Walks lease->cam_export().net step by step (Sequential::layer(i), named by
/// Engine::plan_names()) at the per-shard batch size the engine runs for a
/// parent request of `parent_batch` samples, `reps` times, on pool samples.
/// Sharded parents walk inside a pool lane (kernels inline), exactly as the
/// engine runs shards. Mutates the engine's op ledger: call after reading
/// STATS.
std::vector<StepCost> walk_plan(runtime::Engine& engine, const ModelSpec& spec,
                                std::int64_t parent_batch, int reps, SpanLog* spans);

/// Times wire::encode_tensor_frame and Decoder::feed/next +
/// decode_tensor_request on the workload's own request frames.
void time_wire_codec(const std::vector<ModelSpec>& specs, runtime::wire::Opcode op,
                     std::int64_t batch, int reps, SpanLog& spans);

/// Reads one numeric field from the STATS verb's JSON text.
double stats_field(const std::string& json, const std::string& field);

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();

/// Repeats a wire DEPLOY of `spec`'s artifact `times` times over `client`;
/// returns the round trips (s). Generations must increase.
std::vector<double> wire_deploys(runtime::NetClient& client, const ModelSpec& spec, int times,
                                 SpanLog* spans);

}  // namespace perfbench
