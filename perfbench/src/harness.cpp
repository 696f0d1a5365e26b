#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "cam/cam_conv2d.hpp"
#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "nn/residual.hpp"
#include "runtime/model_artifact.hpp"
#include "runtime/wire.hpp"
#include "tensor/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------- statistics

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

bool tail_supported(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank + 10;
}

// ------------------------------------------------------------------ spans

std::uint64_t SpanLog::record(const std::string& name, Clock::time_point start,
                              Clock::time_point end, std::uint64_t parent, std::uint64_t id) {
  if (id == 0) id = next_id();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({id, parent, name, start, end});
  return id;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

void SpanLog::write_csv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  out << "id,parent,name,start_us,dur_us\n";
  for (const Span& s : spans_) {
    out << s.id << ',' << s.parent << ',' << s.name << ','
        << std::chrono::duration<double, std::micro>(s.start - origin).count() << ','
        << std::chrono::duration<double, std::micro>(s.end - s.start).count() << '\n';
  }
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::uint64_t parent)
    : log_(log), name_(std::move(name)), parent_(parent), start_(Clock::now()) {
  if (log_) id_ = log_->next_id();
}

ScopedSpan::~ScopedSpan() {
  if (log_) log_->record(name_, start_, Clock::now(), parent_, id_);
}

// ----------------------------------------------------------------- report

namespace {
void print_metric(const char* kind, const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  std::printf("  %-10s %-40s %14.6g %-10s%s%s\n", kind, name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  ", note.c_str());
}
}  // namespace

void Report::end_to_end(const std::string& name, double value, const std::string& unit,
                        const std::string& note) {
  e2e_.push_back({name, value, unit});
  print_metric("end2end", name, value, unit, note);
}

void Report::per_layer(const std::string& name, double value, const std::string& unit,
                       const std::string& note) {
  layer_.push_back({name, value, unit});
  print_metric("layer", name, value, unit, note);
}

// ----------------------------------------------------------------- models

namespace {
std::unique_ptr<nn::Sequential> build_model(const std::string& family, models::Variant variant,
                                            Rng& rng) {
  if (family == "lenet5") return models::make_lenet5(variant, rng);
  if (family == "resnet20") return models::make_resnet20(variant, 10, rng);
  throw std::invalid_argument("unknown model family " + family);
}
}  // namespace

void prepare_model(ModelSpec& spec, std::uint64_t model_seed, std::uint64_t input_seed,
                   std::size_t pool, const std::string& out_dir) {
  Rng model_rng(model_seed);
  auto net = build_model(spec.family, spec.variant, model_rng);
  const runtime::ModelArtifact artifact =
      runtime::make_artifact(spec.family, spec.variant, 10, *net);
  spec.artifact_path = out_dir + "/" + spec.name + ".pcan";
  runtime::save_artifact(spec.artifact_path, artifact);

  Rng input_rng(input_seed);
  const Shape sample_shape{artifact.in_channels, artifact.in_height, artifact.in_width};
  spec.samples.clear();
  for (std::size_t i = 0; i < pool; ++i) spec.samples.push_back(input_rng.randn(sample_shape));

  // The twin: compiled from the same artifact with the same config, so
  // every served reply must reproduce its row bit for bit.
  const auto twin = runtime::Engine::from_artifact(runtime::load_artifact(spec.artifact_path),
                                                   spec.config);
  const Tensor out = twin->forward_batch(stack_samples(spec, 0, pool));
  const std::int64_t classes = out.dim(1);
  spec.expected.clear();
  for (std::size_t i = 0; i < pool; ++i) {
    Tensor row(Shape{classes});
    std::memcpy(row.data(), out.data() + static_cast<std::int64_t>(i) * classes,
                static_cast<std::size_t>(classes) * sizeof(float));
    spec.expected.push_back(std::move(row));
  }
}

Tensor stack_samples(const ModelSpec& spec, std::size_t first, std::size_t n) {
  const Tensor& s0 = spec.samples.at(first);
  Shape shape{static_cast<std::int64_t>(n)};
  shape.insert(shape.end(), s0.shape().begin(), s0.shape().end());
  Tensor batch(shape);
  for (std::size_t i = 0; i < n; ++i) {
    const Tensor& s = spec.samples.at((first + i) % spec.samples.size());
    std::memcpy(batch.data() + static_cast<std::int64_t>(i) * s0.numel(), s.data(),
                static_cast<std::size_t>(s0.numel()) * sizeof(float));
  }
  return batch;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

bool bitwise_equal_row(const Tensor& batch_out, std::int64_t row, const Tensor& expected_row) {
  if (batch_out.ndim() != 2 || row >= batch_out.dim(0) ||
      batch_out.dim(1) != expected_row.numel()) {
    return false;
  }
  return std::memcmp(batch_out.data() + row * batch_out.dim(1), expected_row.data(),
                     static_cast<std::size_t>(expected_row.numel()) * sizeof(float)) == 0;
}

// ------------------------------------------------------------------ stack

Stack& Stack::operator=(Stack&& other) noexcept {
  stop();
  server = std::move(other.server);
  net = std::move(other.net);
  clients = std::move(other.clients);
  return *this;
}

Stack::~Stack() { stop(); }

void Stack::stop() {
  clients.clear();
  if (net) net->stop();
  if (server) server->shutdown();
  net.reset();
  server.reset();
}

Stack bring_up(const std::vector<ModelSpec>& specs, runtime::NetServerConfig net_config,
               int connections, SpanLog* spans, double& seconds) {
  const Clock::time_point t0 = Clock::now();
  ScopedSpan setup(spans, "setup");
  Stack stack;
  stack.server = std::make_unique<runtime::Server>();
  for (const ModelSpec& spec : specs) {
    runtime::ModelArtifact artifact;
    {
      ScopedSpan span(spans, "artifact.load_artifact/" + spec.name, setup.id());
      artifact = runtime::load_artifact(spec.artifact_path);
    }
    ScopedSpan span(spans, "server.deploy/" + spec.name, setup.id());
    stack.server->deploy(spec.name, artifact, spec.config);
  }
  {
    ScopedSpan span(spans, "net_server.start", setup.id());
    net_config.host = "127.0.0.1";
    net_config.port = 0;
    stack.net = std::make_unique<runtime::NetServer>(*stack.server, net_config);
    stack.net->start();
  }
  {
    ScopedSpan span(spans, "net_client.connect", setup.id());
    for (int c = 0; c < connections; ++c) {
      stack.clients.push_back(std::make_unique<runtime::NetClient>("127.0.0.1", stack.net->port()));
    }
  }
  const ModelSpec& first = specs.front();
  Tensor reply;
  {
    ScopedSpan span(spans, "net_client.infer", setup.id());
    reply = stack.clients.front()->infer(first.name, first.samples.front(), first.priority,
                                         first.deadline_ms);
  }
  seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!bitwise_equal(reply, first.expected.front())) {
    throw std::runtime_error("set-up: first reply differs bitwise from the reference");
  }
  return stack;
}

Stack bring_up_median(const std::vector<ModelSpec>& specs,
                      const runtime::NetServerConfig& net_config, int connections, int trials,
                      SpanLog* spans, double& setup_s, const std::function<void(Stack&)>& warm) {
  std::vector<double> times;
  Stack stack;
  for (int t = 0; t < trials; ++t) {
    stack.stop();
    double seconds = 0.0;
    stack = bring_up(specs, net_config, connections, spans, seconds);
    times.push_back(seconds);
    if (t == 0) warm(stack);
  }
  setup_s = median(times);
  std::printf("set-up: %d trials, median %.4f s (min %.4f, max %.4f)\n", trials, setup_s,
              *std::min_element(times.begin(), times.end()),
              *std::max_element(times.begin(), times.end()));
  return stack;
}

// ------------------------------------------------------ load generators

std::vector<Arrival> poisson_schedule(std::size_t n, double rate, int model, std::size_t pool,
                                      int conns, int first_conn, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(pool) - 1);
  std::vector<Arrival> out;
  out.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gap(gen);
    out.push_back({t, model, pick(gen), first_conn + static_cast<int>(i % static_cast<std::size_t>(conns))});
  }
  return out;
}

std::vector<Arrival> merge_schedules(const std::vector<std::vector<Arrival>>& parts) {
  std::vector<Arrival> out;
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at_s < b.at_s; });
  return out;
}

std::vector<Outcome> run_open_loop(Stack& stack, const std::vector<Arrival>& schedule,
                                   const std::vector<ModelSpec>& specs, SpanLog* spans,
                                   double grace_s) {
  const std::size_t conns = stack.clients.size();
  std::vector<Outcome> outcomes(schedule.size());
  std::vector<Clock::time_point> sent_at(schedule.size());
  std::vector<std::size_t> expected_per_conn(conns, 0);
  for (const Arrival& a : schedule) ++expected_per_conn.at(static_cast<std::size_t>(a.conn));

  // request id -> schedule index, per connection (the reply can outrun the
  // sender's insert, so receivers wait for the entry).
  std::vector<std::unordered_map<std::uint64_t, std::size_t>> index(conns);
  std::mutex index_mutex;
  std::atomic<std::size_t> receivers_done{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);

  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < conns; ++c) {
    if (expected_per_conn[c] == 0) {
      receivers_done.fetch_add(1);
      continue;
    }
    receivers.emplace_back([&, c] {
      runtime::NetClient& client = *stack.clients[c];
      for (std::size_t k = 0; k < expected_per_conn[c]; ++k) {
        runtime::NetClient::Reply reply;
        try {
          reply = client.recv();
        } catch (const std::exception&) {
          break;  // connection cut (watchdog): the rest count as timeouts
        }
        const Clock::time_point now = Clock::now();
        std::size_t i = 0;
        for (;;) {
          std::unique_lock<std::mutex> lock(index_mutex);
          const auto it = index[c].find(reply.request_id);
          if (it != index[c].end()) {
            i = it->second;
            break;
          }
          lock.unlock();
          std::this_thread::yield();
        }
        const Arrival& a = schedule[i];
        Outcome& o = outcomes[i];
        o.replied = true;
        o.status = reply.status;
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(a.at_s));
        o.latency_ms = ms_between(due, now);
        o.rtt_ms = ms_between(sent_at[i], now);
        if (reply.status == runtime::wire::Status::Ok) {
          const ModelSpec& spec = specs[static_cast<std::size_t>(a.model)];
          o.exact = bitwise_equal(reply.tensor, spec.expected[static_cast<std::size_t>(a.sample)]);
        }
        if (spans) spans->record("net_client.infer", sent_at[i], now, 0, 0);
      }
      receivers_done.fetch_add(1);
    });
  }

  bool send_failed = false;
  for (std::size_t i = 0; i < schedule.size() && !send_failed; ++i) {
    const Arrival& a = schedule[i];
    const ModelSpec& spec = specs[static_cast<std::size_t>(a.model)];
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(a.at_s));
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    sent_at[i] = sent;
    outcomes[i].late_ms = ms_between(due, sent);
    try {
      const std::uint64_t id =
          stack.clients[static_cast<std::size_t>(a.conn)]->send_infer(
              spec.name, spec.samples[static_cast<std::size_t>(a.sample)], spec.priority,
              spec.deadline_ms);
      if (spans) spans->record("net_client.send_infer", sent, Clock::now());
      std::lock_guard<std::mutex> lock(index_mutex);
      index[static_cast<std::size_t>(a.conn)].emplace(id, i);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "open loop: send failed: %s\n", e.what());
      send_failed = true;
    }
  }

  // Watchdog: replies still missing after the grace period are cut off by
  // stopping the server, which closes every connection.
  const double last = schedule.empty() ? 0.0 : schedule.back().at_s;
  const Clock::time_point cutoff =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(last + grace_s));
  while (receivers_done.load() < conns) {
    if (send_failed || Clock::now() > cutoff) {
      std::fprintf(stderr, "open loop: replies missing, stopping the server\n");
      stack.net->stop();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& t : receivers) t.join();
  return outcomes;
}

std::vector<double> replay_in_process(runtime::Server& server,
                                      const std::vector<Arrival>& schedule,
                                      const std::vector<ModelSpec>& specs, int workers,
                                      SpanLog* spans, std::uint64_t& mismatches) {
  std::vector<double> durations(schedule.size(), -1.0);
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < schedule.size(); i = next.fetch_add(1)) {
        const Arrival& a = schedule[i];
        const ModelSpec& spec = specs[static_cast<std::size_t>(a.model)];
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(a.at_s));
        std::this_thread::sleep_until(due);
        const Clock::time_point start = Clock::now();
        const auto deadline = spec.deadline_ms == 0
                                  ? Clock::time_point::max()
                                  : start + std::chrono::milliseconds(spec.deadline_ms);
        try {
          std::future<Tensor> future = server.submit(
              spec.name, spec.samples[static_cast<std::size_t>(a.sample)], spec.priority,
              deadline);
          const Clock::time_point submitted = Clock::now();
          const Tensor out = future.get();
          const Clock::time_point done = Clock::now();
          if (bitwise_equal(out, spec.expected[static_cast<std::size_t>(a.sample)])) {
            durations[i] = ms_between(start, done);
          } else {
            wrong.fetch_add(1);
          }
          if (spans) {
            const std::uint64_t root = spans->record("server.submit", start, done);
            spans->record("server.submit.call", start, submitted, root);
            spans->record("future.get", submitted, done, root);
          }
        } catch (const std::exception&) {
          // shed / expired in-process: no service time to attribute
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  mismatches += wrong.load();
  return durations;
}

Tally tally(const std::vector<Outcome>& outcomes, const std::vector<Arrival>& schedule,
            int model) {
  Tally t;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (model >= 0 && schedule[i].model != model) continue;
    const Outcome& o = outcomes[i];
    ++t.sent;
    if (!o.replied) {
      ++t.timeouts;
    } else if (o.status == runtime::wire::Status::Ok) {
      (o.exact ? t.ok : t.mismatches) += 1;
    } else if (o.status == runtime::wire::Status::Overloaded) {
      ++t.shed;
    } else if (o.status == runtime::wire::Status::DeadlineExceeded) {
      ++t.expired;
    } else {
      ++t.errors;
    }
  }
  return t;
}

void print_tally(const std::string& label, const Tally& t) {
  std::printf("  %-28s sent %7llu  ok %7llu  shed %6llu  expired %5llu  failed %5llu"
              "  (errors %llu, wrong %llu, timeouts %llu)\n",
              label.c_str(), static_cast<unsigned long long>(t.sent),
              static_cast<unsigned long long>(t.ok), static_cast<unsigned long long>(t.shed),
              static_cast<unsigned long long>(t.expired),
              static_cast<unsigned long long>(t.errors + t.mismatches + t.timeouts),
              static_cast<unsigned long long>(t.errors),
              static_cast<unsigned long long>(t.mismatches),
              static_cast<unsigned long long>(t.timeouts));
}

// ---------------------------------------------------------- layer probes

namespace {

/// Engine::compile's flattening: nested Sequentials become consecutive
/// steps; every other module (residual blocks included) is one step.
void flatten_steps(nn::Module& module, std::vector<nn::Module*>& steps) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&module)) {
    for (std::size_t i = 0; i < seq->size(); ++i) flatten_steps(seq->layer(i), steps);
    return;
  }
  steps.push_back(&module);
}

cam::CamConv2d* as_cam(nn::Module& module) {
  if (auto* conv = dynamic_cast<cam::CamConv2d*>(&module)) return conv;
  if (auto* fc = dynamic_cast<cam::CamLinear*>(&module)) return &fc->conv();
  return nullptr;
}

bool holds_cam(nn::Module& module) {
  if (as_cam(module)) return true;
  if (auto* seq = dynamic_cast<nn::Sequential*>(&module)) {
    for (std::size_t i = 0; i < seq->size(); ++i) {
      if (holds_cam(seq->layer(i))) return true;
    }
  }
  if (auto* res = dynamic_cast<nn::Residual*>(&module)) {
    return holds_cam(res->main()) || holds_cam(res->shortcut());
  }
  return false;
}

/// Bytes one search of `array` reads from the array at `precision`,
/// computed from its geometry: f32 words, uint8 codes, or packed sign bits.
double bytes_per_search(const cam::CamArray& array, cam::CamPrecision precision) {
  const double words = static_cast<double>(array.word_count());
  const double d = static_cast<double>(array.word_dim());
  switch (precision) {
    case cam::CamPrecision::Float32: return words * d * 4.0;
    case cam::CamPrecision::Int8: return words * d;
    case cam::CamPrecision::Binary: return words * std::ceil(d / 64.0) * 8.0;
  }
  return 0.0;
}

/// Runs `module` on `x` leaf by leaf, adding each CAM layer's computed
/// scanned bytes (its searches split evenly over its groups, times each
/// group's bytes per search). Residual blocks run both branches on x.
Tensor scan_bytes(nn::Module& module, const Tensor& x, nn::InferContext& ctx,
                  cam::OpCounter& counter, double& bytes) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&module)) {
    Tensor y = x;
    for (std::size_t i = 0; i < seq->size(); ++i) y = scan_bytes(seq->layer(i), y, ctx, counter, bytes);
    return y;
  }
  if (auto* res = dynamic_cast<nn::Residual*>(&module)) {
    scan_bytes(res->main(), x, ctx, counter, bytes);
    scan_bytes(res->shortcut(), x, ctx, counter, bytes);
    return res->infer(x, ctx);
  }
  if (cam::CamConv2d* conv = as_cam(module)) {
    const std::uint64_t before = counter.cam_searches.load();
    Tensor y = module.infer(x, ctx);
    const double per_group = static_cast<double>(counter.cam_searches.load() - before) /
                             static_cast<double>(conv->groups());
    for (std::int64_t j = 0; j < conv->groups(); ++j) {
      bytes += per_group * bytes_per_search(conv->array(j), conv->effective_precision());
    }
    return y;
  }
  return module.infer(x, ctx);
}

ops::OpTotals ledger_delta(const ops::OpTotals& a, const ops::OpTotals& b) {
  ops::OpTotals d;
  d.adds = b.adds - a.adds;
  d.muls = b.muls - a.muls;
  d.cam_searches = b.cam_searches - a.cam_searches;
  d.lut_reads = b.lut_reads - a.lut_reads;
  d.adds_q = b.adds_q - a.adds_q;
  d.muls_q = b.muls_q - a.muls_q;
  d.xor_popcounts = b.xor_popcounts - a.xor_popcounts;
  return d;
}

}  // namespace

std::vector<StepCost> walk_plan(runtime::Engine& engine, const ModelSpec& spec,
                                std::int64_t parent_batch, int reps, SpanLog* spans) {
  cam::CamNetworkExport& exported = engine.cam_export();
  if (!exported.net || !engine.counter()) {
    throw std::logic_error("walk_plan: " + spec.name + " has no CAM export");
  }
  std::vector<nn::Module*> steps;
  flatten_steps(*exported.net, steps);
  const std::vector<std::string>& names = engine.plan_names();
  if (steps.size() != names.size()) {
    throw std::logic_error("walk_plan: walked " + std::to_string(steps.size()) +
                           " steps, engine plan has " + std::to_string(names.size()));
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (steps[i]->name() != names[i]) {
      throw std::logic_error("walk_plan: step " + std::to_string(i) + " is " + steps[i]->name() +
                             ", engine plan says " + names[i]);
    }
  }

  // Engine::run_sharded's shard size: one shard per pool lane.
  const std::int64_t lanes = util::global_lanes();
  const std::int64_t shard = (parent_batch + lanes - 1) / lanes;
  const bool sharded = parent_batch > 1 && shard < parent_batch;
  const std::int64_t batch = sharded ? shard : parent_batch;
  const Tensor input = stack_samples(spec, 0, static_cast<std::size_t>(batch));
  cam::OpCounter& counter = *engine.counter();

  std::vector<StepCost> out(steps.size());
  std::vector<std::vector<double>> times(steps.size());
  auto body = [&] {
    nn::InferContext ctx;
    for (int r = -2; r < reps; ++r) {  // two warm-up forwards grow the arena
      ctx.reset();
      const Clock::time_point walk_start = Clock::now();
      const std::uint64_t walk_id = spans ? spans->next_id() : 0;
      Tensor x = input;
      for (std::size_t i = 0; i < steps.size(); ++i) {
        const ops::OpTotals before = counter.totals();
        const Clock::time_point t0 = Clock::now();
        x = steps[i]->infer(x, ctx);
        const Clock::time_point t1 = Clock::now();
        const ops::OpTotals after = counter.totals();
        if (r < 0) continue;
        times[i].push_back(ms_between(t0, t1) * 1e3);
        if (spans) spans->record("step." + names[i], t0, t1, walk_id);
        if (r == 0) out[i].ledger = ledger_delta(before, after);
      }
      if (r >= 0 && spans) spans->record("plan.walk", walk_start, Clock::now(), 0, walk_id);
    }
  };
  if (sharded) {
    util::global_pool().submit(body).get();
  } else {
    body();
  }

  nn::InferContext ctx;
  Tensor x = stack_samples(spec, 0, 1);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    StepCost& s = out[i];
    s.name = names[i];
    s.us = median(times[i]);
    s.cam = holds_cam(*steps[i]);
    // Ledger per inference: the walk ran `batch` samples per forward.
    const auto b = static_cast<std::uint64_t>(batch);
    ops::OpTotals& l = s.ledger;
    for (std::uint64_t* f : {&l.adds, &l.muls, &l.cam_searches, &l.lut_reads, &l.adds_q,
                             &l.muls_q, &l.xor_popcounts}) {
      if (*f % b != 0) throw std::logic_error("walk_plan: op ledger not linear in batch size");
      *f /= b;
    }
    s.searches = static_cast<double>(l.cam_searches);
    double bytes = 0.0;
    x = scan_bytes(*steps[i], x, ctx, counter, bytes);
    s.bytes = bytes;
  }
  return out;
}

void time_wire_codec(const std::vector<ModelSpec>& specs, runtime::wire::Opcode op,
                     std::int64_t batch, int reps, SpanLog& spans) {
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<Tensor> payloads;
  std::vector<const ModelSpec*> owners;
  for (const ModelSpec& spec : specs) {
    for (std::size_t i = 0; i < std::min<std::size_t>(spec.samples.size(), 8); ++i) {
      payloads.push_back(op == runtime::wire::Opcode::InferBatch
                             ? stack_samples(spec, i, static_cast<std::size_t>(batch))
                             : spec.samples[i]);
      owners.push_back(&spec);
    }
  }
  runtime::wire::Decoder decoder;
  std::vector<std::uint8_t> buf;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t k = 0; k < payloads.size(); ++k) {
      const ModelSpec& spec = *owners[k];
      buf.clear();
      const Clock::time_point t0 = Clock::now();
      runtime::wire::encode_tensor_frame(buf, op, runtime::wire::Status::Ok,
                                         static_cast<std::uint64_t>(r) + 1, spec.name,
                                         payloads[k], spec.priority, spec.deadline_ms);
      const Clock::time_point t1 = Clock::now();
      decoder.feed(buf.data(), buf.size());
      runtime::wire::FrameView frame;
      if (decoder.next(frame) != runtime::wire::Decoder::Result::Frame) {
        throw std::logic_error("time_wire_codec: encoded frame did not decode");
      }
      std::uint8_t priority = 0;
      std::uint32_t deadline_ms = 0;
      const Tensor decoded =
          runtime::wire::decode_tensor_request(frame.payload, frame.payload_len, priority,
                                               deadline_ms);
      const Clock::time_point t2 = Clock::now();
      if (!bitwise_equal(decoded, payloads[k]) || priority != spec.priority ||
          deadline_ms != spec.deadline_ms) {
        throw std::logic_error("time_wire_codec: frame round trip changed the request");
      }
      spans.record("wire.encode_tensor_frame", t0, t1);
      spans.record("wire.decode", t1, t2);
    }
  }
}

double stats_field(const std::string& json, const std::string& field) {
  const std::string key = "\"" + field + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) throw std::runtime_error("STATS reply lacks " + field);
  return std::stod(json.substr(at + key.size()));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::vector<double> wire_deploys(runtime::NetClient& client, const ModelSpec& spec, int times,
                                 SpanLog* spans) {
  std::vector<double> out;
  std::uint64_t last_generation = 0;
  for (int i = 0; i < times; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t generation = client.deploy(spec.name, spec.artifact_path);
    const Clock::time_point t1 = Clock::now();
    if (generation <= last_generation) throw std::runtime_error("DEPLOY: generation did not grow");
    last_generation = generation;
    if (spans) spans->record("net_client.deploy", t0, t1);
    out.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  return out;
}

}  // namespace perfbench
