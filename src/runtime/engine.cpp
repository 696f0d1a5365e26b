#include "runtime/engine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "models/variant.hpp"
#include "nn/residual.hpp"
#include "util/fault_injector.hpp"
#include "util/thread_pool.hpp"

namespace pecan::runtime {

namespace {
/// Samples in the sliding latency windows behind p50/p99 and the SLO controller.
constexpr std::size_t kLatencyWindow = 1024;
/// Banks of the simulated CAM part every Cam-path engine serves on: arrays
/// are placed round-robin (cam::BankMap), and EngineStats::banks reports
/// one entry per bank.
constexpr std::int64_t kBanks = 4;

/// Flattens nested Sequentials into a linear step list. Residual blocks
/// stay single steps: their two branches are an internal fork/join, not a
/// pipeline stage.
void flatten(const nn::Module& module, std::vector<const nn::Module*>& plan,
             std::vector<std::string>& names) {
  if (const auto* seq = dynamic_cast<const nn::Sequential*>(&module)) {
    for (std::size_t i = 0; i < seq->size(); ++i) flatten(seq->layer(i), plan, names);
    return;
  }
  plan.push_back(&module);
  names.push_back(module.name());
}
}  // namespace

Engine::Engine(std::unique_ptr<nn::Sequential> net, EngineConfig config)
    : net_(std::move(net)),
      config_(config),
      queue_(1, config.max_pending > 0 ? static_cast<std::size_t>(config.max_pending) : 0),
      eff_batch_(kMaxBatch),
      latency_(kLatencyWindow) {
  if (!net_) throw std::invalid_argument("Engine: null network");
  if (config_.max_pending < 0) throw std::invalid_argument("Engine: max_pending must be >= 0");
  if (config_.slo_target_ms < 0.0) {
    throw std::invalid_argument("Engine: slo_target_ms must be >= 0");
  }
  net_->set_training(false);
  if (config_.cam_precision != cam::CamPrecision::Float32 && config_.path != ExecPath::Cam) {
    throw std::invalid_argument("Engine: cam_precision requires ExecPath::Cam");
  }
  if (config_.path == ExecPath::Cam) {
    export_ = cam::convert_to_cam(*net_);
    if (config_.cam_precision != cam::CamPrecision::Float32) {
      export_.set_precision(config_.cam_precision);
    }
    banks_ = std::make_unique<cam::BankMap>(export_, kBanks);
  }
  compile();
}

std::unique_ptr<Engine> Engine::from_artifact(const ModelArtifact& artifact, EngineConfig config) {
  if (config.path == ExecPath::Cam && !models::is_pecan(artifact.variant)) {
    throw std::invalid_argument("Engine: ExecPath::Cam requires a PECAN variant artifact, got " +
                                models::variant_name(artifact.variant));
  }
  // A Float32 config defers to the operating point baked into the artifact;
  // an explicit Int8/Binary config wins (e.g. a canary deploy of the same
  // artifact at a different point).
  if (config.path == ExecPath::Cam && config.cam_precision == cam::CamPrecision::Float32) {
    config.cam_precision = artifact.cam_precision;
  }
  auto engine = std::make_unique<Engine>(build_network(artifact), config);
  engine->input_shape_ = {artifact.in_channels, artifact.in_height, artifact.in_width};
  engine->prewarm_scratch();
  return engine;
}

Engine::~Engine() { shutdown(); }

void Engine::compile() {
  plan_.clear();
  plan_names_.clear();
  flatten(active(), plan_, plan_names_);
  if (plan_.empty()) throw std::invalid_argument("Engine: empty network");
  if (config_.shard_samples < 0) {
    throw std::invalid_argument("Engine: shard_samples must be >= 0");
  }
}

void Engine::prewarm_scratch() {
  // One forward on a zeros sample, off the serving path (deploy/compile
  // time): walks the plan end to end so the leased context's arena reaches
  // its per-sample high-water shape, which the lease release below merges
  // into arena_profile_ — every context materialized later starts from it
  // instead of growing during its first live request. Also fails fast on an
  // input geometry the plan cannot actually consume.
  Shape warm_shape{1};
  warm_shape.insert(warm_shape.end(), input_shape_.begin(), input_shape_.end());
  run_plan(Tensor(warm_shape));
  // The warm-up is not traffic: undo its marks on the CAM op counter, the
  // per-bank ledgers it was mirrored into, and the usage histograms (they
  // feed the paper's dynamic-op numbers, the energy ledger, and §5 pruning
  // decisions, which must only see served requests).
  if (export_.counter) export_.counter->reset();
  if (export_.net) export_.reset_usage();
  if (banks_) banks_->reset();
}

// ---------------------------------------------------------- context leasing

Engine::ContextLease::ContextLease(Engine& engine) : engine_(engine), ctx_(nullptr) {
  std::int64_t materialized;
  nn::ScratchArena::Profile profile;
  {
    std::lock_guard<std::mutex> lock(engine_.ctx_mutex_);
    if (!engine_.free_contexts_.empty()) {
      ctx_ = engine_.free_contexts_.back();
      engine_.free_contexts_.pop_back();
    } else {
      profile = engine_.arena_profile_;  // copy; allocate outside the lock
    }
    materialized = static_cast<std::int64_t>(engine_.contexts_.size());
  }
  if (!ctx_) {
    // Materialize + prewarm off the lock: the profile-sized allocations
    // must not stall concurrent lease traffic during the very burst that
    // forced a new context into existence. The context starts at the
    // engine's merged high-water scratch profile instead of growing during
    // its first live request.
    auto fresh = std::make_unique<nn::InferContext>();
    fresh->arena.prewarm(profile);
    ctx_ = fresh.get();
    std::lock_guard<std::mutex> lock(engine_.ctx_mutex_);
    engine_.contexts_.push_back(std::move(fresh));
    materialized = static_cast<std::int64_t>(engine_.contexts_.size());
  }
  std::lock_guard<std::mutex> stats_lock(engine_.stats_mutex_);
  // max(): concurrent leases release ctx_mutex_ before taking stats_mutex_,
  // so a smaller materialized count may arrive later — never regress.
  engine_.stats_.contexts = std::max(engine_.stats_.contexts, materialized);
  ++engine_.stats_.in_flight;
  engine_.stats_.peak_in_flight =
      std::max(engine_.stats_.peak_in_flight, engine_.stats_.in_flight);
}

Engine::ContextLease::~ContextLease() {
  {
    std::lock_guard<std::mutex> lock(engine_.ctx_mutex_);
    engine_.arena_profile_.merge(ctx_->arena.profile());
    engine_.free_contexts_.push_back(ctx_);
  }
  std::lock_guard<std::mutex> stats_lock(engine_.stats_mutex_);
  --engine_.stats_.in_flight;
}

// ------------------------------------------------------------------ forwards

Tensor Engine::run_plan(const Tensor& batch) {
  // No timing here: latency is recorded by the PARENT request (forward_batch
  // or one coalesced micro-batch), so shard sub-executions are attributed to
  // the request that spawned them instead of inflating the percentile
  // window with per-shard samples.
  ContextLease lease(*this);
  nn::InferContext& ctx = lease.ctx();
  ctx.reset();
  Tensor x = batch;
  for (const nn::Module* step : plan_) x = step->infer(x, ctx);
  return x;
}

Tensor Engine::run_sharded(const Tensor& batch, std::int64_t& shards) {
  shards = 1;
  const std::int64_t n = batch.ndim() >= 2 ? batch.dim(0) : 0;
  std::int64_t shard = config_.shard_samples;
  if (shard == 0 && n > 0) {
    // Auto: one shard per pool lane. A 1-lane pool yields shard == n, i.e.
    // the plain unsharded path — serial configurations pay nothing.
    const std::int64_t lanes = static_cast<std::int64_t>(util::global_lanes());
    shard = (n + lanes - 1) / lanes;
  }
  if (n <= 1 || shard >= n) return run_plan(batch);

  // Each shard is an independent in-flight execution: it leases its own
  // InferContext and, running on a pool lane, executes its kernels inline
  // (nested parallel_for degrades) — coarse-grained parallelism with one
  // fork/join for the whole forward instead of one per layer. Output rows
  // are bitwise-identical to the unsharded run because batching never
  // crosses samples and every row keeps its serial accumulation chain; they
  // are stitched back in sample order below.
  const std::int64_t nshards = (n + shard - 1) / shard;
  const std::int64_t sample_numel = batch.numel() / n;
  std::vector<Tensor> parts(static_cast<std::size_t>(nshards));
  util::parallel_for(
      0, nshards,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const std::int64_t s0 = i * shard;
          const std::int64_t sn = std::min(shard, n - s0);
          Shape piece_shape = batch.shape();
          piece_shape[0] = sn;
          Tensor piece(piece_shape);
          std::memcpy(piece.data(), batch.data() + s0 * sample_numel,
                      static_cast<std::size_t>(sn * sample_numel) * sizeof(float));
          parts[static_cast<std::size_t>(i)] = run_plan(piece);
        }
      },
      1);

  const Tensor& first = parts.front();
  if (first.ndim() < 1 || first.dim(0) != std::min(shard, n)) {
    throw std::logic_error("Engine: shard returned batch dim " + shape_str(first.shape()) +
                           " for a shard of " + std::to_string(std::min(shard, n)));
  }
  Shape out_shape = first.shape();
  out_shape[0] = n;
  Tensor out(out_shape);
  const std::int64_t row_numel = first.numel() / first.dim(0);
  for (std::int64_t i = 0; i < nshards; ++i) {
    const Tensor& part = parts[static_cast<std::size_t>(i)];
    const std::int64_t s0 = i * shard;
    const std::int64_t sn = std::min(shard, n - s0);
    if (part.ndim() < 1 || part.dim(0) != sn || part.numel() != sn * row_numel) {
      throw std::logic_error("Engine: shard " + std::to_string(i) + " returned " +
                             shape_str(part.shape()) + ", expected " + std::to_string(sn) +
                             " rows of " + std::to_string(row_numel) + " elements");
    }
    std::memcpy(out.data() + s0 * row_numel, part.data(),
                static_cast<std::size_t>(sn * row_numel) * sizeof(float));
  }
  shards = nshards;
  return out;
}

Tensor Engine::forward_batch(const Tensor& batch) {
  if (batch.numel() == 0) {
    throw std::invalid_argument("Engine::forward_batch: empty batch " + shape_str(batch.shape()));
  }
  if (!input_shape_.empty()) {
    const bool shape_ok = batch.ndim() == 4 && batch.dim(1) == input_shape_[0] &&
                          batch.dim(2) == input_shape_[1] && batch.dim(3) == input_shape_[2];
    if (!shape_ok) {
      throw std::invalid_argument("Engine::forward_batch: expected a batch of " +
                                  shape_str(input_shape_) + " samples, got " +
                                  shape_str(batch.shape()));
    }
  }
  Tensor out = run_request(batch);
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  ++stats_.direct_batches;
  stats_.direct_samples += static_cast<std::uint64_t>(batch.dim(0));
  return out;
}

Tensor Engine::run_request(const Tensor& batch, bool record) {
  // One PARENT request: wall-clock covers every shard it fans into and the
  // shard counters record the fan-out — shared by forward_batch and the
  // micro-batcher so the two serving paths can never drift in how they
  // account sharding. forward_batch records its wall time here as one
  // sample; the micro-batcher passes record=false and accounts each
  // coalesced sample end-to-end (queue wait included) at promise time.
  const auto start = std::chrono::steady_clock::now();
  std::int64_t shards = 1;
  Tensor out = run_sharded(batch, shards);
  if (record) {
    record_latency(std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                             start)
                       .count());
  }
  if (shards > 1) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.sharded_batches;
    stats_.shard_executions += static_cast<std::uint64_t>(shards);
  }
  return out;
}

// ------------------------------------------------------------ micro-batching

void Engine::ensure_batcher() {
  if (batcher_running_) return;
  batcher_running_ = true;
  batcher_ = std::thread([this] { batcher_loop(); });
}

std::future<Tensor> Engine::submit(Tensor sample, std::chrono::steady_clock::time_point deadline) {
  if (sample.ndim() != 3) {
    throw std::invalid_argument("Engine::submit: expected a [C,H,W] sample, got " +
                                shape_str(sample.shape()));
  }
  // Reject degenerate and mismatched samples here, synchronously: a bad
  // sample queued into a coalesced micro-batch would otherwise fail the
  // whole batch on the batcher thread, poisoning other callers' futures.
  if (sample.numel() == 0) {
    throw std::invalid_argument("Engine::submit: zero-element sample " +
                                shape_str(sample.shape()));
  }
  if (!input_shape_.empty() && sample.shape() != input_shape_) {
    throw std::invalid_argument("Engine::submit: expected a " + shape_str(input_shape_) +
                                " sample, got " + shape_str(sample.shape()));
  }
  // Admission-time deadline check: shedding here costs a few loads; shedding
  // at batch formation costs a queue slot and a wasted wakeup. An EWMA of
  // per-sample service time times the current depth predicts the wait this
  // sample faces — if that already exceeds the remaining budget, the request
  // is dead on arrival and fails now, before it can displace live traffic.
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    const auto now = std::chrono::steady_clock::now();
    bool doomed = now >= deadline;
    if (!doomed) {
      const double ewma = ewma_shared_ms_.load(std::memory_order_relaxed);
      if (ewma > 0.0) {
        const double predicted_wait_ms =
            static_cast<double>(queue_.size() + 1) * ewma;
        const double remaining_ms =
            std::chrono::duration<double, std::milli>(deadline - now).count();
        doomed = predicted_wait_ms > remaining_ms;
      }
    }
    if (doomed) {
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.expired;
      }
      throw DeadlineExceededError(
          "Engine::submit: deadline lapsed (or predicted queue wait exceeds the "
          "remaining budget) — shed at admission");
    }
  }
  {
    // stopping_ check + batcher start are atomic: shutdown() sets stopping_
    // and claims the thread handle under the same mutex, so it can never
    // miss a batcher started here.
    std::lock_guard<std::mutex> lock(batcher_mutex_);
    if (stopping_) throw EngineStoppedError("Engine::submit: engine is shut down");
    ensure_batcher();
  }
  if (PECAN_FAULT_POINT("queue.delay")) {
    // Armed with latency_ms, this stalls the submitter between admission and
    // enqueue — the window where a deadline can lapse while "in the system".
  }
  Pending pending;
  pending.sample = std::move(sample);
  pending.enqueued_at = std::chrono::steady_clock::now();
  pending.deadline = deadline;
  std::future<Tensor> future = pending.promise.get_future();
  const util::PushResult pushed = queue_.try_push(pending, 0);
  if (pushed == util::PushResult::Full) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.shed;
    throw OverloadedError("Engine::submit: pending queue full (max_pending=" +
                          std::to_string(config_.max_pending) + "), request shed");
  }
  if (pushed == util::PushResult::Closed) {
    // Shutdown raced us between the stopping_ check and the push. The
    // pending request was never queued, so nothing is lost; the local
    // promise/future pair dies unobserved.
    throw EngineStoppedError("Engine::submit: engine is shut down");
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.requests;
  }
  return future;
}

void Engine::batcher_loop() {
  std::vector<Pending> batch;
  for (;;) {
    batch.clear();
    // Block for the first sample, then coalesce the longest same-shape run
    // of what is ALREADY queued, in FIFO order — no straggler wait, so a
    // lone sample runs at once and batches form from the backlog that
    // built up while the previous batch ran. The batch cap is the
    // CONTROLLER'S effective value, re-read each iteration (it stays
    // kMaxBatch when slo_target_ms is off). Returns 0 only when the queue
    // is closed AND drained, so every accepted request is executed.
    const auto eff_batch =
        static_cast<std::size_t>(eff_batch_.load(std::memory_order_relaxed));
    const std::size_t popped =
        queue_.pop_batch(batch, eff_batch, [](const Pending& first, const Pending& candidate) {
          return first.sample.shape() == candidate.sample.shape();
        });
    if (popped == 0) return;
    // Lazy expiry sweep at batch formation: samples whose deadline lapsed
    // while queued fail their futures right here — they never reach
    // execute_pending, so a dead request costs no InferContext lease and no
    // kernel time. Live samples keep their pop order.
    std::size_t live = 0;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].deadline <= now) {
        {
          std::lock_guard<std::mutex> stats_lock(stats_mutex_);
          ++stats_.expired;
        }
        batch[i].promise.set_exception(std::make_exception_ptr(DeadlineExceededError(
            "Engine: deadline lapsed in the pending queue — expired at batch formation")));
      } else {
        if (live != i) batch[live] = std::move(batch[i]);
        ++live;
      }
    }
    batch.resize(live);
    if (batch.empty()) continue;
    execute_pending(batch);
  }
}

void Engine::execute_pending(std::vector<Pending>& batch) {
  // Fault site: armed with latency_ms, the batcher wedges here before
  // executing — queued deadlines lapse and the expiry sweep has work to do.
  if (PECAN_FAULT_POINT("engine.stall")) {
  }
  const std::int64_t b = static_cast<std::int64_t>(batch.size());
  const auto exec_start = std::chrono::steady_clock::now();
  try {
    const Shape& sample_shape = batch.front().sample.shape();
    Shape batch_shape{b};
    batch_shape.insert(batch_shape.end(), sample_shape.begin(), sample_shape.end());
    Tensor stacked(batch_shape);
    const std::int64_t sample_numel = batch.front().sample.numel();
    for (std::int64_t i = 0; i < b; ++i) {
      std::memcpy(stacked.data() + i * sample_numel, batch[static_cast<std::size_t>(i)].sample.data(),
                  static_cast<std::size_t>(sample_numel) * sizeof(float));
    }

    // Micro-batches shard too (one coalesced batch = one parent request):
    // on a multi-lane pool a full micro-batch fans out across lanes, which
    // cuts the tail latency of every sample coalesced into it. Latency
    // is NOT recorded here: each sample is accounted end-to-end below.
    Tensor out = run_request(stacked, /*record_latency=*/false);
    if (out.ndim() < 1 || out.dim(0) != b) {
      throw std::logic_error("Engine: network returned batch dim " +
                             shape_str(out.shape()) + " for batch of " + std::to_string(b));
    }
    const auto done = std::chrono::steady_clock::now();
    const auto us = [](std::chrono::steady_clock::duration d) {
      return std::chrono::duration<double, std::micro>(d).count();
    };
    double queue_wait_us = 0.0;
    for (const Pending& pending : batch) queue_wait_us += us(exec_start - pending.enqueued_at);
    // Count before resolving the promises so a client that reads stats()
    // right after future.get() never sees its own batch missing.
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.batches;
      stats_.batched_samples += static_cast<std::uint64_t>(b);
      stats_.queue_wait_us += queue_wait_us;
      stats_.exec_us += static_cast<double>(b) * us(done - exec_start);
    }
    Shape row_shape(out.shape().begin() + 1, out.shape().end());
    const std::int64_t row_numel = out.numel() / b;
    for (std::int64_t i = 0; i < b; ++i) {
      Pending& pending = batch[static_cast<std::size_t>(i)];
      // End-to-end latency (queue wait + execute), recorded
      // BEFORE the promise resolves so a client reading stats() right after
      // get() sees its own sample.
      record_latency(
          std::chrono::duration<double, std::milli>(done - pending.enqueued_at).count());
      Tensor row(row_shape);
      std::memcpy(row.data(), out.data() + i * row_numel,
                  static_cast<std::size_t>(row_numel) * sizeof(float));
      pending.promise.set_value(std::move(row));
    }
    update_controller(std::chrono::duration<double, std::milli>(done - exec_start).count(), b);
  } catch (...) {
    for (Pending& pending : batch) pending.promise.set_exception(std::current_exception());
  }
}

void Engine::shutdown() {
  // Serialize shutdown() callers: std::thread::join from two threads at
  // once is undefined, and the destructor also routes through here.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  std::thread batcher;
  {
    std::lock_guard<std::mutex> lock(batcher_mutex_);
    stopping_ = true;
    // Claim the thread handle under batcher_mutex_ so a concurrent submit()'s
    // ensure_batcher() can never race the join: it either started the
    // batcher before this point (we join it) or observes stopping_ and
    // throws without starting one.
    batcher = std::move(batcher_);
    batcher_running_ = false;
  }
  // Close makes later pushes fail with Closed and lets the batcher drain
  // what was already accepted before it exits.
  queue_.close();
  if (batcher.joinable()) batcher.join();
  // The batcher drains the queue before exiting, so this is normally empty
  // (only a submit that pushed after stopping_ but before close() — and was
  // never followed by a batcher — can leave items). Answer any leftovers
  // cleanly rather than letting promises break when the queue is destroyed.
  for (Pending& pending : queue_.drain()) {
    pending.promise.set_exception(
        std::make_exception_ptr(EngineStoppedError("Engine::submit: engine is shut down")));
  }
}

// -------------------------------------------------------------------- stats

void Engine::record_latency(double ms) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.latency_samples;
  latency_.record(ms);
}

// ---------------------------------------------------------- SLO controller

void Engine::update_controller(double batch_ms, std::int64_t batch_size) {
  // Per-sample service time EWMA (batcher-thread-only state): how long ONE
  // sample costs to execute, amortized over its micro-batch. This is the
  // denominator of the depth cap — queue wait ≈ depth × ewma — so it must
  // track the CURRENT operating point, not lifetime history.
  const double per_sample = batch_ms / static_cast<double>(std::max<std::int64_t>(batch_size, 1));
  ewma_sample_ms_ =
      ewma_sample_ms_ == 0.0 ? per_sample : 0.8 * ewma_sample_ms_ + 0.2 * per_sample;
  // Mirror for submit()'s admission-time deadline prediction (relaxed: a
  // stale estimate only shifts where a doomed request sheds).
  ewma_shared_ms_.store(ewma_sample_ms_, std::memory_order_relaxed);
  if (config_.slo_target_ms <= 0.0) return;

  double p99;
  std::size_t window_n;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    p99 = latency_.percentile(0.99);
    window_n = latency_.size();
  }
  const std::int64_t cur_batch = eff_batch_.load(std::memory_order_relaxed);
  // Multiplicative decrease near the SLO, growth only when the queue is deep
  // enough to fill bigger batches AND the tail has real headroom — the
  // classic AIMD-flavored asymmetry: back off fast, grow deliberately. The
  // window gate keeps the controller from steering on a handful of samples.
  if (window_n >= 8 && p99 > 0.85 * config_.slo_target_ms) {
    eff_batch_.store(std::max<std::int64_t>(1, cur_batch / 2), std::memory_order_relaxed);
  } else if (window_n >= 8 && p99 < 0.6 * config_.slo_target_ms &&
             static_cast<std::int64_t>(queue_.size()) >= cur_batch) {
    eff_batch_.store(std::min(kMaxBatch, cur_batch * 2), std::memory_order_relaxed);
  }
  // Bounded queue: derive the pending-depth cap that makes queue wait fit the
  // SLO. Every queued sample costs ~ewma ms of wait, so capping depth at
  // half the SLO's worth of samples bounds p99 near the target no matter
  // how fast the hardware is — admission control does what batch-size
  // tuning alone cannot once the queue is saturated. The queue is told only
  // when the cap moves: depth_cap_ is written by this thread alone.
  if (config_.max_pending > 0 && ewma_sample_ms_ > 0.0) {
    const double budget = 0.5 * config_.slo_target_ms;
    auto cap = static_cast<std::int64_t>(budget / ewma_sample_ms_);
    cap = std::clamp<std::int64_t>(cap, 1, config_.max_pending);
    if (cap != depth_cap_.load(std::memory_order_relaxed)) {
      depth_cap_.store(cap, std::memory_order_relaxed);
      queue_.set_soft_capacity(static_cast<std::size_t>(cap));
    }
  }
}

EngineStats Engine::stats() const {
  std::int64_t scratch_bytes;
  {
    // Merged high-water profile = the scratch one fully warmed context holds.
    std::lock_guard<std::mutex> ctx_lock(ctx_mutex_);
    scratch_bytes = arena_profile_.bytes();
  }
  EngineStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
    snapshot.p50_ms = latency_.percentile(0.50);
    snapshot.p99_ms = latency_.percentile(0.99);
  }
  snapshot.scratch_bytes = scratch_bytes;
  snapshot.queue_depth = static_cast<std::int64_t>(queue_.size());
  snapshot.eff_max_batch = eff_batch_.load(std::memory_order_relaxed);
  snapshot.depth_cap = depth_cap_.load(std::memory_order_relaxed);
  // Energy: price the exact op ledger through the energy table. The per-bank
  // ledgers are mirrors of the same aggregates, so banks[].energy_pj sums to
  // energy_pj (up to float addition order — the counts themselves are exact).
  if (export_.counter) {
    const ops::EnergyBreakdown e = energy_model_.energy(export_.counter->totals());
    snapshot.energy_pj = e.total_pj();
    const std::uint64_t served = snapshot.batched_samples + snapshot.direct_samples;
    if (served > 0) {
      snapshot.energy_per_inference_nj = e.total_pj() / 1e3 / static_cast<double>(served);
    }
  }
  if (banks_) snapshot.banks = banks_->stats(energy_model_);
  return snapshot;
}

}  // namespace pecan::runtime
