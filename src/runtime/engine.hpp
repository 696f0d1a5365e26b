// runtime::Engine — batched, multi-threaded inference serving for trained
// PECAN networks.
//
// The engine compiles a loaded model into a flat execution plan and serves
// it two ways:
//   * forward_batch(): synchronous batched inference ([N,C,H,W] in,
//     [N,classes] out). Large batches are split into sample shards
//     (EngineConfig::shard_samples; auto-sized from the pool width) that
//     run as independent in-flight executions — one InferContext each,
//     kernels inline per shard — so a single big request exploits the same
//     client-level parallelism the stateless path gives N separate
//     clients, with rows recombined in order and bitwise-identical output;
//   * submit(): single-sample requests that a background batcher thread
//     coalesces into micro-batches and answers through futures. The batcher
//     never waits for stragglers: it pops the first pending sample at once,
//     together with whatever else queued while the previous batch ran (up
//     to kMaxBatch), so batches grow with load and a lone sample pays no
//     coalescing delay. The pending queue is one FIFO (a single-class
//     util::PriorityBucketQueue), and with max_pending set a full queue
//     sheds the arrival with OverloadedError — the admission
//     control the multi-model runtime::Server exposes per model. Nothing
//     in submit() waits for queue space. Request priority is not an engine
//     concept: NetServer's executor queue orders wire requests before they
//     reach submit(). With slo_target_ms set, an adaptive controller steers
//     the effective micro-batch size and (with max_pending set) the
//     pending-depth cap off the windowed end-to-end p99 so tail latency
//     tracks the SLO under load.
//
// Concurrency model: the network is immutable after compile() and every
// forward executes through the stateless Module::infer path, with all
// per-call scratch drawn from an nn::InferContext. The engine keeps a
// free-list of contexts — one per concurrently in-flight execution, grown
// on demand up to peak concurrency and retained for reuse — so any number
// of forward_batch() callers plus the batcher thread run fully in
// parallel; there is no per-forward mutex.
//
// Execution paths:
//   Float — the trained pq::PecanConv2d network as-is (prototype matching
//           in f32; also serves Baseline/Adder variants);
//   Cam   — the network exported through cam::convert_to_cam (CAM search +
//           LUT accumulate, Algorithm 1) and placed round-robin onto one
//           fixed simulated part of 4 banks (cam::BankMap); the shared
//           OpCounter, the per-bank ledgers and the usage histograms stay
//           exact under concurrency because lanes tally locally and flush
//           into them atomically. The part is ideal: match-line noise
//           (cam/nonideal) is an offline study over an export, not a
//           serving mode.
//
// Per-sample results are bitwise-identical to an unbatched forward at any
// thread count AND any client concurrency: batching never crosses samples,
// the pool's parallel_for chunk boundaries are timing-independent, and
// infer() touches no shared mutable state (asserted by test_runtime).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cam/bank_map.hpp"
#include "cam/convert.hpp"
#include "nn/module.hpp"
#include "ops/energy_model.hpp"
#include "runtime/model_artifact.hpp"
#include "util/bounded_queue.hpp"
#include "util/latency_window.hpp"
#include "util/stats_fields.hpp"

namespace pecan::runtime {

enum class ExecPath {
  Float,  ///< trained float network (PQ matching or baseline layers)
  Cam     ///< CAM + LUT export (PECAN variants only)
};

/// What submit() does when the pending queue is at max_pending: shed the
/// arrival with OverloadedError. The only admission rule there is.
enum class Backpressure { Reject };

/// Micro-batch size cap of the submit() batcher; the SLO controller moves
/// the effective cap within [1, kMaxBatch].
constexpr std::int64_t kMaxBatch = 8;

/// Thrown by submit() when the pending queue is full. Distinct from
/// validation errors (std::invalid_argument) and from shutdown
/// (EngineStoppedError) so clients and the Server can tell "try again later"
/// apart from "this request is malformed" and "this engine is gone".
struct OverloadedError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown by submit() once the engine is shut down. Subclasses
/// std::runtime_error, so pre-existing catch sites keep working.
struct EngineStoppedError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A request's deadline lapsed before a result was ready. Raised at
/// admission (predicted queue wait exceeds the remaining budget — a cheap
/// early shed) or delivered through the future when the batcher's expiry
/// sweep drops an already-dead sample at batch formation. Distinct from
/// OverloadedError: the queue may be fine — THIS request is out of time.
struct DeadlineExceededError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct EngineConfig {
  ExecPath path = ExecPath::Float;
  /// Admission control: cap on samples queued-but-not-yet-executing; a
  /// full queue sheds the arrival. 0 = unbounded (no admission control).
  std::int64_t max_pending = 0;
  /// One-valued: a bounded queue always rejects. The field stays only
  /// because perfbench's mixed_swap_open workload still sets it, and goes
  /// once that caller stops.
  Backpressure backpressure = Backpressure::Reject;
  /// Batch sharding: forwards larger than this many samples split into
  /// sample shards that run as independent in-flight executions (each
  /// leasing its own InferContext), rows recombined in order — so ONE big
  /// request uses the same client-level parallelism N separate clients
  /// would. 0 = auto (ceil(N / pool lanes): one shard per lane); set it to
  /// the batch size (or any larger value) to disable sharding. Outputs are
  /// bitwise-identical at any shard size because batching never crosses
  /// samples and each output row keeps its single serial accumulation chain.
  std::int64_t shard_samples = 0;
  /// Numeric operating point of the CAM search kernels (ExecPath::Cam only;
  /// setting it on the Float path throws). Float32 is the bitwise spec;
  /// Int8/Binary trade a tolerance-gated accuracy delta for narrower match
  /// lanes. The one owner of the operating point: artifacts carry none, so
  /// one artifact deploys at any precision.
  cam::CamPrecision cam_precision = cam::CamPrecision::Float32;
  /// Tail-latency SLO the adaptive batching controller steers toward, in
  /// milliseconds over submit() end-to-end latency (queue wait + execute).
  /// 0 = controller off: the batch cap stays kMaxBatch. When on, the
  /// controller grows the effective micro-batch cap while the windowed p99
  /// is comfortably under the SLO and the queue is deep enough to fill it,
  /// and cuts it as p99 approaches the SLO; with max_pending set it
  /// additionally derives a pending-depth cap from the SLO and the EWMA
  /// per-sample service time, so queue wait — the term that actually
  /// explodes under overload — stays bounded. Batching still never crosses samples: the controller only
  /// moves WHICH requests share a micro-batch, never how any sample is
  /// computed, so per-sample outputs stay bitwise-identical at every
  /// setting. The effective batch cap moves within [1, kMaxBatch].
  double slo_target_ms = 0.0;
};

/// One engine's live snapshot (Engine::stats()); every field's meaning and
/// reset semantics are in docs/STATS_REFERENCE.md.
#define PECAN_ENGINE_STATS_FIELDS(X)                 \
  X(std::uint64_t, requests, 0, "count")             \
  X(std::uint64_t, batches, 0, "count")              \
  X(std::uint64_t, batched_samples, 0, "count")      \
  X(double, queue_wait_us, 0.0, "µs")                \
  X(double, exec_us, 0.0, "µs")                      \
  X(std::uint64_t, direct_batches, 0, "count")       \
  X(std::uint64_t, sharded_batches, 0, "count")      \
  X(std::uint64_t, shard_executions, 0, "count")     \
  X(std::uint64_t, latency_samples, 0, "count")      \
  X(std::uint64_t, shed, 0, "count")                 \
  X(std::uint64_t, expired, 0, "count")              \
  X(std::int64_t, queue_depth, 0, "gauge")           \
  X(std::int64_t, in_flight, 0, "gauge")             \
  X(std::int64_t, peak_in_flight, 0, "high-water")   \
  X(std::int64_t, contexts, 0, "high-water")         \
  X(std::int64_t, scratch_bytes, 0, "bytes")         \
  X(double, p50_ms, 0.0, "ms")                       \
  X(double, p99_ms, 0.0, "ms")                       \
  X(std::int64_t, eff_max_batch, 0, "samples")       \
  X(std::int64_t, depth_cap, 0, "samples")           \
  X(std::uint64_t, direct_samples, 0, "count")       \
  X(double, energy_pj, 0.0, "pJ")                    \
  X(double, energy_per_inference_nj, 0.0, "nJ")      \
  X(std::vector<cam::BankStats>, banks, {}, "array")
struct EngineStats {
  PECAN_ENGINE_STATS_FIELDS(PECAN_STATS_MEMBER)
};

class Engine {
 public:
  /// Takes ownership of a trained network and compiles it for the chosen
  /// path. The network is put in eval mode; for ExecPath::Cam it is
  /// additionally exported to its CAM+LUT realization.
  Engine(std::unique_ptr<nn::Sequential> net, EngineConfig config = {});

  /// Loads + rebuilds an artifact, then compiles it. The artifact's sample
  /// geometry [C, H, W] makes submit() and forward_batch() reject
  /// mismatched inputs up front (before queuing) instead of failing later
  /// inside a layer on the batcher thread. Runs one warm-up forward
  /// (prewarm_scratch) before returning.
  static std::unique_ptr<Engine> from_artifact(const ModelArtifact& artifact,
                                               EngineConfig config = {});

  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Synchronous batched forward. Fully concurrent: each call leases its
  /// own InferContext, so N client threads get N in-flight executions.
  Tensor forward_batch(const Tensor& batch);

  /// Enqueues one sample ([C,H,W], non-empty) for micro-batched execution;
  /// the future yields its logits row ([classes]) or rethrows the execution
  /// error. The batcher thread starts lazily on first use.
  ///
  /// Admission control: with max_pending > 0 the pending queue is bounded —
  /// a full queue makes submit() throw OverloadedError without queuing. It
  /// never waits for space. Every accepted sample is always answered, even
  /// across shutdown.
  ///
  /// `deadline` (absolute; time_point::max() = none) is enforced twice here:
  /// at admission — an already-lapsed deadline, or an EWMA-predicted queue
  /// wait exceeding the remaining budget, throws DeadlineExceededError
  /// before the sample ever queues — and at batch formation, where the
  /// batcher's lazy expiry sweep fails dead samples' futures with
  /// DeadlineExceededError without leasing them an InferContext. Expired
  /// samples count into EngineStats::expired (never into shed).
  std::future<Tensor> submit(Tensor sample, std::chrono::steady_clock::time_point deadline =
                                                std::chrono::steady_clock::time_point::max());

  /// Drains pending requests, answers them, and stops the batcher thread.
  /// Idempotent and safe to race with submit(): a concurrent submit()
  /// either gets a future that is served/failed cleanly or throws
  /// EngineStoppedError — it never observes a broken promise. Subsequent
  /// submit() calls throw; forward_batch keeps working.
  void shutdown();

  std::int64_t plan_size() const { return static_cast<std::int64_t>(plan_.size()); }
  const std::vector<std::string>& plan_names() const { return plan_names_; }
  ExecPath path() const { return config_.path; }
  /// Operating point the CAM kernels run at: EngineConfig::cam_precision
  /// (Float32 on the Float path).
  cam::CamPrecision cam_precision() const { return config_.cam_precision; }
  EngineStats stats() const;

  /// Shared dynamic op counter of the CAM export (null on the Float path).
  cam::OpCounter* counter() { return export_.counter.get(); }
  /// The CAM export (empty .net on the Float path) — for pruning etc.
  cam::CamNetworkExport& cam_export() { return export_; }
  /// Per-op energy table the engine prices ledgers with.
  const ops::EnergyModel& energy_model() const { return energy_model_; }

 private:
  struct Pending {
    Tensor sample;
    std::promise<Tensor> promise;
    /// submit() timestamp: end-to-end latency (queue wait + execute) is
    /// measured from here to promise resolution.
    std::chrono::steady_clock::time_point enqueued_at{};
    /// Absolute deadline; max() = none. Checked by the batcher's lazy
    /// expiry sweep at batch formation.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  /// RAII lease of one InferContext from the engine's free-list; also
  /// maintains the in-flight gauge.
  class ContextLease {
   public:
    explicit ContextLease(Engine& engine);
    ~ContextLease();
    ContextLease(const ContextLease&) = delete;
    ContextLease& operator=(const ContextLease&) = delete;
    nn::InferContext& ctx() { return *ctx_; }

   private:
    Engine& engine_;
    nn::InferContext* ctx_;
  };

  const nn::Module& active() const { return export_.net ? *export_.net : *net_; }
  Tensor run_plan(const Tensor& batch);
  /// One parent request (a forward_batch call or one coalesced
  /// micro-batch): runs sharded and bumps the shard counters. With
  /// `record_latency` (the forward_batch path) its wall time lands in the
  /// latency window as ONE sample; the micro-batch path passes false and
  /// instead records each coalesced sample's END-TO-END latency at promise
  /// resolution.
  Tensor run_request(const Tensor& batch, bool record_latency = true);
  /// Sharded execution: splits `batch` into sample shards per
  /// config_.shard_samples and runs each as an independent in-flight
  /// execution over the global pool, stitching rows back in order. Returns
  /// the shard count through `shards` (1 = ran unsharded).
  Tensor run_sharded(const Tensor& batch, std::int64_t& shards);
  void compile();
  /// One throwaway forward at deploy time (input_shape_ known): fails fast on
  /// a geometry the plan cannot consume and grows the first context's arena
  /// off the request path, then resets the op counter, usage histograms and
  /// bank ledgers the warm-up touched.
  void prewarm_scratch();
  void batcher_loop();
  void execute_pending(std::vector<Pending>& batch);
  void ensure_batcher();
  /// Records one latency sample (a forward_batch call's wall time, or one
  /// submit()ed sample's end-to-end time) into the sliding window.
  void record_latency(double ms);
  /// SLO controller step, run on the batcher thread after each micro-batch:
  /// folds the batch's per-sample service time into the EWMA, then steers
  /// eff_batch_ (and, with max_pending set, the queue's capacity) off the
  /// windowed end-to-end p99 versus slo_target_ms.
  void update_controller(double batch_ms, std::int64_t batch_size);

  std::unique_ptr<nn::Sequential> net_;
  cam::CamNetworkExport export_;  ///< .net is null on the Float path
  /// Bank placement over export_'s arrays. Declared AFTER export_ so it
  /// destructs FIRST and detaches its ports while the arrays still exist.
  std::unique_ptr<cam::BankMap> banks_;
  EngineConfig config_;
  Shape input_shape_;  ///< artifact sample geometry [C, H, W]; empty = unchecked
  ops::EnergyModel energy_model_;

  std::vector<const nn::Module*> plan_;  ///< flattened execution steps, in order
  std::vector<std::string> plan_names_;

  // Per-worker inference contexts: leased per in-flight execution, made on
  // demand (a lease pops a free one or makes a fresh one), owned for the
  // engine's lifetime. A context's arena grows during its first execution
  // at a geometry and is recycled after that.
  std::mutex ctx_mutex_;
  std::vector<std::unique_ptr<nn::InferContext>> contexts_;
  std::vector<nn::InferContext*> free_contexts_;

  // Single-class pending queue (admission control, FIFO) + the batcher that
  // consumes it. batcher_mutex_ guards the thread handle and stopping_; the
  // queue has its own internal lock. Shutdown ordering:
  // set stopping_ and claim the handle under batcher_mutex_ (so a racing
  // submit() either started the batcher before — we join it — or observes
  // stopping_ and throws), then close the queue, join, and answer any
  // leftovers.
  util::PriorityBucketQueue<Pending> queue_;
  std::mutex batcher_mutex_;
  std::thread batcher_;
  bool batcher_running_ = false;
  bool stopping_ = false;
  std::mutex shutdown_mutex_;  ///< serializes concurrent shutdown() joiners

  // SLO controller outputs, written by the batcher thread and read by the
  // batcher's own pop loop + stats(). Atomics because stats() snapshots
  // concurrently with controller updates.
  std::atomic<std::int64_t> eff_batch_;
  std::atomic<std::int64_t> depth_cap_{0};
  double ewma_sample_ms_ = 0.0;  ///< batcher-thread-only EWMA of per-sample service time
  /// Mirror of ewma_sample_ms_ for admission-time deadline prediction:
  /// submit() multiplies it by the queue depth to estimate the wait a new
  /// sample faces. Relaxed — a slightly stale estimate only moves WHERE a
  /// doomed request is shed, never correctness.
  std::atomic<double> ewma_shared_ms_{0.0};

  mutable std::mutex stats_mutex_;
  EngineStats stats_;
  util::LatencyWindow latency_;  ///< recent request latencies (ms)
};

}  // namespace pecan::runtime
