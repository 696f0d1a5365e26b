// runtime::Server — the multi-model serving front door.
//
// One Server owns a table of named engines and routes requests to them:
// submit(model, sample) for micro-batched single samples and
// forward_batch(model, batch) for synchronous batches. On top of the
// per-engine guarantees (bitwise-deterministic stateless forwards, bounded
// pending queue) it adds the three things a production process needs:
//
//   * Deployment. deploy(name, ...) compiles a network or artifact into an
//     Engine off the serving path — no table lock is held while weights
//     load, CAM exports build, or plans flatten — and only then swaps it in.
//     A deploy that throws (corrupt artifact, PQ drift, bad config) leaves
//     the table untouched: the old engine keeps serving and the error
//     surfaces to the deployer alone.
//
//   * Atomic hot-swap. Each name's slot holds a shared_ptr<Engine>, which
//     is the lease: every request copies it for exactly one forward. After a
//     swap, new requests route to the new engine while in-flight requests
//     drain on the old one, which is destroyed (pending queue drained,
//     batcher joined) only when the last lease drops. A single reply
//     therefore never mixes weights from two generations, and no accepted
//     request is lost across a swap.
//
//   * Admission control. Each engine bounds its pending queue
//     (EngineConfig::max_pending); a full queue sheds the arrival with
//     OverloadedError, so submit() never waits for space. The slot also
//     keeps the name's generation and its shed count, which survive
//     hot-swaps and undeploys (undeploy nulls the engine but keeps the
//     slot, so a name's generation is never reused), and stats(name)
//     merges them with the live engine's snapshot (queue depth, in-flight,
//     latency percentiles, shard counters).
//
//   * Sharded big batches, for free. forward_batch(model, batch) routes to
//     Engine::forward_batch, which splits large batches into sample shards
//     (EngineConfig::shard_samples) that run as independent in-flight
//     executions — so one bulk-scoring request no longer monopolizes a
//     single execution lane while latency-sensitive models starve, and a
//     single client saturates the pool the way N concurrent clients would.
//     An artifact deploy also runs one warm-up forward at the family's
//     input geometry, so the first context's arena is grown before the
//     swap instead of during the first request after it.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/model_artifact.hpp"

namespace pecan::runtime {

/// Thrown when routing to a model name that is not (or no longer) deployed.
struct UnknownModelError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Per-model view returned by Server::stats(): the live engine snapshot plus
/// the name's swap-surviving generation and shed count.
#define PECAN_MODEL_SERVER_STATS_FIELDS(X)                                \
  X(std::uint64_t, generation, 0, "ordinal")                              \
  X(std::uint64_t, shed_total, 0, "count")                                \
  X(cam::CamPrecision, cam_precision, cam::CamPrecision::Float32, "enum") \
  X(EngineStats, engine, {}, "struct")
struct ModelServerStats {
  PECAN_MODEL_SERVER_STATS_FIELDS(PECAN_STATS_MEMBER)
};

class Server {
 public:
  Server() = default;
  ~Server() { shutdown(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Compiles `net` into an Engine and installs it under `name` (first
  /// deploy or hot-swap). Returns the new generation. If compilation
  /// throws, the table is untouched. Unload of the replaced engine is
  /// deferred until its last lease drops: usually that is the table's
  /// own reference, so the old engine drains on THIS thread before deploy
  /// returns; with requests still in flight, the drain runs on whichever
  /// thread releases the final lease.
  std::uint64_t deploy(const std::string& name, std::unique_ptr<nn::Sequential> net,
                       EngineConfig config = {});

  /// Rebuilds the artifact's network and deploys it (Engine::from_artifact:
  /// requests are validated against the artifact's input geometry up front).
  std::uint64_t deploy(const std::string& name, const ModelArtifact& artifact,
                       EngineConfig config = {});

  /// Loads a ModelArtifact from disk and deploys it — the single entry point
  /// for the wire DEPLOY opcode and pull-based rollouts. Load, rebuild, and
  /// compile all happen off the serving path; a failure at any stage
  /// (missing file, corrupt artifact, PQ drift) throws and leaves the
  /// table untouched — the old generation keeps serving.
  std::uint64_t deploy_file(const std::string& name, const std::string& path,
                            EngineConfig config = {});

  /// Stops routing to `name`. Outstanding leases drain on their owners'
  /// threads; subsequent requests throw UnknownModelError. The name keeps
  /// its generation and shed count: a later deploy continues from them.
  void undeploy(const std::string& name);

  /// Routes one sample to the engine serving `name`. Throws
  /// UnknownModelError (not deployed), std::invalid_argument (bad sample),
  /// OverloadedError (admission shed — counted in stats), or
  /// DeadlineExceededError (deadline already dead on arrival — see
  /// Engine::submit; the future can also fail with it when the deadline
  /// lapses in the queue).
  ///
  /// The third parameter is ignored: engines have no priority classes (the
  /// wire priority byte orders NetServer's executor queue before this call).
  /// It stays only because perfbench's in-process replay still passes a
  /// priority here, and goes once that caller stops passing it.
  std::future<Tensor> submit(const std::string& name, Tensor sample, std::int64_t = 0,
                             std::chrono::steady_clock::time_point deadline =
                                 std::chrono::steady_clock::time_point::max());

  /// Routes a synchronous batch to the engine serving `name`. Batches
  /// larger than the engine's shard_samples execute as concurrent sample
  /// shards (bitwise-identical rows, recombined in order).
  Tensor forward_batch(const std::string& name, const Tensor& batch);

  /// Leases the engine currently serving `name` (advanced use: pinning one
  /// generation across several calls, reading cam_export(), ...). The lease
  /// keeps that generation alive even across hot-swaps — drop it promptly.
  std::shared_ptr<Engine> lease(const std::string& name) const { return slot(name).engine; }

  bool has_model(const std::string& name) const;
  std::vector<std::string> models() const;  ///< deployed names, sorted
  /// Generation last deployed under `name`: 0 before its first deploy, and
  /// kept (not reset) by undeploy.
  std::uint64_t generation(const std::string& name) const;

  /// Cumulative + live stats for one model. Throws UnknownModelError.
  ModelServerStats stats(const std::string& name) const;

  /// Undeploys every model. In-flight requests still drain; new requests
  /// throw UnknownModelError. Idempotent.
  void shutdown();

 private:
  /// One model name's state. Only deploy and undeploy create or change a
  /// slot's engine; undeploy and shutdown null it but keep the slot.
  struct Slot {
    std::shared_ptr<Engine> engine;  ///< null while the name is not deployed
    std::uint64_t generation = 0;    ///< successful deploys of this name
    std::uint64_t shed = 0;          ///< submit-time sheds, every generation
  };

  /// Copy of `name`'s slot, taken in one lock acquisition. Throws
  /// UnknownModelError when the name is not deployed.
  Slot slot(const std::string& name) const;
  std::uint64_t install(const std::string& name, std::shared_ptr<Engine> engine);

  mutable std::mutex mutex_;
  std::map<std::string, Slot> slots_;
};

}  // namespace pecan::runtime
