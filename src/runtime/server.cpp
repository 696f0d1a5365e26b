#include "runtime/server.hpp"

#include <utility>

namespace pecan::runtime {

// Locking rule for the whole table: no Engine method runs and no Engine is
// destroyed while mutex_ is held. Destroying a retired engine drains its
// queue and joins its batcher, and a forward runs a whole plan, so either
// one under the lock would stall every other name's routing behind one
// model. Each method therefore copies or moves the shared_ptr out under the
// lock and uses or drops it after.

Server::Slot Server::slot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  if (it == slots_.end() || !it->second.engine) {
    throw UnknownModelError("Server: no model '" + name + "' is deployed");
  }
  return it->second;
}

std::uint64_t Server::install(const std::string& name, std::shared_ptr<Engine> engine) {
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = slots_[name];
    std::swap(slot.engine, engine);
    generation = ++slot.generation;
  }
  // `engine` now holds the retired engine (null on a first deploy) and drops
  // here, outside the lock: if this was the last lease the old engine drains
  // its pending queue and joins its batcher now, on the deployer's thread;
  // otherwise teardown happens when the last in-flight request drops its
  // lease.
  return generation;
}

std::uint64_t Server::deploy(const std::string& name, std::unique_ptr<nn::Sequential> net,
                             EngineConfig config) {
  // Compile outside any lock: this is the expensive part (weight transfer,
  // CAM export, plan flattening, and — with a known input geometry — the
  // scratch-profile warm-up forward) and a throw here must leave the
  // currently serving engine untouched.
  auto engine = std::make_shared<Engine>(std::move(net), config);
  return install(name, std::move(engine));
}

std::uint64_t Server::deploy(const std::string& name, const ModelArtifact& artifact,
                             EngineConfig config) {
  std::shared_ptr<Engine> engine = Engine::from_artifact(artifact, config);
  return install(name, std::move(engine));
}

std::uint64_t Server::deploy_file(const std::string& name, const std::string& path,
                                  EngineConfig config) {
  // load_artifact throws before any engine exists, and deploy() compiles
  // before touching the table — so every failure mode leaves the currently
  // serving generation in place.
  const ModelArtifact artifact = load_artifact(path);
  return deploy(name, artifact, std::move(config));
}

void Server::undeploy(const std::string& name) {
  std::shared_ptr<Engine> retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(name);
    if (it != slots_.end()) retired = std::move(it->second.engine);
  }
  if (!retired) throw UnknownModelError("Server::undeploy: no model '" + name + "' is deployed");
  // Drops here, outside the lock — same deferred-teardown contract as a
  // hot-swap.
}

std::future<Tensor> Server::submit(const std::string& name, Tensor sample, std::int64_t,
                                   std::chrono::steady_clock::time_point deadline) {
  std::shared_ptr<Engine> engine = slot(name).engine;
  try {
    return engine->submit(std::move(sample), deadline);
  } catch (const OverloadedError&) {
    // The slot outlives undeploy, so the shed lands on this name even when
    // the engine was retired between the lease and the throw.
    std::lock_guard<std::mutex> lock(mutex_);
    ++slots_[name].shed;
    throw;
  }
}

Tensor Server::forward_batch(const std::string& name, const Tensor& batch) {
  return slot(name).engine->forward_batch(batch);
}

bool Server::has_model(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  return it != slots_.end() && it->second.engine;
}

std::vector<std::string> Server::models() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, s] : slots_) {
    if (s.engine) out.push_back(name);
  }
  return out;
}

std::uint64_t Server::generation(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  return it == slots_.end() ? 0 : it->second.generation;
}

ModelServerStats Server::stats(const std::string& name) const {
  // One slot copy: generation, engine and shed come from the same lock
  // acquisition, so the generation always describes the engine we snapshot
  // even if a hot-swap lands between here and Engine::stats().
  const Slot s = slot(name);
  ModelServerStats out;
  out.generation = s.generation;
  out.cam_precision = s.engine->cam_precision();
  out.engine = s.engine->stats();
  // Server-routed sheds across every generation of this name; the live
  // engine's stats().shed only covers the current generation.
  out.shed_total = s.shed;
  return out;
}

void Server::shutdown() {
  std::vector<std::shared_ptr<Engine>> retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, s] : slots_) {
      if (s.engine) retired.push_back(std::move(s.engine));
    }
  }
  // Engines drain and join as each shared_ptr drops (ours may be the last),
  // outside the lock.
}

}  // namespace pecan::runtime
