#include "util/fault_injector.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "util/splitmix.hpp"

namespace pecan::util {

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

std::atomic<bool>& FaultInjector::armed_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

void FaultInjector::arm(const std::string& site, FaultSite config) {
  if (site.empty()) {
    throw std::invalid_argument("FaultInjector::arm: empty site name");
  }
  if (!(config.probability >= 0.0 && config.probability <= 1.0)) {
    throw std::invalid_argument("FaultInjector::arm: probability must be in [0, 1] for site '" +
                                site + "'");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  config.fired = 0;
  sites_[site] = config;
  armed_flag().store(true, std::memory_order_relaxed);
}

void FaultInjector::arm_spec(const std::string& spec) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const std::size_t colon = entry.find(':');
    const std::string site = entry.substr(0, colon == std::string::npos ? entry.size() : colon);
    if (site.empty()) {
      throw std::invalid_argument("FaultInjector::arm_spec: missing site name in '" + entry + "'");
    }
    FaultSite config;
    if (colon != std::string::npos) {
      std::size_t kpos = colon + 1;
      while (kpos < entry.size()) {
        std::size_t kend = entry.find(',', kpos);
        if (kend == std::string::npos) kend = entry.size();
        const std::string kv = entry.substr(kpos, kend - kpos);
        kpos = kend + 1;
        if (kv.empty()) continue;
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          throw std::invalid_argument("FaultInjector::arm_spec: expected key=value, got '" + kv +
                                      "' in '" + entry + "'");
        }
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        try {
          // `used` rejects trailing junk: the number must span the whole value.
          std::size_t used = 0;
          if (key == "p") {
            config.probability = std::stod(value, &used);
          } else if (key == "count") {
            config.count = std::stoll(value, &used);
          } else if (key == "latency_ms") {
            config.latency_ms = std::stoll(value, &used);
          } else {
            throw std::invalid_argument("unknown key");
          }
          if (used != value.size()) throw std::invalid_argument("trailing junk");
        } catch (const std::exception&) {
          throw std::invalid_argument("FaultInjector::arm_spec: bad token '" + kv + "' in '" +
                                      entry + "' (keys: p, count, latency_ms)");
        }
      }
    }
    arm(site, config);
  }
}

void FaultInjector::disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.erase(site);
  if (sites_.empty()) armed_flag().store(false, std::memory_order_relaxed);
}

void FaultInjector::disarm_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.clear();
  armed_flag().store(false, std::memory_order_relaxed);
}

void FaultInjector::set_seed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  rng_state_ = seed;
}

bool FaultInjector::fire(const char* site) {
  std::int64_t latency_ms = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return false;
    FaultSite& s = it->second;
    if (s.count == 0) return false;
    if (s.probability < 1.0 && unit_draw(rng_state_) >= s.probability) return false;
    if (s.count > 0) --s.count;
    ++s.fired;
    latency_ms = s.latency_ms;
  }
  if (latency_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(latency_ms));
  }
  return true;
}

std::uint64_t FaultInjector::fired(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fired;
}

}  // namespace pecan::util
