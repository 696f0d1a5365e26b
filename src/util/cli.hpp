// Tiny --key value / --flag argument parser shared by benches and examples.
//
// Benches accept e.g. --epochs / --train-samples to scale the (CPU-bound)
// training schedules up toward the paper's full settings; defaults are the
// scaled-down schedules documented in EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pecan::util {

class Args {
 public:
  /// Parses `--key value` pairs and bare `--flag`s. Unknown positionals throw.
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  long get_int(const std::string& key, long fallback) const;
  /// A TCP port number: throws std::invalid_argument outside [0, 65535]
  /// instead of letting the value wrap.
  std::uint16_t get_port(const std::string& key, std::uint16_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Keys that were provided but never queried (catch typos in scripts).
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace pecan::util
