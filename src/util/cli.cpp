#include "util/cli.hpp"

#include <stdexcept>

namespace pecan::util {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("Args: unexpected positional argument '" + arg + "'");
    }
    std::string key = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "true";  // bare flag
    }
  }
}

bool Args::has(const std::string& key) const {
  queried_[key] = true;
  return values_.count(key) > 0;
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
  queried_[key] = true;
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long Args::get_int(const std::string& key, long fallback) const {
  auto text = get(key, "");
  if (text.empty()) return fallback;
  std::size_t used = 0;
  const long value = std::stol(text, &used);
  // The number must span the whole token: "7171x" or "2.5s" is not a number.
  if (used != text.size()) {
    throw std::invalid_argument("Args: --" + key + " bad number '" + text + "'");
  }
  return value;
}

std::uint16_t Args::get_port(const std::string& key, std::uint16_t fallback) const {
  const long value = get_int(key, fallback);
  if (value < 0 || value > 65535) {
    throw std::invalid_argument("Args: --" + key + " port " + std::to_string(value) +
                                " out of range [0, 65535]");
  }
  return static_cast<std::uint16_t>(value);
}

double Args::get_double(const std::string& key, double fallback) const {
  auto text = get(key, "");
  if (text.empty()) return fallback;
  std::size_t used = 0;
  const double value = std::stod(text, &used);
  if (used != text.size()) {
    throw std::invalid_argument("Args: --" + key + " bad number '" + text + "'");
  }
  return value;
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  auto text = get(key, "");
  if (text.empty()) return fallback;
  return text == "true" || text == "1" || text == "yes" || text == "on";
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, _] : values_) {
    if (!queried_.count(key)) out.push_back(key);
  }
  return out;
}

}  // namespace pecan::util
