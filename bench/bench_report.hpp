// Result rows and the JSON writer shared by the performance benches
// (bench_kernels, bench_runtime_throughput, bench_net_throughput), plus the
// latency percentile and the open-loop arrival schedules of the two serving
// benches. bench/check_bench.py reads what write_json() writes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.hpp"

namespace pecan::bench {

/// One result row. Numeric fields < 0 are left out of the JSON, so each
/// bench's rows carry only the keys that bench sets.
struct Row {
  std::string name;
  std::string unit;    ///< empty = omitted
  double scalar = -1;  ///< kernels: "before" rate
  double blocked = -1; ///< kernels: "after" rate
  double img_per_s = -1;
  double rps = -1;
  double speedup = -1;
  double gb_per_s = -1;
  double p50_ms = -1;
  double p99_ms = -1;
  double avg_batch = -1;
  long long shed = -1;
  double goodput = -1;       ///< fault/ rows: bitwise-correct completions / total
  double expired_frac = -1;  ///< fault/ rows: DEADLINE_EXCEEDED outcomes / total
  /// Absolute bounds check_bench.py holds the row to, as min_<field> /
  /// max_<field> keys; empty = no "gate" object.
  std::vector<std::pair<std::string, double>> gate;
};

/// Writes `{<header>, "results": [<rows>]}` to `path`. Header values are
/// raw JSON (quote strings yourself).
inline void write_json(const std::string& path,
                       const std::vector<std::pair<std::string, std::string>>& header,
                       const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  for (const auto& [key, value] : header) {
    std::fprintf(f, "  \"%s\": %s,\n", key.c_str(), value.c_str());
  }
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f, "    {\"name\": \"%s\"", r.name.c_str());
    if (!r.unit.empty()) std::fprintf(f, ", \"unit\": \"%s\"", r.unit.c_str());
    const struct {
      const char* key;
      double value;
      int digits;
    } fields[] = {{"scalar", r.scalar, 4},       {"blocked", r.blocked, 4},
                  {"img_per_s", r.img_per_s, 4}, {"rps", r.rps, 4},
                  {"speedup", r.speedup, 3},     {"gb_per_s", r.gb_per_s, 4},
                  {"p50_ms", r.p50_ms, 4},       {"p99_ms", r.p99_ms, 4},
                  {"avg_batch", r.avg_batch, 3}, {"shed", static_cast<double>(r.shed), 19},
                  {"goodput", r.goodput, 4},     {"expired_frac", r.expired_frac, 4}};
    for (const auto& field : fields) {
      if (field.value >= 0) std::fprintf(f, ", \"%s\": %.*g", field.key, field.digits, field.value);
    }
    if (!r.gate.empty()) {
      std::fprintf(f, ", \"gate\": {");
      for (std::size_t g = 0; g < r.gate.size(); ++g) {
        std::fprintf(f, "%s\"%s\": %.3g", g > 0 ? ", " : "", r.gate[g].first.c_str(),
                     r.gate[g].second);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

/// Flags no bench code read: most likely a typo.
inline void warn_unused(const util::Args& args) {
  for (const std::string& key : args.unused()) {
    std::fprintf(stderr, "warning: unused argument --%s\n", key.c_str());
  }
}

/// Nearest-rank-below percentile (q in [0, 1]) of `values`; 0 when empty.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  return values[index];
}

/// Poisson arrivals: exponential inter-arrival gaps at `rate` req/s, as
/// offsets in seconds from the schedule start.
inline std::vector<double> poisson_schedule(std::size_t n, double rate, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> offsets;
  offsets.reserve(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gap(gen);
    offsets.push_back(t);
  }
  return offsets;
}

/// Bursty arrivals: `burst` simultaneous requests every `burst / rate`
/// seconds — same average rate as the Poisson stream, maximally clumped.
inline std::vector<double> bursty_schedule(std::size_t n, double rate, std::size_t burst) {
  std::vector<double> offsets;
  offsets.reserve(n);
  const double gap = static_cast<double>(burst) / rate;
  for (std::size_t i = 0; i < n; ++i) {
    offsets.push_back(static_cast<double>(i / burst) * gap);
  }
  return offsets;
}

}  // namespace pecan::bench
