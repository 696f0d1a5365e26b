// pecan_perfbench — the repository's serving benchmark.
//
//   pecan_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Self-hosts a runtime::Server + NetServer on loopback, drives the named
// workload from this process, checks every reply bitwise against a twin
// engine, and prints a human-readable report followed by one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant, reports the per-layer metrics, and writes its spans to
// DIR/spans-<workload>-<seed>.csv. Artifacts are written under DIR too.
// Exits 1 when any reply was wrong or a self-check failed, 2 on errors.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

void print_json(const Report& report, bool trace, bool correct) {
  std::string metrics;
  for (const Report::Metric& m : trace ? report.per_layer() : report.end_to_end()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pecan::util::Args cli(argc, argv);
    RunArgs args;
    args.workload = cli.get("workload", "");
    args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    args.seconds = cli.get_double("seconds", 10.0);
    args.trace = cli.get_int("trace", 0) != 0;
    args.out_dir = cli.get("out", ".bench_build/perfbench-out");
    for (const std::string& key : cli.unused()) {
      std::fprintf(stderr, "pecan_perfbench: unknown argument --%s\n", key.c_str());
      return 2;
    }
    if (args.seconds <= 0) {
      std::fprintf(stderr, "pecan_perfbench: --seconds must be positive\n");
      return 2;
    }
    std::filesystem::create_directories(args.out_dir);

    void (*run)(const RunArgs&, Report&, SpanLog*) = nullptr;
    if (args.workload == "lenet_wire_open") run = run_lenet_wire_open;
    if (args.workload == "resnet_bulk_batch") run = run_resnet_bulk_batch;
    if (args.workload == "mixed_swap_open") run = run_mixed_swap_open;
    if (!run) {
      std::fprintf(stderr,
                   "pecan_perfbench: --workload must be lenet_wire_open, resnet_bulk_batch or "
                   "mixed_swap_open\n");
      return 2;
    }
    std::printf("workload %s, seed %llu, %.1f s, trace %d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);

    Report report;
    SpanLog spans;
    run(args, report, args.trace ? &spans : nullptr);
    if (args.trace) {
      const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                               std::to_string(args.seed) + ".csv";
      spans.write_csv(path);
      std::printf("spans written to %s\n", path.c_str());
    }
    const bool correct = report.mismatches == 0 && report.failed == 0 && report.check_ok;
    if (!correct) {
      std::printf("INCORRECT: %llu wrong replies, %llu failed requests, self-checks %s\n",
                  static_cast<unsigned long long>(report.mismatches),
                  static_cast<unsigned long long>(report.failed),
                  report.check_ok ? "ok" : "FAILED");
    }
    std::fflush(stdout);
    print_json(report, args.trace, correct);
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "pecan_perfbench: %s\n", e.what());
    return 2;
  }
}
