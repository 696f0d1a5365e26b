// The benchmark's named workloads. Each brings up its own serving stack,
// drives it, checks every reply, and fills the report: end-to-end metrics
// untraced, or per-layer metrics from a traced run.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

void run_lenet_wire_open(const RunArgs& args, Report& report, SpanLog* spans);
void run_resnet_bulk_batch(const RunArgs& args, Report& report, SpanLog* spans);
void run_mixed_swap_open(const RunArgs& args, Report& report, SpanLog* spans);

}  // namespace perfbench
