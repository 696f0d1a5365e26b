// The CAM tile-scan kernels at the build's default ISA, plus the runtime
// dispatcher that picks between them and the x86-64-v4 table.
#define PECAN_CAM_KERNEL_NS baseline
#define PECAN_CAM_KERNEL_TABLE kBaselineKernels
#define PECAN_CAM_KERNEL_ISA "baseline"
#include "cam/cam_kernels.inc"

namespace pecan::cam::detail {
namespace {

thread_local const KernelTable* tl_pinned = nullptr;

}  // namespace

SupportedKernels supported_kernels() {
  SupportedKernels s{{&kBaselineKernels, nullptr}, 1};
#if defined(PECAN_CAM_KERNELS_V4)
  // The AVX-512 subset of the x86-64-v4 level plus the v3 features the
  // compiler may emit around it. libgcc / compiler-rt also check that the
  // OS saves the ZMM state before reporting avx512*.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512cd") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma") && __builtin_cpu_supports("bmi") &&
      __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("popcnt")) {
    s.tables[s.count++] = &kX86_64V4Kernels;
  }
#endif
  return s;
}

const KernelTable& resolved_kernels() {
  static const KernelTable* const table = [] {
    const SupportedKernels s = supported_kernels();
    return s.tables[s.count - 1];
  }();
  return *table;
}

const KernelTable& active_kernels() { return tl_pinned ? *tl_pinned : resolved_kernels(); }

ScopedKernelTable::ScopedKernelTable(const KernelTable& table) : prev_(tl_pinned) {
  tl_pinned = &table;
}

ScopedKernelTable::~ScopedKernelTable() { tl_pinned = prev_; }

}  // namespace pecan::cam::detail
