// The CAM tile-scan kernels at x86-64-v4 (AVX-512 F/BW/CD/DQ/VL). The build
// compiles this TU with -march=x86-64-v4 on x86-64 GCC/Clang only; the
// dispatcher selects its table when the running CPU supports the ISA.
#define PECAN_CAM_KERNEL_NS x86_64_v4
#define PECAN_CAM_KERNEL_TABLE kX86_64V4Kernels
#define PECAN_CAM_KERNEL_ISA "x86-64-v4"
#include "cam/cam_kernels.inc"
