#pragma once

#include <functional>
#include <vector>

#include "swfi/swfi.hpp"

namespace gpufi::apps {

/// One HPC benchmark: the injectable application plus a host-reference
/// validator (used by tests to prove the kernels compute the right thing).
struct HpcApp {
  swfi::App app;
  /// Checks the device output against a host recomputation (with float
  /// tolerance where accumulation order differs). Call after app.run.
  std::function<bool(const emu::Device&)> validate;
};

/// Tiled GEMM C[M x N] = A[M x K] x B[K x N], every dimension a multiple of
/// 8: one 8x8 tile of C per CTA (grid N/8 x M/8, 8x8 threads), K staged
/// through shared memory 8 wide. Params: A, B, C, N, K, K/8. MxM and every
/// CNN layer (nn::GpuInference) launch it.
isa::Program gemm_kernel();

/// Dense matrix multiplication C = A x B with shared-memory 8x8 tiling
/// (the paper's 512x512 workload, scaled to n x n).
HpcApp make_mxm(unsigned n = 48);

/// Gaussian elimination without pivoting (Rodinia "gaussian"): per-step
/// multiplier kernel (Fan1) + trailing-submatrix update kernel (Fan2).
HpcApp make_gaussian(unsigned n = 48);

/// LU decomposition in place (Rodinia "lud" computational pattern).
HpcApp make_lud(unsigned n = 48);

/// Hotspot thermal simulation (Rodinia): iterative 5-point stencil where
/// each CTA computes a block with a halo whose results are discarded — the
/// architectural masking that gives Hotspot the lowest HPC PVF.
HpcApp make_hotspot(unsigned grid = 32, unsigned iters = 8);

/// LavaMD-style particle interaction: particles in 3D boxes accumulate
/// exp-weighted forces from neighbours within a cutoff radius (exercises
/// FEXP and predicated accumulation).
HpcApp make_lava(unsigned boxes = 2, unsigned particles_per_box = 32);

/// Iterative GPU quicksort: the host keeps a segment stack; a kernel
/// partitions each segment around a pivot (data-dependent control flow),
/// small segments finish with in-kernel insertion sort.
HpcApp make_quicksort(unsigned n = 1024);

/// All six paper applications at their default (scaled) sizes, in the
/// paper's Table III order.
std::vector<HpcApp> all_hpc_apps();

}  // namespace gpufi::apps
