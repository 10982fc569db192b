#include "apps/apps.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "fparith/fp32.hpp"
#include "fparith/sfu.hpp"
#include "isa/isa.hpp"

namespace gpufi::apps {

using namespace gpufi::isa;
using emu::Device;
using emu::InstrumentHook;
using emu::LaunchConfig;
using emu::LaunchDims;
using emu::LaunchStatus;

namespace {

bool launch_ok(Device& dev, const Program& p, const LaunchDims& dims,
               InstrumentHook* hook, std::uint64_t budget) {
  LaunchConfig cfg;
  cfg.hook = hook;
  // Application launches model a real GPU with a large mapped address
  // space: corrupted addresses fetch wrong data instead of faulting.
  cfg.oob_wraps = true;
  // Per-launch watchdog: an injected fault that corrupts a loop counter
  // hangs the kernel; the budget (a few times the golden instruction
  // count) converts that into a timely DUE.
  cfg.max_retired = budget;
  return dev.launch(p, dims, cfg).status == LaunchStatus::Ok;
}

bool close(float a, float b, float tol) {
  const float d = std::fabs(a - b);
  return d <= tol * std::max({1.0f, std::fabs(a), std::fabs(b)});
}

std::vector<std::uint32_t> read_region(const Device& dev, std::uint32_t base,
                                       std::size_t words) {
  std::vector<std::uint32_t> v(words);
  dev.copy_out(base, v.data(), words);
  return v;
}

}  // namespace

// ===========================================================================
// MxM
// ===========================================================================

Program gemm_kernel() {
  KernelBuilder kb("gemm");
  kb.shared(128);
  kb.mov(0, S(SReg::TID_X));
  kb.mov(1, S(SReg::TID_Y));
  kb.mov(2, S(SReg::CTAID_X));
  kb.mov(3, S(SReg::CTAID_Y));
  kb.imad(4, R(3), I(8), R(1));   // row
  kb.imad(5, R(2), I(8), R(0));   // col
  kb.movf(6, 0.0f);               // acc
  kb.movi(7, 0);                  // tile index t
  kb.imad(12, R(1), I(8), R(0));  // shared idx = ty*8+tx
  kb.imul(13, R(1), I(8));        // ty*8
  kb.loop_begin();
  kb.isetp(0, CmpOp::LT, R(7), S(SReg::PARAM5));  // t < K/8
  kb.loop_while(0);
  // sA[idx] = A[row*K + t*8+tx]
  kb.imad(8, R(7), I(8), R(0));
  kb.imad(8, R(4), S(SReg::PARAM4), R(8));
  kb.iadd(8, R(8), S(SReg::PARAM0));
  kb.gld(9, R(8));
  kb.sts(R(12), R(9));
  // sB[idx] = B[(t*8+ty)*N + col]
  kb.imad(8, R(7), I(8), R(1));
  kb.imad(8, R(8), S(SReg::PARAM3), R(5));
  kb.iadd(8, R(8), S(SReg::PARAM1));
  kb.gld(9, R(8));
  kb.sts(R(12), R(9), 64);
  kb.bar();
  kb.movi(10, 0);  // k
  kb.loop_begin();
  kb.isetp(1, CmpOp::LT, R(10), I(8));
  kb.loop_while(1);
  kb.iadd(11, R(13), R(10));
  kb.lds(14, R(11));
  kb.imad(11, R(10), I(8), R(0));
  kb.lds(15, R(11), 64);
  kb.ffma(6, R(14), R(15), R(6));
  kb.iadd(10, R(10), I(1));
  kb.loop_end();
  kb.bar();
  kb.iadd(7, R(7), I(1));
  kb.loop_end();
  // C[row*N + col] = acc
  kb.imad(8, R(4), S(SReg::PARAM3), R(5));
  kb.iadd(8, R(8), S(SReg::PARAM2));
  kb.gst(R(8), R(6));
  return kb.build();
}

namespace {

std::vector<float> mxm_inputs(unsigned n, std::uint64_t salt) {
  Rng rng(0xA11CE + salt);
  std::vector<float> v(static_cast<std::size_t>(n) * n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

}  // namespace

HpcApp make_mxm(unsigned n) {
  const unsigned words = n * n;
  const std::uint32_t a_base = 0, b_base = words, c_base = 2 * words;
  HpcApp h;
  h.app.name = "MxM";
  h.app.device_words = 3 * words + 64;
  h.app.memory_is_float = true;
  h.app.run = [=](Device& dev, InstrumentHook* hook) {
    const auto a = mxm_inputs(n, 1), b = mxm_inputs(n, 2);
    dev.copy_in_f(a_base, a.data(), words);
    dev.copy_in_f(b_base, b.data(), words);
    Program p = gemm_kernel();
    p.params = {a_base, b_base, c_base, n, n, n / 8, 0, 0};
    // The golden run retires ~11*n^3 thread-instructions, so this watchdog
    // is ~11x golden at every problem size (a flat budget is dozens of
    // times golden for small n, and a fault-induced hang then costs dozens
    // of times a healthy trial before it converts into a DUE).
    const auto budget = 120ull * n * n * n;
    return launch_ok(dev, p, LaunchDims{n / 8, n / 8, 8, 8}, hook, budget);
  };
  h.app.read_output = [=](const Device& dev) {
    return read_region(dev, c_base, words);
  };
  h.validate = [=](const Device& dev) {
    const auto a = mxm_inputs(n, 1), b = mxm_inputs(n, 2);
    for (unsigned r = 0; r < n; ++r) {
      for (unsigned c = 0; c < n; ++c) {
        float acc = 0.0f;
        // Same accumulation order as the kernel (k-major within tiles).
        for (unsigned k = 0; k < n; ++k)
          acc = std::fmaf(a[r * n + k], b[k * n + c], acc);
        if (!close(dev.read_float(c_base + r * n + c), acc, 1e-4f))
          return false;
      }
    }
    return true;
  };
  return h;
}

// ===========================================================================
// Gaussian elimination (augmented matrix n x (n+1))
// ===========================================================================

namespace {

/// Fan1: multipliers m[i] = A[i*w+k] / A[k*w+k] for i > k.
Program gaussian_fan1() {
  KernelBuilder kb("gaussian_fan1");
  kb.mov(0, S(SReg::TID_X));  // i
  kb.isetp(0, CmpOp::GT, R(0), S(SReg::PARAM4));  // i > k
  kb.if_begin(0);
  kb.imad(1, R(0), S(SReg::PARAM3), S(SReg::PARAM4));  // i*w + k
  kb.iadd(1, R(1), S(SReg::PARAM0));
  kb.gld(2, R(1));                                     // A[i][k]
  kb.imad(3, S(SReg::PARAM4), S(SReg::PARAM3), S(SReg::PARAM4));
  kb.iadd(3, R(3), S(SReg::PARAM0));
  kb.gld(4, R(3));                                     // A[k][k]
  kb.frcp(4, R(4));
  kb.fmul(5, R(2), R(4));
  kb.iadd(6, R(0), S(SReg::PARAM1));                   // M + i
  kb.gst(R(6), R(5));
  kb.if_end();
  return kb.build();
}

std::vector<float> gaussian_inputs(unsigned n, unsigned w) {
  Rng rng(0xBEEF);
  std::vector<float> a(static_cast<std::size_t>(n) * w);
  for (unsigned i = 0; i < n; ++i) {
    for (unsigned j = 0; j < w; ++j) {
      float v = static_cast<float>(rng.uniform(-1.0, 1.0));
      if (i == j) v += 8.0f;  // diagonal dominance: no pivoting needed
      a[i * w + j] = v;
    }
  }
  return a;
}

}  // namespace

HpcApp make_gaussian(unsigned n) {
  const unsigned w = n + 1;  // augmented with the b column
  const std::uint32_t a_base = 0, m_base = n * w;
  HpcApp h;
  h.app.name = "Gaussian";
  h.app.device_words = n * w + n + 64;
  h.app.run = [=](Device& dev, InstrumentHook* hook) {
    const auto a = gaussian_inputs(n, w);
    dev.copy_in_f(a_base, a.data(), a.size());
    Program fan1 = gaussian_fan1();
    // Fan2: A[i][j] = A[i][j] - m*A[k][j], via FFMA with negated m.
    KernelBuilder kb("gaussian_fan2");
    kb.mov(0, S(SReg::TID_X));
    kb.mov(1, S(SReg::CTAID_X));
    kb.isetp(0, CmpOp::GT, R(1), S(SReg::PARAM4));
    kb.if_begin(0);
    kb.iadd(2, R(1), S(SReg::PARAM1));
    kb.gld(3, R(2));
    kb.fmul(3, R(3), F(-1.0f));                          // -m
    kb.imad(4, S(SReg::PARAM4), S(SReg::PARAM3), R(0));
    kb.iadd(4, R(4), S(SReg::PARAM0));
    kb.gld(5, R(4));
    kb.imad(6, R(1), S(SReg::PARAM3), R(0));
    kb.iadd(6, R(6), S(SReg::PARAM0));
    kb.gld(7, R(6));
    kb.ffma(8, R(3), R(5), R(7));                        // A[i][j] - m*A[k][j]
    kb.gst(R(6), R(8));
    kb.if_end();
    Program fan2 = kb.build();
    for (unsigned k = 0; k + 1 < n; ++k) {
      fan1.params = {a_base, m_base, 0, w, k, 0, 0, 0};
      if (!launch_ok(dev, fan1, LaunchDims{1, 1, n, 1}, hook, 400'000))
        return false;
      fan2.params = {a_base, m_base, 0, w, k, 0, 0, 0};
      if (!launch_ok(dev, fan2, LaunchDims{n, 1, w, 1}, hook, 400'000))
        return false;
    }
    return true;
  };
  h.app.read_output = [=](const Device& dev) {
    return read_region(dev, a_base, n * w);
  };
  h.validate = [=](const Device& dev) {
    auto a = gaussian_inputs(n, w);
    for (unsigned k = 0; k + 1 < n; ++k) {
      const float rcp = 1.0f / a[k * w + k];
      for (unsigned i = k + 1; i < n; ++i) {
        const float m = a[i * w + k] * rcp;
        for (unsigned j = 0; j < w; ++j)
          a[i * w + j] = std::fmaf(-m, a[k * w + j], a[i * w + j]);
      }
    }
    for (unsigned i = 0; i < n; ++i)
      for (unsigned j = 0; j < w; ++j)
        if (!close(dev.read_float(a_base + i * w + j), a[i * w + j], 2e-3f))
          return false;
    return true;
  };
  return h;
}

// ===========================================================================
// LUD (in-place Doolittle, diagonally dominant input)
// ===========================================================================

HpcApp make_lud(unsigned n) {
  const std::uint32_t a_base = 0;
  HpcApp h;
  h.app.name = "LUD";
  h.app.device_words = n * n + 64;
  auto inputs = [n]() {
    Rng rng(0x10D);
    std::vector<float> a(static_cast<std::size_t>(n) * n);
    for (unsigned i = 0; i < n; ++i)
      for (unsigned j = 0; j < n; ++j) {
        float v = static_cast<float>(rng.uniform(-1.0, 1.0));
        if (i == j) v += 8.0f;
        a[i * n + j] = v;
      }
    return a;
  };
  h.app.run = [=](Device& dev, InstrumentHook* hook) {
    const auto a = inputs();
    dev.copy_in_f(a_base, a.data(), a.size());
    // Column kernel: A[i][k] /= A[k][k] for i > k.
    KernelBuilder c("lud_col");
    c.mov(0, S(SReg::TID_X));  // i
    c.isetp(0, CmpOp::GT, R(0), S(SReg::PARAM4));
    c.if_begin(0);
    c.imad(1, R(0), S(SReg::PARAM3), S(SReg::PARAM4));
    c.iadd(1, R(1), S(SReg::PARAM0));
    c.gld(2, R(1));
    c.imad(3, S(SReg::PARAM4), S(SReg::PARAM3), S(SReg::PARAM4));
    c.iadd(3, R(3), S(SReg::PARAM0));
    c.gld(4, R(3));
    c.frcp(4, R(4));
    c.fmul(2, R(2), R(4));
    c.gst(R(1), R(2));
    c.if_end();
    Program col = c.build();
    // Trailing update: A[i][j] -= A[i][k]*A[k][j] for i,j > k.
    KernelBuilder u("lud_update");
    u.mov(0, S(SReg::TID_X));    // j
    u.mov(1, S(SReg::CTAID_X));  // i
    u.isetp(0, CmpOp::GT, R(1), S(SReg::PARAM4));
    u.isetp(1, CmpOp::GT, R(0), S(SReg::PARAM4));
    u.if_begin(0);
    u.if_begin(1);
    u.imad(2, R(1), S(SReg::PARAM3), S(SReg::PARAM4));  // i*n+k
    u.iadd(2, R(2), S(SReg::PARAM0));
    u.gld(3, R(2));
    u.fmul(3, R(3), F(-1.0f));
    u.imad(4, S(SReg::PARAM4), S(SReg::PARAM3), R(0));  // k*n+j
    u.iadd(4, R(4), S(SReg::PARAM0));
    u.gld(5, R(4));
    u.imad(6, R(1), S(SReg::PARAM3), R(0));             // i*n+j
    u.iadd(6, R(6), S(SReg::PARAM0));
    u.gld(7, R(6));
    u.ffma(8, R(3), R(5), R(7));
    u.gst(R(6), R(8));
    u.if_end();
    u.if_end();
    Program upd = u.build();
    for (unsigned k = 0; k + 1 < n; ++k) {
      col.params = {a_base, 0, 0, n, k, 0, 0, 0};
      if (!launch_ok(dev, col, LaunchDims{1, 1, n, 1}, hook, 400'000))
        return false;
      upd.params = {a_base, 0, 0, n, k, 0, 0, 0};
      if (!launch_ok(dev, upd, LaunchDims{n, 1, n, 1}, hook, 400'000))
        return false;
    }
    return true;
  };
  h.app.read_output = [=](const Device& dev) {
    return read_region(dev, a_base, n * n);
  };
  h.validate = [=](const Device& dev) {
    auto a = inputs();
    for (unsigned k = 0; k + 1 < n; ++k) {
      const float rcp = 1.0f / a[k * n + k];
      for (unsigned i = k + 1; i < n; ++i) a[i * n + k] *= rcp;
      for (unsigned i = k + 1; i < n; ++i)
        for (unsigned j = k + 1; j < n; ++j)
          a[i * n + j] =
              std::fmaf(-a[i * n + k], a[k * n + j], a[i * n + j]);
    }
    for (unsigned i = 0; i < n * n; ++i)
      if (!close(dev.read_float(a_base + i), a[i], 2e-3f)) return false;
    return true;
  };
  return h;
}

// ===========================================================================
// Hotspot (block stencil with discarded halo computation)
// ===========================================================================

namespace {

constexpr float kHotspotC = 0.125f;

/// Two time steps per launch (Rodinia's pyramid): CTAs of 8x8 threads step
/// the grid by 4; every thread computes both steps, but only the 4x4
/// interior -- the cells whose two-step stencil support fits in the block --
/// writes a result. The discarded halo computation is the architectural
/// masking that gives Hotspot the lowest HPC PVF in the paper.
///
/// The temperature grid is padded with a two-cell frozen border (fixed
/// boundary temperature), so no index clamping is needed: a CTA at output
/// tile bx covers columns bx*4 + tx of the padded array exactly.
Program hotspot_kernel() {
  KernelBuilder kb("hotspot");
  kb.shared(128);  // two 8x8 time-step buffers
  kb.mov(0, S(SReg::TID_X));
  kb.mov(1, S(SReg::TID_Y));
  kb.mov(2, S(SReg::CTAID_X));
  kb.mov(3, S(SReg::CTAID_Y));
  // Padded-array coords of this thread's cell.
  kb.imad(4, R(2), I(4), R(0));              // gx = bx*4 + tx
  kb.imad(5, R(3), I(4), R(1));              // gy = by*4 + ty
  kb.imad(6, R(5), S(SReg::PARAM3), R(4));   // gy*W + gx
  kb.iadd(7, R(6), S(SReg::PARAM0));
  kb.gld(8, R(7));                           // t = temp[cell]
  kb.imad(9, R(1), I(8), R(0));              // shared idx
  kb.sts(R(9), R(8));
  kb.iadd(19, R(6), S(SReg::PARAM1));
  kb.gld(20, R(19));                         // power[cell]
  kb.bar();
  // One stencil step from shared buffer `buf` (0 or 64) into R21. Block
  // edges read their in-block neighbour only; their step result is part of
  // the discarded halo.
  auto step = [&](int buf) {
    auto lds_at = [&](std::uint8_t d, int dx, int dy) {
      kb.iadd(16, R(0), I(dx));
      kb.imax(16, R(16), I(0));
      kb.imin(16, R(16), I(7));
      kb.iadd(17, R(1), I(dy));
      kb.imax(17, R(17), I(0));
      kb.imin(17, R(17), I(7));
      kb.imad(18, R(17), I(8), R(16));
      kb.lds(d, R(18), buf);
    };
    kb.lds(8, R(9), buf);  // own cell
    lds_at(10, -1, 0);
    lds_at(11, 1, 0);
    lds_at(12, 0, -1);
    lds_at(13, 0, 1);
    kb.fadd(14, R(10), R(11));
    kb.fadd(14, R(14), R(12));
    kb.fadd(14, R(14), R(13));
    kb.fmul(15, R(8), F(-4.0f));
    kb.fadd(14, R(14), R(15));               // laplacian
    kb.fadd(14, R(14), R(20));               // + power
    kb.ffma(21, R(14), F(kHotspotC), R(8));  // t' = t + c*(lap + p)
  };
  step(0);
  // Frozen border: cells outside [2, grid+1] keep their original value in
  // the step-1 buffer. In-range iff ((gx-2) | (grid-1-(gx-2)) | ...) >= 0
  // (all four slack terms non-negative <=> no sign bit set).
  kb.iadd(22, R(4), I(-2));
  kb.imad(23, R(22), I(-1), S(SReg::PARAM4));  // (grid-1) - (gx-2)
  kb.iadd(24, R(5), I(-2));
  kb.imad(25, R(24), I(-1), S(SReg::PARAM4));
  kb.or_(22, R(22), R(23));
  kb.or_(22, R(22), R(24));
  kb.or_(22, R(22), R(25));
  kb.isetp(0, CmpOp::GE, R(22), I(0));
  kb.sel(23, R(21), R(8), 0);                // interior: t', border: t
  kb.sts(R(9), R(23), 64);                   // step-1 buffer
  kb.bar();
  step(64);
  // Only the 4x4 interior (two-step valid region) writes the output.
  kb.isetp(0, CmpOp::GE, R(0), I(2));
  kb.if_begin(0);
  kb.isetp(1, CmpOp::LE, R(0), I(5));
  kb.if_begin(1);
  kb.isetp(2, CmpOp::GE, R(1), I(2));
  kb.if_begin(2);
  kb.isetp(3, CmpOp::LE, R(1), I(5));
  kb.if_begin(3);
  kb.iadd(6, R(6), S(SReg::PARAM2));
  kb.gst(R(6), R(21));
  kb.if_end();
  kb.if_end();
  kb.if_end();
  kb.if_end();
  return kb.build();
}

std::vector<float> hotspot_init(unsigned w, std::uint64_t salt) {
  Rng rng(0x807 + salt);
  std::vector<float> v(static_cast<std::size_t>(w) * w);
  for (auto& x : v) x = static_cast<float>(rng.uniform(0.0, salt ? 0.1 : 1.0));
  return v;
}

}  // namespace

HpcApp make_hotspot(unsigned grid, unsigned iters) {
  // Padded array: a two-cell frozen border around the grid (fixed boundary
  // temperature), so the two-step pyramid never needs index clamping.
  const unsigned w = grid + 4;
  const unsigned words = w * w;
  const std::uint32_t t0 = 0, power = words, t1 = 2 * words;
  const unsigned launches = (iters + 1) / 2;  // two time steps per launch
  HpcApp h;
  h.app.name = "Hotspot";
  h.app.device_words = 3 * words + 64;
  h.app.run = [=](Device& dev, InstrumentHook* hook) {
    const auto temp = hotspot_init(w, 0), pw = hotspot_init(w, 1);
    dev.copy_in_f(t0, temp.data(), words);
    dev.copy_in_f(power, pw.data(), words);
    // The destination buffer starts as a copy so the frozen border (which
    // the kernel never writes) carries over.
    dev.copy_in_f(t1, temp.data(), words);
    Program p = hotspot_kernel();
    const unsigned ctas = grid / 4;
    std::uint32_t src = t0, dst = t1;
    for (unsigned it = 0; it < launches; ++it) {
      p.params = {src, power, dst, w, grid - 1, 0, 0, 0};
      if (!launch_ok(dev, p, LaunchDims{ctas, ctas, 8, 8}, hook, 3'000'000))
        return false;
      std::swap(src, dst);
    }
    return true;
  };
  const std::uint32_t out = (launches % 2 == 0) ? t0 : t1;
  h.app.read_output = [=](const Device& dev) {
    return read_region(dev, out, words);
  };
  h.validate = [=](const Device& dev) {
    auto t = hotspot_init(w, 0);
    const auto pw = hotspot_init(w, 1);
    auto nxt = t;  // border cells stay frozen
    for (unsigned step = 0; step < 2 * launches; ++step) {
      for (unsigned y = 2; y < grid + 2; ++y)
        for (unsigned x = 2; x < grid + 2; ++x) {
          const float lap = t[y * w + x - 1] + t[y * w + x + 1] +
                            t[(y - 1) * w + x] + t[(y + 1) * w + x] -
                            4.0f * t[y * w + x];
          nxt[y * w + x] =
              std::fmaf(lap + pw[y * w + x], kHotspotC, t[y * w + x]);
        }
      t = nxt;
    }
    for (unsigned i = 0; i < words; ++i)
      if (!close(dev.read_float(out + i), t[i], 2e-3f)) return false;
    return true;
  };
  return h;
}

// ===========================================================================
// Lava (LavaMD-style particle interactions with FEXP and cutoff)
// ===========================================================================

HpcApp make_lava(unsigned boxes, unsigned particles_per_box) {
  const unsigned n = boxes * particles_per_box;
  // Layout: x[n], y[n], z[n], q[n], fx[n], fy[n], fz[n]
  const std::uint32_t xb = 0, yb = n, zb = 2 * n, qb = 3 * n;
  const std::uint32_t fx = 4 * n, fy = 5 * n, fz = 6 * n;
  constexpr float kCutoff2 = 1.5f;
  HpcApp h;
  h.app.name = "Lava";
  h.app.device_words = 7 * n + 64;
  auto inputs = [n]() {
    Rng rng(0x1ABA);
    std::vector<float> v(4 * n);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;  // x, y, z, q concatenated
  };
  h.app.run = [=](Device& dev, InstrumentHook* hook) {
    const auto in = inputs();
    dev.copy_in_f(xb, in.data(), 4 * n);
    KernelBuilder kb("lava");
    kb.mov(0, S(SReg::TID_X));
    kb.mov(1, S(SReg::CTAID_X));
    kb.imad(2, R(1), S(SReg::NTID_X), R(0));  // particle i
    kb.iadd(3, R(2), S(SReg::PARAM0));
    kb.gld(4, R(3));                           // xi
    kb.iadd(3, R(2), S(SReg::PARAM1));
    kb.gld(5, R(3));                           // yi
    kb.iadd(3, R(2), S(SReg::PARAM2));
    kb.gld(6, R(3));                           // zi
    kb.movf(7, 0.0f);                          // fxi
    kb.movf(8, 0.0f);                          // fyi
    kb.movf(9, 0.0f);                          // fzi
    kb.movi(10, 0);                            // j
    kb.loop_begin();
    kb.isetp(0, CmpOp::LT, R(10), S(SReg::PARAM4));  // j < n
    kb.loop_while(0);
    kb.iadd(3, R(10), S(SReg::PARAM0));
    kb.gld(11, R(3));                          // xj
    kb.iadd(3, R(10), S(SReg::PARAM1));
    kb.gld(12, R(3));                          // yj
    kb.iadd(3, R(10), S(SReg::PARAM2));
    kb.gld(13, R(3));                          // zj
    kb.iadd(3, R(10), S(SReg::PARAM3));
    kb.gld(14, R(3));                          // qj
    kb.fmul(15, R(11), F(-1.0f));
    kb.fadd(15, R(4), R(15));                  // dx
    kb.fmul(16, R(12), F(-1.0f));
    kb.fadd(16, R(5), R(16));                  // dy
    kb.fmul(17, R(13), F(-1.0f));
    kb.fadd(17, R(6), R(17));                  // dz
    kb.fmul(18, R(15), R(15));
    kb.ffma(18, R(16), R(16), R(18));
    kb.ffma(18, R(17), R(17), R(18));          // d2
    kb.fsetp(1, CmpOp::LT, R(18), F(kCutoff2));
    kb.if_begin(1);
    kb.fmul(19, R(18), F(-1.0f));
    kb.fexp(19, R(19));                        // w = exp(-d2)
    kb.fmul(19, R(19), R(14));                 // w *= qj
    kb.ffma(7, R(19), R(15), R(7));
    kb.ffma(8, R(19), R(16), R(8));
    kb.ffma(9, R(19), R(17), R(9));
    kb.if_end();
    kb.iadd(10, R(10), I(1));
    kb.loop_end();
    kb.iadd(3, R(2), S(SReg::PARAM5));
    kb.gst(R(3), R(7));
    kb.iadd(3, R(2), S(SReg::PARAM6));
    kb.gst(R(3), R(8));
    kb.iadd(3, R(2), S(SReg::PARAM7));
    kb.gst(R(3), R(9));
    Program p = kb.build();
    p.params = {xb, yb, zb, qb, n, fx, fy, fz};
    return launch_ok(dev, p, LaunchDims{boxes, 1, particles_per_box, 1},
                     hook, 800'000);
  };
  h.app.read_output = [=](const Device& dev) {
    return read_region(dev, fx, 3 * n);
  };
  h.validate = [=](const Device& dev) {
    const auto in = inputs();
    const float* x = in.data();
    const float* y = x + n;
    const float* z = y + n;
    const float* q = z + n;
    for (unsigned i = 0; i < n; ++i) {
      float sx = 0, sy = 0, sz = 0;
      for (unsigned j = 0; j < n; ++j) {
        const float dx = x[i] - x[j], dy = y[i] - y[j], dz = z[i] - z[j];
        const float d2 = std::fmaf(dz, dz, std::fmaf(dy, dy, dx * dx));
        if (d2 < kCutoff2) {
          const float w = fparith::sfu_exp(-d2) * q[j];
          sx = std::fmaf(w, dx, sx);
          sy = std::fmaf(w, dy, sy);
          sz = std::fmaf(w, dz, sz);
        }
      }
      if (!close(dev.read_float(fx + i), sx, 2e-3f) ||
          !close(dev.read_float(fy + i), sy, 2e-3f) ||
          !close(dev.read_float(fz + i), sz, 2e-3f))
        return false;
    }
    return true;
  };
  return h;
}

// ===========================================================================
// Quicksort (host-driven segment stack, partition kernels on device)
// ===========================================================================

namespace {

/// Partitions data[lo..hi] around data[hi] (single-thread Lomuto scheme,
/// all compares and swaps on the device); stores the pivot index to out.
Program quicksort_partition() {
  KernelBuilder kb("qs_partition");
  kb.mov(0, S(SReg::PARAM1));                // lo
  kb.mov(1, S(SReg::PARAM2));                // hi
  kb.iadd(2, R(1), S(SReg::PARAM0));
  kb.gld(3, R(2));                           // pivot = data[hi]
  kb.iadd(4, R(0), I(-1));                   // i = lo-1
  kb.mov(5, R(0));                           // j = lo
  kb.loop_begin();
  kb.isetp(0, CmpOp::LT, R(5), R(1));        // j < hi
  kb.loop_while(0);
  kb.iadd(6, R(5), S(SReg::PARAM0));
  kb.gld(7, R(6));                           // data[j]
  kb.isetp(1, CmpOp::LE, R(7), R(3));
  kb.if_begin(1);
  kb.iadd(4, R(4), I(1));                    // ++i
  kb.iadd(8, R(4), S(SReg::PARAM0));
  kb.gld(9, R(8));                           // data[i]
  kb.gst(R(8), R(7));
  kb.gst(R(6), R(9));                        // swap
  kb.if_end();
  kb.iadd(5, R(5), I(1));
  kb.loop_end();
  kb.iadd(4, R(4), I(1));                    // p = i+1
  kb.iadd(8, R(4), S(SReg::PARAM0));
  kb.gld(9, R(8));
  kb.gst(R(2), R(9));
  kb.iadd(6, R(4), S(SReg::PARAM0));
  kb.gst(R(6), R(3));                        // swap data[p] <-> data[hi]
  kb.mov(10, S(SReg::PARAM3));
  kb.gst(R(10), R(4));                       // out pivot index
  return kb.build();
}

/// Insertion sort of data[lo..hi] (single thread).
Program quicksort_insertion() {
  KernelBuilder kb("qs_insertion");
  kb.mov(0, S(SReg::PARAM1));                // lo
  kb.mov(1, S(SReg::PARAM2));                // hi
  kb.iadd(2, R(0), I(1));                    // i = lo+1
  kb.loop_begin();
  kb.isetp(0, CmpOp::LE, R(2), R(1));
  kb.loop_while(0);
  kb.iadd(3, R(2), S(SReg::PARAM0));
  kb.gld(4, R(3));                           // key
  kb.mov(5, R(2));                           // j = i
  kb.loop_begin();
  kb.isetp(1, CmpOp::GT, R(5), R(0));        // j > lo
  kb.if_begin(1);
  kb.iadd(6, R(5), S(SReg::PARAM0));
  kb.gld(7, R(6), -1);                       // data[j-1]
  kb.isetp(1, CmpOp::GT, R(7), R(4));        // data[j-1] > key
  kb.else_begin();
  kb.isetp(1, CmpOp::NE, R(0), R(0));        // false
  kb.if_end();
  kb.loop_while(1);
  kb.iadd(6, R(5), S(SReg::PARAM0));
  kb.gld(7, R(6), -1);
  kb.gst(R(6), R(7));                        // data[j] = data[j-1]
  kb.iadd(5, R(5), I(-1));
  kb.loop_end();
  kb.iadd(6, R(5), S(SReg::PARAM0));
  kb.gst(R(6), R(4));                        // data[j] = key
  kb.iadd(2, R(2), I(1));
  kb.loop_end();
  return kb.build();
}

std::vector<std::int32_t> quicksort_inputs(unsigned n) {
  Rng rng(0x5047);
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.range(-100000, 100000));
  return v;
}

}  // namespace

HpcApp make_quicksort(unsigned n) {
  const std::uint32_t data_base = 0, piv_base = n;
  constexpr unsigned kSmall = 16;
  HpcApp h;
  h.app.name = "Quicksort";
  h.app.device_words = n + 64;
  h.app.memory_is_float = false;
  h.app.run = [=](Device& dev, InstrumentHook* hook) {
    const auto in = quicksort_inputs(n);
    dev.copy_in(data_base, reinterpret_cast<const std::uint32_t*>(in.data()),
                n);
    Program part = quicksort_partition();
    Program ins = quicksort_insertion();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> stack{{0, n - 1}};
    // Bounded segment count guards against injected faults corrupting the
    // pivot index and exploding the host-side recursion.
    unsigned launches = 0;
    while (!stack.empty() && launches < 16 * n) {
      auto [lo, hi] = stack.back();
      stack.pop_back();
      if (lo >= hi || hi >= n) continue;
      ++launches;
      if (hi - lo < kSmall) {
        ins.params = {data_base, lo, hi, 0, 0, 0, 0, 0};
        if (!launch_ok(dev, ins, LaunchDims{1, 1, 1, 1}, hook, 300'000))
          return false;
        continue;
      }
      part.params = {data_base, lo, hi, piv_base, 0, 0, 0, 0};
      if (!launch_ok(dev, part, LaunchDims{1, 1, 1, 1}, hook, 300'000))
        return false;
      const std::uint32_t p = dev.read_word(piv_base);
      if (p > hi || p < lo) continue;  // corrupted pivot: abandon segment
      if (p > lo) stack.push_back({lo, p - 1});
      if (p < hi) stack.push_back({p + 1, hi});
    }
    return true;
  };
  h.app.read_output = [=](const Device& dev) {
    return read_region(dev, data_base, n);
  };
  h.validate = [=](const Device& dev) {
    auto want = quicksort_inputs(n);
    std::sort(want.begin(), want.end());
    for (unsigned i = 0; i < n; ++i)
      if (static_cast<std::int32_t>(dev.read_word(data_base + i)) != want[i])
        return false;
    return true;
  };
  return h;
}

std::vector<HpcApp> all_hpc_apps() {
  std::vector<HpcApp> v;
  v.push_back(make_mxm());
  v.push_back(make_lava());
  v.push_back(make_quicksort());
  v.push_back(make_hotspot());
  v.push_back(make_gaussian());
  v.push_back(make_lud());
  return v;
}

}  // namespace gpufi::apps
