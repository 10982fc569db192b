#include "emu/device.hpp"

#include <algorithm>
#include <bit>
#include <new>
#include <optional>
#include <stdexcept>

#include "isa/semantics.hpp"

namespace gpufi::emu {

using isa::Instr;
using isa::Opcode;
using isa::Operand;
using isa::OperandKind;

Device::Device(std::size_t global_words) : global_(global_words, 0) {}

std::uint32_t Device::alloc(std::size_t words) {
  if (alloc_watermark_ + words > global_.size()) throw std::bad_alloc();
  const auto base = static_cast<std::uint32_t>(alloc_watermark_);
  alloc_watermark_ += words;
  return base;
}

void Device::reset() {
  std::fill(global_.begin(),
            global_.begin() + static_cast<std::ptrdiff_t>(touched_high_), 0u);
  touched_high_ = 0;
  alloc_watermark_ = 0;
  ctas_run_ = 0;
}

std::uint32_t Device::read_word(std::uint32_t addr) const {
  return global_.at(addr);
}
void Device::write_word(std::uint32_t addr, std::uint32_t value) {
  global_.at(addr) = value;
  touch(static_cast<std::size_t>(addr) + 1);
}
float Device::read_float(std::uint32_t addr) const {
  return std::bit_cast<float>(global_.at(addr));
}
void Device::write_float(std::uint32_t addr, float value) {
  write_word(addr, std::bit_cast<std::uint32_t>(value));
}

void Device::copy_in(std::uint32_t addr, const std::uint32_t* src,
                     std::size_t words) {
  if (!in_bounds(addr, words)) throw std::out_of_range("copy_in");
  std::copy(src, src + words, global_.begin() + addr);
  touch(addr + words);
}
void Device::copy_out(std::uint32_t addr, std::uint32_t* dst,
                      std::size_t words) const {
  if (!in_bounds(addr, words)) throw std::out_of_range("copy_out");
  std::copy(global_.begin() + addr, global_.begin() + addr + words, dst);
}
void Device::copy_in_f(std::uint32_t addr, const float* src,
                       std::size_t words) {
  if (!in_bounds(addr, words)) throw std::out_of_range("copy_in_f");
  for (std::size_t i = 0; i < words; ++i)
    global_[addr + i] = std::bit_cast<std::uint32_t>(src[i]);
  touch(addr + words);
}
void Device::copy_out_f(std::uint32_t addr, float* dst,
                        std::size_t words) const {
  if (!in_bounds(addr, words)) throw std::out_of_range("copy_out_f");
  for (std::size_t i = 0; i < words; ++i)
    dst[i] = std::bit_cast<float>(global_[addr + i]);
}
void Device::fill(std::uint32_t addr, std::size_t words,
                  std::uint32_t value) {
  if (!in_bounds(addr, words)) throw std::out_of_range("fill");
  std::fill(global_.begin() + addr, global_.begin() + addr + words, value);
  touch(addr + words);
}

namespace {

constexpr unsigned kWarpSize = isa::kWarpSize;
constexpr std::size_t kMaxStackDepth = 64;

/// One SIMT reconvergence-stack entry: execute at `pc` with `mask`, merge
/// when `pc` reaches `rpc`.
struct StackEntry {
  std::int32_t pc = 0;
  std::int32_t rpc = -1;
  std::uint32_t mask = 0;
};

struct Warp {
  std::vector<StackEntry> stack;
  bool at_barrier = false;
  bool done = false;

  std::uint32_t active_mask() const {
    return stack.empty() ? 0 : stack.back().mask;
  }
};

/// Interpreter state for one CTA.
struct CtaContext {
  unsigned cta_index = 0;
  unsigned cta_x = 0, cta_y = 0;
  LaunchDims dims;
  std::vector<std::uint32_t> regs;   // [thread][kNumRegs]
  std::vector<std::uint8_t> preds;   // [thread][kNumPreds]
  std::vector<std::uint32_t> shared;
  std::vector<Warp> warps;

  std::uint32_t& reg(unsigned tid, unsigned r) {
    return regs[tid * isa::kNumRegs + r];
  }
  std::uint8_t& pred(unsigned tid, unsigned p) {
    return preds[tid * isa::kNumPreds + p];
  }
};

class Trap : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Calls f(lane) for every set bit of `mask`, in ascending lane order.
template <class F>
void for_each_lane(std::uint32_t mask, F&& f) {
  for (; mask; mask &= mask - 1)
    f(static_cast<unsigned>(std::countr_zero(mask)));
}

}  // namespace

/// Lane slabs of the SoA interpreter (see run_cta_soa), allocated once per
/// launch and re-zeroed per CTA. Slabs are 32-wide even for a partial tail
/// warp; lanes past tpc never enter an active mask, and their garbage results
/// are discarded by the execution mask.
struct Device::SoaSlabs {
  explicit SoaSlabs(unsigned n_warps)
      : regs(static_cast<std::size_t>(n_warps) * isa::kNumRegs * kWarpSize),
        preds(static_cast<std::size_t>(n_warps) * isa::kNumPreds * kWarpSize),
        warps(n_warps) {}
  std::vector<std::uint32_t> regs;
  std::vector<std::uint8_t> preds;
  std::vector<std::uint32_t> shared;
  std::vector<Warp> warps;
};

// The CTA loop both interpreters share. CTAs run one at a time, and every
// CTA starts from zeroed registers, predicates and shared memory, so the
// only state one CTA hands the next is global memory (plus the retired
// count). That is what makes a golden tape exact: a replayed CTA leaves the
// device exactly as executing it would have.
LaunchResult Device::launch(const isa::Program& prog, const LaunchDims& dims,
                            const LaunchConfig& cfg) {
  LaunchResult result;
  const unsigned tpc = dims.threads_per_cta();
  if (tpc == 0 || dims.ctas() == 0) return result;
  std::optional<SoaSlabs> slabs;
  if (interp_ == Interpreter::SoA)
    slabs.emplace((tpc + kWarpSize - 1) / kWarpSize);
  std::uint64_t retired = 0;

  try {
    for (unsigned cta = 0; cta < dims.ctas(); ++cta) {
      const std::size_t run_cta = ctas_run_++;
      InstrumentHook* const hook =
          cfg.hook && !cfg.hook->done(nullptr) ? cfg.hook : nullptr;
      if (hook && hook->on_cta(run_cta) && replaying_ &&
          run_cta < replaying_->ctas.size()) {
        const auto& tape = replaying_->ctas;
        const std::size_t first =
            run_cta == 0 ? 0 : tape[run_cta - 1].stores_end;
        for (std::size_t i = first; i < tape[run_cta].stores_end; ++i)
          store_global(replaying_->stores[i].first,
                       replaying_->stores[i].second);
        retired = tape[run_cta].retired;
      } else if (slabs) {
        run_cta_soa(prog, dims, cfg, cta, retired, *slabs);
      } else {
        run_cta_scalar(prog, dims, cfg, cta, retired);
      }
      if (retired > cfg.max_retired) {
        result.status = LaunchStatus::Timeout;
        break;
      }
      if (recording_) recording_->ctas.push_back({recording_->stores.size(),
                                                  retired});
    }
  } catch (const Trap& t) {
    result.status = LaunchStatus::Trap;
    result.trap_reason = t.what();
  }
  result.retired = retired;
  return result;
}

void Device::run_cta_scalar(const isa::Program& prog, const LaunchDims& dims,
                            const LaunchConfig& cfg, unsigned cta,
                            std::uint64_t& retired) {
  const unsigned tpc = dims.threads_per_cta();
  const auto code_size = static_cast<std::int32_t>(prog.code.size());
  const std::uint64_t max_retired = cfg.max_retired;
  CtaContext ctx;
  ctx.cta_index = cta;
  ctx.cta_x = cta % dims.grid_x;
  ctx.cta_y = cta / dims.grid_x;
  ctx.dims = dims;
  ctx.regs.assign(static_cast<std::size_t>(tpc) * isa::kNumRegs, 0);
  ctx.preds.assign(static_cast<std::size_t>(tpc) * isa::kNumPreds, 0);
  ctx.shared.assign(prog.shared_words, 0);
  const unsigned warps = (tpc + kWarpSize - 1) / kWarpSize;
  ctx.warps.resize(warps);
  for (unsigned w = 0; w < warps; ++w) {
    const unsigned lo = w * kWarpSize;
    const unsigned hi = std::min(tpc, lo + kWarpSize);
    std::uint32_t mask = 0;
    for (unsigned t = lo; t < hi; ++t) mask |= 1u << (t - lo);
    ctx.warps[w].stack.push_back(StackEntry{0, -1, mask});
  }

  auto resolve = [&](const Operand& op, unsigned tid) -> std::uint32_t {
    switch (op.kind) {
      case OperandKind::Reg:
        return ctx.reg(tid, op.value & (isa::kNumRegs - 1));
      case OperandKind::Imm:
        return op.value;
      case OperandKind::Special:
        switch (static_cast<isa::SReg>(op.value)) {
          case isa::SReg::TID_X: return tid % dims.block_x;
          case isa::SReg::TID_Y: return tid / dims.block_x;
          case isa::SReg::NTID_X: return dims.block_x;
          case isa::SReg::NTID_Y: return dims.block_y;
          case isa::SReg::CTAID_X: return ctx.cta_x;
          case isa::SReg::CTAID_Y: return ctx.cta_y;
          case isa::SReg::NCTAID_X: return dims.grid_x;
          case isa::SReg::NCTAID_Y: return dims.grid_y;
          case isa::SReg::LANEID: return tid % kWarpSize;
          default: {
            const auto p = static_cast<unsigned>(op.value) -
                           static_cast<unsigned>(isa::SReg::PARAM0);
            return prog.params[p % isa::kNumParams];
          }
        }
        return 0;
      case OperandKind::None:
        return 0;
    }
    return 0;
  };

  // Round-robin, one instruction per warp per turn: deterministic and
  // fair, and barriers release exactly when every live warp arrives.
  bool all_done = false;
  while (!all_done) {
    bool progressed = false;
    all_done = true;
    for (unsigned w = 0; w < warps; ++w) {
      Warp& warp = ctx.warps[w];
      if (warp.done) continue;
      all_done = false;
      if (warp.at_barrier) continue;
      progressed = true;

      StackEntry& top = warp.stack.back();
      const std::int32_t pc = top.pc;
      if (pc < 0 || pc >= code_size) throw Trap("invalid PC");
      const Instr& instr = prog.code[pc];
      // A hook done with this instruction runs it on the unhooked fast
      // path (results are identical either way).
      InstrumentHook* const hook =
          cfg.hook && !cfg.hook->done(&instr) ? cfg.hook : nullptr;

      // Per-thread guard evaluation.
      std::uint32_t exec = 0;
      for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (!(top.mask & (1u << lane))) continue;
        const unsigned tid = w * kWarpSize + lane;
        bool on = true;
        if (instr.pred >= 0) {
          on = ctx.pred(tid, static_cast<unsigned>(instr.pred) &
                                 (isa::kNumPreds - 1)) != 0;
          if (instr.pred_neg) on = !on;
        }
        if (on) exec |= 1u << lane;
      }

      // Retirement accounting + profiling hook (all participating
      // threads, guarded-off threads do not retire).
      auto count_retired = [&](std::uint32_t mask) {
        if (!hook) {
          retired += static_cast<unsigned>(std::popcount(mask));
          return;
        }
        for (std::uint32_t m = mask; m; m &= m - 1) {
          const unsigned lane =
              static_cast<unsigned>(std::countr_zero(m));
          ++retired;
          RetireInfo info;
          info.instr = &instr;
          info.pc = pc;
          info.thread = ThreadId{cta, w, lane, w * kWarpSize + lane};
          info.dyn_index = retired - 1;
          hook->on_count(info);
        }
      };

      switch (instr.op) {
        case Opcode::BRA: {
          count_retired(exec);
          const std::uint32_t not_taken = top.mask & ~exec;
          if (not_taken == 0) {
            if (instr.target < 0) throw Trap("BRA without target");
            top.pc = instr.target;
          } else if (exec == 0) {
            top.pc = pc + 1;
          } else {
            if (instr.reconv < 0)
              throw Trap("divergent BRA without reconvergence point");
            if (warp.stack.size() + 2 > kMaxStackDepth)
              throw Trap("SIMT stack overflow");
            top.pc = instr.reconv;  // merged continuation
            warp.stack.push_back(
                StackEntry{pc + 1, instr.reconv, not_taken});
            warp.stack.push_back(
                StackEntry{instr.target, instr.reconv, exec});
          }
          break;
        }
        case Opcode::EXIT: {
          count_retired(exec);
          for (auto& entry : warp.stack) entry.mask &= ~exec;
          // Remaining guarded-off threads continue past the EXIT.
          top.pc = pc + 1;
          break;
        }
        case Opcode::BAR: {
          count_retired(exec);
          warp.at_barrier = true;
          top.pc = pc + 1;
          break;
        }
        case Opcode::NOP: {
          count_retired(exec);
          top.pc = pc + 1;
          break;
        }
        case Opcode::ISETP:
        case Opcode::FSETP: {
          for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (!(exec & (1u << lane))) continue;
            const unsigned tid = w * kWarpSize + lane;
            const std::uint32_t a = resolve(instr.a, tid);
            const std::uint32_t b = resolve(instr.b, tid);
            bool v = instr.op == Opcode::ISETP
                         ? isa::cmp_eval_i(instr.cmp, a, b)
                         : isa::cmp_eval_f(instr.cmp, a, b);
            ++retired;
            if (hook) {
              RetireInfo info;
              info.instr = &instr;
              info.pc = pc;
              info.thread = ThreadId{cta, w, lane, tid};
              info.dyn_index = retired - 1;
              info.a = a;
              info.b = b;
              hook->on_count(info);
              hook->on_pred_retire(info, v);
            }
            ctx.pred(tid, instr.dst & (isa::kNumPreds - 1)) = v ? 1 : 0;
          }
          top.pc = pc + 1;
          break;
        }
        case Opcode::GLD:
        case Opcode::GST:
        case Opcode::LDS:
        case Opcode::STS: {
          const bool is_load =
              instr.op == Opcode::GLD || instr.op == Opcode::LDS;
          const bool is_global =
              instr.op == Opcode::GLD || instr.op == Opcode::GST;
          for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (!(exec & (1u << lane))) continue;
            const unsigned tid = w * kWarpSize + lane;
            const std::uint32_t base = resolve(instr.a, tid);
            std::uint32_t addr =
                base + static_cast<std::uint32_t>(instr.imm);
            const std::size_t limit =
                is_global ? global_.size() : ctx.shared.size();
            if (addr >= limit) {
              if (!cfg.oob_wraps || limit == 0)
                throw Trap("out-of-bounds memory access");
              addr = static_cast<std::uint32_t>(addr % limit);
            }
            std::uint32_t value;
            if (is_load) {
              value = is_global ? global_[addr] : ctx.shared[addr];
            } else {
              value = resolve(instr.b, tid);
            }
            ++retired;
            if (hook) {
              RetireInfo info;
              info.instr = &instr;
              info.pc = pc;
              info.thread = ThreadId{cta, w, lane, tid};
              info.dyn_index = retired - 1;
              info.a = base;
              info.b = value;
              hook->on_count(info);
              if (is_load) hook->on_retire(info, value);
            }
            if (is_load) {
              ctx.reg(tid, instr.dst & (isa::kNumRegs - 1)) = value;
            } else if (is_global) {
              store_global(addr, value);
            } else {
              ctx.shared[addr] = value;
            }
          }
          top.pc = pc + 1;
          break;
        }
        default: {  // data-processing instructions
          for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (!(exec & (1u << lane))) continue;
            const unsigned tid = w * kWarpSize + lane;
            const std::uint32_t a = resolve(instr.a, tid);
            const std::uint32_t b = resolve(instr.b, tid);
            std::uint32_t c = 0;
            bool c_pred = false;
            if (instr.op == Opcode::SEL) {
              c_pred = ctx.pred(tid, instr.c.value &
                                         (isa::kNumPreds - 1)) != 0;
            } else {
              c = resolve(instr.c, tid);
            }
            std::uint32_t value =
                isa::alu_result(instr.op, a, b, c, c_pred);
            ++retired;
            if (hook) {
              RetireInfo info;
              info.instr = &instr;
              info.pc = pc;
              info.thread = ThreadId{cta, w, lane, tid};
              info.dyn_index = retired - 1;
              info.a = a;
              info.b = b;
              info.c = c;
              hook->on_count(info);
              hook->on_retire(info, value);
            }
            ctx.reg(tid, instr.dst & (isa::kNumRegs - 1)) = value;
          }
          top.pc = pc + 1;
          break;
        }
      }

      // Merge completed divergence regions and retire empty entries.
      while (!warp.stack.empty()) {
        StackEntry& t = warp.stack.back();
        if (t.mask == 0 || (t.rpc >= 0 && t.pc == t.rpc)) {
          // An emptied base entry means every thread exited.
          if (warp.stack.size() == 1 && t.mask != 0) break;
          warp.stack.pop_back();
        } else {
          break;
        }
      }
      if (warp.stack.empty() || warp.stack.back().mask == 0) {
        warp.done = true;
      }

      if (retired > max_retired) return;  // watchdog
    }

    // Barrier release: every live warp has arrived.
    if (!all_done && !progressed) {
      bool any_waiting = false;
      for (auto& warp : ctx.warps)
        any_waiting |= !warp.done && warp.at_barrier;
      if (!any_waiting) throw Trap("scheduler deadlock");
      for (auto& warp : ctx.warps) warp.at_barrier = false;
    } else if (!all_done) {
      // If all non-done warps are at the barrier, release them.
      bool all_at_bar = true;
      for (auto& warp : ctx.warps)
        if (!warp.done && !warp.at_barrier) all_at_bar = false;
      if (all_at_bar)
        for (auto& warp : ctx.warps) warp.at_barrier = false;
    }
  }
}

// ---------------------------------------------------------------------------
// SoA warp execution.
//
// CTA state is structure-of-arrays: register r of warp w lives in one
// contiguous 32-lane slab (regs[(w*kNumRegs + r)*32 + lane]), predicates
// likewise. An instruction is decoded once per warp. A dense mask (at least
// half the lanes live) gathers its operands once (register operands alias
// their slab, immediates broadcast) and runs all lanes through the
// isa::*_lanes kernels in tight branch-free loops. A sparse mask steps each
// live lane in turn: read its operands, compute, retire, write back. The
// retire-callback loop runs in lane order with the same RetireInfo values as
// the scalar path, so hooks — including the injection hook targeting the
// N-th dynamic candidate — observe a bit-identical stream
// (tests/emu_equiv_test.cpp pins this). Lanes of one warp-instruction are
// independent (each lane reads and writes only its own slab index, and
// special registers are per-lane constants), so both orders are exactly the
// scalar interleaving. Memory instructions stay lane-sequential to preserve
// trap ordering and later-lane-wins store semantics.
// ---------------------------------------------------------------------------

void Device::run_cta_soa(const isa::Program& prog, const LaunchDims& dims,
                         const LaunchConfig& cfg, unsigned cta,
                         std::uint64_t& retired, SoaSlabs& slabs) {
  const unsigned tpc = dims.threads_per_cta();
  const auto code_size = static_cast<std::int32_t>(prog.code.size());
  const unsigned warps = (tpc + kWarpSize - 1) / kWarpSize;
  const std::uint64_t max_retired = cfg.max_retired;
  std::vector<std::uint32_t>& regs = slabs.regs;
  std::vector<std::uint8_t>& preds = slabs.preds;
  std::vector<std::uint32_t>& shared = slabs.shared;
  std::vector<Warp>& warp_state = slabs.warps;

  const auto reg_slab = [&](unsigned w, unsigned r) {
    return regs.data() +
           (static_cast<std::size_t>(w) * isa::kNumRegs + r) * kWarpSize;
  };
  const auto pred_slab = [&](unsigned w, unsigned p) {
    return preds.data() +
           (static_cast<std::size_t>(w) * isa::kNumPreds + p) * kWarpSize;
  };

  // Per-warp operand staging.
  alignas(64) std::uint32_t imm_a[kWarpSize];
  alignas(64) std::uint32_t imm_b[kWarpSize];
  alignas(64) std::uint32_t imm_c[kWarpSize];
  alignas(64) std::uint32_t vals[kWarpSize];
  alignas(64) std::uint8_t pvals[kWarpSize];
  static constexpr std::uint32_t kZeros[kWarpSize] = {};

  const unsigned cta_x = cta % dims.grid_x;
  const unsigned cta_y = cta / dims.grid_x;
  std::fill(regs.begin(), regs.end(), 0u);
  std::fill(preds.begin(), preds.end(), std::uint8_t{0});
  shared.assign(prog.shared_words, 0);
  for (unsigned w = 0; w < warps; ++w) {
    const unsigned lo = w * kWarpSize;
    const unsigned hi = std::min(tpc, lo + kWarpSize);
    std::uint32_t mask = 0;
    for (unsigned t = lo; t < hi; ++t) mask |= 1u << (t - lo);
    warp_state[w] = Warp{};
    warp_state[w].stack.push_back(StackEntry{0, -1, mask});
  }

  // Lane `lane` of warp `w`'s value of `op` (pure reads).
  const auto operand = [&](const Operand& op, unsigned w,
                           unsigned lane) -> std::uint32_t {
    const unsigned tid = w * kWarpSize + lane;
    switch (op.kind) {
      case OperandKind::Reg:
        return reg_slab(w, op.value & (isa::kNumRegs - 1))[lane];
      case OperandKind::Imm:
        return op.value;
      case OperandKind::Special:
        switch (static_cast<isa::SReg>(op.value)) {
          case isa::SReg::TID_X: return tid % dims.block_x;
          case isa::SReg::TID_Y: return tid / dims.block_x;
          case isa::SReg::NTID_X: return dims.block_x;
          case isa::SReg::NTID_Y: return dims.block_y;
          case isa::SReg::CTAID_X: return cta_x;
          case isa::SReg::CTAID_Y: return cta_y;
          case isa::SReg::NCTAID_X: return dims.grid_x;
          case isa::SReg::NCTAID_Y: return dims.grid_y;
          case isa::SReg::LANEID: return lane;
          default: {
            const auto p = static_cast<unsigned>(op.value) -
                           static_cast<unsigned>(isa::SReg::PARAM0);
            return prog.params[p % isa::kNumParams];
          }
        }
      case OperandKind::None:
        return 0;
    }
    return 0;
  };

  // Gathers one source operand for all lanes of warp `w` (dense masks; pure
  // reads, so hoisting the whole gather ahead of the lane loop is equivalent
  // to the scalar path's per-lane resolve).
  const auto gather = [&](const Operand& op, unsigned w,
                          std::uint32_t* scratch) -> const std::uint32_t* {
    switch (op.kind) {
      case OperandKind::Reg:
        return reg_slab(w, op.value & (isa::kNumRegs - 1));
      case OperandKind::Imm:
        std::fill_n(scratch, kWarpSize, op.value);
        return scratch;
      case OperandKind::Special:
        switch (static_cast<isa::SReg>(op.value)) {
          case isa::SReg::TID_X:
          case isa::SReg::TID_Y:
          case isa::SReg::LANEID:
            for (unsigned l = 0; l < kWarpSize; ++l)
              scratch[l] = operand(op, w, l);
            return scratch;
          default:  // the same in every lane
            std::fill_n(scratch, kWarpSize, operand(op, w, 0));
            return scratch;
        }
      case OperandKind::None:
        return kZeros;
    }
    return kZeros;
  };

  // Round-robin as in the scalar path. `live` counts the warps not done,
  // `waiting` those of them at the barrier, which is released at the end of
  // the round in which every live warp has arrived.
  unsigned live = warps, waiting = 0;
  while (live != 0) {
    for (unsigned w = 0; w < warps; ++w) {
      Warp& warp = warp_state[w];
      if (warp.done || warp.at_barrier) continue;

      StackEntry& top = warp.stack.back();
      const std::int32_t pc = top.pc;
      if (pc < 0 || pc >= code_size) throw Trap("invalid PC");
      const Instr& instr = prog.code[pc];
      // A hook done with this instruction runs it on the unhooked fast
      // path (results are identical either way).
      InstrumentHook* const hook =
          cfg.hook && !cfg.hook->done(&instr) ? cfg.hook : nullptr;

      // Guard mask, evaluated from the predicate slab over live lanes.
      std::uint32_t exec = top.mask;
      if (instr.pred >= 0) {
        const std::uint8_t* ps =
            pred_slab(w, static_cast<unsigned>(instr.pred) &
                             (isa::kNumPreds - 1));
        std::uint32_t on = 0;
        for_each_lane(top.mask, [&](unsigned l) {
          on |= static_cast<std::uint32_t>(ps[l] != 0) << l;
        });
        if (instr.pred_neg) on = ~on;
        exec &= on;
      }
      const bool dense = std::popcount(exec) * 2 >= int{kWarpSize};

      // The RetireInfo of lane `lane`'s retirement, already counted.
      const auto retire_info = [&](unsigned lane) {
        RetireInfo info;
        info.instr = &instr;
        info.pc = pc;
        info.thread = ThreadId{cta, w, lane, w * kWarpSize + lane};
        info.dyn_index = retired - 1;
        return info;
      };

      auto count_retired = [&](std::uint32_t mask) {
        if (!hook) {
          retired += static_cast<unsigned>(std::popcount(mask));
          return;
        }
        for_each_lane(mask, [&](unsigned lane) {
          ++retired;
          hook->on_count(retire_info(lane));
        });
      };

      switch (instr.op) {
        case Opcode::BRA: {
          count_retired(exec);
          const std::uint32_t not_taken = top.mask & ~exec;
          if (not_taken == 0) {
            if (instr.target < 0) throw Trap("BRA without target");
            top.pc = instr.target;
          } else if (exec == 0) {
            top.pc = pc + 1;
          } else {
            if (instr.reconv < 0)
              throw Trap("divergent BRA without reconvergence point");
            if (warp.stack.size() + 2 > kMaxStackDepth)
              throw Trap("SIMT stack overflow");
            top.pc = instr.reconv;  // merged continuation
            warp.stack.push_back(
                StackEntry{pc + 1, instr.reconv, not_taken});
            warp.stack.push_back(
                StackEntry{instr.target, instr.reconv, exec});
          }
          break;
        }
        case Opcode::EXIT: {
          count_retired(exec);
          for (auto& entry : warp.stack) entry.mask &= ~exec;
          // Remaining guarded-off threads continue past the EXIT.
          top.pc = pc + 1;
          break;
        }
        case Opcode::BAR: {
          count_retired(exec);
          warp.at_barrier = true;
          ++waiting;
          top.pc = pc + 1;
          break;
        }
        case Opcode::NOP: {
          count_retired(exec);
          top.pc = pc + 1;
          break;
        }
        case Opcode::ISETP:
        case Opcode::FSETP: {
          const bool is_int = instr.op == Opcode::ISETP;
          std::uint8_t* dst = pred_slab(w, instr.dst & (isa::kNumPreds - 1));
          // Retires lane `lane`'s compare of (a, b) with result `v`.
          const auto retire = [&](unsigned lane, std::uint32_t a,
                                  std::uint32_t b, bool v) {
            ++retired;
            if (hook) {
              RetireInfo info = retire_info(lane);
              info.a = a;
              info.b = b;
              hook->on_count(info);
              hook->on_pred_retire(info, v);
            }
            dst[lane] = v ? 1 : 0;
          };
          if (!dense) {
            for_each_lane(exec, [&](unsigned lane) {
              const std::uint32_t a = operand(instr.a, w, lane);
              const std::uint32_t b = operand(instr.b, w, lane);
              retire(lane, a, b,
                     is_int ? isa::cmp_eval_i(instr.cmp, a, b)
                            : isa::cmp_eval_f(instr.cmp, a, b));
            });
          } else {
            const std::uint32_t* a = gather(instr.a, w, imm_a);
            const std::uint32_t* b = gather(instr.b, w, imm_b);
            if (is_int)
              isa::cmp_lanes_i(instr.cmp, a, b, pvals);
            else
              isa::cmp_lanes_f(instr.cmp, a, b, pvals);
            if (hook) {
              for_each_lane(exec, [&](unsigned lane) {
                retire(lane, a[lane], b[lane], pvals[lane] != 0);
              });
            } else {
              for_each_lane(exec,
                            [&](unsigned lane) { dst[lane] = pvals[lane]; });
              retired += static_cast<unsigned>(std::popcount(exec));
            }
          }
          top.pc = pc + 1;
          break;
        }
        case Opcode::GLD:
        case Opcode::GST:
        case Opcode::LDS:
        case Opcode::STS: {
          const bool is_load =
              instr.op == Opcode::GLD || instr.op == Opcode::LDS;
          const bool is_global =
              instr.op == Opcode::GLD || instr.op == Opcode::GST;
          const std::size_t limit = is_global ? global_.size() : shared.size();
          std::uint32_t* dst = reg_slab(w, instr.dst & (isa::kNumRegs - 1));
          // Lane `lane`'s access at `base` (storing `sval`), in lane order:
          // trap ordering and later-lane-wins stores.
          const auto access = [&](unsigned lane, std::uint32_t base,
                                  std::uint32_t sval) {
            std::uint32_t addr = base + static_cast<std::uint32_t>(instr.imm);
            if (addr >= limit) {
              if (!cfg.oob_wraps || limit == 0)
                throw Trap("out-of-bounds memory access");
              addr = static_cast<std::uint32_t>(addr % limit);
            }
            std::uint32_t value = sval;
            if (is_load) value = is_global ? global_[addr] : shared[addr];
            ++retired;
            if (hook) {
              RetireInfo info = retire_info(lane);
              info.a = base;
              info.b = value;
              hook->on_count(info);
              if (is_load) hook->on_retire(info, value);
            }
            if (is_load) {
              dst[lane] = value;
            } else if (is_global) {
              store_global(addr, value);
            } else {
              shared[addr] = value;
            }
          };
          if (!dense) {
            for_each_lane(exec, [&](unsigned lane) {
              access(lane, operand(instr.a, w, lane),
                     is_load ? 0 : operand(instr.b, w, lane));
            });
          } else {
            const std::uint32_t* base = gather(instr.a, w, imm_a);
            const std::uint32_t* sval =
                is_load ? kZeros : gather(instr.b, w, imm_b);
            for_each_lane(exec, [&](unsigned lane) {
              access(lane, base[lane], sval[lane]);
            });
          }
          top.pc = pc + 1;
          break;
        }
        default: {  // data-processing instructions
          const bool is_sel = instr.op == Opcode::SEL;
          const std::uint8_t* cp =
              is_sel ? pred_slab(w, instr.c.value & (isa::kNumPreds - 1))
                     : nullptr;
          std::uint32_t* dst = reg_slab(w, instr.dst & (isa::kNumRegs - 1));
          // Retires lane `lane`'s result `value` of operands (a, b, c).
          const auto retire = [&](unsigned lane, std::uint32_t a,
                                  std::uint32_t b, std::uint32_t c,
                                  std::uint32_t value) {
            ++retired;
            if (hook) {
              RetireInfo info = retire_info(lane);
              info.a = a;
              info.b = b;
              info.c = c;
              hook->on_count(info);
              hook->on_retire(info, value);
            }
            dst[lane] = value;
          };
          if (!dense) {
            for_each_lane(exec, [&](unsigned lane) {
              const std::uint32_t a = operand(instr.a, w, lane);
              const std::uint32_t b = operand(instr.b, w, lane);
              const std::uint32_t c = is_sel ? 0 : operand(instr.c, w, lane);
              retire(lane, a, b, c,
                     isa::alu_result(instr.op, a, b, c, is_sel && cp[lane]));
            });
          } else {
            const std::uint32_t* a = gather(instr.a, w, imm_a);
            const std::uint32_t* b = gather(instr.b, w, imm_b);
            const std::uint32_t* c =
                is_sel ? kZeros : gather(instr.c, w, imm_c);
            isa::alu_lanes(instr.op, a, b, c, cp, vals);
            if (hook) {
              for_each_lane(exec, [&](unsigned lane) {
                retire(lane, a[lane], b[lane], c[lane], vals[lane]);
              });
            } else {
              for_each_lane(exec,
                            [&](unsigned lane) { dst[lane] = vals[lane]; });
              retired += static_cast<unsigned>(std::popcount(exec));
            }
          }
          top.pc = pc + 1;
          break;
        }
      }

      // Merge completed divergence regions and retire empty entries.
      while (!warp.stack.empty()) {
        StackEntry& t = warp.stack.back();
        if (t.mask == 0 || (t.rpc >= 0 && t.pc == t.rpc)) {
          // An emptied base entry means every thread exited.
          if (warp.stack.size() == 1 && t.mask != 0) break;
          warp.stack.pop_back();
        } else {
          break;
        }
      }
      if (warp.stack.empty() || warp.stack.back().mask == 0) {
        warp.done = true;
        --live;
        if (warp.at_barrier) --waiting;
      }

      if (retired > max_retired) return;  // watchdog
    }

    if (waiting != 0 && waiting == live) {
      for (auto& warp : warp_state) warp.at_barrier = false;
      waiting = 0;
    }
  }
}

}  // namespace gpufi::emu
