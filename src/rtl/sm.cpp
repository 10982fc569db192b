#include "rtl/sm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <stdexcept>

#include "fparith/fp32.hpp"
#include "fparith/sfu.hpp"
#include "isa/semantics.hpp"

namespace gpufi::rtl {

namespace {

using isa::CmpOp;
using isa::Instr;
using isa::Opcode;
using isa::OperandKind;

constexpr std::uint64_t kRpcNone = 0x1FFF;  // 13-bit PC sentinel
constexpr std::uint64_t kUnlimitedCycles = std::uint64_t{1} << 62;

struct TrapExc {
  const char* reason;
};
struct WatchdogExc {};
struct ConvergedExc {};

/// Optional tracing/resume behaviour of one Machine run. The plain run
/// paths pass the default-constructed context (all features off).
struct RunCtx {
  // Golden-trace recording.
  GoldenTrace* record = nullptr;
  std::uint64_t interval = 1;  ///< min cycles between ladder rungs
  std::vector<std::uint64_t> capture_at;  ///< sorted; mid-instruction grabs
  std::function<SmCheckpoint(std::uint64_t, unsigned, bool)> capture;
  // Convergence early-exit against a recorded golden trace.
  const GoldenTrace* reference = nullptr;
  std::uint64_t check_interval = 16;
  // Fast-forward: re-enter the scheduler loop at this restored checkpoint.
  const SmCheckpoint* resume_from = nullptr;
  // Liveness recording: per-dynamic-instruction occupancy intervals for
  // golden-run attribution. Never set together with a fault.
  LivenessTimeline* liveness = nullptr;
};

const RunCtx kPlainRun;

/// True if the opcode executes entirely in the scheduler controller.
bool is_scheduler_op(Opcode op) {
  return op == Opcode::BRA || op == Opcode::EXIT || op == Opcode::BAR ||
         op == Opcode::NOP;
}

bool writes_gpr_op(Opcode op) {
  Instr i;
  i.op = op;
  return i.writes_gpr();
}

/// The per-run interpreter: owns the micro-sequencing, while every
/// architectural latch it touches lives in the faultable ModuleStates.
class Machine {
 public:
  Machine(ModuleState& sched, ModuleState& intfu, ModuleState& fpfu,
          ModuleState& sfu, ModuleState& sfuctl, ModuleState& pipe,
          TrackedArray<std::uint32_t>& global,
          TrackedArray<std::uint32_t>& regs,
          TrackedArray<std::uint8_t>& preds,
          TrackedArray<std::uint32_t>& shared, const isa::Program& prog,
          const GridDims& dims, const std::optional<FaultSpec>& fault,
          std::uint64_t max_cycles, const RunCtx& ctx)
      : sched_(sched),
        intfu_(intfu),
        fpfu_(fpfu),
        sfu_(sfu),
        sfuctl_(sfuctl),
        pipe_(pipe),
        global_(global),
        regs_(regs),
        preds_(preds),
        shared_(shared),
        prog_(prog),
        dims_(dims),
        fault_(fault),
        max_cycles_(max_cycles),
        ctx_(ctx),
        L(layouts()) {
    if (fault_) {
      // Resolved once: stuck-at and burst faults re-drive it every edge.
      fault_bank_ = &module_of(fault_->module);
      fault_bit_ = fault_bank_->layout().locate(fault_->bit);
    }
  }

  RunResult run() {
    RunResult result;
    try {
      if (prog_.code.size() >= kRpcNone)
        throw TrapExc{"program too large for 13-bit PC"};
      unsigned start_cta = 0;
      if (ctx_.resume_from) {
        // The checkpoint was captured at a scheduler quiescent point: the
        // restored banks already hold the launch latches, warp table and
        // memories, so execution re-enters the scheduler loop directly.
        cycle_ = ctx_.resume_from->cycle;
        start_cta = ctx_.resume_from->cta;
      } else {
        // Launch setup: kernel parameters and CTA dimensions are latched in
        // the scheduler controller (faultable, per the paper's observation
        // that the controller stores memory addresses).
        for (unsigned p = 0; p < 8; ++p)
          sched_.set(L.scheduler.param[p], prog_.params[p]);
        sched_.set(L.scheduler.ntid_x, dims_.block_x);
        sched_.set(L.scheduler.ntid_y, dims_.block_y);
      }
      for (unsigned cta = start_cta; cta < dims_.ctas(); ++cta)
        run_cta(cta, ctx_.resume_from != nullptr && cta == start_cta);
      result.status = RunStatus::Ok;
    } catch (const TrapExc& t) {
      result.status = RunStatus::Trap;
      result.trap_reason = t.reason;
    } catch (const WatchdogExc&) {
      result.status = RunStatus::Watchdog;
      result.trap_reason = "watchdog expired";
    } catch (const ConvergedExc&) {
      result.status = RunStatus::Ok;
      result.converged = true;
      result.cycles = ctx_.reference->result.cycles;
      return result;
    }
    result.cycles = cycle_;
    return result;
  }

 private:
  // ------------------------------------------------------------- utilities

  /// Drives the injected fault at a clock edge. `fault_pending_` stays true
  /// for as long as the fault can still act: until the flip for Transient,
  /// until the window closes for the windowed models — and forever for a
  /// permanent fault (duration 0), which is what keeps the convergence
  /// early-exit gated off for the whole run.
  void drive_fault() {
    const FaultSpec& f = *fault_;
    if (cycle_ < f.cycle) return;
    if (f.model == FaultModel::Transient) {
      fault_bank_->flip(fault_bit_);
      fault_pending_ = false;
      return;
    }
    if (f.duration != 0 && cycle_ >= f.cycle + f.duration) {
      // Window closed: the last forced/flipped value stays in the flip-flop
      // until normal operation overwrites it (transient tail semantics).
      fault_pending_ = false;
      return;
    }
    switch (f.model) {
      case FaultModel::StuckAt0:
      case FaultModel::StuckAt1:
        // Re-asserted at every clock edge inside the window, so any pipeline
        // write to the flip-flop is overridden on the next edge.
        fault_bank_->force(fault_bit_, f.model == FaultModel::StuckAt1);
        break;
      case FaultModel::IntermittentBurst: {
        const std::uint64_t period = std::max<std::uint64_t>(1, f.period);
        if ((cycle_ - f.cycle) % period == 0) fault_bank_->flip(fault_bit_);
        break;
      }
      case FaultModel::Transient:
        break;  // handled above
    }
  }

  /// Advances the global clock by one cycle; drives the injected fault
  /// (between cycles) and enforces the watchdog.
  void tick() {
    if (fault_ && fault_pending_) drive_fault();
    ++cycle_;
    if (cycle_ > max_cycles_) throw WatchdogExc{};
    if (ctx_.record && capture_idx_ < ctx_.capture_at.size() &&
        cycle_ >= ctx_.capture_at[capture_idx_]) {
      // Mid-instruction capture: restorable, but not resumable (the
      // interpreter's implicit control-flow position is not part of it).
      ctx_.record->checkpoints.push_back(ctx_.capture(cycle_, cta_, false));
      ++capture_idx_;
    }
  }

  /// Composite machine digest as used in the golden timeline: the Sm state
  /// components plus the CTA loop index (the only interpreter state that is
  /// live at a quiescent point besides the cycle counter, which keys the
  /// timeline itself).
  std::uint64_t timeline_digest() const {
    return sched_.digest() ^ intfu_.digest() ^ fpfu_.digest() ^
           sfu_.digest() ^ sfuctl_.digest() ^ pipe_.digest() ^
           global_.digest() ^ regs_.digest() ^ preds_.digest() ^
           shared_.digest() ^
           state_digest_mix(digest_salt(kSaltDomainCta), 0, cta_ + 1);
  }

  /// Called at the top of the scheduler loop — the one place where the
  /// interpreter keeps no implicit state, so the Sm members fully describe
  /// the machine. Records the golden trace and/or tests for convergence.
  void quiescent_point() {
    if (ctx_.record) {
      if (cycle_ >= next_ckpt_) {
        ctx_.record->checkpoints.push_back(ctx_.capture(cycle_, cta_, true));
        next_ckpt_ = cycle_ + ctx_.interval;
      }
      ctx_.record->digest_at.emplace(cycle_, timeline_digest());
    }
    if (ctx_.reference && !fault_pending_ && cycle_ >= next_check_) {
      const auto it = ctx_.reference->digest_at.find(cycle_);
      if (it != ctx_.reference->digest_at.end() &&
          it->second == timeline_digest())
        throw ConvergedExc{};
      next_check_ = cycle_ + ctx_.check_interval;
    }
  }

  ModuleState& module_of(Module m) {
    switch (m) {
      case Module::Fp32Fu: return fpfu_;
      case Module::IntFu: return intfu_;
      case Module::Sfu: return sfu_;
      case Module::SfuCtl: return sfuctl_;
      case Module::Scheduler: return sched_;
      case Module::PipelineRegs: return pipe_;
    }
    return pipe_;
  }

  Opcode read_op(FieldRef f, ModuleState& st) {
    const std::uint64_t v = st.get(f);
    if (v >= isa::kNumOpcodes) throw TrapExc{"illegal opcode"};
    return static_cast<Opcode>(v);
  }

  std::uint32_t rf(unsigned warp, unsigned lane, unsigned reg) const {
    return regs_[(warp * 32 + lane) * isa::kNumRegs + (reg & 31)];
  }
  std::uint8_t pf(unsigned warp, unsigned lane, unsigned p) const {
    return preds_[(warp * 32 + lane) * isa::kNumPreds + (p & 3)];
  }
  void set_rf(unsigned warp, unsigned lane, unsigned reg, std::uint32_t v) {
    regs_.store((warp * 32 + lane) * isa::kNumRegs + (reg & 31), v);
  }
  void set_pf(unsigned warp, unsigned lane, unsigned p, std::uint8_t v) {
    preds_.store((warp * 32 + lane) * isa::kNumPreds + (p & 3), v);
  }

  std::uint32_t sreg_value(unsigned warp, unsigned lane, std::uint32_t id) {
    const unsigned tid = warp * 32 + lane;
    const auto sreg = static_cast<isa::SReg>(id % 17);
    switch (sreg) {
      case isa::SReg::TID_X:
      case isa::SReg::TID_Y: {
        const auto nx = sched_.get(L.scheduler.ntid_x);
        if (nx == 0) throw TrapExc{"corrupt CTA dimension latch"};
        return sreg == isa::SReg::TID_X
                   ? static_cast<std::uint32_t>(tid % nx)
                   : static_cast<std::uint32_t>(tid / nx);
      }
      case isa::SReg::NTID_X:
        return static_cast<std::uint32_t>(sched_.get(L.scheduler.ntid_x));
      case isa::SReg::NTID_Y:
        return static_cast<std::uint32_t>(sched_.get(L.scheduler.ntid_y));
      case isa::SReg::CTAID_X:
        return static_cast<std::uint32_t>(sched_.get(L.scheduler.ctaid_x));
      case isa::SReg::CTAID_Y:
        return static_cast<std::uint32_t>(sched_.get(L.scheduler.ctaid_y));
      case isa::SReg::NCTAID_X: return dims_.grid_x;
      case isa::SReg::NCTAID_Y: return dims_.grid_y;
      case isa::SReg::LANEID: return lane;
      default: {
        const auto p = (id - static_cast<std::uint32_t>(isa::SReg::PARAM0)) %
                       isa::kNumParams;
        return static_cast<std::uint32_t>(sched_.get(L.scheduler.param[p]));
      }
    }
  }

  /// Resolves one operand descriptor from the scheduler instruction buffer.
  std::uint32_t resolve(FieldRef kind_f, FieldRef val_f, unsigned warp,
                        unsigned lane) {
    const auto kind = static_cast<OperandKind>(sched_.get(kind_f) & 3);
    const auto val = static_cast<std::uint32_t>(sched_.get(val_f));
    switch (kind) {
      case OperandKind::None: return 0;
      case OperandKind::Reg: return rf(warp, lane, val & 31);
      case OperandKind::Imm: return val;
      case OperandKind::Special: return sreg_value(warp, lane, val);
    }
    return 0;
  }

  // --------------------------------------------------------- CTA execution

  void run_cta(unsigned cta, bool resuming) {
    cta_ = cta;
    if (!resuming) {
      sched_.set(L.scheduler.ctaid_x, cta % dims_.grid_x);
      sched_.set(L.scheduler.ctaid_y, cta / dims_.grid_x);
      const unsigned tpc = dims_.threads_per_cta();
      const unsigned n_warps = (tpc + 31) / 32;
      if (n_warps > kMaxWarps) throw TrapExc{"too many warps per CTA"};

      regs_.clear();
      preds_.clear();
      shared_.clear();

      // Warp table power-on for this CTA.
      for (unsigned w = 0; w < kMaxWarps; ++w) {
        const auto& ws = L.scheduler.warp[w];
        if (w < n_warps) {
          std::uint32_t mask = 0;
          for (unsigned l = 0; l < 32 && w * 32 + l < tpc; ++l)
            mask |= 1u << l;
          sched_.set(ws.stack[0].mask, mask);
          sched_.set(ws.stack[0].pc, 0);
          sched_.set(ws.stack[0].rpc, kRpcNone);
          sched_.set(ws.depth, 1);
          sched_.set(ws.state, static_cast<std::uint64_t>(WarpState::Ready));
        } else {
          sched_.set(ws.depth, 0);
          sched_.set(ws.state, static_cast<std::uint64_t>(WarpState::Done));
        }
      }
      sched_.set(L.scheduler.barrier_mask, 0);
      sched_.set(L.scheduler.barrier_active, 0);
      sched_.set(L.scheduler.rr_ptr, 0);
    }

    while (true) {
      quiescent_point();
      // All warps done?
      bool all_done = true;
      for (unsigned w = 0; w < kMaxWarps; ++w) {
        const auto s = sched_.get(L.scheduler.warp[w].state);
        if (s == 3) throw TrapExc{"invalid warp state"};
        if (s != static_cast<std::uint64_t>(WarpState::Done)) all_done = false;
      }
      if (all_done) break;

      // Round-robin pick of a Ready warp.
      const auto rr = static_cast<unsigned>(sched_.get(L.scheduler.rr_ptr));
      int picked = -1;
      for (unsigned i = 0; i < kMaxWarps; ++i) {
        const unsigned w = (rr + i) % kMaxWarps;
        if (sched_.get(L.scheduler.warp[w].state) ==
            static_cast<std::uint64_t>(WarpState::Ready)) {
          picked = static_cast<int>(w);
          break;
        }
      }
      if (picked < 0) {
        // Nothing ready: release the barrier if every live warp arrived.
        bool any_running = false, any_barrier = false;
        for (unsigned w = 0; w < kMaxWarps; ++w) {
          const auto s = sched_.get(L.scheduler.warp[w].state);
          if (s == static_cast<std::uint64_t>(WarpState::AtBarrier))
            any_barrier = true;
          else if (s == static_cast<std::uint64_t>(WarpState::Ready))
            any_running = true;
        }
        // Release also consults the barrier arrival mask: a warp whose
        // arrival bit was lost keeps the barrier closed (-> watchdog DUE).
        bool arrivals_ok = true;
        const auto bmask = sched_.get(L.scheduler.barrier_mask);
        for (unsigned w = 0; w < kMaxWarps; ++w) {
          if (sched_.get(L.scheduler.warp[w].state) ==
                  static_cast<std::uint64_t>(WarpState::AtBarrier) &&
              !((bmask >> w) & 1))
            arrivals_ok = false;
        }
        if (any_barrier && !any_running && arrivals_ok) {
          for (unsigned w = 0; w < kMaxWarps; ++w) {
            const auto& ws = L.scheduler.warp[w];
            if (sched_.get(ws.state) ==
                static_cast<std::uint64_t>(WarpState::AtBarrier))
              sched_.set(ws.state,
                         static_cast<std::uint64_t>(WarpState::Ready));
          }
          sched_.set(L.scheduler.barrier_mask, 0);
          sched_.set(L.scheduler.barrier_active, 0);
        }
        tick();  // either barrier-release cycle or idle (watchdog will fire)
        continue;
      }
      sched_.set(L.scheduler.rr_ptr, (picked + 1) % kMaxWarps);
      step_warp(static_cast<unsigned>(picked));
    }
  }

  // ------------------------------------------------------ instruction step

  void step_warp(unsigned w) {
    const auto& S = L.scheduler;
    const auto& ws = S.warp[w];

    // FETCH: read the stack top, latch PC, fetch and decode into the
    // instruction buffer.
    const auto depth = sched_.get(ws.depth);
    if (depth == 0 || depth > kStackDepth) throw TrapExc{"corrupt SIMT stack"};
    const auto& top = ws.stack[depth - 1];
    const std::uint64_t pc = sched_.get(top.pc);
    if (pc >= prog_.code.size()) throw TrapExc{"invalid PC"};
    sched_.set(S.fetch_pc, pc);
    sched_.set(S.cur_warp, w);
    const Instr& instr = prog_.code[pc];
    if (ctx_.liveness)
      ctx_.liveness->begin(cycle_, static_cast<std::uint32_t>(cta_), w, pc,
                           instr.op);
    sched_.set(S.ib_op, static_cast<std::uint64_t>(instr.op));
    sched_.set(S.ib_dst, instr.dst);
    sched_.set(S.ib_akind, static_cast<std::uint64_t>(instr.a.kind));
    sched_.set(S.ib_aval, instr.a.value);
    sched_.set(S.ib_bkind, static_cast<std::uint64_t>(instr.b.kind));
    sched_.set(S.ib_bval, instr.b.value);
    sched_.set(S.ib_ckind, static_cast<std::uint64_t>(instr.c.kind));
    sched_.set(S.ib_cval, instr.c.value);
    sched_.set(S.ib_imm, static_cast<std::uint32_t>(instr.imm));
    sched_.set(S.ib_target,
               instr.target < 0 ? kRpcNone
                                : static_cast<std::uint64_t>(instr.target));
    sched_.set(S.ib_reconv,
               instr.reconv < 0 ? kRpcNone
                                : static_cast<std::uint64_t>(instr.reconv));
    sched_.set(S.ib_cmp, static_cast<std::uint64_t>(instr.cmp));
    sched_.set(S.ib_pred, instr.pred < 0 ? 0 : instr.pred + 1);
    sched_.set(S.ib_predneg, instr.pred_neg ? 1 : 0);
    sched_.set(S.issue_valid, 1);
    tick();

    // GUARD: evaluate the predicate guard into the exec-mask latch.
    const Opcode op = read_op(S.ib_op, sched_);
    const std::uint32_t active =
        static_cast<std::uint32_t>(sched_.get(top.mask));
    const auto pred_code = sched_.get(S.ib_pred);
    const bool pred_neg = sched_.get_flag(S.ib_predneg);
    std::uint32_t exec = 0;
    for (unsigned l = 0; l < 32; ++l) {
      if (!(active & (1u << l))) continue;
      bool on = true;
      if (pred_code != 0) {
        on = pf(w, l, static_cast<unsigned>(pred_code - 1)) != 0;
        if (pred_neg) on = !on;
      }
      if (on) exec |= 1u << l;
    }
    sched_.set(S.exec_mask, exec);
    tick();

    if (is_scheduler_op(op)) {
      resolve_control(w, op);
    } else {
      run_data_instruction(w, op);
      advance_pc(w);
    }
    if (ctx_.liveness) ctx_.liveness->close(cycle_);
  }

  /// Sets the stack-top PC to `next`, then merges completed divergence
  /// regions and retires the warp when every thread has exited.
  void finish_at(unsigned w, std::uint64_t next) {
    const auto& ws = L.scheduler.warp[w];
    auto depth = sched_.get(ws.depth);
    if (depth == 0 || depth > kStackDepth) throw TrapExc{"corrupt SIMT stack"};
    sched_.set(ws.stack[depth - 1].pc, next);
    // Pop entries whose mask emptied or whose PC reached the reconvergence
    // point; the base entry (rpc == none) only pops when its mask empties.
    while (depth > 0) {
      const auto& e = ws.stack[depth - 1];
      const auto mask = sched_.get(e.mask);
      const auto rpc = sched_.get(e.rpc);
      const auto epc = sched_.get(e.pc);
      if (mask == 0 || (rpc != kRpcNone && epc == rpc)) {
        if (depth == 1 && mask != 0) break;
        --depth;
        sched_.set(ws.depth, depth);
      } else {
        break;
      }
    }
    if (depth == 0) {
      sched_.set(ws.state, static_cast<std::uint64_t>(WarpState::Done));
    }
  }

  void advance_pc(unsigned w) {
    finish_at(w, sched_.get(L.scheduler.fetch_pc) + 1);
    tick();
  }

  // --------------------------------------------------- scheduler-only ops

  void resolve_control(unsigned w, Opcode op) {
    const auto& S = L.scheduler;
    const auto& ws = S.warp[w];
    const auto depth = sched_.get(ws.depth);
    if (depth == 0 || depth > kStackDepth) throw TrapExc{"corrupt SIMT stack"};
    const auto& top = ws.stack[depth - 1];
    const std::uint64_t pc = sched_.get(S.fetch_pc);
    const auto exec = static_cast<std::uint32_t>(sched_.get(S.exec_mask));
    const auto mask = static_cast<std::uint32_t>(sched_.get(top.mask));

    switch (op) {
      case Opcode::NOP: {
        finish_at(w, pc + 1);
        break;
      }
      case Opcode::BAR: {
        sched_.set(ws.state, static_cast<std::uint64_t>(WarpState::AtBarrier));
        sched_.set(S.barrier_mask,
                   sched_.get(S.barrier_mask) | (std::uint64_t{1} << w));
        sched_.set(S.barrier_active, 1);
        finish_at(w, pc + 1);
        break;
      }
      case Opcode::EXIT: {
        for (unsigned e = 0; e < depth; ++e) {
          const auto m = sched_.get(ws.stack[e].mask);
          sched_.set(ws.stack[e].mask, m & ~static_cast<std::uint64_t>(exec));
        }
        finish_at(w, pc + 1);
        break;
      }
      case Opcode::BRA: {
        const std::uint64_t target = sched_.get(S.ib_target);
        const std::uint32_t taken = exec;
        const std::uint32_t not_taken = mask & ~taken;
        if (not_taken == 0) {
          if (target == kRpcNone) throw TrapExc{"BRA without target"};
          finish_at(w, target);
        } else if (taken == 0) {
          finish_at(w, pc + 1);
        } else {
          const std::uint64_t rpc = sched_.get(S.ib_reconv);
          if (rpc == kRpcNone)
            throw TrapExc{"divergent BRA without reconvergence"};
          // A path that starts at the reconvergence point reconverges
          // immediately and is never pushed (its threads simply wait in the
          // merged continuation) — this keeps loop-exit divergence from
          // growing the stack by two per split.
          const bool push_taken = target != rpc;
          const bool push_not_taken = pc + 1 != rpc;
          const unsigned pushes =
              (push_taken ? 1u : 0u) + (push_not_taken ? 1u : 0u);
          if (depth + pushes > kStackDepth)
            throw TrapExc{"SIMT stack overflow"};
          sched_.set(top.pc, rpc);  // merged continuation (full mask)
          unsigned d = depth;
          if (push_not_taken) {
            const auto& e = ws.stack[d++];
            sched_.set(e.mask, not_taken);
            sched_.set(e.pc, pc + 1);
            sched_.set(e.rpc, rpc);
          }
          if (push_taken) {
            const auto& e = ws.stack[d++];
            sched_.set(e.mask, taken);
            if (target == kRpcNone) throw TrapExc{"BRA without target"};
            sched_.set(e.pc, target);
            sched_.set(e.rpc, rpc);
          }
          if (pushes == 0) {
            // Both paths land on the reconvergence point: uniform after all.
            sched_.set(top.pc, rpc);
          }
          sched_.set(ws.depth, d);
        }
        break;
      }
      default:
        throw TrapExc{"non-control opcode in scheduler"};
    }
    tick();
  }

  // --------------------------------------------------------- the pipeline

  void copy_stage(unsigned to) {
    const auto& P = L.pipeline;
    const auto& src = P.stage[to - 1];
    const auto& dst = P.stage[to];
    for (unsigned l = 0; l < kLanes; ++l) {
      pipe_.set(dst.lane[l].a, pipe_.get(src.lane[l].a));
      pipe_.set(dst.lane[l].b, pipe_.get(src.lane[l].b));
      pipe_.set(dst.lane[l].c, pipe_.get(src.lane[l].c));
      pipe_.set(dst.lane[l].res, pipe_.get(src.lane[l].res));
    }
    pipe_.set(dst.op, pipe_.get(src.op));
    pipe_.set(dst.dst, pipe_.get(src.dst));
    pipe_.set(dst.warp, pipe_.get(src.warp));
    pipe_.set(dst.beat, pipe_.get(src.beat));
    pipe_.set(dst.valid, pipe_.get(src.valid));
    pipe_.set(dst.cmp, pipe_.get(src.cmp));
    pipe_.set(dst.akind, pipe_.get(src.akind));
    pipe_.set(dst.bkind, pipe_.get(src.bkind));
    pipe_.set(dst.ckind, pipe_.get(src.ckind));
    pipe_.set(dst.imm, pipe_.get(src.imm));
    pipe_.set(dst.wen, pipe_.get(src.wen));
    pipe_.set(dst.emask, pipe_.get(src.emask));
  }

  void run_data_instruction(unsigned w, Opcode op) {
    const auto& S = L.scheduler;
    const auto& P = L.pipeline;
    const bool is_fp = op == Opcode::FADD || op == Opcode::FMUL ||
                       op == Opcode::FFMA;
    const bool is_int = op == Opcode::IADD || op == Opcode::IMUL ||
                        op == Opcode::IMAD;
    const bool is_sfu = op == Opcode::FSIN || op == Opcode::FEXP;
    const bool is_mem = op == Opcode::GLD || op == Opcode::GST ||
                        op == Opcode::LDS || op == Opcode::STS;
    const bool is_setp = op == Opcode::ISETP || op == Opcode::FSETP;
    const bool is_store = op == Opcode::GST || op == Opcode::STS;

    // ISSUE: scoreboard check + warp-wide pipeline control setup.
    {
      const auto dst = static_cast<unsigned>(sched_.get(S.ib_dst));
      // Stall while any source or the destination register is marked busy.
      while (true) {
        std::uint64_t busy = pipe_.get(P.scoreboard[w]);
        std::uint64_t need = 0;
        for (auto [kf, vf] : {std::pair{S.ib_akind, S.ib_aval},
                              std::pair{S.ib_bkind, S.ib_bval},
                              std::pair{S.ib_ckind, S.ib_cval}}) {
          if (static_cast<OperandKind>(sched_.get(kf) & 3) ==
              OperandKind::Reg)
            need |= std::uint64_t{1} << (sched_.get(vf) & 31);
        }
        if (writes_gpr_op(op)) need |= std::uint64_t{1} << (dst & 31);
        if ((busy & need) == 0) break;
        tick();  // stall cycle; only a stuck scoreboard bit loops forever
      }
      const auto exec = sched_.get(S.exec_mask);
      pipe_.set(P.exec_mask, exec);
      pipe_.set(P.wb_mask, exec);
      pipe_.set(P.rc_valid, 0);
      pipe_.set(P.mem_valid, 0);
      if (writes_gpr_op(op))
        pipe_.set(P.scoreboard[w],
                  pipe_.get(P.scoreboard[w]) | (std::uint64_t{1} << (dst & 31)));
      const auto& s0 = P.stage[0];
      pipe_.set(s0.op, static_cast<std::uint64_t>(op));
      pipe_.set(s0.dst, dst);
      pipe_.set(s0.warp, w);
      pipe_.set(s0.valid, 1);
      pipe_.set(s0.cmp, sched_.get(S.ib_cmp));
      pipe_.set(s0.akind, sched_.get(S.ib_akind));
      pipe_.set(s0.bkind, sched_.get(S.ib_bkind));
      pipe_.set(s0.ckind, sched_.get(S.ib_ckind));
      pipe_.set(s0.imm, sched_.get(S.ib_imm));
      pipe_.set(s0.emask, exec);
      tick();
    }

    // OPERAND FETCH: four beats fill the operand collector. The unified
    // FMA/MAD datapaths receive pre-mapped operands (FADD -> a*1+b, etc.).
    for (unsigned beat = 0; beat < kBeats; ++beat) {
      sched_.set(S.beat, beat);
      const auto exec =
          static_cast<std::uint32_t>(pipe_.get(P.exec_mask));
      for (unsigned l = 0; l < kLanes; ++l) {
        const unsigned t = beat * kLanes + l;
        if (!(exec & (1u << t))) continue;
        std::uint32_t a = resolve(S.ib_akind, S.ib_aval, w, t);
        std::uint32_t b = resolve(S.ib_bkind, S.ib_bval, w, t);
        std::uint32_t c = resolve(S.ib_ckind, S.ib_cval, w, t);
        switch (op) {
          // FP operand mapping happens inside the FMA datapath's own
          // decode (fma_stage1), driven by the stage opcode field; only
          // the integer MAD unit needs pre-mapped operands.
          case Opcode::IADD:  // a*1 + b
            c = b;
            b = 1;
            break;
          case Opcode::IMUL:  // a*b + 0
            c = 0;
            break;
          case Opcode::SEL: {
            // Predicate operand staged as a control bit.
            const bool p = pf(w, t, sched_.get(S.ib_cval) & 3) != 0;
            auto sel = pipe_.get(P.selp_stage);
            sel = p ? (sel | (std::uint64_t{1} << t))
                    : (sel & ~(std::uint64_t{1} << t));
            pipe_.set(P.selp_stage, sel);
            break;
          }
          default:
            break;
        }
        pipe_.set(P.oc_a[t], a);
        pipe_.set(P.oc_b[t], b);
        pipe_.set(P.oc_c[t], c);
      }
      tick();
    }

    if (is_sfu) {
      run_sfu(w, op);
      // Drain: the decoded control word travels to the writeback stage so
      // WB sees the instruction that was actually issued.
      for (unsigned s = 1; s < kStages; ++s) {
        copy_stage(s);
        tick();
      }
    } else {
      // EXECUTE: each beat flows through the five pipeline stages (and, for
      // FP32/INT, through the functional unit's internal stage registers).
      for (unsigned beat = 0; beat < kBeats; ++beat) {
        sched_.set(S.beat, beat);
        // EX_a: operand collector -> stage 1 latches / FU operand latches.
        {
          copy_stage(1);
          const auto& s1 = P.stage[1];
          const auto em =
              static_cast<std::uint32_t>(pipe_.get(P.stage[0].emask));
          pipe_.set(s1.beat, beat);
          pipe_.set(s1.wen, (em >> (beat * kLanes)) & 0xffu);
          std::uint64_t memv = pipe_.get(P.mem_valid);
          for (unsigned l = 0; l < kLanes; ++l) {
            const unsigned t = beat * kLanes + l;
            const std::uint32_t a =
                static_cast<std::uint32_t>(pipe_.get(P.oc_a[t]));
            const std::uint32_t b =
                static_cast<std::uint32_t>(pipe_.get(P.oc_b[t]));
            const std::uint32_t c =
                static_cast<std::uint32_t>(pipe_.get(P.oc_c[t]));
            pipe_.set(s1.lane[l].a, a);
            pipe_.set(s1.lane[l].b, b);
            pipe_.set(s1.lane[l].c, c);
            if (is_fp) {
              const auto& fl = L.fp32_fu.lane[l];
              fpfu_.set(fl.l_a, a);
              fpfu_.set(fl.l_b, b);
              fpfu_.set(fl.l_c, c);
            } else if (is_int) {
              const auto& il = L.int_fu.lane[l];
              intfu_.set(il.a, a);
              intfu_.set(il.b, b);
              intfu_.set(il.c, c);
            } else if (is_mem) {
              const std::uint32_t imm =
                  static_cast<std::uint32_t>(pipe_.get(P.stage[0].imm));
              pipe_.set(s1.lane[l].res, a + imm);
              if ((pipe_.get(s1.wen) >> l) & 1)
                memv |= std::uint64_t{1} << t;
            } else if (is_setp) {
              const auto cmp = static_cast<CmpOp>(
                  pipe_.get(P.stage[0].cmp) % 6);
              const bool v = op == Opcode::ISETP
                                 ? isa::cmp_eval_i(cmp, a, b)
                                 : isa::cmp_eval_f(cmp, a, b);
              auto ps = pipe_.get(P.pred_stage);
              ps = v ? (ps | (std::uint64_t{1} << t))
                     : (ps & ~(std::uint64_t{1} << t));
              pipe_.set(P.pred_stage, ps);
              pipe_.set(s1.lane[l].res, v ? 1 : 0);
            } else {
              const bool cp = (pipe_.get(P.selp_stage) >> t) & 1;
              pipe_.set(s1.lane[l].res, isa::alu_result(op, a, b, c, cp));
            }
          }
          if (is_mem) pipe_.set(P.mem_valid, memv);
          if (is_fp) {
            fpfu_.set(L.fp32_fu.stage_valid, 1);
            fpfu_.set(L.fp32_fu.busy, 1);
          }
          if (is_int) {
            intfu_.set(L.int_fu.op, 0);
            intfu_.set(L.int_fu.valid, 1);
            intfu_.set(L.int_fu.busy, 1);
          }
          tick();
        }
        // EX_b
        {
          copy_stage(2);
          if (is_fp) fp_advance(1);
          if (is_int) int_advance(1);
          if (is_mem) mem_access(beat, is_store, op);
          tick();
        }
        // EX_c
        {
          copy_stage(3);
          if (is_fp) fp_advance(2);
          if (is_int) int_advance(2);
          tick();
        }
        // EX_d
        {
          copy_stage(4);
          if (is_fp) fp_advance(3);
          tick();
        }
        // EX_e (FP only: final rounding stage)
        if (is_fp) {
          fp_advance(4);
          tick();
        }
        // COLLECT: lane results -> result collector.
        {
          const auto& s4 = P.stage[4];
          const auto wen =
              static_cast<std::uint32_t>(pipe_.get(s4.wen));
          const auto sbeat =
              static_cast<unsigned>(pipe_.get(s4.beat));
          auto rcv = pipe_.get(P.rc_valid);
          for (unsigned l = 0; l < kLanes; ++l) {
            if (!((wen >> l) & 1)) continue;
            const unsigned t = (sbeat * kLanes + l) & 31;
            std::uint32_t v;
            if (is_fp) {
              v = static_cast<std::uint32_t>(
                  fpfu_.get(L.fp32_fu.lane[l].s4_res));
            } else if (is_int) {
              v = static_cast<std::uint32_t>(
                  intfu_.get(L.int_fu.lane[l].sum));
            } else {
              v = static_cast<std::uint32_t>(pipe_.get(s4.lane[l].res));
            }
            pipe_.set(P.rc[t], v);
            rcv |= std::uint64_t{1} << t;
          }
          pipe_.set(P.rc_valid, rcv);
          tick();
        }
      }
    }

    // WRITE BACK: four beats drain the result collector into the register
    // file (or predicate file) of the warp named by the stage-4 control.
    const Opcode wb_op = read_op(P.stage[4].op, pipe_);
    const auto wb_warp = static_cast<unsigned>(pipe_.get(P.stage[4].warp));
    if (wb_warp >= kMaxWarps) throw TrapExc{"invalid warp id at writeback"};
    const auto wb_dst = static_cast<unsigned>(pipe_.get(P.stage[4].dst));
    for (unsigned beat = 0; beat < kBeats; ++beat) {
      const auto wbm =
          static_cast<std::uint32_t>(pipe_.get(P.wb_mask));
      const auto rcv =
          static_cast<std::uint32_t>(pipe_.get(P.rc_valid));
      for (unsigned l = 0; l < kLanes; ++l) {
        const unsigned t = beat * kLanes + l;
        if (!((wbm >> t) & 1)) continue;
        if (wb_op == Opcode::ISETP || wb_op == Opcode::FSETP) {
          set_pf(wb_warp, t, wb_dst & 3,
                 (pipe_.get(P.pred_stage) >> t) & 1 ? 1 : 0);
        } else if (writes_gpr_op(wb_op)) {
          if (!((rcv >> t) & 1)) continue;
          set_rf(wb_warp, t, wb_dst & 31,
                 static_cast<std::uint32_t>(pipe_.get(P.rc[t])));
        }
      }
      tick();
    }
    // Scoreboard release.
    if (writes_gpr_op(wb_op)) {
      pipe_.set(P.scoreboard[wb_warp],
                pipe_.get(P.scoreboard[wb_warp]) &
                    ~(std::uint64_t{1} << (wb_dst & 31)));
    }
    if (is_fp) fpfu_.set(L.fp32_fu.busy, 0);
    if (is_int) intfu_.set(L.int_fu.busy, 0);
  }

  // FU stage advances -----------------------------------------------------

  void fp_advance(unsigned step) {
    using namespace fparith;
    for (unsigned l = 0; l < kLanes; ++l) {
      const auto& n = L.fp32_fu.lane[l];
      switch (step) {
        case 1: {  // operand latches -> S1 (unpack + FU-internal decode)
          // The FMA mode is decoded from the faultable stage-1 opcode
          // field (a flipped opcode bit can turn an FADD into an FFMA).
          FpOp mode;
          switch (static_cast<Opcode>(pipe_.get(L.pipeline.stage[1].op) %
                                      isa::kNumOpcodes)) {
            case Opcode::FADD: mode = FpOp::Add; break;
            case Opcode::FMUL: mode = FpOp::Mul; break;
            default: mode = FpOp::Fma; break;
          }
          const FmaS1 s1 = fma_stage1(
              static_cast<std::uint32_t>(fpfu_.get(n.l_a)),
              static_cast<std::uint32_t>(fpfu_.get(n.l_b)),
              static_cast<std::uint32_t>(fpfu_.get(n.l_c)), mode);
          auto put = [&](FieldRef sf, FieldRef ef, FieldRef mf, FieldRef cf,
                         const Unpacked& u) {
            fpfu_.set(sf, u.sign);
            fpfu_.set(ef, static_cast<std::uint64_t>(u.exp));
            fpfu_.set(mf, u.man);
            fpfu_.set(cf, static_cast<std::uint64_t>(u.cls));
          };
          put(n.s1_sa, n.s1_ea, n.s1_ma, n.s1_clsa, s1.a);
          put(n.s1_sb, n.s1_eb, n.s1_mb, n.s1_clsb, s1.b);
          put(n.s1_sc, n.s1_ec, n.s1_mc, n.s1_clsc, s1.c);
          fpfu_.set(n.s1_op, static_cast<std::uint64_t>(s1.op));
          break;
        }
        case 2: {  // S1 -> S2 (multiply)
          FmaS1 s1;
          auto take = [&](FieldRef sf, FieldRef ef, FieldRef mf, FieldRef cf,
                          Unpacked& u) {
            u.sign = fpfu_.get_flag(sf);
            u.exp = static_cast<std::int32_t>(fpfu_.get_signed(ef));
            u.man = static_cast<std::uint32_t>(fpfu_.get(mf));
            u.cls = static_cast<FpClass>(fpfu_.get(cf));
          };
          take(n.s1_sa, n.s1_ea, n.s1_ma, n.s1_clsa, s1.a);
          take(n.s1_sb, n.s1_eb, n.s1_mb, n.s1_clsb, s1.b);
          take(n.s1_sc, n.s1_ec, n.s1_mc, n.s1_clsc, s1.c);
          s1.op = static_cast<FpOp>(fpfu_.get(n.s1_op) % 3);
          const FmaS2 s2 = fma_stage2(s1);
          fpfu_.set(n.s2_prod, s2.prod);
          fpfu_.set(n.s2_expp, static_cast<std::uint64_t>(s2.exp_p));
          fpfu_.set(n.s2_signp, s2.sign_p);
          fpfu_.set(n.s2_clsp, static_cast<std::uint64_t>(s2.cls_p));
          fpfu_.set(n.s2_sc, s2.c.sign);
          fpfu_.set(n.s2_ec, static_cast<std::uint64_t>(s2.c.exp));
          fpfu_.set(n.s2_mc, s2.c.man);
          fpfu_.set(n.s2_clsc, static_cast<std::uint64_t>(s2.c.cls));
          fpfu_.set(n.s2_special, s2.special);
          fpfu_.set(n.s2_sbits, s2.special_bits);
          fpfu_.set(n.s2_op, static_cast<std::uint64_t>(s2.op));
          break;
        }
        case 3: {  // S2 -> S3 (align/add)
          FmaS2 s2;
          s2.prod = fpfu_.get(n.s2_prod);
          s2.exp_p = static_cast<std::int32_t>(fpfu_.get_signed(n.s2_expp));
          s2.sign_p = fpfu_.get_flag(n.s2_signp);
          s2.cls_p = static_cast<FpClass>(fpfu_.get(n.s2_clsp));
          s2.c.sign = fpfu_.get_flag(n.s2_sc);
          s2.c.exp = static_cast<std::int32_t>(fpfu_.get_signed(n.s2_ec));
          s2.c.man = static_cast<std::uint32_t>(fpfu_.get(n.s2_mc));
          s2.c.cls = static_cast<FpClass>(fpfu_.get(n.s2_clsc));
          s2.special = fpfu_.get_flag(n.s2_special);
          s2.special_bits = static_cast<std::uint32_t>(fpfu_.get(n.s2_sbits));
          s2.op = static_cast<FpOp>(fpfu_.get(n.s2_op) % 3);
          const FmaS3 s3 = fma_stage3(s2);
          fpfu_.set(n.s3_sumlo, static_cast<std::uint64_t>(s3.sum));
          fpfu_.set(n.s3_sumhi, static_cast<std::uint64_t>(s3.sum >> 64));
          fpfu_.set(n.s3_expr, static_cast<std::uint64_t>(s3.exp_r));
          fpfu_.set(n.s3_signr, s3.sign_r);
          fpfu_.set(n.s3_sticky, s3.sticky);
          fpfu_.set(n.s3_special, s3.special);
          fpfu_.set(n.s3_sbits, s3.special_bits);
          fpfu_.set(n.s3_zero, s3.zero_case);
          fpfu_.set(n.s3_signp, s3.sign_p);
          fpfu_.set(n.s3_signc, s3.sign_c);
          fpfu_.set(n.s3_cancel, s3.cancel);
          fpfu_.set(n.s3_op, static_cast<std::uint64_t>(s3.op));
          break;
        }
        case 4: {  // S3 -> S4 (normalize/round)
          FmaS3 s3;
          s3.sum = (static_cast<unsigned __int128>(fpfu_.get(n.s3_sumhi))
                    << 64) |
                   fpfu_.get(n.s3_sumlo);
          s3.exp_r = static_cast<std::int32_t>(fpfu_.get_signed(n.s3_expr));
          s3.sign_r = fpfu_.get_flag(n.s3_signr);
          s3.sticky = fpfu_.get_flag(n.s3_sticky);
          s3.special = fpfu_.get_flag(n.s3_special);
          s3.special_bits = static_cast<std::uint32_t>(fpfu_.get(n.s3_sbits));
          s3.zero_case = fpfu_.get_flag(n.s3_zero);
          s3.sign_p = fpfu_.get_flag(n.s3_signp);
          s3.sign_c = fpfu_.get_flag(n.s3_signc);
          s3.cancel = fpfu_.get_flag(n.s3_cancel);
          s3.op = static_cast<FpOp>(fpfu_.get(n.s3_op) % 3);
          fpfu_.set(n.s4_res, fma_stage4(s3));
          fpfu_.set(n.s4_valid, 1);
          break;
        }
        default:
          break;
      }
    }
  }

  void int_advance(unsigned step) {
    for (unsigned l = 0; l < kLanes; ++l) {
      const auto& n = L.int_fu.lane[l];
      if (step == 1) {
        const auto s = fparith::imad_stage1(
            static_cast<std::uint32_t>(intfu_.get(n.a)),
            static_cast<std::uint32_t>(intfu_.get(n.b)),
            static_cast<std::uint32_t>(intfu_.get(n.c)));
        intfu_.set(n.prod, s.prod);
      } else if (step == 2) {
        fparith::IntS1 s;
        s.prod = intfu_.get(n.prod);
        s.c = static_cast<std::uint32_t>(intfu_.get(n.c));
        intfu_.set(n.sum, fparith::imad_stage2(s));
      }
    }
  }

  void mem_access(unsigned beat, bool is_store, Opcode op) {
    // Runs during EX_b, after the beat was copied into stage 2: addresses
    // and store data are read there, and loaded values are deposited into
    // the stage-2 result latch so they travel onward to writeback.
    const auto& P = L.pipeline;
    const auto& s2 = P.stage[2];
    const bool is_global = op == Opcode::GLD || op == Opcode::GST;
    auto memv = pipe_.get(P.mem_valid);
    for (unsigned l = 0; l < kLanes; ++l) {
      const unsigned t = beat * kLanes + l;
      if (!((memv >> t) & 1)) continue;
      const auto addr = static_cast<std::uint32_t>(pipe_.get(s2.lane[l].res));
      const std::size_t limit = is_global ? global_.size() : shared_.size();
      if (addr >= limit) throw TrapExc{"out-of-bounds memory access"};
      if (is_store) {
        const auto v = static_cast<std::uint32_t>(pipe_.get(s2.lane[l].b));
        if (is_global)
          global_.store(addr, v);
        else
          shared_.store(addr, v);
      } else {
        pipe_.set(s2.lane[l].res,
                  is_global ? global_[addr] : shared_[addr]);
      }
      memv &= ~(std::uint64_t{1} << t);
    }
    pipe_.set(P.mem_valid, memv);
  }

  // ----------------------------------------------------------- SFU path

  void run_sfu(unsigned w, Opcode op) {
    (void)w;
    using namespace fparith;
    const auto& P = L.pipeline;
    const auto& C = L.sfu_ctl;
    const SfuFunc func =
        op == Opcode::FSIN ? SfuFunc::Sin : SfuFunc::Exp;

    // Controller power-up for this instruction.
    sfuctl_.set(C.head, 0);
    sfuctl_.set(C.tail, 0);
    sfuctl_.set(C.count, 0);
    sfuctl_.set(C.collected, 0);
    sfuctl_.set(C.done_count, 0);
    sfuctl_.set(C.rounds, 0);
    sfuctl_.set(C.busy, 1);
    sfuctl_.set(C.grant_valid, 0);
    for (unsigned q = 0; q < kSfuQueue; ++q)
      sfuctl_.set(C.queue[q].valid, 0);
    for (unsigned u = 0; u < kSfuUnits; ++u) {
      sfuctl_.set(C.inflight[u], 0);
      for (unsigned s = 0; s < kSfuWidth; ++s) {
        const auto& sl = L.sfu.unit[u][s];
        sfu_.set(sl.in_valid, 0);
        sfu_.set(sl.s2_valid, 0);
        sfu_.set(sl.s3_valid, 0);
        sfu_.set(sl.s4_valid, 0);
        sfu_.set(sl.s5_valid, 0);
        sfu_.set(sl.s6_valid, 0);
      }
    }

    unsigned enqueue_cursor = 0;  // micro-sequencer scan position
    while (true) {
      const auto exec =
          static_cast<std::uint32_t>(pipe_.get(P.exec_mask));

      // 1. Enqueue up to two pending lane requests.
      for (int k = 0; k < 2 && enqueue_cursor < 32; ++k) {
        while (enqueue_cursor < 32 && !((exec >> enqueue_cursor) & 1))
          ++enqueue_cursor;
        if (enqueue_cursor >= 32) break;
        const auto count = sfuctl_.get(C.count);
        if (count >= kSfuQueue) break;
        const auto tail = sfuctl_.get(C.tail) % kSfuQueue;
        sfuctl_.set(C.queue[tail].lane, enqueue_cursor);
        sfuctl_.set(C.queue[tail].valid, 1);
        sfuctl_.set(C.queue[tail].func, static_cast<std::uint64_t>(func));
        sfuctl_.set(C.tail, (tail + 1) % kSfuQueue);
        sfuctl_.set(C.count, count + 1);
        ++enqueue_cursor;
      }

      // 2. Pipelines advance back to front (each sublane independently).
      for (unsigned u = 0; u < kSfuUnits; ++u) {
        for (unsigned s = 0; s < kSfuWidth; ++s) {
          advance_sfu_sublane(L.sfu.unit[u][s]);
        }
      }

      // 3. Dispatch queued requests into free sublanes.
      for (unsigned u = 0; u < kSfuUnits; ++u) {
        for (unsigned s = 0; s < kSfuWidth; ++s) {
          const auto& sl = L.sfu.unit[u][s];
          if (sfu_.get_flag(sl.in_valid)) continue;
          const auto count = sfuctl_.get(C.count);
          if (count == 0) continue;
          const auto head = sfuctl_.get(C.head) % kSfuQueue;
          const auto& slot = C.queue[head];
          const bool valid = sfuctl_.get_flag(slot.valid);
          const auto lane = static_cast<unsigned>(sfuctl_.get(slot.lane));
          sfuctl_.set(C.head, (head + 1) % kSfuQueue);
          sfuctl_.set(C.count, count - 1);
          sfuctl_.set(slot.valid, 0);
          if (!valid) continue;  // corrupted slot: the request is dropped
          sfuctl_.set(C.grant_lane[u], lane);
          sfu_.set(sl.in_x, pipe_.get(P.oc_a[lane & 31]));
          sfu_.set(sl.in_func, sfuctl_.get(slot.func));
          sfu_.set(sl.in_lane, lane);
          sfu_.set(sl.in_valid, 1);
        }
      }

      sfuctl_.set(C.rounds, (sfuctl_.get(C.rounds) + 1) & 0x3);
      tick();

      // 4. Completion is count-based (as in a credit/ack scheme): the
      // controller releases the warp once as many results retired as
      // threads were executing. A misrouted lane therefore completes with
      // corrupt data (multi-thread SDC) rather than hanging, while a lost
      // request or a decremented counter starves completion (DUE).
      const auto done =
          static_cast<unsigned>(sfuctl_.get(C.done_count));
      if (done >= static_cast<unsigned>(std::popcount(exec))) break;
    }
    sfuctl_.set(C.busy, 0);
  }

  /// One clock of a 6-deep SFU sublane pipeline (drain order: S6 first).
  void advance_sfu_sublane(const SfuLayout::SubLane& n) {
    using namespace fparith;
    const auto& P = L.pipeline;
    const auto& C = L.sfu_ctl;

    // S6 -> result collector.
    if (sfu_.get_flag(n.s6_valid)) {
      const auto lane = static_cast<unsigned>(sfu_.get(n.s6_lane)) & 31;
      pipe_.set(P.rc[lane], sfu_.get(n.s6_res));
      pipe_.set(P.rc_valid,
                pipe_.get(P.rc_valid) | (std::uint64_t{1} << lane));
      sfuctl_.set(C.collected,
                  sfuctl_.get(C.collected) | (std::uint64_t{1} << lane));
      sfuctl_.set(C.done_count, (sfuctl_.get(C.done_count) + 1) & 0x3f);
      sfu_.set(n.s6_valid, 0);
    }
    // S5 -> S6.
    if (sfu_.get_flag(n.s5_valid)) {
      SfuS5 s5;
      s5.acc = sfu_.get_signed(n.s5_acc);
      s5.quadrant = static_cast<std::uint8_t>(sfu_.get(n.s5_q));
      s5.neg = sfu_.get_flag(n.s5_neg);
      s5.k_exp = static_cast<std::int32_t>(sfu_.get_signed(n.s5_k));
      s5.special = sfu_.get_flag(n.s5_special);
      s5.special_bits = static_cast<std::uint32_t>(sfu_.get(n.s5_sbits));
      s5.func = static_cast<SfuFunc>(sfu_.get(n.s5_func));
      sfu_.set(n.s6_res, sfu_stage6(s5));
      sfu_.set(n.s6_lane, sfu_.get(n.s5_lane));
      sfu_.set(n.s6_valid, 1);
      sfu_.set(n.s5_valid, 0);
    }
    // S4 -> S5.
    if (sfu_.get_flag(n.s4_valid)) {
      SfuS4 s4;
      s4.t1_s = sfu_.get(n.s4_pp1s);
      s4.t1_c = sfu_.get(n.s4_pp1c);
      s4.t2_s = sfu_.get(n.s4_pp2s);
      s4.t2_c = sfu_.get(n.s4_pp2c);
      s4.c1_neg = sfu_.get_flag(n.s4_c1n);
      s4.c2_neg = sfu_.get_flag(n.s4_c2n);
      s4.dx = static_cast<std::uint32_t>(sfu_.get(n.s4_dx));
      s4.c0 = sfu_.get(n.s4_c0);
      s4.quadrant = static_cast<std::uint8_t>(sfu_.get(n.s4_q));
      s4.neg = sfu_.get_flag(n.s4_neg);
      s4.k_exp = static_cast<std::int32_t>(sfu_.get_signed(n.s4_k));
      s4.special = sfu_.get_flag(n.s4_special);
      s4.special_bits = static_cast<std::uint32_t>(sfu_.get(n.s4_sbits));
      s4.func = static_cast<SfuFunc>(sfu_.get(n.s4_func));
      const SfuS5 s5 = sfu_stage5(s4);
      sfu_.set(n.s5_acc, static_cast<std::uint64_t>(s5.acc));
      sfu_.set(n.s5_q, s5.quadrant);
      sfu_.set(n.s5_neg, s5.neg);
      sfu_.set(n.s5_k, static_cast<std::uint64_t>(s5.k_exp));
      sfu_.set(n.s5_special, s5.special);
      sfu_.set(n.s5_sbits, s5.special_bits);
      sfu_.set(n.s5_func, static_cast<std::uint64_t>(s5.func));
      sfu_.set(n.s5_lane, sfu_.get(n.s4_lane));
      sfu_.set(n.s5_valid, 1);
      sfu_.set(n.s4_valid, 0);
    }
    // S3 -> S4.
    if (sfu_.get_flag(n.s3_valid)) {
      SfuS3 s3;
      s3.idx = static_cast<std::uint8_t>(sfu_.get(n.s3_idx));
      s3.dx = static_cast<std::uint32_t>(sfu_.get(n.s3_dx));
      s3.c0 = sfu_.get(n.s3_c0);
      s3.c1 = sfu_.get_signed(n.s3_c1);
      s3.c2 = sfu_.get_signed(n.s3_c2);
      s3.quadrant = static_cast<std::uint8_t>(sfu_.get(n.s3_q));
      s3.neg = sfu_.get_flag(n.s3_neg);
      s3.k_exp = static_cast<std::int32_t>(sfu_.get_signed(n.s3_k));
      s3.special = sfu_.get_flag(n.s3_special);
      s3.special_bits = static_cast<std::uint32_t>(sfu_.get(n.s3_sbits));
      s3.func = static_cast<SfuFunc>(sfu_.get(n.s3_func));
      const SfuS4 s4 = sfu_stage4(s3);
      sfu_.set(n.s4_pp1s, s4.t1_s);
      sfu_.set(n.s4_pp1c, s4.t1_c);
      sfu_.set(n.s4_pp2s, s4.t2_s);
      sfu_.set(n.s4_pp2c, s4.t2_c);
      sfu_.set(n.s4_c1n, s4.c1_neg);
      sfu_.set(n.s4_c2n, s4.c2_neg);
      sfu_.set(n.s4_dx, s4.dx);
      sfu_.set(n.s4_c0, s4.c0);
      sfu_.set(n.s4_q, s4.quadrant);
      sfu_.set(n.s4_neg, s4.neg);
      sfu_.set(n.s4_k, static_cast<std::uint64_t>(s4.k_exp));
      sfu_.set(n.s4_special, s4.special);
      sfu_.set(n.s4_sbits, s4.special_bits);
      sfu_.set(n.s4_func, static_cast<std::uint64_t>(s4.func));
      sfu_.set(n.s4_lane, sfu_.get(n.s3_lane));
      sfu_.set(n.s4_valid, 1);
      sfu_.set(n.s3_valid, 0);
    }
    // S2 -> S3: recombine the carry-save argument, look up coefficients.
    if (sfu_.get_flag(n.s2_valid)) {
      SfuS2 s2;
      s2.u_fx = sfu_.get(n.rr_s) + sfu_.get(n.rr_c);
      s2.quadrant = static_cast<std::uint8_t>(sfu_.get(n.s2_q));
      s2.neg = sfu_.get_flag(n.s2_neg);
      s2.k_exp = static_cast<std::int32_t>(sfu_.get_signed(n.s2_k));
      s2.special = sfu_.get_flag(n.s2_special);
      s2.special_bits = static_cast<std::uint32_t>(sfu_.get(n.s2_sbits));
      s2.func = static_cast<SfuFunc>(sfu_.get(n.s2_func));
      const SfuS3 s3 = sfu_stage3(s2);
      sfu_.set(n.s3_idx, s3.idx);
      sfu_.set(n.s3_dx, s3.dx);
      sfu_.set(n.s3_c0, s3.c0);
      sfu_.set(n.s3_c1, static_cast<std::uint64_t>(s3.c1));
      sfu_.set(n.s3_c2, static_cast<std::uint64_t>(s3.c2));
      sfu_.set(n.s3_q, s3.quadrant);
      sfu_.set(n.s3_neg, s3.neg);
      sfu_.set(n.s3_k, static_cast<std::uint64_t>(s3.k_exp));
      sfu_.set(n.s3_special, s3.special);
      sfu_.set(n.s3_sbits, s3.special_bits);
      sfu_.set(n.s3_func, static_cast<std::uint64_t>(s3.func));
      sfu_.set(n.s3_lane, sfu_.get(n.s2_lane));
      sfu_.set(n.s3_valid, 1);
      sfu_.set(n.s2_valid, 0);
    }
    // IN -> S2: range reduction (the reduced argument is stored as a
    // redundant carry-save pair).
    if (sfu_.get_flag(n.in_valid)) {
      const auto x =
          static_cast<std::uint32_t>(sfu_.get(n.in_x));
      const auto func = static_cast<SfuFunc>(sfu_.get(n.in_func));
      const SfuS2 s2 = sfu_stage2(x, func);
      constexpr std::uint64_t kEvenMask = 0x5555555555555555ull;
      sfu_.set(n.rr_s, s2.u_fx & kEvenMask);
      sfu_.set(n.rr_c, s2.u_fx & ~kEvenMask);
      sfu_.set(n.s2_q, s2.quadrant);
      sfu_.set(n.s2_neg, s2.neg);
      sfu_.set(n.s2_k, static_cast<std::uint64_t>(s2.k_exp));
      sfu_.set(n.s2_special, s2.special);
      sfu_.set(n.s2_sbits, s2.special_bits);
      sfu_.set(n.s2_func, static_cast<std::uint64_t>(s2.func));
      sfu_.set(n.s2_lane, sfu_.get(n.in_lane));
      sfu_.set(n.s2_valid, 1);
      sfu_.set(n.in_valid, 0);
    }
  }

  ModuleState& sched_;
  ModuleState& intfu_;
  ModuleState& fpfu_;
  ModuleState& sfu_;
  ModuleState& sfuctl_;
  ModuleState& pipe_;
  TrackedArray<std::uint32_t>& global_;
  TrackedArray<std::uint32_t>& regs_;
  TrackedArray<std::uint8_t>& preds_;
  TrackedArray<std::uint32_t>& shared_;
  const isa::Program& prog_;
  const GridDims& dims_;
  std::optional<FaultSpec> fault_;
  ModuleState* fault_bank_ = nullptr;
  FieldBit fault_bit_;
  std::uint64_t max_cycles_;
  const RunCtx& ctx_;
  const Layouts& L;

  std::uint64_t cycle_ = 0;
  bool fault_pending_ = true;
  unsigned cta_ = 0;
  std::uint64_t next_ckpt_ = 0;
  std::uint64_t next_check_ = 0;
  std::size_t capture_idx_ = 0;
};

}  // namespace

const SmCheckpoint* GoldenTrace::floor(std::uint64_t c) const {
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it)
    if (it->quiescent && it->cycle <= c) return &*it;
  return nullptr;
}

Sm::Sm(std::size_t global_words)
    : sched_(layouts().scheduler.layout),
      intfu_(layouts().int_fu.layout),
      fpfu_(layouts().fp32_fu.layout),
      sfu_(layouts().sfu.layout),
      sfuctl_(layouts().sfu_ctl.layout),
      pipe_(layouts().pipeline.layout) {
  global_.init(global_words, digest_salt(kSaltDomainGlobal));
  regs_.init(std::size_t{kMaxWarps} * 32 * isa::kNumRegs,
             digest_salt(kSaltDomainRegs));
  preds_.init(std::size_t{kMaxWarps} * 32 * isa::kNumPreds,
              digest_salt(kSaltDomainPreds));
  shared_.init(0, digest_salt(kSaltDomainShared));
}

std::uint32_t Sm::alloc(std::size_t words) {
  if (alloc_watermark_ + words > global_.size())
    throw std::bad_alloc();
  const auto base = static_cast<std::uint32_t>(alloc_watermark_);
  alloc_watermark_ += words;
  return base;
}
std::uint32_t Sm::read_word(std::uint32_t addr) const {
  if (addr >= global_.size()) throw std::out_of_range("read_word");
  return global_[addr];
}
void Sm::write_word(std::uint32_t addr, std::uint32_t value) {
  if (addr >= global_.size()) throw std::out_of_range("write_word");
  global_.store(addr, value);
}
float Sm::read_float(std::uint32_t addr) const {
  return std::bit_cast<float>(read_word(addr));
}
void Sm::write_float(std::uint32_t addr, float value) {
  write_word(addr, std::bit_cast<std::uint32_t>(value));
}
std::vector<std::uint32_t> Sm::global() const {
  std::vector<std::uint32_t> out(global_.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = global_[i];
  return out;
}
void Sm::fill(std::uint32_t addr, std::size_t words, std::uint32_t value) {
  if (addr + words > global_.size()) throw std::out_of_range("fill");
  for (std::size_t i = 0; i < words; ++i) global_.store(addr + i, value);
}

const ModuleState& Sm::module_state(Module m) const {
  switch (m) {
    case Module::Fp32Fu: return fpfu_;
    case Module::IntFu: return intfu_;
    case Module::Sfu: return sfu_;
    case Module::SfuCtl: return sfuctl_;
    case Module::Scheduler: return sched_;
    case Module::PipelineRegs: return pipe_;
  }
  return pipe_;
}

ModuleState& Sm::bank(Module m) {
  return const_cast<ModuleState&>(module_state(m));
}

void Sm::set_tracking(bool on) {
  if (tracking_ == on) return;
  tracking_ = on;
  for (std::size_t i = 0; i < kNumModules; ++i)
    bank(static_cast<Module>(i))
        .set_tracking(on, digest_salt(kSaltDomainModule0 +
                                      static_cast<unsigned>(i)));
  global_.set_tracking(on);
  regs_.set_tracking(on);
  preds_.set_tracking(on);
  shared_.set_tracking(on);
}

void Sm::enable_digest_tracking() { set_tracking(true); }

std::uint64_t Sm::state_digest() const {
  return sched_.digest() ^ intfu_.digest() ^ fpfu_.digest() ^ sfu_.digest() ^
         sfuctl_.digest() ^ pipe_.digest() ^ global_.digest() ^
         regs_.digest() ^ preds_.digest() ^ shared_.digest();
}

SmCheckpoint Sm::snap(std::uint64_t cycle, unsigned cta,
                      bool quiescent) const {
  SmCheckpoint c;
  c.cycle = cycle;
  c.cta = cta;
  c.quiescent = quiescent;
  for (std::size_t i = 0; i < kNumModules; ++i) {
    const ModuleState& ms = module_state(static_cast<Module>(i));
    c.modules[i].bits = ms.bits();
    c.modules[i].digest = ms.digest();
  }
  c.global = global_.snapshot();
  c.regs = regs_.snapshot();
  c.preds = preds_.snapshot();
  c.shared = shared_.snapshot();
  c.digest = state_digest();
  return c;
}

SmCheckpoint Sm::checkpoint() {
  enable_digest_tracking();
  return snap(0, 0, false);
}

void Sm::restore(const SmCheckpoint& c) {
  for (std::size_t i = 0; i < kNumModules; ++i)
    bank(static_cast<Module>(i)).load(c.modules[i].bits, c.modules[i].digest);
  global_.restore(c.global);
  regs_.restore(c.regs);
  preds_.restore(c.preds);
  shared_.restore(c.shared);
}

RunResult Sm::execute(const isa::Program& prog, const GridDims& dims,
                      const std::optional<FaultSpec>& fault,
                      std::uint64_t max_cycles) {
  // Power-on reset of every flip-flop bank.
  sched_.reset();
  intfu_.reset();
  fpfu_.reset();
  sfu_.reset();
  sfuctl_.reset();
  pipe_.reset();
  shared_.resize_clear(prog.shared_words);
  // A faulted run is never unlimited: a scheduler stuck-at can loop the
  // issue FSM forever, and a hang must classify as Watchdog (DUE).
  const std::uint64_t bound =
      max_cycles != 0 ? max_cycles
                      : (fault ? kFaultyRunCycleCap : kUnlimitedCycles);
  Machine m(sched_, intfu_, fpfu_, sfu_, sfuctl_, pipe_, global_, regs_,
            preds_, shared_, prog, dims, fault, bound, kPlainRun);
  return m.run();
}

RunResult Sm::run(const isa::Program& prog, const GridDims& dims,
                  std::uint64_t max_cycles) {
  return execute(prog, dims, std::nullopt, max_cycles);
}

RunResult Sm::run(const isa::Program& prog, const GridDims& dims,
                  LivenessTimeline& liveness, std::uint64_t max_cycles) {
  sched_.reset();
  intfu_.reset();
  fpfu_.reset();
  sfu_.reset();
  sfuctl_.reset();
  pipe_.reset();
  shared_.resize_clear(prog.shared_words);
  liveness.clear();
  RunCtx ctx;
  ctx.liveness = &liveness;
  const std::uint64_t bound = max_cycles != 0 ? max_cycles : kUnlimitedCycles;
  Machine m(sched_, intfu_, fpfu_, sfu_, sfuctl_, pipe_, global_, regs_,
            preds_, shared_, prog, dims, std::nullopt, bound, ctx);
  RunResult r = m.run();
  liveness.finalize(r.cycles);
  return r;
}

RunResult Sm::run_with_fault(const isa::Program& prog, const GridDims& dims,
                             const FaultSpec& fault,
                             std::uint64_t max_cycles) {
  return execute(prog, dims, fault, max_cycles);
}

RunResult Sm::run_traced(const isa::Program& prog, const GridDims& dims,
                         GoldenTrace& trace,
                         std::uint64_t checkpoint_interval,
                         std::uint64_t max_cycles,
                         std::vector<std::uint64_t> capture_at) {
  enable_digest_tracking();
  trace.checkpoints.clear();
  trace.digest_at.clear();
  std::sort(capture_at.begin(), capture_at.end());
  sched_.reset();
  intfu_.reset();
  fpfu_.reset();
  sfu_.reset();
  sfuctl_.reset();
  pipe_.reset();
  shared_.resize_clear(prog.shared_words);
  RunCtx ctx;
  ctx.record = &trace;
  ctx.interval = std::max<std::uint64_t>(1, checkpoint_interval);
  ctx.capture_at = std::move(capture_at);
  ctx.capture = [this](std::uint64_t cy, unsigned ct, bool q) {
    return snap(cy, ct, q);
  };
  Machine m(sched_, intfu_, fpfu_, sfu_, sfuctl_, pipe_, global_, regs_,
            preds_, shared_, prog, dims, std::nullopt,
            max_cycles == 0 ? kUnlimitedCycles : max_cycles, ctx);
  trace.result = m.run();
  return trace.result;
}

RunResult Sm::resume_with_fault(const isa::Program& prog, const GridDims& dims,
                                const FaultSpec& fault,
                                std::uint64_t max_cycles,
                                const SmCheckpoint& from,
                                const GoldenTrace* golden,
                                std::uint64_t check_interval) {
  if (!from.quiescent)
    throw std::invalid_argument(
        "resume_with_fault: checkpoint is not resumable");
  // Digest maintenance is only paid for when the convergence early-exit
  // needs it; the checkpoint's recorded digests stay authoritative either
  // way because restore() overwrites the live digests wholesale.
  set_tracking(golden != nullptr);
  restore(from);
  RunCtx ctx;
  ctx.resume_from = &from;
  ctx.reference = golden;
  ctx.check_interval = std::max<std::uint64_t>(1, check_interval);
  Machine m(sched_, intfu_, fpfu_, sfu_, sfuctl_, pipe_, global_, regs_,
            preds_, shared_, prog, dims, fault,
            max_cycles == 0 ? kFaultyRunCycleCap : max_cycles, ctx);
  return m.run();
}

std::string_view fault_model_name(FaultModel m) {
  switch (m) {
    case FaultModel::Transient: return "transient";
    case FaultModel::StuckAt0: return "stuck-at-0";
    case FaultModel::StuckAt1: return "stuck-at-1";
    case FaultModel::IntermittentBurst: return "intermittent-burst";
  }
  return "?";
}

}  // namespace gpufi::rtl
