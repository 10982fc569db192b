#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/isa.hpp"

namespace gpufi::emu {

/// Grid/block launch geometry (x * y threads per CTA, x * y CTAs).
struct LaunchDims {
  unsigned grid_x = 1, grid_y = 1;
  unsigned block_x = 1, block_y = 1;

  unsigned threads_per_cta() const { return block_x * block_y; }
  unsigned ctas() const { return grid_x * grid_y; }
};

/// Identifies one executing thread during instrumentation callbacks.
struct ThreadId {
  unsigned cta = 0;    ///< linear CTA index
  unsigned warp = 0;   ///< warp index within the CTA
  unsigned lane = 0;   ///< lane within the warp (0..31)
  unsigned tid = 0;    ///< linear thread index within the CTA
};

/// Information passed to instrumentation on each retired instruction.
struct RetireInfo {
  const isa::Instr* instr = nullptr;
  std::int32_t pc = 0;
  ThreadId thread;
  std::uint64_t dyn_index = 0;  ///< per-launch retirement counter (per thread-instruction)
  std::uint32_t a = 0, b = 0, c = 0;  ///< resolved source operand values
};

/// NVBit-style instrumentation interface.
///
/// `on_retire` fires once per thread per retired value-producing
/// instruction, after the result is computed and before it is written back;
/// the callback may rewrite `value` (this is the software fault-injection
/// primitive). `on_pred_retire` is the analogous hook for ISETP/FSETP.
/// `on_count` fires once per thread per retired instruction of any kind
/// (profiling).
class InstrumentHook {
 public:
  virtual ~InstrumentHook() = default;
  virtual void on_retire(const RetireInfo& /*info*/, std::uint32_t& /*value*/) {}
  virtual void on_pred_retire(const RetireInfo& /*info*/, bool& /*value*/) {}
  virtual void on_count(const RetireInfo& /*info*/) {}
  /// A hook that returns true here promises it neither observes nor mutates
  /// the retirements of `next`, the static instruction a warp is about to
  /// issue (nullptr: of any instruction, for the rest of the launch). The
  /// interpreter then runs that warp-instruction on the unhooked fast path:
  /// no callbacks, batched retire accounting. Asked once per
  /// warp-instruction, and with nullptr once per CTA before on_cta.
  /// Everything the launch produces — memory, retired totals, traps — is
  /// identical either way. A one-shot injection hook uses this to make the
  /// post-fire tail of a trial (on average half of it, all of it for a
  /// fault-induced hang) run at uninstrumented speed, a sticky one to run
  /// everything its fault cannot touch there, and an unfired one every
  /// instruction it does not count.
  virtual bool done(const isa::Instr* /*next*/) const { return false; }
  /// Called before each CTA runs, with the CTA's position in the device's
  /// run: CTAs are numbered across launches from 0 at construction or the
  /// last Device::reset(). On a device replaying a golden tape
  /// (Device::replay_tape) that covers this CTA, returning true makes the
  /// device apply the CTA's recorded global stores and retired count
  /// instead of executing it, so the hook sees none of its retirements.
  /// That is exact only while the run is still the golden one, i.e. before
  /// the hook has changed any value. Hooks that keep the default see every
  /// retirement; a golden pass can use the call to cut per-CTA tallies.
  virtual bool on_cta(std::size_t /*run_cta*/) { return false; }
};

/// Golden CTA tape: what every CTA of a run did to global memory, in run
/// order (CTAs numbered as for InstrumentHook::on_cta). Registers,
/// predicates and shared memory reset for every CTA, so global memory is
/// the only state a CTA passes on; its stores and the retired count it
/// leaves therefore stand in for executing it. Recorded by a golden pass
/// (Device::record_tape), replayed by the trials of a campaign.
struct CtaTape {
  struct Cta {
    std::size_t stores_end = 0;  ///< one past the CTA's last entry in stores
    std::uint64_t retired = 0;   ///< the launch's retired count at CTA end
  };
  /// Global stores as (word address, value), in the order they were made.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stores;
  std::vector<Cta> ctas;
};

/// Terminal status of a kernel launch.
enum class LaunchStatus {
  Ok,       ///< all threads exited
  Trap,     ///< invalid PC, out-of-bounds access, divergence-stack overflow
  Timeout,  ///< retired-instruction watchdog expired (hang)
};

/// Outcome and accounting of one launch.
struct LaunchResult {
  LaunchStatus status = LaunchStatus::Ok;
  std::string trap_reason;
  std::uint64_t retired = 0;  ///< total thread-instructions retired
};

/// Per-launch tunables.
struct LaunchConfig {
  /// Watchdog: maximum thread-instructions before declaring a hang.
  /// 0 means "derive from a golden run" is not available; use the default.
  std::uint64_t max_retired = 400'000'000;
  InstrumentHook* hook = nullptr;
  /// When true, out-of-range memory accesses wrap modulo the memory size
  /// instead of trapping. This models a real GPU's large mapped address
  /// space, where a corrupted address usually returns wrong data rather
  /// than faulting — matching the paper's observation that software
  /// syndrome injection produces no DUEs. The RTL model always traps.
  bool oob_wraps = false;
};

/// Interpreter implementation executing a launch. Both produce bit-identical
/// results — outputs, retire-callback order and values, traps, and retired
/// counts (tests/emu_equiv_test.cpp pins this).
enum class Interpreter : std::uint8_t {
  Scalar,  ///< reference: one instruction per lane per step
  /// Structure-of-arrays warp execution: registers and predicates live in
  /// contiguous per-warp lane slabs, an instruction is decoded once per warp
  /// and all 32 lanes execute in tight branch-free loops (a warp with fewer
  /// than half its lanes live steps them one by one).
  SoA,
};

/// Functional SIMT GPU device: flat word-addressed global memory plus a
/// kernel interpreter with G80-style SIMT divergence stacks and CTA-wide
/// barriers. This is the software level of the two-level framework: fast,
/// architecturally visible state only.
class Device {
 public:
  /// Creates a device with `global_words` words of global memory.
  explicit Device(std::size_t global_words = 1 << 22);

  /// Resets the allocation watermark (memory contents are untouched).
  void reset_allocator() { alloc_watermark_ = 0; }

  /// Restores the device to its freshly-constructed state: every word ever
  /// written (host copies/fills and kernel global stores) is zeroed again
  /// and the allocator rewinds. Campaign loops reuse one device per worker
  /// through this instead of constructing (and zeroing) a new one per trial;
  /// the post-reset state is byte-identical to a new Device of the same size
  /// (CTA numbering for on_cta restarts too; attached tapes stay attached).
  void reset();

  /// Selects the interpreter used by launch() (default SoA; the scalar path
  /// is kept as the equivalence-test and benchmark reference).
  void set_interpreter(Interpreter i) { interp_ = i; }
  Interpreter interpreter() const { return interp_; }

  /// Bump-allocates `words` words of global memory; returns the word
  /// address. Throws std::bad_alloc when the device is full.
  std::uint32_t alloc(std::size_t words);

  /// Word-accurate access to global memory (host side).
  std::uint32_t read_word(std::uint32_t addr) const;
  void write_word(std::uint32_t addr, std::uint32_t value);
  float read_float(std::uint32_t addr) const;
  void write_float(std::uint32_t addr, float value);

  /// Bulk host<->device copies (word granularity).
  void copy_in(std::uint32_t addr, const std::uint32_t* src,
               std::size_t words);
  void copy_out(std::uint32_t addr, std::uint32_t* dst,
                std::size_t words) const;
  void copy_in_f(std::uint32_t addr, const float* src, std::size_t words);
  void copy_out_f(std::uint32_t addr, float* dst, std::size_t words) const;

  /// Fills a region with a word value.
  void fill(std::uint32_t addr, std::size_t words, std::uint32_t value);

  std::size_t global_words() const { return global_.size(); }

  /// Records a golden tape: every CTA this device runs from now on appends
  /// its global stores and end-of-CTA retired count to `tape` (nullptr
  /// stops recording).
  void record_tape(CtaTape* tape) { recording_ = tape; }
  /// Replays a tape recorded by the same run: before CTA k runs, a hook
  /// whose on_cta(k) returns true gets tape CTA k applied instead of
  /// executed (nullptr detaches).
  void replay_tape(const CtaTape* tape) { replaying_ = tape; }

  /// Executes a kernel to completion (or trap/timeout).
  LaunchResult launch(const isa::Program& prog, const LaunchDims& dims,
                      const LaunchConfig& cfg = {});

 private:
  struct SoaSlabs;

  /// True when [addr, addr+words) lies inside global memory, computed
  /// without overflow (`addr + words` can wrap std::size_t).
  bool in_bounds(std::uint32_t addr, std::size_t words) const {
    return addr <= global_.size() && words <= global_.size() - addr;
  }
  /// Records that words below `end` may now be nonzero (reset() only has to
  /// zero up to the high-water mark).
  void touch(std::size_t end) {
    if (end > touched_high_) touched_high_ = end;
  }

  /// A kernel's global store (recorded when a tape is being recorded).
  void store_global(std::uint32_t addr, std::uint32_t value) {
    global_[addr] = value;
    touch(static_cast<std::size_t>(addr) + 1);
    if (recording_) recording_->stores.emplace_back(addr, value);
  }

  /// Execute CTA `cta` of a launch, advancing `retired`. They return early
  /// once `retired` passes cfg.max_retired (the watchdog) and throw on traps.
  void run_cta_scalar(const isa::Program& prog, const LaunchDims& dims,
                      const LaunchConfig& cfg, unsigned cta,
                      std::uint64_t& retired);
  void run_cta_soa(const isa::Program& prog, const LaunchDims& dims,
                   const LaunchConfig& cfg, unsigned cta,
                   std::uint64_t& retired, SoaSlabs& slabs);

  std::vector<std::uint32_t> global_;
  std::size_t alloc_watermark_ = 0;
  std::size_t touched_high_ = 0;  ///< one past the highest word ever written
  Interpreter interp_ = Interpreter::SoA;
  CtaTape* recording_ = nullptr;
  const CtaTape* replaying_ = nullptr;
  std::size_t ctas_run_ = 0;  ///< CTAs started since construction or reset()
};

}  // namespace gpufi::emu
