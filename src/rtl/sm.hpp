#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "isa/isa.hpp"
#include "rtl/layouts.hpp"
#include "rtl/liveness.hpp"
#include "rtl/state.hpp"

namespace gpufi::rtl {

/// Launch geometry for the RTL model (one CTA executes at a time on the
/// single modelled SM; CTAs of a grid run back to back).
struct GridDims {
  unsigned grid_x = 1, grid_y = 1;
  unsigned block_x = 1, block_y = 1;

  unsigned threads_per_cta() const { return block_x * block_y; }
  unsigned ctas() const { return grid_x * grid_y; }
};

/// How an injected fault manifests over time — the fault-model axis that
/// generalizes the paper's single transient-flip assumption (the permanent /
/// intermittent taxonomy of the follow-up control-unit studies).
enum class FaultModel : std::uint8_t {
  /// One bit flip at `cycle`; the flipped value persists only until normal
  /// pipeline operation overwrites the flip-flop.
  Transient,
  /// The bit is forced to 0 at every clock edge inside the fault window
  /// [cycle, cycle+duration) — any pipeline write is re-overridden on the
  /// next edge. duration = 0 keeps the window open forever (permanent).
  StuckAt0,
  /// As StuckAt0 but forced to 1.
  StuckAt1,
  /// Intermittent burst: the bit is re-flipped every `period` cycles inside
  /// the fault window (marginal-cell / noise-coupling behaviour).
  IntermittentBurst,
};

/// Number of fault models.
constexpr std::size_t kNumFaultModels = 4;

/// Human-readable fault-model name ("transient", "stuck-at-0", ...).
std::string_view fault_model_name(FaultModel m);

/// A single injected fault: location (`module`, `bit`), activation cycle,
/// and the temporal shape given by `model`/`duration`/`period`.
struct FaultSpec {
  Module module = Module::PipelineRegs;
  std::uint32_t bit = 0;
  std::uint64_t cycle = 0;
  FaultModel model = FaultModel::Transient;
  /// Fault-window length in cycles for the non-transient models; 0 keeps
  /// the window open forever (a permanent fault). Ignored for Transient.
  std::uint64_t duration = 0;
  /// Re-flip period of IntermittentBurst (cycles, minimum 1).
  std::uint64_t period = 1;

  /// True when the fault window never closes (non-transient, duration 0).
  bool permanent() const {
    return model != FaultModel::Transient && duration == 0;
  }
};

/// Watchdog applied to faulty runs launched without an explicit cycle
/// bound: a stuck-at in the scheduler can starve the issue FSM forever, so
/// a faulted run is never truly unlimited — it classifies as a hang (DUE)
/// once this many cycles elapse. Campaigns size a tighter bound from the
/// golden cycle count; this cap only backstops direct run_with_fault /
/// resume_with_fault calls.
constexpr std::uint64_t kFaultyRunCycleCap = std::uint64_t{1} << 22;

/// Terminal status of an RTL run.
enum class RunStatus {
  Ok,        ///< orderly completion
  Trap,      ///< detected illegal state (invalid PC/opcode, OOB access, ...)
  Watchdog,  ///< cycle limit expired (hang / deadlock / livelock)
};

/// Outcome of one RTL execution.
struct RunResult {
  RunStatus status = RunStatus::Ok;
  std::string trap_reason;
  std::uint64_t cycles = 0;
  /// True when the run was cut short because the full machine state
  /// re-converged with the golden reference — the remainder of the run is
  /// then provably the golden suffix, so the outcome (including every
  /// memory word) is identical to running to completion. `cycles` reports
  /// the golden run's cycle count in that case.
  bool converged = false;
};

/// Architectural memory with an incrementally maintained content digest and
/// a high watermark over its touched prefix. Storage is allocated
/// uninitialized in pages of kPageWords elements, one live flag per page: a
/// dead page reads as zeros, and the first nonzero store to it zero-fills
/// it. Invariant: every element at index >= hi() reads T{}, so construction,
/// clear(), snapshot() and restore() cost what a run touched, not the
/// (multi-megaword) array size, and a store far above the data costs one
/// page.
template <class T>
class TrackedArray {
 public:
  static constexpr std::size_t kPageShift = 10;
  static constexpr std::size_t kPageWords = std::size_t{1} << kPageShift;

  /// Prefix copy of the array (checkpoint building block).
  struct Snapshot {
    std::vector<T> prefix;  ///< copy of [0, hi) at capture
    std::size_t size = 0;   ///< full array size at capture
    std::uint64_t digest = 0;
  };

  /// (Re)initializes to `n` zero elements under digest domain `salt`.
  void init(std::size_t n, std::uint64_t salt) {
    allocate(n);
    salt_ = salt;
  }
  /// Resizes to `n` zero elements (keeps salt and tracking mode).
  void resize_clear(std::size_t n) {
    if (n_ == n)
      clear();
    else
      allocate(n);
  }

  std::size_t size() const { return n_; }
  T operator[](std::size_t i) const {
    return live_[i >> kPageShift] ? v_[i] : T{};
  }

  /// The only mutation primitive: writes element `i`, maintaining the
  /// watermark and (when tracking) the digest.
  void store(std::size_t i, T val) {
    const std::size_t p = i >> kPageShift;
    if (!live_[p]) {
      if (val == T{}) return;
      std::fill_n(v_.get() + (p << kPageShift), kPageWords, T{});
      live_[p] = true;
    }
    T& slot = v_[i];
    if (slot == val) return;
    if (track_)
      digest_ ^= state_digest_mix(salt_, i, slot) ^
                 state_digest_mix(salt_, i, val);
    slot = val;
    if (i >= hi_) hi_ = i + 1;
  }

  /// Drops the touched pages (equivalent to zeroing the whole array).
  void clear() {
    std::fill_n(live_.get(), pages(hi_), false);
    hi_ = 0;
    digest_ = 0;
  }

  std::size_t hi() const { return hi_; }
  std::uint64_t digest() const { return digest_; }

  void set_tracking(bool on) {
    if (on && !track_) {
      digest_ = 0;
      for (std::size_t i = 0; i < hi_; ++i)
        digest_ ^= state_digest_mix(salt_, i,
                                    static_cast<std::uint64_t>((*this)[i]));
    }
    track_ = on;
  }
  bool tracking() const { return track_; }

  Snapshot snapshot() const {
    Snapshot s;
    s.prefix.reserve(hi_);
    for (std::size_t b = 0; b < hi_; b += kPageWords) {
      const std::size_t e = std::min(hi_, b + kPageWords);
      if (live_[b >> kPageShift])
        s.prefix.insert(s.prefix.end(), v_.get() + b, v_.get() + e);
      else
        s.prefix.resize(e);
    }
    s.size = n_;
    s.digest = digest_;
    return s;
  }
  /// Drops the touched pages, then copies the prefix into its pages; the
  /// last of them reads zeros past the prefix.
  void restore(const Snapshot& s) {
    if (n_ != s.size) allocate(s.size);
    clear();
    const std::size_t n = s.prefix.size();
    std::fill_n(live_.get(), pages(n), true);
    std::copy(s.prefix.begin(), s.prefix.end(), v_.get());
    std::fill(v_.get() + n, v_.get() + (pages(n) << kPageShift), T{});
    hi_ = n;
    digest_ = s.digest;
  }

 private:
  static std::size_t pages(std::size_t n) {
    return (n >> kPageShift) + ((n & (kPageWords - 1)) != 0);
  }
  void allocate(std::size_t n) {
    n_ = n;
    v_ = std::make_unique_for_overwrite<T[]>(pages(n) << kPageShift);
    live_ = std::make_unique<bool[]>(pages(n));
    hi_ = 0;
    digest_ = 0;
  }

  std::unique_ptr<T[]> v_;        ///< pages(n_) whole pages
  std::unique_ptr<bool[]> live_;  ///< one flag per page
  std::size_t n_ = 0;
  std::size_t hi_ = 0;
  std::uint64_t salt_ = 0;
  std::uint64_t digest_ = 0;
  bool track_ = false;
};

/// Full microarchitectural state of an Sm at one instant: the six flip-flop
/// banks of Table I, every architectural memory, and the position within
/// the run (cycle counter, CTA loop index). Checkpoints captured at a
/// scheduler quiescent point (`quiescent == true`) are resumable — the
/// interpreter holds no implicit C++ state there, so execution can continue
/// from the restored image; mid-instruction captures are restorable only.
struct SmCheckpoint {
  std::uint64_t cycle = 0;
  unsigned cta = 0;
  bool quiescent = false;
  std::uint64_t digest = 0;  ///< composite state digest at capture

  struct ModuleSnap {
    BitVector bits;
    std::uint64_t digest = 0;
  };
  std::array<ModuleSnap, kNumModules> modules;  ///< indexed by Module
  TrackedArray<std::uint32_t>::Snapshot global, regs, shared;
  TrackedArray<std::uint8_t>::Snapshot preds;
};

/// Golden-run acceleration artifact: a ladder of resumable checkpoints plus
/// the digest timeline faulty trials compare against to exit early. Built
/// once per campaign and shared read-only by every trial.
struct GoldenTrace {
  RunResult result;
  /// Checkpoints in capture order (ascending cycle). Contains one resumable
  /// rung at least every `checkpoint_interval` cycles — always including
  /// cycle 0 — plus any requested mid-instruction captures.
  std::vector<SmCheckpoint> checkpoints;
  /// Composite digest at every scheduler quiescent point of the golden run.
  /// When two quiescent points share a cycle (a CTA boundary), the first
  /// wins; a missed lookup only delays an early exit, never causes one.
  std::unordered_map<std::uint64_t, std::uint64_t> digest_at;

  /// Latest resumable checkpoint with cycle <= c (nullptr only when the
  /// trace is empty: a traced run always records a rung at cycle 0).
  const SmCheckpoint* floor(std::uint64_t c) const;
};

/// Cycle-level model of one G80-style streaming multiprocessor with
/// explicit, faultable flip-flop state for the six modules of Table I.
///
/// The execution style follows FlexGripPlus: blocking in-order issue, one
/// warp instruction in flight, a 32-thread warp processed as four beats of
/// eight lanes, two shared SFUs behind an arbitration controller. All
/// architectural memories (register file, predicate file, shared and global
/// memory, program ROM) are modelled as plain storage and are NOT fault
/// targets, mirroring the paper's ECC assumption.
class Sm {
 public:
  explicit Sm(std::size_t global_words = 1 << 20);

  // ---- host-side memory interface (word addressed) --------------------
  std::uint32_t alloc(std::size_t words);
  void reset_allocator() { alloc_watermark_ = 0; }
  std::uint32_t read_word(std::uint32_t addr) const;
  void write_word(std::uint32_t addr, std::uint32_t value);
  float read_float(std::uint32_t addr) const;
  void write_float(std::uint32_t addr, float value);
  void fill(std::uint32_t addr, std::size_t words, std::uint32_t value);
  std::size_t global_words() const { return global_.size(); }
  /// Copy of the whole global memory (for golden/faulty comparison).
  std::vector<std::uint32_t> global() const;
  /// Zeroes global memory (cheap: only the touched pages are dropped), so
  /// every injection starts from the same power-on memory image.
  void clear_global() { global_.clear(); }

  /// Runs a kernel with no fault. `max_cycles` = 0 means unlimited-ish
  /// (2^62). Returns cycle count for fault-window sizing.
  RunResult run(const isa::Program& prog, const GridDims& dims,
                std::uint64_t max_cycles = 0);

  /// Runs a kernel with no fault while recording the per-cycle liveness
  /// timeline (which dynamic instruction occupies the machine at each
  /// cycle), for fault-site attribution against the same seeds/cycles a
  /// campaign draws. The timeline is cleared, filled, and finalized.
  RunResult run(const isa::Program& prog, const GridDims& dims,
                LivenessTimeline& liveness, std::uint64_t max_cycles = 0);

  /// Runs a kernel with one transient fault injected.
  RunResult run_with_fault(const isa::Program& prog, const GridDims& dims,
                           const FaultSpec& fault, std::uint64_t max_cycles);

  // ---- checkpoint / state-digest fast path ----------------------------

  /// Turns on incremental digest maintenance for every state component
  /// (recomputing digests from the live state). Idempotent. The plain run
  /// paths never require this; the traced/resumed paths enable it as
  /// needed.
  void enable_digest_tracking();
  bool digest_tracking() const { return tracking_; }
  /// Composite digest over the six flip-flop banks and all architectural
  /// memories (meaningful while digest tracking is on).
  std::uint64_t state_digest() const;

  /// Captures the current at-rest state (enables tracking). The result is
  /// restorable but not resumable (no run position is associated with it).
  SmCheckpoint checkpoint();
  /// Restores a checkpoint previously captured from an Sm with the same
  /// layouts. Digest tracking state is preserved.
  void restore(const SmCheckpoint& c);

  /// Golden run that additionally records the acceleration trace: one
  /// resumable checkpoint-ladder rung at least every `checkpoint_interval`
  /// cycles (always including cycle 0) and the digest timeline at every
  /// scheduler quiescent point. `capture_at` requests extra restorable
  /// mid-instruction checkpoints at exact cycle numbers (a testing hook).
  RunResult run_traced(const isa::Program& prog, const GridDims& dims,
                       GoldenTrace& trace, std::uint64_t checkpoint_interval,
                       std::uint64_t max_cycles = 0,
                       std::vector<std::uint64_t> capture_at = {});

  /// Fault-injection run that fast-forwards by restoring `from` (a
  /// resumable checkpoint with cycle <= fault.cycle) instead of replaying
  /// the fault-free prefix from reset; the fault fires on exactly the same
  /// cycle as it would in a full replay. When `golden` is given, the run
  /// additionally compares its state digest against the golden timeline
  /// every `check_interval` cycles once the fault is in, and returns
  /// `converged = true` (status Ok) the moment the full machine state
  /// coincides with the golden run's at the same cycle.
  RunResult resume_with_fault(const isa::Program& prog, const GridDims& dims,
                              const FaultSpec& fault, std::uint64_t max_cycles,
                              const SmCheckpoint& from,
                              const GoldenTrace* golden = nullptr,
                              std::uint64_t check_interval = 16);

  /// Read access to a module's flip-flop bank (tests/reports).
  const ModuleState& module_state(Module m) const;

 private:
  RunResult execute(const isa::Program& prog, const GridDims& dims,
                    const std::optional<FaultSpec>& fault,
                    std::uint64_t max_cycles);
  ModuleState& bank(Module m);
  void set_tracking(bool on);
  SmCheckpoint snap(std::uint64_t cycle, unsigned cta, bool quiescent) const;

  TrackedArray<std::uint32_t> global_;
  std::size_t alloc_watermark_ = 0;
  bool tracking_ = false;

  ModuleState sched_;
  ModuleState intfu_;
  ModuleState fpfu_;
  ModuleState sfu_;
  ModuleState sfuctl_;
  ModuleState pipe_;

  // Architectural memories live here (not in the per-run interpreter) so
  // checkpoints can capture and restore them.
  TrackedArray<std::uint32_t> regs_, shared_;
  TrackedArray<std::uint8_t> preds_;
};

}  // namespace gpufi::rtl
