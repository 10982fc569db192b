#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "emu/device.hpp"
#include "exec/engine.hpp"
#include "rtlfi/microbench.hpp"
#include "syndrome/syndrome.hpp"
#include "vocab/outcomes.hpp"

namespace gpufi::swfi {

/// Software fault models. SingleBitFlip/DoubleBitFlip are the traditional
/// NVBitFI models; RelativeError injects the RTL-derived syndrome
/// distribution (the paper's contribution).
enum class FaultModel : std::uint8_t {
  SingleBitFlip,
  DoubleBitFlip,
  RelativeError,
  /// Extension (Sec. VI: "NVBitFI could inject in multiple threads"):
  /// corrupts the destination of the targeted dynamic instruction in EVERY
  /// thread of its warp, each with an independently sampled relative error
  /// — the software image of a scheduler-class whole-warp fault.
  WarpRelativeError,
  /// Stuck-at replay: after the first shot, re-corrupts EVERY subsequent
  /// retirement of the same static instruction (the same isa::Instr of the
  /// same launched program, any thread; a pc of another kernel is another
  /// instruction) with a freshly sampled relative error from the stuck-at
  /// syndrome class — the software image of a permanently stuck datapath
  /// flip-flop feeding that instruction. Capped at kStickyMaxHits
  /// corruptions.
  StickyRelativeError,
};

std::string_view fault_model_name(FaultModel m);

/// An application under software fault injection: a self-contained runner
/// plus an output reader used for SDC classification.
struct App {
  std::string name;
  /// Runs the whole application (allocations, input generation, kernel
  /// launches) on a fresh device with `hook` attached to every launch.
  /// Returns false if any launch trapped or timed out (-> DUE).
  std::function<bool(emu::Device&, emu::InstrumentHook*)> run;
  /// Reads the output words used for golden/faulty comparison.
  std::function<std::vector<std::uint32_t>(const emu::Device&)> read_output;
  /// Device size for this app.
  std::size_t device_words = 1 << 22;
  /// Interpret GLD-loaded values as floats when applying relative errors.
  bool memory_is_float = true;
};

/// Syndrome magnitude class of a candidate retirement: FP-destination
/// instructions classify max(|a|, |b|) as a float magnitude, integer
/// destinations as a signed magnitude — the same rule InjectHook uses to
/// pick the syndrome class of a shot, reused by the campaign planner to
/// stratify the injection space over (opcode x input range).
rtlfi::InputRange classify_inputs(isa::Opcode op, std::uint32_t a,
                                  std::uint32_t b, bool memory_is_float);

/// A stratum of the injection space: the candidate retirements of one
/// opcode whose inputs classify into one syndrome magnitude class.
using Stratum = std::pair<isa::Opcode, rtlfi::InputRange>;

/// Profile pass: counts the dynamic instructions eligible for injection
/// (RTL-characterized opcodes that produce a register or predicate value).
class ProfileHook : public emu::InstrumentHook {
 public:
  void on_retire(const emu::RetireInfo& info, std::uint32_t& value) override;
  void on_pred_retire(const emu::RetireInfo& info, bool& value) override;

  std::uint64_t candidates() const { return candidates_; }

  /// True if `op` is an injection candidate (value-producing characterized
  /// instruction; BRA and stores have no destination and are excluded).
  static bool is_candidate(isa::Opcode op);

 private:
  std::uint64_t candidates_ = 0;
};

/// Injection pass: corrupts the destination of the `target`-th candidate
/// dynamic instruction according to the fault model.
class InjectHook : public emu::InstrumentHook {
 public:
  InjectHook(FaultModel model, std::uint64_t target, std::uint64_t seed,
             const syndrome::Database* db, bool memory_is_float,
             rtl::FaultModel syndrome_model = rtl::FaultModel::Transient);

  /// Cap on sticky-model re-corruptions (bounds hot-loop blowup).
  static constexpr unsigned kStickyMaxHits = 4096;

  void on_retire(const emu::RetireInfo& info, std::uint32_t& value) override;
  void on_pred_retire(const emu::RetireInfo& info, bool& value) override;
  /// True once this injector can never fire again (one-shot models after the
  /// shot, continuation models after they disarm), for a fired sticky fault
  /// at every instruction but the one it corrupts, and before the shot at
  /// every instruction it does not count (not a candidate, or not the
  /// restricted stratum's opcode): the interpreter then runs those at
  /// uninstrumented speed. This is what makes a fault-induced hang (a
  /// corrupted loop counter spinning to the watchdog) cost
  /// unhooked-execution time instead of per-lane callback time.
  bool done(const isa::Instr* next) const override;
  /// Golden-tape replay: until the shot, asks the device to replay every CTA
  /// whose candidates (of the class this hook counts) do not include the
  /// target, instead of executing it. Needs skip_golden_ctas.
  bool on_cta(std::size_t run_cta) override;

  /// Planner stratification: count (and target) only candidate retirements
  /// of `op` whose inputs classify into `range` — `target` then indexes the
  /// matching candidates only. Continuation firing (sticky/warp models) is
  /// unaffected; it images the same physical fault.
  void restrict_to(isa::Opcode op, rtlfi::InputRange range) {
    stratum_ = Stratum{op, range};
  }
  /// The stratum set by restrict_to (nullopt: every candidate counts).
  const std::optional<Stratum>& stratum() const { return stratum_; }
  /// Enables on_cta skipping: `before[k]` is the number of candidates this
  /// hook counts that retire before CTA k of the golden run (one entry per
  /// golden CTA plus the total). nullptr disables it. The vector must
  /// outlive the trial.
  void skip_golden_ctas(const std::vector<std::uint64_t>* before) {
    golden_before_ = before;
  }

  bool fired() const { return fired_; }
  /// Number of corrupted thread-destinations (1, or up to 32 for the
  /// warp-level model).
  unsigned corrupted_threads() const { return hits_; }
  /// Opcode of the corrupted instruction (valid once fired).
  isa::Opcode hit_opcode() const { return hit_op_; }
  /// Static instruction index of the first corruption (valid once fired).
  std::int32_t hit_pc() const { return hit_pc_; }
  /// Per-thread dynamic-instruction index of the first corruption (the
  /// retirement counter value at the shot; valid once fired).
  std::uint64_t hit_dyn_index() const { return hit_dyn_index_; }
  /// Relative error applied (RelativeError model, FP destinations).
  double applied_rel_error() const { return applied_rel_; }

 private:
  bool take_shot(const emu::RetireInfo& info);
  std::uint32_t corrupt_value(const emu::RetireInfo& info,
                              std::uint32_t value);

  FaultModel model_;
  std::uint64_t target_;
  std::uint64_t seen_ = 0;
  Rng rng_;
  const syndrome::Database* db_;
  bool memory_is_float_;
  rtl::FaultModel syndrome_model_;
  bool fired_ = false;
  unsigned hits_ = 0;
  isa::Opcode hit_op_ = isa::Opcode::NOP;
  std::uint64_t hit_dyn_index_ = 0;
  double applied_rel_ = 0.0;
  std::int32_t hit_pc_ = -1;
  /// The corrupted static instruction, which continuation models re-fire
  /// on (programs stay alive for the whole app run they are launched in).
  const isa::Instr* hit_instr_ = nullptr;
  // Warp-level continuation state: keep corrupting lanes of the same
  // warp-instruction until the warp moves on.
  bool armed_ = true;
  unsigned hit_cta_ = 0, hit_warp_ = 0;
  std::optional<Stratum> stratum_;  ///< planner restriction
  const std::vector<std::uint64_t>* golden_before_ = nullptr;
};

/// Software fault-injection campaign parameters.
struct Config {
  FaultModel model = FaultModel::SingleBitFlip;
  const syndrome::Database* db = nullptr;  ///< required for RelativeError
  /// Which RTL fault-model syndrome class the relative-error models sample
  /// from (falls back to Transient inside the database when the class was
  /// never characterized). StickyRelativeError campaigns typically set
  /// StuckAt1 to replay the stuck-at syndromes they image.
  rtl::FaultModel syndrome_model = rtl::FaultModel::Transient;
  std::size_t n_injections = 500;
  std::uint64_t seed = 1;
  /// Interpreter used by every launch of the campaign (golden and trials).
  /// SoA is the fast default; Scalar is the bit-identical reference path the
  /// equivalence tests and benchmarks compare against.
  emu::Interpreter interpreter = emu::Interpreter::SoA;
  /// Injection-loop parallelism: 0 resolves to ThreadPool::default_jobs()
  /// (GPUFI_JOBS or the hardware concurrency), 1 runs serial. The Result is
  /// identical for every value — injection i draws its target and hook seed
  /// from Rng(rng_derive(seed, i)).
  unsigned jobs = 0;
  /// Optional telemetry callback (injections done, injections/sec, ETA).
  exec::ProgressFn progress;
  /// Optional cooperative stop flag: a stopped token aborts the injection
  /// loop early (partial results must be discarded by the caller).
  const exec::CancelToken* cancel = nullptr;
  /// gpufi-fabric sharding: run only the global injection indices
  /// [shard_offset, shard_offset + shard_count) of the n_injections-trial
  /// campaign (shard_count == 0 runs it all; ranges must respect the
  /// exec::chunk_size(n_injections) alignment contract). Each shard repeats
  /// the deterministic golden profile run, so merging shard Results in
  /// offset order reproduces the whole campaign byte for byte.
  std::size_t shard_offset = 0;
  std::size_t shard_count = 0;
};

/// Campaign outcome: the Program Vulnerability Factor data of Fig. 10 /
/// Table III.
struct Result {
  std::size_t injections = 0;
  std::size_t masked = 0;
  std::size_t sdc = 0;
  std::size_t due = 0;
  std::uint64_t candidate_instructions = 0;

  /// SDC PVF: probability that a fault which reached an architecturally
  /// visible state corrupts the application output.
  double pvf() const {
    return injections == 0 ? 0.0
                           : static_cast<double>(sdc) /
                                 static_cast<double>(injections);
  }
  double due_rate() const {
    return injections == 0 ? 0.0
                           : static_cast<double>(due) /
                                 static_cast<double>(injections);
  }
  /// 95% margin of error on the PVF.
  double margin_of_error() const;

  /// Accumulates another (partial) campaign's counters; candidate counts
  /// from golden profiling are max-combined (they describe the same app).
  void merge(const Result& other);
};

/// Runs a software fault-injection campaign on one application: one golden
/// run (candidate census + reference output), then `n_injections` runs with exactly
/// one corrupted dynamic instruction each.
Result run_sw_campaign(const App& app, const Config& cfg);

namespace detail {

/// Everything a campaign's golden run yields: the reference output, the
/// candidate census and the golden tape with the candidate counts its CTAs
/// skip over.
struct Golden {
  std::vector<std::uint32_t> out;
  std::uint64_t candidates = 0;
  emu::CtaTape tape;
  /// Candidates retired before each tape CTA, plus the total at the end
  /// (tape.ctas.size() + 1 entries): every candidate, and per stratum (the
  /// strata present in the run, whose last entry is the stratum's size).
  std::vector<std::uint64_t> before;
  std::map<Stratum, std::vector<std::uint64_t>> stratum_before;

  /// The `before` counts of the class `hook` counts.
  const std::vector<std::uint64_t>& before_for(const InjectHook& hook) const {
    return hook.stratum() ? stratum_before.at(*hook.stratum()) : before;
  }
};

/// The golden run shared by run_sw_campaign and the planner. Throws if the
/// run fails or has no injection candidate.
Golden run_golden(const App& app, emu::Interpreter interpreter);

/// One injection trial, shared by run_sw_campaign and the planner: resets
/// the reused `dev`, runs the app with `hook` attached, classifies the
/// outcome against the golden output, counts it into `shard` and bumps the
/// per-trial obs counters. With `replay` the CTAs before the shot replay
/// from the golden tape; the outcome is identical without it (the path
/// tests compare against).
void run_one_trial(const App& app, emu::Device& dev, InjectHook& hook,
                   const Golden& golden, Result& shard, bool replay);

/// run_sw_campaign, with the golden tape (`replay`) or without.
Result run_sw_campaign(const App& app, const Config& cfg, bool replay);

}  // namespace detail

}  // namespace gpufi::swfi
