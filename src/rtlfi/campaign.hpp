#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attr/attr.hpp"
#include "common/rng.hpp"
#include "exec/engine.hpp"
#include "isa/isa.hpp"
#include "rtl/liveness.hpp"
#include "rtl/sm.hpp"
#include "vocab/outcomes.hpp"

namespace gpufi::rtlfi {

/// Fault-effect classification (Avizienis taxonomy as used by the paper).
enum class Outcome : std::uint8_t {
  Masked,  ///< no effect on the observable output
  Sdc,     ///< silent data corruption: output mismatch, clean termination
  Due,     ///< detected unrecoverable error: trap or hang
};

/// Human-readable outcome name.
std::string_view outcome_name(Outcome o);

/// One corrupted output element of an SDC (part of the detailed report).
struct ElementDiff {
  std::uint32_t index = 0;      ///< word index within the output region
  std::uint32_t golden = 0;     ///< expected bits
  std::uint32_t faulty = 0;     ///< observed bits
  double rel_error = 0.0;       ///< |faulty-golden| / |golden| (value domain)
  unsigned bits_flipped = 0;    ///< popcount(golden ^ faulty)
};

/// Detailed report entry: everything the paper records per observed SDC
/// (fault location, golden/faulty values, #bits, #threads, spatial info).
struct InjectionRecord {
  rtl::FaultSpec fault;
  std::string field;            ///< name of the flip-flop field hit
  rtl::FieldRole role = rtl::FieldRole::Data;
  Outcome outcome = Outcome::Masked;
  std::string due_reason;       ///< trap reason / "watchdog expired"
  /// DUE cause as an enum (classified from due_reason at record time) so
  /// reports group by cause without string matching.
  vocab::DueReason due_reason_code = vocab::DueReason::None;
  /// The instruction live at fault.cycle, joined deterministically from the
  /// golden liveness timeline (identical across accel levels / job counts).
  rtl::FaultSiteContext site;
  unsigned corrupted_elements = 0;
  unsigned corrupted_threads = 0;  ///< distinct threads with a wrong output
  std::vector<ElementDiff> diffs;  ///< capped at kMaxDiffsKept entries
};

/// Limit on per-record element diffs (multi-element SDCs can corrupt the
/// whole output; the spatial classifier only needs the indices kept here).
constexpr std::size_t kMaxDiffsKept = 256;

/// A workload to characterize under fault injection.
struct Workload {
  isa::Program program;
  rtl::GridDims dims;
  /// Writes the inputs into device memory before every run.
  std::function<void(rtl::Sm&)> setup;
  /// Output region used for SDC classification.
  std::uint32_t out_base = 0;
  std::uint32_t out_words = 0;
  bool out_is_float = true;
  /// Spatial geometry of the output (t-MxM pattern analysis); 0 = linear.
  unsigned out_rows = 0, out_cols = 0;
  /// Output element index -> owning thread is (index % thread_modulo);
  /// 0 treats every element as a distinct thread.
  unsigned thread_modulo = 0;
  std::string name = "workload";
};

/// RTL hot-path acceleration level. All levels produce byte-identical
/// campaign results (counters, records, syndrome DB); `None` exists for A/B
/// verification and as the reference for the equivalence tests.
enum class Acceleration : std::uint8_t {
  None,        ///< every trial replays the workload from reset
  Checkpoint,  ///< trials fast-forward from the golden checkpoint ladder
  /// Checkpoint fast-forward plus golden-state-convergence early exit: a
  /// trial whose full machine state re-coincides with the golden run's is
  /// terminated immediately as Masked.
  CheckpointEarlyExit,
};

/// Human-readable acceleration-mode name ("none", "checkpoint", ...).
std::string_view acceleration_name(Acceleration a);

/// Campaign parameters: which module to bombard and with how many faults.
struct CampaignConfig {
  rtl::Module module = rtl::Module::Fp32Fu;
  std::size_t n_faults = 2000;
  std::uint64_t seed = 1;
  /// Fault model every trial injects (the fault-model axis). The (bit,
  /// cycle) location draws are identical across models, so campaigns that
  /// differ only here bombard exactly the same fault sites.
  rtl::FaultModel fault_model = rtl::FaultModel::Transient;
  /// Fault-window length for the non-transient models; 0 = permanent (the
  /// window never closes, so accelerated trials never early-exit).
  std::uint64_t fault_duration = 0;
  /// IntermittentBurst re-flip period in cycles.
  std::uint64_t burst_period = 8;
  /// Keep detailed records for DUEs and multi-thread SDCs too.
  bool keep_all_records = false;
  /// Trial-loop parallelism: 0 resolves to ThreadPool::default_jobs()
  /// (GPUFI_JOBS or the hardware concurrency), 1 runs serial. The result is
  /// byte-identical for every value — trial i draws from
  /// Rng(rng_derive(seed, i)) and records are merged in trial order.
  unsigned jobs = 0;
  /// RTL fast-path level (results are identical across levels). Only the
  /// equivalence tests select the slower reference levels.
  Acceleration acceleration = Acceleration::CheckpointEarlyExit;
  /// Optional telemetry callback (injections done, injections/sec, ETA).
  exec::ProgressFn progress;
  /// Optional cooperative stop flag (see exec::CancelToken): a stopped token
  /// aborts the trial loop early; the partial result must then be discarded
  /// by the caller (it is a valid prefix merge, not the full campaign).
  const exec::CancelToken* cancel = nullptr;
  /// gpufi-fabric sharding: run only the global trial indices
  /// [shard_offset, shard_offset + shard_count) of the n_faults-trial
  /// campaign (shard_count == 0 runs it all). Ranges must respect the
  /// exec::chunk_size(n_faults) alignment contract — exec::plan_shards
  /// produces conforming partitions. Merging shard results in offset order
  /// reproduces the whole-campaign result byte for byte.
  std::size_t shard_offset = 0;
  std::size_t shard_count = 0;
};

/// The reusable fault-free half of a campaign: golden cycle count and
/// reference output, plus (for accelerated modes) the checkpoint ladder and
/// digest timeline. Everything here is a pure function of the Workload and
/// whether `acceleration` is None — independent of seed, fault count, jobs
/// and fault model — so one context
/// can be computed once and shared read-only by any number of concurrent
/// campaigns over the same workload (the serve-mode golden cache does
/// exactly that).
struct GoldenContext {
  std::uint64_t golden_cycles = 0;
  std::vector<std::uint32_t> golden_out;
  /// Checkpoint ladder + digest timeline; null when prepared with
  /// Acceleration::None.
  std::shared_ptr<const rtl::GoldenTrace> trace;
  /// Per-cycle instruction liveness of the golden run, recorded during the
  /// plain (untraced) golden execution so it is identical for every
  /// acceleration level. Fault-site attribution joins against this.
  std::shared_ptr<const rtl::LivenessTimeline> liveness;
};

/// Runs the golden (and, for accelerated modes, traced-golden) executions of
/// `w` and returns the shareable context. Throws if the golden run fails or
/// the traced replay diverges from it.
GoldenContext prepare_golden(const Workload& w, const CampaignConfig& cfg);

/// General report of one campaign (the per-module/per-instruction AVF data
/// behind Fig. 4 and Fig. 7).
struct CampaignResult {
  std::size_t injected = 0;
  std::size_t masked = 0;
  std::size_t sdc_single = 0;  ///< SDCs corrupting exactly one thread
  std::size_t sdc_multi = 0;   ///< SDCs corrupting more than one thread
  std::size_t due = 0;
  std::uint64_t golden_cycles = 0;
  /// Of the masked trials, how many were cut short by golden-state
  /// convergence (telemetry only — excluded from equivalence comparisons,
  /// since the naive path never converges early).
  std::size_t converged_early = 0;

  /// Detailed records (always kept for SDCs).
  std::vector<InjectionRecord> records;

  /// Per-fault-site outcome tallies (every trial lands in exactly one
  /// site bucket, including the idle bucket for between-instruction
  /// faults). Feeds `gpufi report`.
  attr::SiteTable attribution;

  double avf_sdc() const {
    return injected == 0
               ? 0.0
               : static_cast<double>(sdc_single + sdc_multi) / injected;
  }
  double avf_due() const {
    return injected == 0 ? 0.0 : static_cast<double>(due) / injected;
  }
  double avf() const { return avf_sdc() + avf_due(); }
  /// Fraction of SDCs affecting more than one output element.
  double multi_fraction() const {
    const auto s = sdc_single + sdc_multi;
    return s == 0 ? 0.0 : static_cast<double>(sdc_multi) / s;
  }
  /// Mean corrupted elements per SDC.
  double mean_corrupted_elements() const;
  /// Mean distinct corrupted threads per SDC (the paper reports 1 for
  /// INT/FP32 FUs, ~8 for SFUs, ~28 for the scheduler, ~18 for pipeline).
  double mean_corrupted_threads() const;
  /// 95% margin of error on the total AVF estimate.
  double margin_of_error() const;

  /// Merges another campaign's counters and records (e.g. averaging the
  /// paper's four values per input range).
  void merge(const CampaignResult& other);
};

/// Runs one fault-injection campaign: a golden run sizes the fault window
/// and provides the reference output, then `n_faults` uniformly random
/// (flip-flop bit, cycle) transients are injected one per run.
CampaignResult run_campaign(const Workload& w, const CampaignConfig& cfg);

/// Same campaign, but fast-forwarding from an already-prepared golden
/// context (see prepare_golden). Accelerated configs require golden.trace,
/// i.e. a context prepared with an accelerated config. Byte-identical to the single-argument overload — sharing
/// the context across campaigns cannot change any result.
CampaignResult run_campaign(const Workload& w, const CampaignConfig& cfg,
                            const GoldenContext& golden);

/// Classifies a single faulty run against golden output (exposed for tests).
Outcome classify(rtl::RunStatus status,
                 const std::vector<std::uint32_t>& golden_out,
                 const std::vector<std::uint32_t>& faulty_out);

}  // namespace gpufi::rtlfi
