#pragma once

// ZOFI-style statistical campaign planner (arXiv 1906.09390): a software
// campaign only needs as many trials as its confidence target requires.
//
// The planner stratifies the injection space over (opcode x syndrome input
// range) — the same axes the RTL syndrome database is keyed by — sizes each
// stratum's trial budget proportionally to its share of the dynamic
// candidate stream, runs trials in deterministic per-stratum batches through
// exec::run_trials, and stops a stratum as soon as the Wilson interval on
// its SDC proportion is tighter than the requested half-width. The overall
// PVF is then the stratified estimator sum(w_s * p_s) with w_s the stratum's
// candidate weight, which is unbiased regardless of how early any stratum
// stopped (the stop rule looks only at precision, never at the estimate).
//
// Determinism: batch seeds derive from (campaign seed, stratum index, batch
// index), batch sizes are a pure function of the plan and the trial counts
// so far, and every batch runs through exec::run_trials — so the full
// PlanResult is byte-identical for any --jobs value.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/statistics.hpp"
#include "swfi/swfi.hpp"

namespace gpufi::swfi {

/// Adaptive sampling plan. Parsed from the shared CLI/serve vocabulary
/// "target_err=X[,min_trials=N][,max_trials=N]" (vocab::parse_plan).
struct Plan {
  /// Wilson half-width goal for each stratum's SDC proportion; <= 0 keeps
  /// the planner in fixed-trial mode (byte-identical to run_sw_campaign).
  double target_err = 0.0;
  /// Per-stratum floor before the stop rule is consulted (and the size of
  /// the first batch).
  std::size_t min_trials = 32;
  /// Hard per-stratum cap; 0 = the stratum's proportional budget share.
  std::size_t max_trials = 0;

  bool adaptive() const { return target_err > 0.0; }

  bool operator==(const Plan&) const = default;
};

/// Why a stratum stopped drawing trials.
enum class StratumStop : std::uint8_t {
  Converged,  ///< Wilson half-width reached target_err
  Budget,     ///< trial budget exhausted before convergence
};

std::string_view stratum_stop_name(StratumStop s);

/// One stratum of the injection space: the candidate retirements of one
/// opcode whose inputs fall in one syndrome magnitude class.
struct StratumResult {
  isa::Opcode op = isa::Opcode::NOP;
  rtlfi::InputRange range = rtlfi::InputRange::Small;
  std::uint64_t candidates = 0;  ///< dynamic candidates (golden profile)
  std::size_t budget = 0;        ///< trials a fixed campaign would spend here
  std::size_t trials = 0;        ///< trials actually run
  std::uint64_t masked = 0, sdc = 0, due = 0;
  StratumStop stop = StratumStop::Budget;
  double sdc_half_width = 1.0;  ///< Wilson half-width at stop time
};

/// Outcome of a planned campaign.
struct PlanResult {
  /// Merged campaign counters and site table across every stratum batch
  /// (stratum-major, batch order) — same shape as a fixed campaign's Result.
  Result result;
  std::vector<StratumResult> strata;
  bool adaptive = false;
  std::size_t planned_trials = 0;  ///< total budget without early stopping
  std::size_t trials_saved = 0;    ///< planned_trials - trials actually run
  /// Stratified SDC PVF estimate sum(w_s * p_s) and its half-width
  /// sqrt(sum(w_s^2 * hw_s^2)). In fixed mode these fall back to the plain
  /// campaign proportion and its Wilson half-width.
  double pvf = 0.0;
  double pvf_half_width = 0.0;
};

/// Runs a software campaign under `plan`. Fixed mode (!plan.adaptive())
/// delegates to run_sw_campaign, so `result` is byte-identical to the legacy
/// path; adaptive mode stratifies, early-stops, and reports what it saved.
/// cfg.n_injections is the total trial budget either way.
PlanResult run_planned_campaign(const App& app, const Config& cfg,
                                const Plan& plan);

namespace detail {
/// run_planned_campaign, with the golden tape (`replay`) or without.
PlanResult run_planned_campaign(const App& app, const Config& cfg,
                                const Plan& plan, bool replay);
}  // namespace detail

}  // namespace gpufi::swfi
