#pragma once

// ZOFI-style statistical campaign planner (arXiv 1906.09390): a software
// campaign only needs as many trials as its confidence target requires.
//
// The planner stratifies the injection space over (opcode x syndrome input
// range) — the axes the RTL syndrome database is keyed by — and weights each
// stratum by its share w_s of the dynamic candidate stream. After a small
// pilot it runs rounds of Neyman-allocated trials (one exec::run_trials each)
// until the stratified PVF sum(w_s * p_s) has the requested half-width or the
// budget runs out. The half-width z * sqrt(sum(w_s^2 * v_s / n_s)) bounds v_s
// by the largest p(1-p) inside the stratum's 95% Wilson interval, so a stratum
// that has shown no SDC never reads as variance-free. The stop rule reads p_s,
// so the estimate is not unbiased; what holds is coverage, which
// tests/planner_test.cpp checks by Monte-Carlo: the sequentially stopped
// interval covers the true PVF of Bernoulli strata in >= 95% of campaigns.
//
// Determinism: round r seeds its trials from (campaign seed, r), and round
// sizes and allocations are pure functions of earlier outcomes, so the full
// PlanResult is byte-identical for any --jobs value.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/statistics.hpp"
#include "swfi/swfi.hpp"

namespace gpufi::swfi {

/// Adaptive sampling plan. Parsed from the shared CLI/serve vocabulary
/// "target_err=X[,min_trials=N][,max_trials=N]" (vocab::parse_plan).
struct Plan {
  /// 95% half-width goal for the stratified PVF estimate; <= 0 keeps the
  /// planner in fixed-trial mode (byte-identical to run_sw_campaign).
  double target_err = 0.0;
  /// Pilot size, spread over the strata in proportion to their weight with
  /// at least one trial each; later rounds add <= max(trials, min_trials).
  std::size_t min_trials = 32;
  /// Hard per-stratum cap; 0 = no cap.
  std::size_t max_trials = 0;

  bool adaptive() const { return target_err > 0.0; }

  bool operator==(const Plan&) const = default;
};

/// Why a planned campaign stopped (every stratum carries the campaign's).
enum class StratumStop : std::uint8_t {
  Converged,  ///< the PVF half-width reached target_err
  Budget,     ///< budget or every stratum's max_trials ran out first
};

std::string_view stratum_stop_name(StratumStop s);

/// One stratum of the injection space: the candidate retirements of one
/// opcode whose inputs fall in one syndrome magnitude class.
struct StratumResult {
  isa::Opcode op = isa::Opcode::NOP;
  rtlfi::InputRange range = rtlfi::InputRange::Small;
  std::uint64_t candidates = 0;  ///< dynamic candidates (golden profile)
  std::size_t budget = 0;  ///< proportional budget share, capped at max_trials
  std::size_t trials = 0;  ///< trials actually run
  std::uint64_t masked = 0, sdc = 0, due = 0;
  StratumStop stop = StratumStop::Budget;
  double sdc_half_width = 1.0;  ///< Wilson half-width at stop time
};

/// Outcome of a planned campaign.
struct PlanResult {
  /// Merged campaign counters and site table over every stratum — same
  /// shape as a fixed campaign's Result.
  Result result;
  std::vector<StratumResult> strata;
  bool adaptive = false;
  std::size_t planned_trials = 0;  ///< sum of the strata's budget shares
  std::size_t trials_saved = 0;    ///< planned_trials - trials actually run
  /// Stratified SDC PVF estimate sum(w_s * p_s) and its conservative 95%
  /// half-width (see the header comment). In fixed mode these fall back to
  /// the plain campaign proportion and its Wilson half-width.
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

/// Runs round `round`, alloc[s] more trials in stratum s, and returns the
/// round's Result per stratum; a short round (cancelled) ends the campaign.
using RunRound = std::function<std::vector<Result>(
    std::size_t round, const std::vector<std::size_t>& alloc)>;

/// What the sampler drew: the merged Result per stratum, the stop reason,
/// and the stratified PVF estimate with its half-width.
struct Sample {
  std::vector<Result> strata;
  StratumStop stop = StratumStop::Budget;
  double pvf = 0.0, half_width = 1.0;
};

/// The planner's statistical core, free of the emulator: pilot, Neyman
/// rounds, stop rule and interval over strata of `weights` (summing to 1),
/// spending at most `budget` trials through `run_round`.
Sample sample_strata(const std::vector<double>& weights, const Plan& plan,
                     std::size_t budget, const RunRound& run_round);
}  // namespace detail

}  // namespace gpufi::swfi
