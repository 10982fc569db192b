#include "swfi/planner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpufi::swfi {

using isa::Opcode;

std::string_view stratum_stop_name(StratumStop s) {
  switch (s) {
    case StratumStop::Converged: return "converged";
    case StratumStop::Budget: return "budget";
  }
  return "?";
}

namespace {

/// Seed-derivation stream tag separating planner batches from the fixed
/// campaign's per-trial streams ("plan" in ASCII).
constexpr std::uint64_t kPlannerStream = 0x706c616e;

double half_width(std::uint64_t successes, std::uint64_t n) {
  const auto iv = stats::wilson_interval(successes, n);
  return (iv.hi - iv.lo) / 2.0;
}

const std::vector<double>& stratum_trial_buckets() {
  static const std::vector<double> kBuckets = {8,   16,  32,   64,  128,
                                               256, 512, 1024, 2048, 4096};
  return kBuckets;
}

}  // namespace

PlanResult detail::run_planned_campaign(const App& app, const Config& cfg,
                                        const Plan& plan, bool replay) {
  if (!plan.adaptive()) {
    // Fixed-trial mode: the exact legacy path, wrapped. Byte-identity of
    // `result` with run_sw_campaign is pinned by tests/planner_test.cpp.
    PlanResult pr;
    pr.result = run_sw_campaign(app, cfg, replay);
    pr.planned_trials = cfg.n_injections;
    pr.pvf = pr.result.pvf();
    pr.pvf_half_width = half_width(pr.result.sdc, pr.result.injections);
    return pr;
  }

  obs::Span span("swfi.run_planned_campaign");
  span.set("app", app.name);
  span.set("model", fault_model_name(cfg.model));
  span.set("budget", static_cast<std::uint64_t>(cfg.n_injections));

  // Golden pass: reference output, stratified candidate census and tape.
  const detail::Golden golden = detail::run_golden(app, cfg.interpreter);
  const std::uint64_t candidates = golden.candidates;

  PlanResult pr;
  pr.adaptive = true;
  pr.result.candidate_instructions = candidates;
  pr.result.pc_exec_counts = golden.pc_exec_counts;

  // Proportional budgets: each stratum gets its candidate-weighted share of
  // cfg.n_injections, floored at min_trials (tiny strata still need enough
  // trials for the interval to mean anything) and capped at max_trials.
  for (const auto& [key, before] : golden.stratum_before) {
    StratumResult s;
    s.op = key.first;
    s.range = key.second;
    s.candidates = before.back();
    const auto share = static_cast<std::size_t>(std::llround(
        static_cast<double>(cfg.n_injections) *
        static_cast<double>(s.candidates) / static_cast<double>(candidates)));
    s.budget = std::max(plan.min_trials, share);
    if (plan.max_trials > 0)
      s.budget = std::min(s.budget, std::max<std::size_t>(plan.max_trials, 1));
    pr.strata.push_back(s);
    pr.planned_trials += s.budget;
  }

  const bool obs_on = obs::enabled();
  for (std::size_t si = 0; si < pr.strata.size(); ++si) {
    StratumResult& s = pr.strata[si];
    if (cfg.cancel && cfg.cancel->stopped()) break;
    std::size_t batch_index = 0;
    while (s.trials < s.budget) {
      // Doubling batch schedule (min_trials first): a pure function of the
      // plan and the trials so far, so the batch boundaries — and with them
      // every per-trial seed — are jobs-invariant.
      const std::size_t batch =
          std::min(s.budget - s.trials,
                   std::max<std::size_t>(plan.min_trials, s.trials));
      exec::EngineConfig ec;
      ec.n_trials = std::max<std::size_t>(batch, 1);
      ec.seed = rng_derive(cfg.seed, kPlannerStream, si, batch_index);
      ec.jobs = cfg.jobs;
      ec.progress = cfg.progress;
      ec.progress_interval = cfg.progress_interval;
      ec.cancel = cfg.cancel;
      const Result batch_result = exec::run_trials<Result>(
          ec,
          [&] {
            auto dev = std::make_unique<emu::Device>(app.device_words);
            dev->set_interpreter(cfg.interpreter);
            return dev;
          },
          [&](std::unique_ptr<emu::Device>& dev, std::size_t, Rng& rng,
              Result& shard) {
            const std::uint64_t target = rng.below(s.candidates);
            InjectHook hook(cfg.model, target, rng(), cfg.db,
                            app.memory_is_float, cfg.syndrome_model);
            hook.restrict_to(s.op, s.range);
            detail::run_one_trial(app, *dev, hook, golden, shard, replay);
          });
      s.trials += batch_result.injections;
      s.masked += batch_result.masked;
      s.sdc += batch_result.sdc;
      s.due += batch_result.due;
      pr.result.merge(batch_result);
      ++batch_index;
      if (cfg.cancel && cfg.cancel->stopped()) break;
      s.sdc_half_width = half_width(s.sdc, s.trials);
      if (s.trials >= plan.min_trials &&
          s.sdc_half_width <= plan.target_err) {
        s.stop = StratumStop::Converged;
        break;
      }
    }
    if (s.trials > 0) s.sdc_half_width = half_width(s.sdc, s.trials);
    if (s.stop != StratumStop::Converged) s.stop = StratumStop::Budget;
    if (obs_on) {
      obs::count(obs::label("gpufi_swfi_planner_stratum_stops_total",
                            "reason", stratum_stop_name(s.stop)));
      if (s.stop == StratumStop::Converged)
        obs::count("gpufi_swfi_planner_early_stops_total");
      obs::Registry::global()
          .histogram("gpufi_swfi_planner_stratum_trials",
                     stratum_trial_buckets())
          .observe(static_cast<double>(s.trials));
    }
  }

  // Keep candidate/profile data authoritative from the golden pass (merge
  // max-combines candidate counts, which would otherwise be fine, but be
  // explicit about the source).
  pr.result.candidate_instructions = candidates;

  std::size_t run_trials_total = 0;
  double pvf = 0.0, var = 0.0;
  for (const StratumResult& s : pr.strata) {
    run_trials_total += s.trials;
    if (s.trials == 0) continue;
    const double w = static_cast<double>(s.candidates) /
                     static_cast<double>(candidates);
    const double p = static_cast<double>(s.sdc) /
                     static_cast<double>(s.trials);
    pvf += w * p;
    var += w * w * s.sdc_half_width * s.sdc_half_width;
  }
  pr.pvf = pvf;
  pr.pvf_half_width = std::sqrt(var);
  pr.trials_saved = pr.planned_trials > run_trials_total
                        ? pr.planned_trials - run_trials_total
                        : 0;
  if (obs_on) {
    obs::count("gpufi_swfi_planner_campaigns_total");
    obs::count("gpufi_swfi_planner_trials_saved_total", pr.trials_saved);
  }
  span.set("trials", static_cast<std::uint64_t>(run_trials_total));
  span.set("saved", static_cast<std::uint64_t>(pr.trials_saved));
  return pr;
}

PlanResult run_planned_campaign(const App& app, const Config& cfg,
                                const Plan& plan) {
  return detail::run_planned_campaign(app, cfg, plan, /*replay=*/true);
}

}  // namespace gpufi::swfi
