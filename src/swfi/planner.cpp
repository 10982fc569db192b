#include "swfi/planner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

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

/// Seed-derivation stream tag separating planner rounds from the fixed
/// campaign's per-trial streams ("plan" in ASCII).
constexpr std::uint64_t kPlannerStream = 0x706c616e;

double half_width(std::uint64_t successes, std::uint64_t n) {
  const auto iv = stats::wilson_interval(successes, n);
  return (iv.hi - iv.lo) / 2.0;
}

/// Largest p(1-p) inside the stratum's 95% Wilson interval (1/4 when it
/// holds 1/2): never 0, so a stratum with no SDC yet still reads uncertain.
double variance_bound(const Result& c) {
  const auto iv = stats::wilson_interval(c.sdc, c.injections);
  const double p = std::clamp(0.5, iv.lo, iv.hi);
  return p * (1.0 - p);
}

/// z * sqrt(sum(w_s^2 * v_s / n_s)); 1 while a stratum is unsampled.
double stratified_half_width(const std::vector<double>& w,
                             const std::vector<Result>& c) {
  double var = 0.0;
  for (std::size_t s = 0; s < w.size(); ++s) {
    if (c[s].injections == 0) return 1.0;
    var += w[s] * w[s] * variance_bound(c[s]) / c[s].injections;
  }
  return stats::normal_quantile(0.975) * std::sqrt(var);
}

/// Greedy Neyman allocation of `m` trials: each goes to the stratum whose
/// term w^2 * v / n it shrinks most, by w^2 * v / (n * (n + 1)), skipping
/// strata at `cap` (0 = none); ties go to the lower index. Unsampled strata
/// come first, so the pilot (v = 1/4 everywhere) gives each stratum one
/// trial and shares the rest out in proportion to w.
std::vector<std::size_t> allocate(const std::vector<double>& w,
                                  const std::vector<double>& v,
                                  const std::vector<Result>& c,
                                  std::size_t cap, std::size_t m) {
  std::vector<std::size_t> alloc(w.size(), 0);
  for (; m > 0; --m) {
    std::size_t best = w.size();
    double best_gain = -1.0;
    for (std::size_t s = 0; s < w.size(); ++s) {
      const double n = static_cast<double>(c[s].injections + alloc[s]);
      if (cap > 0 && n >= static_cast<double>(cap)) continue;
      const double gain =
          n == 0 ? HUGE_VAL : w[s] * w[s] * v[s] / (n * (n + 1));
      if (gain > best_gain) {
        best = s;
        best_gain = gain;
      }
    }
    if (best == w.size()) break;  // every stratum is capped
    ++alloc[best];
  }
  return alloc;
}

const std::vector<double>& stratum_trial_buckets() {
  static const std::vector<double> kBuckets = {8,   16,  32,   64,  128,
                                               256, 512, 1024, 2048, 4096};
  return kBuckets;
}

/// One round's merge: a campaign Result per stratum.
struct RoundResult {
  std::vector<Result> strata;

  void merge(const RoundResult& o) {
    strata.resize(std::max(strata.size(), o.strata.size()));
    for (std::size_t s = 0; s < o.strata.size(); ++s)
      strata[s].merge(o.strata[s]);
  }
};

}  // namespace

detail::Sample detail::sample_strata(const std::vector<double>& w,
                                     const Plan& plan, std::size_t budget,
                                     const RunRound& run_round) {
  const double z = stats::normal_quantile(0.975);
  Sample out;
  out.strata.resize(w.size());
  std::size_t n = 0;
  for (std::size_t round = 0;; ++round) {
    if (n > 0 && stratified_half_width(w, out.strata) <= plan.target_err) {
      out.stop = StratumStop::Converged;
      break;
    }
    if (n >= budget) break;
    // sigma_s = sqrt(v_s), frozen for the round.
    std::vector<double> v(w.size());
    double w_sigma = 0.0;
    for (std::size_t s = 0; s < w.size(); ++s) {
      v[s] = variance_bound(out.strata[s]);
      w_sigma += w[s] * std::sqrt(v[s]);
    }
    // The pilot, then the Neyman total (z * sum(w_s sigma_s) / target)^2
    // still missing, at most doubling the trials so far.
    std::size_t m = std::max(plan.min_trials, w.size());
    if (round > 0)
      m = static_cast<std::size_t>(std::clamp(
          std::ceil(std::pow(z * w_sigma / plan.target_err, 2) - n), 1.0,
          static_cast<double>(std::max(n, plan.min_trials))));
    const auto alloc =
        allocate(w, v, out.strata, plan.max_trials, std::min(m, budget - n));
    const std::size_t planned =
        std::accumulate(alloc.begin(), alloc.end(), std::size_t{0});
    if (planned == 0) break;  // every stratum is capped
    const std::vector<Result> got = run_round(round, alloc);
    std::size_t ran = 0;
    for (std::size_t s = 0; s < got.size(); ++s) {
      out.strata[s].merge(got[s]);
      ran += got[s].injections;
    }
    n += ran;
    if (ran < planned) break;  // cancelled
  }
  for (std::size_t s = 0; s < w.size(); ++s)
    if (out.strata[s].injections > 0)
      out.pvf += w[s] * out.strata[s].pvf();
  out.half_width = stratified_half_width(w, out.strata);
  return out;
}

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

  // Stratum weights are candidate shares; each stratum's budget is its
  // proportional share of cfg.n_injections, capped at max_trials.
  std::vector<double> weights;
  for (const auto& [key, before] : golden.stratum_before) {
    StratumResult s;
    s.op = key.first;
    s.range = key.second;
    s.candidates = before.back();
    weights.push_back(static_cast<double>(s.candidates) / candidates);
    s.budget = static_cast<std::size_t>(
        std::llround(static_cast<double>(cfg.n_injections) * weights.back()));
    if (plan.max_trials > 0) s.budget = std::min(s.budget, plan.max_trials);
    pr.strata.push_back(s);
    pr.planned_trials += s.budget;
  }

  const detail::Sample sample = detail::sample_strata(
      weights, plan, cfg.n_injections,
      [&](std::size_t round, const std::vector<std::size_t>& alloc) {
        // Trial t runs in the stratum whose prefix-sum range holds it.
        std::vector<std::size_t> end(alloc.size());
        std::partial_sum(alloc.begin(), alloc.end(), end.begin());
        exec::EngineConfig ec;
        ec.n_trials = end.back();
        ec.seed = rng_derive(cfg.seed, kPlannerStream, round);
        ec.jobs = cfg.jobs;
        ec.progress = cfg.progress;
        ec.cancel = cfg.cancel;
        return exec::run_trials<RoundResult>(
            ec,
            [&] {
              auto dev = std::make_unique<emu::Device>(app.device_words);
              dev->set_interpreter(cfg.interpreter);
              return dev;
            },
            [&](std::unique_ptr<emu::Device>& dev, std::size_t t, Rng& rng,
                RoundResult& shard) {
              const auto si = static_cast<std::size_t>(
                  std::upper_bound(end.begin(), end.end(), t) - end.begin());
              const StratumResult& s = pr.strata[si];
              const std::uint64_t target = rng.below(s.candidates);
              InjectHook hook(cfg.model, target, rng(), cfg.db,
                              app.memory_is_float, cfg.syndrome_model);
              hook.restrict_to(s.op, s.range);
              shard.strata.resize(alloc.size());
              detail::run_one_trial(app, *dev, hook, golden, shard.strata[si],
                                    replay);
            })
            .strata;
      });

  const bool obs_on = obs::enabled();
  for (std::size_t si = 0; si < pr.strata.size(); ++si) {
    StratumResult& s = pr.strata[si];
    const Result& r = sample.strata[si];
    pr.result.merge(r);
    s.trials = r.injections;
    s.masked = r.masked;
    s.sdc = r.sdc;
    s.due = r.due;
    s.stop = sample.stop;
    if (s.trials > 0) s.sdc_half_width = half_width(s.sdc, s.trials);
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
  pr.pvf = sample.pvf;
  pr.pvf_half_width = sample.half_width;
  const std::size_t run = pr.result.injections;
  pr.trials_saved = pr.planned_trials > run ? pr.planned_trials - run : 0;
  if (obs_on) {
    obs::count("gpufi_swfi_planner_campaigns_total");
    obs::count("gpufi_swfi_planner_trials_saved_total", pr.trials_saved);
  }
  span.set("trials", static_cast<std::uint64_t>(run));
  span.set("saved", static_cast<std::uint64_t>(pr.trials_saved));
  return pr;
}

PlanResult run_planned_campaign(const App& app, const Config& cfg,
                                const Plan& plan) {
  return detail::run_planned_campaign(app, cfg, plan, /*replay=*/true);
}

}  // namespace gpufi::swfi
