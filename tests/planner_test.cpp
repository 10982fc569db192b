// Campaign-planner contract: fixed mode is the legacy campaign verbatim,
// adaptive mode is deterministic (seed- and jobs-invariant), stops on the
// stratified PVF half-width, estimates the same PVF a uniform campaign does,
// and its sequentially stopped interval keeps 95% coverage; the shared --plan
// vocabulary parses strictly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "swfi/planner.hpp"
#include "vocab/vocab.hpp"

namespace gpufi::swfi {
namespace {

Config small_campaign(unsigned jobs = 1) {
  Config cfg;
  cfg.model = FaultModel::SingleBitFlip;
  cfg.n_injections = 120;
  cfg.seed = 11;
  cfg.jobs = jobs;
  return cfg;
}

void expect_same_result(const Result& a, const Result& b) {
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.due, b.due);
  EXPECT_EQ(a.candidate_instructions, b.candidate_instructions);
}

TEST(Planner, FixedModeEqualsLegacyCampaign) {
  const auto app = apps::make_mxm(8);
  const auto cfg = small_campaign();
  const auto legacy = run_sw_campaign(app.app, cfg);
  const auto pr = run_planned_campaign(app.app, cfg, Plan{});  // target_err=0
  EXPECT_FALSE(pr.adaptive);
  EXPECT_TRUE(pr.strata.empty());
  EXPECT_EQ(pr.planned_trials, cfg.n_injections);
  EXPECT_EQ(pr.trials_saved, 0u);
  EXPECT_DOUBLE_EQ(pr.pvf, legacy.pvf());
  expect_same_result(pr.result, legacy);
}

TEST(Planner, AdaptiveStratifiesAndStops) {
  const auto app = apps::make_mxm(8);
  const auto cfg = small_campaign();
  Plan plan;
  plan.target_err = 0.25;  // generous: most strata converge well early
  plan.min_trials = 8;
  const auto pr = run_planned_campaign(app.app, cfg, plan);
  EXPECT_TRUE(pr.adaptive);
  ASSERT_FALSE(pr.strata.empty());
  std::uint64_t cand_sum = 0;
  std::size_t trials_sum = 0, budget_sum = 0;
  for (const auto& s : pr.strata) {
    cand_sum += s.candidates;
    trials_sum += s.trials;
    budget_sum += s.budget;
    EXPECT_GE(s.trials, 1u);  // the pilot samples every stratum
    EXPECT_EQ(s.trials, s.masked + s.sdc + s.due);
    EXPECT_EQ(s.stop, pr.strata.front().stop);  // the campaign's stop
  }
  EXPECT_LE(trials_sum, cfg.n_injections);
  if (pr.strata.front().stop == StratumStop::Converged) {
    EXPECT_LE(pr.pvf_half_width, plan.target_err);
  }
  EXPECT_EQ(cand_sum, pr.result.candidate_instructions);
  EXPECT_EQ(trials_sum, pr.result.injections);
  EXPECT_EQ(budget_sum, pr.planned_trials);
  EXPECT_EQ(pr.trials_saved, pr.planned_trials - trials_sum);
  EXPECT_GT(pr.trials_saved, 0u);  // the generous target must save trials
  EXPECT_GE(pr.pvf, 0.0);
  EXPECT_LE(pr.pvf, 1.0);
  EXPECT_GT(pr.pvf_half_width, 0.0);
}

TEST(Planner, AdaptiveIsJobsInvariant) {
  const auto app = apps::make_mxm(8);
  Plan plan;
  plan.target_err = 0.2;
  plan.min_trials = 8;
  const auto a = run_planned_campaign(app.app, small_campaign(1), plan);
  const auto b = run_planned_campaign(app.app, small_campaign(4), plan);
  expect_same_result(a.result, b.result);
  ASSERT_EQ(a.strata.size(), b.strata.size());
  for (std::size_t i = 0; i < a.strata.size(); ++i) {
    EXPECT_EQ(a.strata[i].op, b.strata[i].op);
    EXPECT_EQ(a.strata[i].range, b.strata[i].range);
    EXPECT_EQ(a.strata[i].trials, b.strata[i].trials);
    EXPECT_EQ(a.strata[i].sdc, b.strata[i].sdc);
    EXPECT_EQ(a.strata[i].stop, b.strata[i].stop);
  }
  EXPECT_DOUBLE_EQ(a.pvf, b.pvf);
  EXPECT_DOUBLE_EQ(a.pvf_half_width, b.pvf_half_width);
  EXPECT_EQ(a.trials_saved, b.trials_saved);
}

TEST(Planner, AdaptiveIsRerunDeterministic) {
  const auto app = apps::make_mxm(8);
  Plan plan;
  plan.target_err = 0.2;
  plan.min_trials = 8;
  const auto a = run_planned_campaign(app.app, small_campaign(), plan);
  const auto b = run_planned_campaign(app.app, small_campaign(), plan);
  expect_same_result(a.result, b.result);
  EXPECT_EQ(a.trials_saved, b.trials_saved);
}

TEST(Planner, MaxTrialsCapsStrata) {
  const auto app = apps::make_mxm(8);
  Plan plan;
  plan.target_err = 0.01;  // effectively unreachable at this budget
  plan.min_trials = 4;
  plan.max_trials = 6;
  const auto pr = run_planned_campaign(app.app, small_campaign(), plan);
  for (const auto& s : pr.strata) {
    EXPECT_LE(s.budget, plan.max_trials);
    EXPECT_LE(s.trials, plan.max_trials);
  }
}

TEST(Planner, PlannedPvfMatchesUniformCampaign) {
  // The stratified estimate weights each stratum by its candidate share, so
  // it estimates the same PVF as a campaign drawing uniformly over the whole
  // candidate stream: the two intervals must overlap.
  const auto app = apps::make_mxm(8);
  Config cfg = small_campaign(4);
  cfg.n_injections = 2000;
  const auto fixed = run_planned_campaign(app.app, cfg, Plan{});
  Plan plan;
  plan.target_err = 0.05;
  const auto planned = run_planned_campaign(app.app, cfg, plan);
  EXPECT_EQ(planned.strata.front().stop, StratumStop::Converged);
  EXPECT_LT(planned.result.injections, fixed.result.injections);
  EXPECT_LE(std::abs(planned.pvf - fixed.pvf),
            planned.pvf_half_width + fixed.pvf_half_width)
      << "planned " << planned.pvf << " vs fixed " << fixed.pvf;
}

// Sampler core on synthetic Bernoulli strata of known SDC rates: the
// sequentially stopped half-width must cover the true PVF sum(w_s * p_s) in
// >= 95% of campaigns, within three Monte-Carlo standard errors. The exact
// single-stratum coverage of this rule is 0.9496 at p = 0.5, i.e. nominal,
// so the tolerance is sampling error, not slack in the rule.
struct Scenario {
  std::string name;
  std::vector<double> weights;  // normalized by coverage()
  std::vector<double> p;
};

double coverage(const Scenario& sc, int reps, std::uint64_t seed) {
  std::vector<double> w = sc.weights;
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  double truth = 0.0;
  for (std::size_t s = 0; s < w.size(); ++s) {
    w[s] /= total;
    truth += w[s] * sc.p[s];
  }
  Plan plan;
  plan.target_err = 0.08;
  plan.min_trials = 32;
  Rng rng(seed);
  int covered = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto sample = detail::sample_strata(
        w, plan, /*budget=*/400,
        [&](std::size_t, const std::vector<std::size_t>& alloc) {
          std::vector<Result> got(alloc.size());
          for (std::size_t s = 0; s < alloc.size(); ++s)
            for (std::size_t i = 0; i < alloc[s]; ++i) {
              ++got[s].injections;
              ++(rng.chance(sc.p[s]) ? got[s].sdc : got[s].masked);
            }
          return got;
        });
    covered += std::abs(sample.pvf - truth) <= sample.half_width;
  }
  return static_cast<double>(covered) / reps;
}

TEST(PlannerSampler, SequentialIntervalKeepsCoverage) {
  constexpr int kReps = 4000;
  const double floor = 0.95 - 3.0 * std::sqrt(0.95 * 0.05 / kReps);
  std::vector<Scenario> scenarios;
  for (const double p : {0.005, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7,
                         0.85, 0.9, 0.95, 0.98, 0.995})
    scenarios.push_back({"one stratum p=" + std::to_string(p), {1.0}, {p}});
  scenarios.push_back({"8 strata p=0.12", std::vector<double>(8, 1.0),
                       std::vector<double>(8, 0.12)});
  scenarios.push_back({"8 strata p=0.88", std::vector<double>(8, 1.0),
                       std::vector<double>(8, 0.88)});
  scenarios.push_back({"12 strata p=0.03", std::vector<double>(12, 1.0),
                       std::vector<double>(12, 0.03)});
  scenarios.push_back(
      {"tiny strata", {0.97, 0.01, 0.01, 0.01}, {0.1, 1.0, 0.0, 0.5}});
  // mxm bitflip's strata: candidate counts and SDC rates of a ledger run.
  scenarios.push_back({"mxm bitflip",
                       {4096, 5136, 4848, 256, 7168, 1024, 768, 4608},
                       {0.97, 0.76, 0.32, 0.22, 0.46, 1.0, 1.0, 1.0}});
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    EXPECT_GE(coverage(scenarios[i], kReps, 1000 + i), floor)
        << scenarios[i].name;
}

TEST(PlanVocab, ParsesFullSpec) {
  const auto p = vocab::parse_plan("target_err=0.05,min_trials=16,max_trials=500");
  ASSERT_TRUE(p);
  EXPECT_DOUBLE_EQ(p->target_err, 0.05);
  EXPECT_EQ(p->min_trials, 16u);
  EXPECT_EQ(p->max_trials, 500u);
  EXPECT_TRUE(p->adaptive());
}

TEST(PlanVocab, DefaultsApply) {
  const auto p = vocab::parse_plan("target_err=0.1");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->min_trials, Plan{}.min_trials);
  EXPECT_EQ(p->max_trials, 0u);
}

TEST(PlanVocab, RejectsMalformedSpecs) {
  std::string err;
  EXPECT_FALSE(vocab::parse_plan("", &err));
  EXPECT_FALSE(vocab::parse_plan("min_trials=8", &err));  // target_err missing
  EXPECT_FALSE(vocab::parse_plan("target_err=0", &err));
  EXPECT_FALSE(vocab::parse_plan("target_err=0.6", &err));
  EXPECT_FALSE(vocab::parse_plan("target_err=abc", &err));
  EXPECT_FALSE(vocab::parse_plan("target_err=0.1,target_err=0.2", &err));
  EXPECT_FALSE(vocab::parse_plan("target_err=0.1,min_trials=0", &err));
  EXPECT_FALSE(vocab::parse_plan("target_err=0.1,bogus=3", &err));
  EXPECT_FALSE(
      vocab::parse_plan("target_err=0.1,min_trials=50,max_trials=10", &err));
  EXPECT_FALSE(vocab::parse_plan("target_err", &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace gpufi::swfi
