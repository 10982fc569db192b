// Golden-tape replay equivalence: a software trial that replays the CTAs
// before its shot from the golden tape must be indistinguishable from one
// that executes them — same outcome, output words and shot details for
// every fault model, restricted and unrestricted hooks, and targets on both
// sides of every CTA boundary — and whole campaigns (fixed and planned)
// must be identical field for field at jobs 1 and 4. Likewise a trial whose
// hook runs unhooked at the instructions it cannot count or re-fire on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "emu/device.hpp"
#include "emu/profiler.hpp"
#include "swfi/planner.hpp"
#include "swfi/swfi.hpp"
#include "syndrome/syndrome.hpp"

namespace gpufi::swfi {
namespace {

const syndrome::Database& db() {
  static const auto d =
      syndrome::Database::load_file(GPUFI_TEST_DATA_DIR "/syndromes.db");
  return d;
}

std::vector<apps::HpcApp> small_apps() {
  std::vector<apps::HpcApp> v;
  v.push_back(apps::make_mxm(16));
  v.push_back(apps::make_lava(2, 32));
  v.push_back(apps::make_quicksort(96));
  return v;
}

constexpr FaultModel kModels[] = {
    FaultModel::SingleBitFlip, FaultModel::DoubleBitFlip,
    FaultModel::RelativeError, FaultModel::WarpRelativeError,
    FaultModel::StickyRelativeError};

/// Everything observable about one trial.
struct Trial {
  Result shard;
  std::vector<std::uint32_t> out;
  bool fired = false;
  std::int32_t hit_pc = -1;
  isa::Opcode hit_opcode = isa::Opcode::NOP;
  std::uint64_t hit_dyn_index = 0;
  unsigned corrupted_threads = 0;
  double applied_rel_error = 0;
};

Trial run_trial(const App& app, const detail::Golden& golden,
                emu::Device& dev, FaultModel model, std::uint64_t target,
                const std::optional<Stratum>& stratum, bool replay) {
  InjectHook hook(model, target, target * 7919 + 13, &db(),
                  app.memory_is_float,
                  model == FaultModel::StickyRelativeError
                      ? rtl::FaultModel::StuckAt1
                      : rtl::FaultModel::Transient);
  if (stratum) hook.restrict_to(stratum->first, stratum->second);
  Trial t;
  detail::run_one_trial(app, dev, hook, golden, t.shard, replay);
  t.out = app.read_output(dev);
  t.fired = hook.fired();
  t.hit_pc = hook.hit_pc();
  t.hit_opcode = hook.hit_opcode();
  t.hit_dyn_index = hook.hit_dyn_index();
  t.corrupted_threads = hook.corrupted_threads();
  t.applied_rel_error = hook.applied_rel_error();
  return t;
}

/// The first and last candidate of a class, and ±1 around every CTA
/// boundary (`before` holds the class's count before each golden CTA).
std::set<std::uint64_t> boundary_targets(
    const std::vector<std::uint64_t>& before) {
  const std::uint64_t total = before.back();
  std::set<std::uint64_t> targets{0, total - 1};
  for (std::size_t k = 1; k + 1 < before.size(); ++k)
    for (const std::uint64_t t : {before[k] - 1, before[k], before[k] + 1})
      if (t < total) targets.insert(t);
  return targets;
}

void expect_same_result(const Result& a, const Result& b,
                        const std::string& tag) {
  EXPECT_EQ(a.injections, b.injections) << tag;
  EXPECT_EQ(a.masked, b.masked) << tag;
  EXPECT_EQ(a.sdc, b.sdc) << tag;
  EXPECT_EQ(a.due, b.due) << tag;
  EXPECT_EQ(a.candidate_instructions, b.candidate_instructions) << tag;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(GoldenTape, CoversEveryCtaAndCandidate) {
  for (const auto& h : small_apps()) {
    const auto golden = detail::run_golden(h.app, emu::Interpreter::SoA);
    const std::size_t n = golden.tape.ctas.size();
    ASSERT_GT(n, 1u) << h.app.name;
    ASSERT_EQ(golden.before.size(), n + 1) << h.app.name;
    EXPECT_EQ(golden.before.front(), 0u) << h.app.name;
    EXPECT_EQ(golden.before.back(), golden.candidates) << h.app.name;
    std::uint64_t strata_total = 0;
    for (const auto& [s, before] : golden.stratum_before) {
      ASSERT_EQ(before.size(), n + 1) << h.app.name;
      EXPECT_EQ(before.front(), 0u) << h.app.name;
      EXPECT_GT(before.back(), 0u) << h.app.name;
      strata_total += before.back();
    }
    EXPECT_EQ(strata_total, golden.candidates) << h.app.name;
    EXPECT_EQ(golden.tape.ctas.back().stores_end, golden.tape.stores.size())
        << h.app.name;
  }
}

TEST(GoldenTape, TrialsMatchExecutedPrefixAtEveryCtaBoundary) {
  for (const auto& h : small_apps()) {
    const App& app = h.app;
    const auto golden = detail::run_golden(app, emu::Interpreter::SoA);
    // Unrestricted, plus the largest and the smallest planner stratum.
    std::vector<std::optional<Stratum>> classes{std::nullopt};
    const auto& strata = golden.stratum_before;
    auto largest = strata.begin(), smallest = strata.begin();
    for (auto it = strata.begin(); it != strata.end(); ++it) {
      if (it->second.back() > largest->second.back()) largest = it;
      if (it->second.back() < smallest->second.back()) smallest = it;
    }
    classes.push_back(largest->first);
    if (smallest != largest) classes.push_back(smallest->first);

    emu::Device taped(app.device_words), untaped(app.device_words);
    std::size_t replayed_prefixes = 0;
    for (const auto& cls : classes) {
      const auto& before =
          cls ? golden.stratum_before.at(*cls) : golden.before;
      for (const std::uint64_t target : boundary_targets(before)) {
        replayed_prefixes += target >= before[1];
        for (const FaultModel model : kModels) {
          const std::string tag =
              app.name + " model=" + std::string(fault_model_name(model)) +
              " class=" +
              (cls ? std::string(isa::mnemonic(cls->first)) + "/" +
                         std::string(rtlfi::range_name(cls->second))
                   : std::string("all")) +
              " target=" + std::to_string(target);
          const Trial a =
              run_trial(app, golden, taped, model, target, cls, true);
          const Trial b =
              run_trial(app, golden, untaped, model, target, cls, false);
          EXPECT_TRUE(a.fired) << tag;
          EXPECT_EQ(a.shard.masked, b.shard.masked) << tag;
          EXPECT_EQ(a.shard.sdc, b.shard.sdc) << tag;
          EXPECT_EQ(a.shard.due, b.shard.due) << tag;
          EXPECT_EQ(a.out, b.out) << tag;
          EXPECT_EQ(a.fired, b.fired) << tag;
          EXPECT_EQ(a.hit_pc, b.hit_pc) << tag;
          EXPECT_EQ(a.hit_opcode, b.hit_opcode) << tag;
          EXPECT_EQ(a.hit_dyn_index, b.hit_dyn_index) << tag;
          EXPECT_EQ(a.corrupted_threads, b.corrupted_threads) << tag;
          EXPECT_EQ(bits(a.applied_rel_error), bits(b.applied_rel_error))
              << tag;
        }
      }
    }
    EXPECT_GT(replayed_prefixes, 0u) << app.name;
  }
}

TEST(GoldenTape, HooksThatDoNotOptInSeeEveryRetirement) {
  const auto h = apps::make_mxm(16);
  const auto golden = detail::run_golden(h.app, emu::Interpreter::SoA);
  emu::Profiler plain, on_taped;
  emu::Device a(h.app.device_words), b(h.app.device_words);
  b.replay_tape(&golden.tape);
  ASSERT_TRUE(h.app.run(a, &plain));
  ASSERT_TRUE(h.app.run(b, &on_taped));
  EXPECT_EQ(plain.pc_counts(), on_taped.pc_counts());
  EXPECT_EQ(plain.total(), on_taped.total());
  EXPECT_EQ(h.app.read_output(a), h.app.read_output(b));
}

TEST(GoldenTape, CampaignsMatchUntapedAtJobs1And4) {
  for (const auto& h : small_apps()) {
    for (const FaultModel model :
         {FaultModel::SingleBitFlip, FaultModel::RelativeError,
          FaultModel::StickyRelativeError}) {
      for (const unsigned jobs : {1u, 4u}) {
        Config cfg;
        cfg.model = model;
        cfg.db = &db();
        cfg.n_injections = 48;
        cfg.seed = 5;
        cfg.jobs = jobs;
        const std::string tag = h.app.name + " " +
                                std::string(fault_model_name(model)) +
                                " jobs=" + std::to_string(jobs);
        expect_same_result(detail::run_sw_campaign(h.app, cfg, true),
                           detail::run_sw_campaign(h.app, cfg, false), tag);

        Plan plan;
        plan.target_err = 0.2;
        plan.min_trials = 8;
        const auto a = detail::run_planned_campaign(h.app, cfg, plan, true);
        const auto b = detail::run_planned_campaign(h.app, cfg, plan, false);
        expect_same_result(a.result, b.result, tag + " planned");
        EXPECT_EQ(a.adaptive, b.adaptive) << tag;
        EXPECT_EQ(a.planned_trials, b.planned_trials) << tag;
        EXPECT_EQ(a.trials_saved, b.trials_saved) << tag;
        EXPECT_EQ(bits(a.pvf), bits(b.pvf)) << tag;
        EXPECT_EQ(bits(a.pvf_half_width), bits(b.pvf_half_width)) << tag;
        ASSERT_EQ(a.strata.size(), b.strata.size()) << tag;
        for (std::size_t i = 0; i < a.strata.size(); ++i) {
          const auto& x = a.strata[i];
          const auto& y = b.strata[i];
          EXPECT_EQ(x.op, y.op) << tag;
          EXPECT_EQ(x.range, y.range) << tag;
          EXPECT_EQ(x.candidates, y.candidates) << tag;
          EXPECT_EQ(x.budget, y.budget) << tag;
          EXPECT_EQ(x.trials, y.trials) << tag;
          EXPECT_EQ(x.masked, y.masked) << tag;
          EXPECT_EQ(x.sdc, y.sdc) << tag;
          EXPECT_EQ(x.due, y.due) << tag;
          EXPECT_EQ(x.stop, y.stop) << tag;
          EXPECT_EQ(bits(x.sdc_half_width), bits(y.sdc_half_width)) << tag;
        }
      }
    }
  }
}

/// Forwards every callback to `inner`, but answers the fast-path query for
/// the rest of the launch whatever the next instruction is: a hook without
/// the per-instruction answer, which stays hooked everywhere until its shot
/// and keeps a fired sticky fault hooked until its cap.
class WholeLaunchDone : public emu::InstrumentHook {
 public:
  explicit WholeLaunchDone(emu::InstrumentHook& inner) : inner_(inner) {}
  void on_retire(const emu::RetireInfo& info, std::uint32_t& value) override {
    inner_.on_retire(info, value);
  }
  void on_pred_retire(const emu::RetireInfo& info, bool& value) override {
    inner_.on_pred_retire(info, value);
  }
  void on_count(const emu::RetireInfo& info) override { inner_.on_count(info); }
  bool done(const isa::Instr*) const override { return inner_.done(nullptr); }
  bool on_cta(std::size_t run_cta) override { return inner_.on_cta(run_cta); }

 private:
  emu::InstrumentHook& inner_;
};

/// `app`, running every hook it is given behind WholeLaunchDone.
App without_instruction_filter(const App& app) {
  App wrapped = app;
  wrapped.run = [run = app.run](emu::Device& dev, emu::InstrumentHook* hook) {
    if (!hook) return run(dev, nullptr);
    WholeLaunchDone whole(*hook);
    return run(dev, &whole);
  };
  return wrapped;
}

void expect_same_plan(const PlanResult& a, const PlanResult& b,
                      const std::string& tag) {
  expect_same_result(a.result, b.result, tag);
  EXPECT_EQ(a.planned_trials, b.planned_trials) << tag;
  EXPECT_EQ(bits(a.pvf), bits(b.pvf)) << tag;
  EXPECT_EQ(bits(a.pvf_half_width), bits(b.pvf_half_width)) << tag;
  ASSERT_EQ(a.strata.size(), b.strata.size()) << tag;
  for (std::size_t i = 0; i < a.strata.size(); ++i) {
    EXPECT_EQ(a.strata[i].trials, b.strata[i].trials) << tag;
    EXPECT_EQ(a.strata[i].sdc, b.strata[i].sdc) << tag;
    EXPECT_EQ(a.strata[i].due, b.strata[i].due) << tag;
  }
}

class InstructionFilter : public ::testing::TestWithParam<FaultModel> {};

TEST_P(InstructionFilter, ChangesNoResult) {
  // Before its shot an InjectHook is done at every instruction it does not
  // count (every opcode but the stratum's, for a restricted hook), and a
  // fired sticky hook at every instruction its fault cannot re-fire on, so
  // the interpreters run those unhooked. Trials and fixed and planned
  // campaigns must match a hook that answers only for the whole launch, on
  // both interpreters and at jobs 1 and 4. quicksort and gaussian launch two
  // kernels each.
  const FaultModel model = GetParam();
  const rtl::FaultModel syndrome_model =
      model == FaultModel::StickyRelativeError ? rtl::FaultModel::StuckAt1
                                               : rtl::FaultModel::Transient;
  auto sized = small_apps();
  sized.push_back(apps::make_gaussian(12));
  for (const auto& h : sized) {
    const App whole = without_instruction_filter(h.app);
    const auto golden = detail::run_golden(h.app, emu::Interpreter::SoA);
    // Unrestricted, and restricted to the largest stratum.
    auto largest = golden.stratum_before.begin();
    for (auto it = largest; it != golden.stratum_before.end(); ++it)
      if (it->second.back() > largest->second.back()) largest = it;
    const std::optional<Stratum> classes[] = {std::nullopt, largest->first};
    for (const auto interpreter :
         {emu::Interpreter::Scalar, emu::Interpreter::SoA}) {
      const std::string where =
          h.app.name +
          (interpreter == emu::Interpreter::SoA ? " soa" : " scalar");
      // Trial by trial: every observable of the shot and its outcome.
      emu::Device dev(h.app.device_words);
      dev.set_interpreter(interpreter);
      unsigned most_hits = 0;
      for (const auto& cls : classes) {
        const std::uint64_t total =
            (cls ? golden.stratum_before.at(*cls) : golden.before).back();
        for (std::uint64_t target = 0; target < total;
             target += total / 16 + 1) {
          const std::string tag = where + (cls ? " restricted" : "") +
                                  " target=" + std::to_string(target);
          const Trial a = run_trial(h.app, golden, dev, model, target, cls,
                                    true);
          const Trial b = run_trial(whole, golden, dev, model, target, cls,
                                    true);
          expect_same_result(a.shard, b.shard, tag);
          EXPECT_EQ(a.out, b.out) << tag;
          EXPECT_EQ(a.fired, b.fired) << tag;
          EXPECT_EQ(a.hit_pc, b.hit_pc) << tag;
          EXPECT_EQ(a.hit_dyn_index, b.hit_dyn_index) << tag;
          EXPECT_EQ(a.corrupted_threads, b.corrupted_threads) << tag;
          EXPECT_EQ(bits(a.applied_rel_error), bits(b.applied_rel_error))
              << tag;
          most_hits = std::max(most_hits, a.corrupted_threads);
        }
      }
      if (model == FaultModel::StickyRelativeError) {
        EXPECT_GT(most_hits, 1u) << where << " never re-fired";
      }

      for (const unsigned jobs : {1u, 4u}) {
        Config cfg;
        cfg.model = model;
        cfg.db = &db();
        cfg.syndrome_model = syndrome_model;
        cfg.n_injections = 48;
        cfg.seed = 5;
        cfg.jobs = jobs;
        cfg.interpreter = interpreter;
        const std::string tag = where + " jobs=" + std::to_string(jobs);
        expect_same_result(run_sw_campaign(h.app, cfg),
                           run_sw_campaign(whole, cfg), tag);
        Plan plan;
        plan.target_err = 0.2;
        plan.min_trials = 8;
        expect_same_plan(run_planned_campaign(h.app, cfg, plan),
                         run_planned_campaign(whole, cfg, plan),
                         tag + " planned");
      }
    }
  }
}

std::string model_token(const ::testing::TestParamInfo<FaultModel>& info) {
  switch (info.param) {
    case FaultModel::SingleBitFlip: return "bitflip";
    case FaultModel::DoubleBitFlip: return "doublebit";
    case FaultModel::RelativeError: return "syndrome";
    case FaultModel::WarpRelativeError: return "warp";
    case FaultModel::StickyRelativeError: return "sticky";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(Models, InstructionFilter,
                         ::testing::ValuesIn(kModels), model_token);

}  // namespace
}  // namespace gpufi::swfi
