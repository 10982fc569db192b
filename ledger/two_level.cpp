// Workload `two_level`: the paper's pipeline in one process, one step at a
// time. Set-up is the RTL characterization distilled into a syndrome DB
// (core::build_syndrome_database for transient and stuck-at-1 faults, then
// Database::save_file); each answer is the software PVF table at a target
// half-width (swfi::run_planned_campaign per question), replaying the DB the
// set-up just built. The RTL model does all of the set-up and none of the
// answers, the emulator the reverse.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "apps/apps.hpp"
#include "core/gpufi.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "rtlfi/campaign.hpp"
#include "swfi/planner.hpp"
#include "syndrome/syndrome.hpp"

namespace ledger {

using namespace gpufi;

namespace {

// Characterization scale: 204 micro-benchmark campaigns (102 keys per
// fault model) of kFaultsPerCampaign trials plus 6 t-MxM campaigns.
constexpr std::size_t kFaultsPerCampaign = 60;
constexpr std::size_t kTmxmFaults = 60;
constexpr unsigned kJobs = 2;
constexpr int kSetups = 4;  ///< set-up repetitions; setup_s is their median
constexpr std::size_t kKeysPerModel = 102;

// Question scale: every question stops each (opcode x range) stratum at a
// Wilson half-width of kTargetErr, or at its share of kBudget trials.
constexpr double kTargetErr = 0.08;
constexpr std::size_t kBudget = 400;
constexpr std::size_t kMinTrials = 32;
constexpr int kMinAnswers = 4;
static_assert(kMinAnswers >= kSetups, "set-ups run between answers");
constexpr int kObsPairs = 8;  ///< off/on pairs of the obs-overhead A/B

struct Question {
  std::string app;
  swfi::FaultModel model;
  std::string model_token;
};

const std::vector<Question>& questions() {
  static const std::vector<Question> q = [] {
    std::vector<Question> out;
    for (const char* app : {"mxm", "lava", "quicksort"}) {
      out.push_back({app, swfi::FaultModel::SingleBitFlip, "bitflip"});
      out.push_back({app, swfi::FaultModel::RelativeError, "syndrome"});
      out.push_back({app, swfi::FaultModel::StickyRelativeError, "sticky"});
    }
    return out;
  }();
  return q;
}

core::RtlCharacterizationConfig db_config(std::uint64_t seed) {
  core::RtlCharacterizationConfig c;
  c.faults_per_campaign = kFaultsPerCampaign;
  c.value_seeds = 1;
  c.tmxm_faults = kTmxmFaults;
  c.seed = rng_derive(seed, 0x6462);  // "db"
  c.jobs = kJobs;
  c.fault_models = {rtl::FaultModel::Transient, rtl::FaultModel::StuckAt1};
  return c;
}

swfi::Config question_config(const Question& q, std::size_t index,
                             std::uint64_t seed,
                             const syndrome::Database& db) {
  swfi::Config cfg;
  cfg.model = q.model;
  cfg.db = &db;
  cfg.n_injections = kBudget;
  cfg.seed = rng_derive(seed, 0x71, index);
  cfg.jobs = kJobs;
  // Sticky replay images a stuck-at fault: sample the stuck-at-1 class the
  // set-up characterized.
  if (q.model == swfi::FaultModel::StickyRelativeError)
    cfg.syndrome_model = rtl::FaultModel::StuckAt1;
  return cfg;
}

swfi::Plan plan() {
  swfi::Plan p;
  p.target_err = kTargetErr;
  p.min_trials = kMinTrials;
  return p;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Counter deltas of one DB build (all exact: the build's trials, chunks
/// and goldens are a pure function of its config).
struct BuildCounters {
  std::uint64_t trials = 0, chunks = 0, golden_builds = 0, restores = 0,
                converged = 0, transient_injected = 0, stuck_injected = 0,
                stuck_due = 0;
};

std::uint64_t outcomes(rtl::FaultModel m, rtlfi::Outcome o) {
  return counter(obs::label(obs::label("gpufi_rtl_outcomes_total", "model",
                                       rtl::fault_model_name(m)),
                            "outcome", rtlfi::outcome_name(o)));
}

BuildCounters read_build_counters() {
  using rtlfi::Outcome;
  BuildCounters c;
  c.trials = counter("gpufi_exec_trials_total");
  c.chunks = counter("gpufi_exec_chunks_total");
  c.golden_builds = counter("gpufi_rtl_golden_builds_total");
  c.restores = counter("gpufi_rtl_checkpoint_restores_total");
  c.converged = counter("gpufi_rtl_converged_early_total");
  for (Outcome o : {Outcome::Masked, Outcome::Sdc, Outcome::Due}) {
    c.transient_injected += outcomes(rtl::FaultModel::Transient, o);
    c.stuck_injected += outcomes(rtl::FaultModel::StuckAt1, o);
  }
  c.stuck_due = outcomes(rtl::FaultModel::StuckAt1, Outcome::Due);
  return c;
}

BuildCounters operator-(const BuildCounters& a, const BuildCounters& b) {
  return {a.trials - b.trials,
          a.chunks - b.chunks,
          a.golden_builds - b.golden_builds,
          a.restores - b.restores,
          a.converged - b.converged,
          a.transient_injected - b.transient_injected,
          a.stuck_injected - b.stuck_injected,
          a.stuck_due - b.stuck_due};
}

/// Flips one decimal digit in the middle of the DB file (tamper self-test).
void tamper_db_file(const std::string& path) {
  std::string bytes = read_file(path);
  for (std::size_t i = bytes.size() / 2; i < bytes.size(); ++i) {
    if (bytes[i] >= '0' && bytes[i] <= '9') {
      bytes[i] = static_cast<char>('0' + (bytes[i] - '0' + 1) % 10);
      break;
    }
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

struct QuestionResult {
  double ms = 0;
  std::size_t trials = 0;
  swfi::PlanResult pr;
};

QuestionResult answer_question(const Question& q, std::size_t index,
                               const apps::HpcApp& app, std::uint64_t seed,
                               const syndrome::Database& db) {
  QuestionResult r;
  Span span("swfi.run_planned_campaign");
  r.pr = swfi::run_planned_campaign(
      app.app, question_config(q, index, seed, db), plan());
  r.ms = span.ms();
  r.trials = r.pr.result.injections;
  return r;
}

std::string table_line(const Question& q, const swfi::PlanResult& pr) {
  std::size_t budget_stops = 0;
  for (const auto& s : pr.strata)
    budget_stops += s.stop == swfi::StratumStop::Budget;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s %s trials=%zu planned=%zu saved=%zu sdc=%zu due=%zu "
                "pvf=%.17g hw=%.17g strata=%zu budget_stops=%zu",
                q.app.c_str(), q.model_token.c_str(), pr.result.injections,
                pr.planned_trials, pr.trials_saved, pr.result.sdc,
                pr.result.due, pr.pvf, pr.pvf_half_width, pr.strata.size(),
                budget_stops);
  return buf;
}

}  // namespace

apps::HpcApp table_app(const std::string& name) {
  if (name == "mxm") return apps::make_mxm(16);
  if (name == "lava") return apps::make_lava(2, 32);
  return apps::make_quicksort(1024);
}

void run_two_level(const Options& opt, const Scale& scale, Report& out) {
  Tally& tally = out.tally;
  const auto cfg = db_config(opt.seed);
  const std::string db_path = opt.work_dir + "/two_level.db";

  // ---- set-up: DB build + save; setup_s is the median ------------------
  // The repetitions run between answers, so that the median samples the
  // whole run rather than one stretch of a shared machine's speed.
  std::vector<double> setup_s, build_s, save_ms;
  std::optional<syndrome::Database> db;
  std::string db_digest;
  BuildCounters build;
  const auto set_up = [&] {
    db.reset();
    const BuildCounters before = read_build_counters();
    Span setup("two_level.setup", Tracer::new_request());
    {
      Span b("core.build_syndrome_database");
      db = core::build_syndrome_database(cfg);
      build_s.push_back(b.seconds());
    }
    {
      Span s("syndrome.save_file");
      db->save_file(db_path);
      save_ms.push_back(s.ms());
    }
    setup_s.push_back(setup.seconds());
    const BuildCounters delta = read_build_counters() - before;
    const std::string digest = hex64(fnv1a(read_file(db_path)));
    if (setup_s.size() == 1) {
      build = delta;
      db_digest = digest;
    } else {
      tally.check(digest == db_digest,
                  "DB bytes differ between set-up repetitions");
    }
  };
  set_up();

  // ---- DB checks: all keys, byte-exact save -> load -> save -------------
  {
    const std::string saved = read_file(db_path);
    if (opt.tamper == "db") tamper_db_file(db_path);
    try {
      syndrome::Database loaded;
      {
        Span s("syndrome.load_file");
        loaded = syndrome::Database::load_file(db_path);
      }
      std::ostringstream again;
      loaded.save(again);
      tally.check(again.str() == saved, "DB save->load->save not byte-exact");
    } catch (const std::exception& e) {
      tally.fail(std::string("DB reload threw: ") + e.what());
    }
    std::size_t per_model[2] = {0, 0};
    for (const auto& k : db->keys())
      ++per_model[k.model == rtl::FaultModel::Transient ? 0 : 1];
    tally.check(
        per_model[0] == kKeysPerModel && per_model[1] == kKeysPerModel,
        "DB does not hold 102 keys per fault model");
    out.counts.add("two_level.db_bytes", saved.size());
    out.counts.add("two_level.db_digest", db_digest);
    out.counts.add("two_level.db_keys.transient", per_model[0]);
    out.counts.add("two_level.db_keys.stuck1", per_model[1]);
    out.counts.add("two_level.setup.rtl_trials", build.trials);
    out.counts.add("two_level.setup.gpufi_exec_chunks_total", build.chunks);
    out.counts.add("two_level.setup.gpufi_rtl_golden_builds_total",
                   build.golden_builds);
    out.counts.add("two_level.setup.gpufi_rtl_checkpoint_restores_total",
                   build.restores);
    out.counts.add("two_level.setup.gpufi_rtl_converged_early_total",
                   build.converged);
  }

  // ---- answers: the whole PVF table, repeated for the run's seconds -----
  std::vector<apps::HpcApp> app_objs;
  for (const auto& q : questions()) app_objs.push_back(table_app(q.app));

  const bool trace_ab = opt.trace && scale.full;
  std::vector<double> answer_ms, answer_ms_traced, answer_ms_untraced;
  // Per fault model: question milliseconds and trials over every answer.
  std::map<std::string, std::pair<double, std::size_t>> per_model;
  std::string table0;
  std::uint64_t misses_first = 0;
  const int min_answers = scale.full ? kMinAnswers : 1;
  const int setups = scale.full ? kSetups : 1;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < min_answers || seconds_since(t0) < scale.seconds;
       ++rep) {
    if (rep > 0 && rep < setups) set_up();  // replays the rebuilt, equal DB
    const bool untraced_rep = trace_ab && rep % 2 == 1;
    Tracer::Pause pause(untraced_rep);
    const std::uint64_t misses_before =
        counter("gpufi_syndrome_sample_miss_total") +
        counter("gpufi_syndrome_transient_fallback_total");
    std::string table;
    double hw_max = 0;
    std::size_t trials = 0, planned = 0, saved = 0;
    Span answer("two_level.answer", Tracer::new_request());
    for (std::size_t i = 0; i < questions().size(); ++i) {
      const Question& q = questions()[i];
      QuestionResult r;
      try {
        r = answer_question(q, i, app_objs[i], opt.seed, *db);
      } catch (const std::exception& e) {
        tally.fail(q.app + "/" + q.model_token + " threw: " + e.what());
        continue;
      }
      bool budget_stop = false;
      for (const auto& s : r.pr.strata)
        budget_stop |= s.stop == swfi::StratumStop::Budget;
      tally.check(r.pr.pvf_half_width <= kTargetErr || budget_stop,
                  q.app + "/" + q.model_token +
                      " missed the target half-width without a budget stop");
      table += table_line(q, r.pr) + "\n";
      hw_max = std::max(hw_max, r.pr.pvf_half_width);
      trials += r.trials;
      planned += r.pr.planned_trials;
      saved += r.pr.trials_saved;
      auto& pm = per_model[q.model_token];
      pm.first += r.ms;
      pm.second += r.trials;
    }
    const double ms = answer.ms();
    answer_ms.push_back(ms);
    (untraced_rep ? answer_ms_untraced : answer_ms_traced).push_back(ms);
    if (rep == 0) {
      table0 = table;
      misses_first = counter("gpufi_syndrome_sample_miss_total") +
                     counter("gpufi_syndrome_transient_fallback_total") -
                     misses_before;
      std::cout << table;
      out.counts.add("two_level.answer.trials", trials);
      out.counts.add("two_level.answer.planned_trials", planned);
      out.counts.add("two_level.answer.saved_trials", saved);
      out.counts.add("two_level.answer.table_digest", hex64(fnv1a(table)));
      out.counts.add("two_level.answer.sample_misses", misses_first);
      if (opt.trace) {
        out.layer.set("swfi.planner_trials", static_cast<double>(trials),
                      "count");
        out.layer.set("swfi.planner_saved_frac",
                      planned ? static_cast<double>(saved) / planned : 0.0,
                      "1");
        out.layer.set("swfi.half_width_max", hw_max, "1");
        out.layer.set("syndrome.sample_misses",
                      static_cast<double>(misses_first), "count");
      }
    } else {
      tally.check(table == table0, "PVF table differs between answers");
    }
  }
  std::cout << "two_level answers=" << answer_ms.size()
            << " setups=" << setup_s.size() << "\n";

  if (scale.full) {
    out.e2e.set("setup_s", median(setup_s), "s");
    out.e2e.set("answer_ms", median(answer_ms), "ms");
    // RTL injections per second of the characterization grid: a fixed trial
    // count, so a planner that needs fewer answer trials cannot read as a
    // slowdown here.
    out.e2e.set("trials_per_s", static_cast<double>(build.trials) /
                                    median(build_s),
                "1/s");
    out.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
    if (trace_ab && !answer_ms_untraced.empty()) {
      const double off = median(answer_ms_untraced);
      out.layer.set("obs.trace_overhead_pct",
                    100.0 * (median(answer_ms_traced) - off) / off, "%");
    }
  }
  if (!opt.trace) return;

  // ---- per-layer metrics of the layers this workload drives ------------
  out.layer.set("core.db_build_s", median(build_s), "s");
  out.layer.set("syndrome.save_ms", median(save_ms), "ms");
  out.layer.set("rtlfi.golden_builds",
                static_cast<double>(build.golden_builds), "count");
  out.layer.set("exec.chunks", static_cast<double>(build.chunks), "count");
  out.layer.set("rtlfi.converged_frac",
                build.transient_injected
                    ? static_cast<double>(build.converged) /
                          build.transient_injected
                    : 0.0,
                "1");
  out.layer.set("rtlfi.due_frac.stuck1",
                build.stuck_injected ? static_cast<double>(build.stuck_due) /
                                           build.stuck_injected
                                     : 0.0,
                "1");

  // Dist::fit on copies of the built distributions.
  const std::vector<syndrome::Key> keys = db->keys();
  out.layer.set("syndrome.fit_ms",
                time_per_call(
                    [&](std::size_t) {
                      Span s("syndrome.Dist.fit");
                      for (const auto& k : keys) {
                        syndrome::Dist d = *db->find(k);
                        d.fit();
                      }
                    },
                    1, 0.3, 1e3),
                "ms");
  // Database::sample_relative_error on the replayed keys.
  {
    Rng rng(rng_derive(opt.seed, 0x73));
    Span s("syndrome.sample_relative_error");
    out.layer.set("syndrome.sample_ns",
                  time_per_call(
                      [&](std::size_t i) {
                        const auto& k = keys[i % keys.size()];
                        (void)db->sample_relative_error(k.op, k.range, rng,
                                                        k.model);
                      },
                      keys.size() * 16, 0.3, 1e9),
                  "ns");
  }

  // Golden profile per app, and per-injection time per model (question time
  // minus its golden pass, over the trials it ran).
  std::map<std::string, double> golden_ms;
  for (std::size_t i = 0; i < questions().size(); i += 3) {
    const auto& app = app_objs[i];
    golden_ms[questions()[i].app] = time_per_call(
        [&](std::size_t) {
          Span s("swfi.golden_profile");
          swfi::ProfileHook hook;
          emu::Device dev(app.app.device_words);
          app.app.run(dev, &hook);
        },
        1, 0.2, 1e3);
  }
  double golden_total = 0;
  for (const auto& [app, ms] : golden_ms) golden_total += ms;
  out.layer.set("swfi.golden_profile_ms", golden_total / golden_ms.size(),
                "ms");
  for (const auto& [model, acc] : per_model) {
    // Each answer runs one question per app and model, so each model's
    // questions paid golden_total once per answer.
    const double ms =
        acc.first - golden_total * static_cast<double>(answer_ms.size());
    out.layer.set("swfi.trial_ms." + model,
                  acc.second ? ms / static_cast<double>(acc.second) : 0.0,
                  "ms");
  }

  // obs overhead: interleaved off/on repetitions of one question.
  {
    // quicksort bitflip: about a second per run, long enough that thread
    // scheduling jitter does not swamp each pair.
    const std::size_t qi = 6;
    std::vector<double> pct;
    for (int pair = 0; pair < kObsPairs; ++pair) {
      double t[2] = {0, 0};
      for (int k = 0; k < 2; ++k) {
        const bool on = (k == 0) == (pair % 2 == 0);
        obs::set_enabled(on);
        const auto q0 = Clock::now();
        (void)swfi::run_planned_campaign(
            app_objs[qi].app,
            question_config(questions()[qi], qi, opt.seed, *db), plan());
        t[on ? 1 : 0] = ms_since(q0);
      }
      obs::set_enabled(true);
      pct.push_back(100.0 * (t[1] - t[0]) / t[0]);
    }
    const double q1 = stats::quantile(pct, 0.25), q2 = median(pct),
                 q3 = stats::quantile(pct, 0.75);
    out.layer.set("obs.overhead_pct", q2, "%");
    out.layer.set("obs.overhead_pct_q1", q1, "%");
    out.layer.set("obs.overhead_pct_q3", q3, "%");
    std::cout << "obs overhead pairs=" << pct.size() << " median=" << q2
              << "% q1=" << q1 << "% q3=" << q3 << "%\n";
  }
}

}  // namespace ledger
