#include "rtlfi/campaign.hpp"

#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/statistics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rtl/layouts.hpp"
#include "rtl/state.hpp"

namespace gpufi::rtlfi {

std::string_view outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Masked: return vocab::kOutcomeMasked;
    case Outcome::Sdc: return vocab::kOutcomeSdc;
    case Outcome::Due: return vocab::kOutcomeDue;
  }
  return "?";
}

std::string_view acceleration_name(Acceleration a) {
  switch (a) {
    case Acceleration::None: return "none";
    case Acceleration::Checkpoint: return "checkpoint";
    case Acceleration::CheckpointEarlyExit: return "checkpoint+early_exit";
  }
  return "?";
}

double CampaignResult::mean_corrupted_elements() const {
  std::size_t n = 0, sum = 0;
  for (const auto& r : records) {
    if (r.outcome != Outcome::Sdc) continue;
    ++n;
    sum += r.corrupted_elements;
  }
  return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
}

double CampaignResult::mean_corrupted_threads() const {
  std::size_t n = 0, sum = 0;
  for (const auto& r : records) {
    if (r.outcome != Outcome::Sdc) continue;
    ++n;
    sum += r.corrupted_threads;
  }
  return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
}

double CampaignResult::margin_of_error() const {
  return stats::proportion_margin_of_error(avf(), injected);
}

void CampaignResult::merge(const CampaignResult& other) {
  injected += other.injected;
  masked += other.masked;
  sdc_single += other.sdc_single;
  sdc_multi += other.sdc_multi;
  due += other.due;
  converged_early += other.converged_early;
  golden_cycles = std::max(golden_cycles, other.golden_cycles);
  records.insert(records.end(), other.records.begin(), other.records.end());
  attr::merge_tables(attribution, other.attribution);
}

Outcome classify(rtl::RunStatus status,
                 const std::vector<std::uint32_t>& golden_out,
                 const std::vector<std::uint32_t>& faulty_out) {
  if (status != rtl::RunStatus::Ok) return Outcome::Due;
  return golden_out == faulty_out ? Outcome::Masked : Outcome::Sdc;
}

namespace {

double relative_error(std::uint32_t golden, std::uint32_t faulty,
                      bool is_float) {
  if (is_float) {
    const double g = std::bit_cast<float>(golden);
    const double f = std::bit_cast<float>(faulty);
    if (!std::isfinite(f) || !std::isfinite(g)) return 1e30;
    if (g == 0.0) return std::fabs(f) == 0.0 ? 0.0 : 1e30;
    return std::fabs((f - g) / g);
  }
  const double g = static_cast<std::int32_t>(golden);
  const double f = static_cast<std::int32_t>(faulty);
  if (g == 0.0) return f == 0.0 ? 0.0 : 1e30;
  return std::fabs((f - g) / g);
}

std::vector<std::uint32_t> read_out(const rtl::Sm& sm, std::uint32_t base,
                                    std::uint32_t words) {
  std::vector<std::uint32_t> v(words);
  for (std::uint32_t i = 0; i < words; ++i) v[i] = sm.read_word(base + i);
  return v;
}

/// `gpufi_rtl_outcomes_total{model=...,outcome=...}` — the per-FaultModel
/// outcome counter every trial bumps (through its chunk's shard, so the
/// totals are jobs-invariant).
std::string outcome_metric(const CampaignConfig& cfg, Outcome o) {
  return obs::label(obs::label("gpufi_rtl_outcomes_total", "model",
                               rtl::fault_model_name(cfg.fault_model)),
                    "outcome", outcome_name(o));
}

/// Watchdog = golden_cycles * factor + slack (hang detection).
constexpr std::uint64_t kWatchdogFactor = 4;
constexpr std::uint64_t kWatchdogSlack = 4096;
/// Golden checkpoint-ladder rungs per run: ~24 rungs bound the average
/// fast-forward replay to ~2% of a full run at negligible capture cost.
constexpr std::uint64_t kLadderRungs = 24;
/// Cycles between faulty-vs-golden digest comparisons.
constexpr std::uint64_t kConvergenceCheckInterval = 16;

/// One fault-injection trial: draws the (bit, cycle) location from this
/// trial's private Rng, replays the workload with the fault armed, and
/// accumulates the classification into `shard`. With `trace` given, the
/// fault-free prefix is fast-forwarded from the golden checkpoint ladder
/// (and, with `early_exit`, the run stops the instant the machine state
/// re-converges with the golden timeline) — same outcome, fewer cycles.
void run_one_fault(rtl::Sm& sm, const Workload& w, const CampaignConfig& cfg,
                   const rtl::StateLayout& layout,
                   const std::vector<std::uint32_t>& golden_out,
                   std::uint64_t golden_cycles, std::uint64_t watchdog,
                   const rtl::GoldenTrace* trace,
                   const rtl::LivenessTimeline* liveness, bool early_exit,
                   Rng& rng, CampaignResult& shard) {
  rtl::FaultSpec fault;
  fault.module = cfg.module;
  fault.bit = static_cast<std::uint32_t>(rng.below(layout.bits()));
  fault.cycle = rng.below(golden_cycles);
  // The temporal shape comes from the config, not the Rng: the transient
  // draw sequence above is the byte-compatibility contract with earlier
  // campaigns, and every model bombards the same (bit, cycle) sites.
  fault.model = cfg.fault_model;
  fault.duration = cfg.fault_duration;
  fault.period = cfg.burst_period;

  const bool obs_on = obs::enabled();

  // Join the fault site against the golden liveness timeline before the
  // run: the context is a pure function of (workload, cycle, module), so
  // it is identical for every acceleration level and job count.
  rtl::FaultSiteContext site;
  if (liveness)
    site = rtl::resolve_fault_site(*liveness, fault.cycle, cfg.module);
  if (obs_on)
    obs::count(site.live ? "gpufi_attr_resolved_total"
                         : "gpufi_attr_unresolved_total");
  auto& site_counts = shard.attribution[attr::site_key(site)];
  ++site_counts.hits;
  rtl::RunResult run;
  if (trace) {
    if (obs_on) obs::count("gpufi_rtl_checkpoint_restores_total");
    // Acceleration gating across models: floor() only returns rungs at
    // cycles <= fault.cycle, i.e. strictly before the fault window opens,
    // so the fast-forwarded prefix is fault-free for every model; the
    // convergence early-exit is gated inside the machine on the window
    // having closed (a permanent fault therefore never early-exits).
    const rtl::SmCheckpoint* from = trace->floor(fault.cycle);
    if (!from) throw std::logic_error("empty golden checkpoint ladder");
    run = sm.resume_with_fault(w.program, w.dims, fault, watchdog, *from,
                               early_exit ? trace : nullptr,
                               kConvergenceCheckInterval);
  } else {
    // Pristine memory image per trial (the restore path starts every trial
    // from the golden image, so the naive path must too for byte-identity:
    // a faulty store must not leak into the next trial's initial memory).
    sm.clear_global();
    w.setup(sm);
    run = sm.run_with_fault(w.program, w.dims, fault, watchdog);
  }

  if (run.converged) {
    // Full-state convergence: the rest of the run is provably the golden
    // suffix, so the output would compare equal word for word.
    ++shard.injected;
    ++shard.masked;
    ++shard.converged_early;
    ++site_counts.masked;
    if (obs_on) {
      obs::count("gpufi_rtl_converged_early_total");
      obs::count(outcome_metric(cfg, Outcome::Masked));
    }
    return;
  }

  const auto faulty_out = read_out(sm, w.out_base, w.out_words);
  const Outcome outcome = classify(run.status, golden_out, faulty_out);
  if (obs_on) obs::count(outcome_metric(cfg, outcome));

  ++shard.injected;
  switch (outcome) {
    case Outcome::Masked:
      ++shard.masked;
      ++site_counts.masked;
      break;
    case Outcome::Due:
      ++shard.due;
      ++site_counts.due;
      break;
    case Outcome::Sdc:
      break;  // counted below once multiplicity is known
  }

  if (outcome == Outcome::Masked) return;

  InjectionRecord rec;
  rec.fault = fault;
  const auto& finfo = layout.field_at(fault.bit);
  rec.field = finfo.name;
  rec.role = finfo.role;
  rec.outcome = outcome;
  rec.site = site;
  if (outcome == Outcome::Due) {
    rec.due_reason = run.trap_reason;
    rec.due_reason_code = vocab::classify_due_reason(run.trap_reason);
    ++site_counts
          .due_by_reason[static_cast<std::size_t>(rec.due_reason_code)];
    if (cfg.keep_all_records) shard.records.push_back(std::move(rec));
    return;
  }
  std::vector<bool> thread_hit(w.thread_modulo ? w.thread_modulo
                                               : w.out_words);
  for (std::uint32_t e = 0; e < w.out_words; ++e) {
    if (faulty_out[e] == golden_out[e]) continue;
    ++rec.corrupted_elements;
    const std::uint32_t owner =
        w.thread_modulo ? e % w.thread_modulo : e;
    if (!thread_hit[owner]) {
      thread_hit[owner] = true;
      ++rec.corrupted_threads;
    }
    if (rec.diffs.size() < kMaxDiffsKept) {
      ElementDiff d;
      d.index = e;
      d.golden = golden_out[e];
      d.faulty = faulty_out[e];
      d.rel_error = relative_error(golden_out[e], faulty_out[e],
                                   w.out_is_float);
      d.bits_flipped = static_cast<unsigned>(
          std::popcount(golden_out[e] ^ faulty_out[e]));
      rec.diffs.push_back(d);
    }
  }
  if (rec.corrupted_threads > 1) {
    ++shard.sdc_multi;
    ++site_counts.sdc_multi;
  } else {
    ++shard.sdc_single;
    ++site_counts.sdc_single;
  }
  shard.records.push_back(std::move(rec));
}

}  // namespace

GoldenContext prepare_golden(const Workload& w, const CampaignConfig& cfg) {
  obs::Span span("rtlfi.prepare_golden");
  span.set("workload", w.name);
  span.set("accel", acceleration_name(cfg.acceleration));
  obs::count("gpufi_rtl_golden_builds_total");
  GoldenContext golden;

  // Golden run: reference output, fault-window size and the liveness
  // timeline attribution joins against. Recorded here — on the plain run
  // every acceleration level performs — so the timeline (and with it every
  // FaultSiteContext) is acceleration-invariant by construction.
  {
    rtl::Sm sm;
    w.setup(sm);
    auto liveness = std::make_shared<rtl::LivenessTimeline>();
    const auto golden_run = sm.run(w.program, w.dims, *liveness);
    if (golden_run.status != rtl::RunStatus::Ok)
      throw std::runtime_error("golden RTL run failed (" +
                               golden_run.trap_reason + ") for " + w.name);
    golden.golden_cycles = golden_run.cycles;
    golden.golden_out = read_out(sm, w.out_base, w.out_words);
    golden.liveness = std::move(liveness);
  }

  // Accelerated modes re-run the golden workload once more with tracing on,
  // building the checkpoint ladder and digest timeline every trial shares
  // read-only. The ladder is built once per context (not per worker, not per
  // campaign when a cache shares the context), so results stay jobs-count
  // and sharing invariant by construction.
  if (cfg.acceleration != Acceleration::None) {
    const std::uint64_t rung_interval =
        std::max<std::uint64_t>(1, golden.golden_cycles / kLadderRungs);
    auto trace = std::make_shared<rtl::GoldenTrace>();
    rtl::Sm sm;
    w.setup(sm);
    const auto traced = sm.run_traced(w.program, w.dims, *trace,
                                      rung_interval);
    if (traced.status != rtl::RunStatus::Ok ||
        traced.cycles != golden.golden_cycles)
      throw std::runtime_error("traced golden run diverged from plain golden "
                               "run for " + w.name);
    golden.trace = std::move(trace);
  }
  return golden;
}

CampaignResult run_campaign(const Workload& w, const CampaignConfig& cfg,
                            const GoldenContext& golden) {
  obs::Span span("rtlfi.run_campaign");
  span.set("workload", w.name);
  span.set("module", rtl::module_name(cfg.module));
  span.set("model", rtl::fault_model_name(cfg.fault_model));
  span.set("faults", static_cast<std::uint64_t>(cfg.n_faults));
  const auto& layout = rtl::layouts().of(cfg.module);
  if (layout.bits() == 0) throw std::logic_error("empty module layout");
  if (cfg.acceleration != Acceleration::None && !golden.trace)
    throw std::logic_error("accelerated campaign needs a traced golden "
                           "context for " + w.name);

  const std::uint64_t watchdog =
      golden.golden_cycles * kWatchdogFactor + kWatchdogSlack;
  const bool early_exit = cfg.acceleration == Acceleration::CheckpointEarlyExit;
  const rtl::GoldenTrace* trace =
      cfg.acceleration != Acceleration::None ? golden.trace.get() : nullptr;

  exec::EngineConfig ec;
  ec.n_trials = cfg.n_faults;
  ec.shard = {cfg.shard_offset, cfg.shard_count};
  ec.seed = cfg.seed;
  ec.jobs = cfg.jobs;
  ec.progress = cfg.progress;
  ec.cancel = cfg.cancel;
  CampaignResult result = exec::run_trials<CampaignResult>(
      ec, [] { return std::make_unique<rtl::Sm>(); },
      [&](std::unique_ptr<rtl::Sm>& sm, std::size_t, Rng& rng,
          CampaignResult& shard) {
        run_one_fault(*sm, w, cfg, layout, golden.golden_out,
                      golden.golden_cycles, watchdog, trace,
                      golden.liveness.get(), early_exit, rng, shard);
      });
  result.golden_cycles = golden.golden_cycles;
  return result;
}

CampaignResult run_campaign(const Workload& w, const CampaignConfig& cfg) {
  return run_campaign(w, cfg, prepare_golden(w, cfg));
}

}  // namespace gpufi::rtlfi
