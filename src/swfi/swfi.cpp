#include "swfi/swfi.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/statistics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rtlfi/microbench.hpp"

namespace gpufi::swfi {

using isa::Opcode;

std::string_view fault_model_name(FaultModel m) {
  switch (m) {
    case FaultModel::SingleBitFlip: return "single bit-flip";
    case FaultModel::DoubleBitFlip: return "double bit-flip";
    case FaultModel::RelativeError: return "relative error";
    case FaultModel::WarpRelativeError: return "warp relative error";
    case FaultModel::StickyRelativeError: return "sticky relative error";
  }
  return "?";
}

bool ProfileHook::is_candidate(Opcode op) {
  return isa::is_injection_candidate(op);
}

namespace {

/// True when the instruction's destination holds an FP32 bit pattern (which
/// decides both how a relative error is applied and how inputs classify).
bool fp_destination(Opcode op, bool memory_is_float) {
  return isa::op_class(op) == isa::OpClass::Fp32 ||
         isa::op_class(op) == isa::OpClass::Special ||
         (op == Opcode::GLD && memory_is_float);
}

}  // namespace

rtlfi::InputRange classify_inputs(Opcode op, std::uint32_t a, std::uint32_t b,
                                  bool memory_is_float) {
  if (fp_destination(op, memory_is_float)) {
    const float fa = std::bit_cast<float>(a);
    const float fb = std::bit_cast<float>(b);
    return rtlfi::classify_float_input(
        std::max(std::fabs(fa), std::fabs(fb)));
  }
  const auto mag_of = [](std::uint32_t v) {
    const auto s = static_cast<std::int32_t>(v);
    return static_cast<std::uint32_t>(s < 0 ? -static_cast<std::int64_t>(s)
                                            : s);
  };
  return rtlfi::classify_int_input(std::max(mag_of(a), mag_of(b)));
}

void ProfileHook::on_retire(const emu::RetireInfo& info, std::uint32_t&) {
  if (is_candidate(info.instr->op)) ++candidates_;
}

void ProfileHook::on_pred_retire(const emu::RetireInfo& info, bool&) {
  if (is_candidate(info.instr->op)) ++candidates_;
}

InjectHook::InjectHook(FaultModel model, std::uint64_t target,
                       std::uint64_t seed, const syndrome::Database* db,
                       bool memory_is_float, rtl::FaultModel syndrome_model)
    : model_(model),
      target_(target),
      rng_(seed),
      db_(db),
      memory_is_float_(memory_is_float),
      syndrome_model_(syndrome_model) {}

bool InjectHook::take_shot(const emu::RetireInfo& info) {
  const Opcode op = info.instr->op;
  if (!ProfileHook::is_candidate(op)) return false;
  if (fired_) {
    // Sticky (stuck-at) model: a permanently broken flip-flop keeps
    // corrupting the same static instruction, so every later retirement of
    // it — any thread, including loop re-executions — fires again, up to
    // kStickyMaxHits. The same pc of another kernel is another instruction.
    if (model_ == FaultModel::StickyRelativeError) {
      if (info.instr != hit_instr_ || hits_ >= kStickyMaxHits) return false;
      ++hits_;
      return true;
    }
    // Warp-level model: the emulator retires a warp instruction lane by
    // lane, so corrupting "the rest of the warp" means continuing to fire
    // while the same (CTA, warp, instruction) keeps retiring. Any other
    // candidate retirement from that warp disarms the fault, so a loop
    // re-executing the same PC is NOT corrupted again (transient
    // semantics), and at most one warp's worth of lanes is hit.
    if (model_ != FaultModel::WarpRelativeError || !armed_) return false;
    if (info.instr != hit_instr_ || info.thread.cta != hit_cta_ ||
        info.thread.warp != hit_warp_ || hits_ >= 32) {
      armed_ = false;
      return false;
    }
    ++hits_;
    return true;
  }
  if (stratum_ &&
      (op != stratum_->first ||
       classify_inputs(op, info.a, info.b, memory_is_float_) !=
           stratum_->second))
    return false;
  if (seen_++ != target_) return false;
  fired_ = true;
  hits_ = 1;
  hit_op_ = op;
  hit_pc_ = info.pc;
  hit_instr_ = info.instr;
  hit_dyn_index_ = info.dyn_index;
  hit_cta_ = info.thread.cta;
  hit_warp_ = info.thread.warp;
  return true;
}

std::uint32_t InjectHook::corrupt_value(const emu::RetireInfo& info,
                                        std::uint32_t value) {
  const Opcode op = info.instr->op;
  switch (model_) {
    case FaultModel::SingleBitFlip:
      return value ^ (1u << rng_.below(32));
    case FaultModel::DoubleBitFlip: {
      const unsigned b1 = static_cast<unsigned>(rng_.below(32));
      unsigned b2 = static_cast<unsigned>(rng_.below(31));
      if (b2 >= b1) ++b2;
      return value ^ (1u << b1) ^ (1u << b2);
    }
    case FaultModel::RelativeError:
    case FaultModel::WarpRelativeError:
    case FaultModel::StickyRelativeError:
      break;
  }
  // RTL-syndrome relative error: the magnitude range is classified from the
  // instruction's actual inputs, exactly as the modified NVBitFI does.
  const bool fp_dest = fp_destination(op, memory_is_float_);
  const rtlfi::InputRange range =
      classify_inputs(op, info.a, info.b, memory_is_float_);
  double rel = 1.0;
  if (db_) {
    if (const auto s =
            db_->sample_relative_error(op, range, rng_, syndrome_model_))
      rel = *s;
  }
  applied_rel_ = rel;
  const double sign = rng_.chance(0.5) ? 1.0 : -1.0;
  if (fp_dest) {
    const double v = std::bit_cast<float>(value);
    return std::bit_cast<std::uint32_t>(
        static_cast<float>(v * (1.0 + sign * rel)));
  }
  const double v = static_cast<std::int32_t>(value);
  const double corrupted = v * (1.0 + sign * rel);
  // Wraparound semantics of the integer datapath.
  if (!std::isfinite(corrupted)) return value;
  return static_cast<std::uint32_t>(
      static_cast<std::int64_t>(std::llrint(
          std::clamp(corrupted, -9.2e18, 9.2e18))));
}

void InjectHook::on_retire(const emu::RetireInfo& info, std::uint32_t& value) {
  if (!take_shot(info)) return;
  value = corrupt_value(info, value);
}

void InjectHook::on_pred_retire(const emu::RetireInfo& info, bool& value) {
  if (!take_shot(info)) return;
  // A predicate's only corruption is inversion, for every fault model.
  value = !value;
}

bool InjectHook::done(const isa::Instr* next) const {
  // Before the shot take_shot returns at once on an instruction that is not
  // a candidate or not the restricted stratum's opcode: nothing moves.
  if (!fired_)
    return next && (!ProfileHook::is_candidate(next->op) ||
                    (stratum_ && next->op != stratum_->first));
  switch (model_) {
    case FaultModel::SingleBitFlip:
    case FaultModel::DoubleBitFlip:
    case FaultModel::RelativeError:
      return true;  // one shot, already taken
    case FaultModel::WarpRelativeError:
      // Inert once the warp moved on (disarmed) or every lane was hit; until
      // then take_shot still needs to see retirements to disarm correctly.
      return !armed_ || hits_ >= 32;
    case FaultModel::StickyRelativeError:
      // A stuck flip-flop keeps re-firing on its instruction until the hit
      // cap; take_shot ignores the retirements of every other one.
      return hits_ >= kStickyMaxHits || (next && next != hit_instr_);
  }
  return false;
}

bool InjectHook::on_cta(std::size_t run_cta) {
  const auto* before = golden_before_;
  if (fired_ || !before || run_cta + 1 >= before->size()) return false;
  // Before the shot this run retires exactly the golden stream, so
  // before[run_cta] of this hook's candidates have retired (also when the
  // previous CTA was replayed rather than executed).
  seen_ = (*before)[run_cta];
  return target_ >= (*before)[run_cta + 1];
}

double Result::margin_of_error() const {
  return stats::proportion_margin_of_error(pvf(), injections);
}

void Result::merge(const Result& other) {
  injections += other.injections;
  masked += other.masked;
  sdc += other.sdc;
  due += other.due;
  candidate_instructions =
      std::max(candidate_instructions, other.candidate_instructions);
}

namespace detail {

namespace {

/// Golden-run hook: the candidate census and each CTA's candidate tallies
/// (all, and per stratum) for the golden tape.
struct GoldenHook : emu::InstrumentHook {
  bool memory_is_float = true;
  std::vector<std::uint64_t> per_cta;  ///< candidates of each CTA
  /// Candidates of each CTA per stratum, indexed opcode * kNumRanges +
  /// range; grown lazily to the current CTA.
  std::vector<std::vector<std::uint64_t>> stratum_per_cta =
      std::vector<std::vector<std::uint64_t>>(isa::kNumOpcodes *
                                              rtlfi::kNumRanges);

  void on_retire(const emu::RetireInfo& info, std::uint32_t&) override {
    note(info);
  }
  void on_pred_retire(const emu::RetireInfo& info, bool&) override {
    note(info);
  }
  bool on_cta(std::size_t) override {
    per_cta.push_back(0);
    return false;
  }

  void note(const emu::RetireInfo& info) {
    const Opcode op = info.instr->op;
    if (!ProfileHook::is_candidate(op)) return;
    ++per_cta.back();
    const auto range = classify_inputs(op, info.a, info.b, memory_is_float);
    auto& counts = stratum_per_cta[static_cast<std::size_t>(op) *
                                       rtlfi::kNumRanges +
                                   static_cast<std::size_t>(range)];
    counts.resize(per_cta.size());
    ++counts.back();
  }
};

/// Running totals: out[k] = sum of per_cta[0..k), for k = 0..n_ctas.
std::vector<std::uint64_t> prefix_sums(std::vector<std::uint64_t> per_cta,
                                       std::size_t n_ctas) {
  per_cta.resize(n_ctas);
  std::vector<std::uint64_t> out(n_ctas + 1, 0);
  for (std::size_t k = 0; k < n_ctas; ++k) out[k + 1] = out[k] + per_cta[k];
  return out;
}

}  // namespace

Golden run_golden(const App& app, emu::Interpreter interpreter) {
  obs::Span span("swfi.golden_profile");
  span.set("app", app.name);
  Golden g;
  GoldenHook hook;
  hook.memory_is_float = app.memory_is_float;
  emu::Device dev(app.device_words);
  dev.set_interpreter(interpreter);
  dev.record_tape(&g.tape);
  if (!app.run(dev, &hook))
    throw std::runtime_error("golden run failed for " + app.name);
  g.out = app.read_output(dev);
  const std::size_t n = g.tape.ctas.size();
  g.before = prefix_sums(std::move(hook.per_cta), n);
  g.candidates = g.before.back();
  if (g.candidates == 0)
    throw std::runtime_error("no injectable instructions in " + app.name);
  for (std::size_t i = 0; i < hook.stratum_per_cta.size(); ++i) {
    if (hook.stratum_per_cta[i].empty()) continue;
    const Stratum s{static_cast<Opcode>(i / rtlfi::kNumRanges),
                    static_cast<rtlfi::InputRange>(i % rtlfi::kNumRanges)};
    g.stratum_before[s] = prefix_sums(std::move(hook.stratum_per_cta[i]), n);
  }
  return g;
}

void run_one_trial(const App& app, emu::Device& dev, InjectHook& hook,
                   const Golden& golden, Result& shard, bool replay) {
  dev.reset();
  dev.replay_tape(replay ? &golden.tape : nullptr);
  hook.skip_golden_ctas(replay ? &golden.before_for(hook) : nullptr);
  const bool ok = app.run(dev, &hook);
  const bool obs_on = obs::enabled();
  if (obs_on)
    // Per-opcode shot accounting: which instruction the trial actually
    // corrupted ("none" = the draw landed past the dynamic stream,
    // e.g. a DUE killed the run before the target retired).
    obs::count(obs::label(
        "gpufi_sw_injections_total", "opcode",
        hook.fired() ? isa::mnemonic(hook.hit_opcode()) : "none"));
  ++shard.injections;
  std::string_view outcome;
  if (!ok) {
    ++shard.due;
    outcome = vocab::kOutcomeDue;
  } else if (app.read_output(dev) == golden.out) {
    ++shard.masked;
    outcome = vocab::kOutcomeMasked;
  } else {
    ++shard.sdc;
    outcome = vocab::kOutcomeSdc;
  }
  if (obs_on)
    obs::count(obs::label("gpufi_sw_outcomes_total", "outcome", outcome));
}

Result run_sw_campaign(const App& app, const Config& cfg, bool replay) {
  obs::Span span("swfi.run_sw_campaign");
  span.set("app", app.name);
  span.set("model", fault_model_name(cfg.model));
  span.set("injections", static_cast<std::uint64_t>(cfg.n_injections));

  // Golden pass: candidate census, reference output and golden tape.
  const Golden golden = run_golden(app, cfg.interpreter);

  exec::EngineConfig ec;
  ec.n_trials = cfg.n_injections;
  ec.shard = {cfg.shard_offset, cfg.shard_count};
  ec.seed = cfg.seed;
  ec.jobs = cfg.jobs;
  ec.progress = cfg.progress;
  ec.cancel = cfg.cancel;
  Result result = exec::run_trials<Result>(
      ec,
      [&] {
        // One reused device per chunk (reset per trial) instead of a fresh
        // construction-and-zeroing for every injection.
        auto dev = std::make_unique<emu::Device>(app.device_words);
        dev->set_interpreter(cfg.interpreter);
        return dev;
      },
      [&](std::unique_ptr<emu::Device>& dev, std::size_t, Rng& rng,
          Result& shard) {
        const std::uint64_t target = rng.below(golden.candidates);
        InjectHook hook(cfg.model, target, rng(), cfg.db,
                        app.memory_is_float, cfg.syndrome_model);
        run_one_trial(app, *dev, hook, golden, shard, replay);
      });
  result.candidate_instructions = golden.candidates;
  return result;
}

}  // namespace detail

Result run_sw_campaign(const App& app, const Config& cfg) {
  return detail::run_sw_campaign(app, cfg, /*replay=*/true);
}

}  // namespace gpufi::swfi
