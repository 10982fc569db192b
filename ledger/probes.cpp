// Isolated primitive timings for the traced run: fparith ops, the RTL
// machine (cycle, construction, restore, digest), campaign trials on a
// prepared golden, classify, the emulator hooked and unhooked, device
// reset, the trial engine's own overhead, report rendering, result
// serialization and the fabric's shard merge. They run after the
// workloads, in the same process, on inputs derived from the seed.

#include <bit>
#include <memory>

#include "apps/apps.hpp"
#include "attr/attr.hpp"
#include "exec/engine.hpp"
#include "fabric/protocol.hpp"
#include "fparith/fp32.hpp"
#include "fparith/sfu.hpp"
#include "ledger.hpp"
#include "rtl/sm.hpp"
#include "rtlfi/campaign.hpp"
#include "rtlfi/microbench.hpp"
#include "serve/protocol.hpp"
#include "syndrome/syndrome.hpp"

namespace ledger {

using namespace gpufi;

namespace {

constexpr double kBudgetS = 0.25;  ///< timing budget per primitive

/// Keeps computed values observable so the timed loops are not folded away.
volatile std::uint64_t g_sink = 0;
void keep(std::uint64_t v) { g_sink = g_sink + v; }

/// Counts every retired thread-instruction (the hooked emulator path).
struct CountingHook : emu::InstrumentHook {
  std::uint64_t n = 0;
  void on_count(const emu::RetireInfo&) override { ++n; }
};

struct EmptyResult {
  void merge(const EmptyResult&) {}
};

rtlfi::CampaignConfig campaign(rtl::Module m, std::size_t faults,
                               std::uint64_t seed,
                               rtl::FaultModel model =
                                   rtl::FaultModel::Transient) {
  rtlfi::CampaignConfig cc;
  cc.module = m;
  cc.n_faults = faults;
  cc.seed = seed;
  cc.jobs = 1;
  cc.fault_model = model;
  return cc;
}

void fparith_probes(std::uint64_t seed, Report& out) {
  Rng rng(rng_derive(seed, 0xf9));
  std::vector<std::uint32_t> ops(3 * 4096), angles(4096);
  for (auto& v : ops)
    v = std::bit_cast<std::uint32_t>(
        static_cast<float>(rng.uniform(-64.0, 64.0)));
  for (auto& v : angles)
    v = std::bit_cast<std::uint32_t>(static_cast<float>(rng.uniform(0, 1.5)));
  {
    Span s("fparith.fma_bits");
    out.layer.set("fparith.fma_ns",
                  time_per_call(
                      [&](std::size_t i) {
                        const std::size_t j = 3 * (i % 4096);
                        keep(fparith::fma_bits(ops[j], ops[j + 1], ops[j + 2],
                                               fparith::FpOp::Fma));
                      },
                      4096, kBudgetS, 1e9),
                  "ns");
  }
  {
    Span s("fparith.sfu");
    out.layer.set("fparith.sfu_ns",
                  time_per_call(
                      [&](std::size_t i) {
                        const std::uint32_t x = angles[i % 4096];
                        keep(i % 2 ? fparith::sfu_exp_bits(x)
                                   : fparith::sfu_sin_bits(x));
                      },
                      4096, kBudgetS, 1e9),
                  "ns");
  }
}

void rtl_probes(std::uint64_t seed, Report& out) {
  // The characterization grid's workloads: the 12 micro-benchmarks at the
  // medium range plus the t-MxM mini-app.
  std::vector<rtlfi::Workload> ws;
  for (isa::Opcode op :
       {isa::Opcode::FADD, isa::Opcode::FMUL, isa::Opcode::FFMA,
        isa::Opcode::IADD, isa::Opcode::IMUL, isa::Opcode::IMAD,
        isa::Opcode::FSIN, isa::Opcode::FEXP, isa::Opcode::GLD,
        isa::Opcode::GST, isa::Opcode::BRA, isa::Opcode::ISETP})
    ws.push_back(rtlfi::make_microbenchmark(op, rtlfi::InputRange::Medium,
                                            seed % 1000));
  ws.push_back(rtlfi::make_tmxm(rtlfi::TileKind::Random, seed % 1000));

  rtl::Sm sm;
  std::vector<std::uint64_t> cycles;
  for (const auto& w : ws) {
    sm.clear_global();
    w.setup(sm);
    cycles.push_back(sm.run(w.program, w.dims).cycles);
  }
  std::uint64_t total_cycles = 0;
  for (std::uint64_t c : cycles) total_cycles += c;
  out.layer.set("rtl.golden_cycles", static_cast<double>(total_cycles),
                "count");
  const auto per_cycle = [&](bool traced) {
    std::vector<double> samples;
    const auto t0 = Clock::now();
    while (samples.size() < 3 || seconds_since(t0) < 2 * kBudgetS) {
      double s = 0;
      for (std::size_t i = 0; i < ws.size(); ++i) {
        sm.clear_global();
        ws[i].setup(sm);
        const auto r0 = Clock::now();
        if (traced) {
          // The ladder geometry campaigns auto-size: ~24 rungs per run.
          rtl::GoldenTrace trace;
          keep(sm.run_traced(ws[i].program, ws[i].dims, trace,
                             std::max<std::uint64_t>(1, cycles[i] / 24))
                   .cycles);
        } else {
          keep(sm.run(ws[i].program, ws[i].dims).cycles);
        }
        s += seconds_since(r0);
      }
      samples.push_back(1e9 * s / static_cast<double>(total_cycles));
    }
    return median(samples);
  };
  {
    Span s("rtl.Sm.run");
    out.layer.set("rtl.ns_per_cycle", per_cycle(false), "ns");
  }
  {
    Span s("rtl.Sm.run_traced");
    out.layer.set("rtl.ns_per_cycle_traced", per_cycle(true), "ns");
  }
  {
    Span s("rtl.Sm.new");
    out.layer.set("rtl.sm_new_us",
                  time_per_call(
                      [&](std::size_t) {
                        auto fresh = std::make_unique<rtl::Sm>();
                        keep(fresh->global_words());
                      },
                      4, kBudgetS, 1e6),
                  "us");
  }
  // Restore a mid-run rung of the FFMA ladder; digest the restored state.
  const auto& w = ws[2];
  sm.clear_global();
  w.setup(sm);
  rtl::GoldenTrace trace;
  sm.run_traced(w.program, w.dims, trace, 16);
  const rtl::SmCheckpoint& rung =
      trace.checkpoints[trace.checkpoints.size() / 2];
  {
    Span s("rtl.Sm.restore");
    out.layer.set("rtl.restore_us",
                  time_per_call([&](std::size_t) { sm.restore(rung); }, 64,
                                kBudgetS, 1e6),
                  "us");
  }
  {
    Span s("rtl.Sm.state_digest");
    out.layer.set("rtl.digest_ns",
                  time_per_call(
                      [&](std::size_t) { keep(sm.state_digest()); }, 1024,
                      kBudgetS, 1e9),
                  "ns");
  }
}

void rtlfi_probes(std::uint64_t seed, Report& out) {
  const auto ffma = rtlfi::make_microbenchmark(
      isa::Opcode::FFMA, rtlfi::InputRange::Medium, seed % 1000);
  const auto imad = rtlfi::make_microbenchmark(
      isa::Opcode::IMAD, rtlfi::InputRange::Medium, seed % 1000);
  const auto tmxm = rtlfi::make_tmxm(rtlfi::TileKind::Random, seed % 1000);
  const auto cc_t = campaign(rtl::Module::Fp32Fu, 512, rng_derive(seed, 1));
  const auto cc_s = campaign(rtl::Module::Scheduler, 128, rng_derive(seed, 2),
                             rtl::FaultModel::StuckAt1);
  const auto cc_m = campaign(rtl::Module::Scheduler, 192, rng_derive(seed, 3));

  rtlfi::GoldenContext g_ffma;
  {
    Span s("rtlfi.prepare_golden");
    out.layer.set("rtlfi.prepare_golden_ms",
                  time_per_call(
                      [&](std::size_t) {
                        g_ffma = rtlfi::prepare_golden(ffma, cc_t);
                      },
                      1, kBudgetS, 1e3),
                  "ms");
  }
  const auto g_imad = rtlfi::prepare_golden(imad, cc_s);
  const auto g_tmxm = rtlfi::prepare_golden(tmxm, cc_m);
  rtlfi::CampaignResult r_ffma;
  const auto per_trial = [&](const char* name, const rtlfi::Workload& w,
                             const rtlfi::CampaignConfig& cc,
                             const rtlfi::GoldenContext& g,
                             rtlfi::CampaignResult* last) {
    Span s(std::string("rtlfi.run_campaign.") + name);
    out.layer.set(std::string("rtlfi.trial_us.") + name,
                  time_per_call(
                      [&](std::size_t) {
                        auto r = rtlfi::run_campaign(w, cc, g);
                        if (last) *last = std::move(r);
                      },
                      1, 2 * kBudgetS, 1e6 / static_cast<double>(cc.n_faults)),
                  "us");
  };
  per_trial("transient", ffma, cc_t, g_ffma, &r_ffma);
  per_trial("stuck1", imad, cc_s, g_imad, nullptr);
  per_trial("tmxm", tmxm, cc_m, g_tmxm, nullptr);

  {
    std::vector<std::uint32_t> faulty = g_ffma.golden_out;
    faulty[faulty.size() / 2] ^= 1u << 7;
    Span s("rtlfi.classify");
    out.layer.set("rtlfi.classify_us",
                  time_per_call(
                      [&](std::size_t) {
                        keep(static_cast<std::uint64_t>(rtlfi::classify(
                            rtl::RunStatus::Ok, g_ffma.golden_out, faulty)));
                      },
                      256, kBudgetS, 1e6),
                  "us");
  }

  // One fixed RTL campaign at jobs 2 vs jobs 1, same golden.
  {
    Span s("exec.speedup_jobs2");
    auto cc = campaign(rtl::Module::Fp32Fu, 2048, rng_derive(seed, 4));
    std::vector<double> ratio;
    for (int rep = 0; rep < 3; ++rep) {
      double t[2];
      for (unsigned jobs : {1u, 2u}) {
        cc.jobs = jobs;
        const auto t0 = Clock::now();
        (void)rtlfi::run_campaign(ffma, cc, g_ffma);
        t[jobs - 1] = seconds_since(t0);
      }
      ratio.push_back(t[0] / t[1]);
    }
    out.layer.set("exec.speedup_jobs2", median(ratio), "x");
  }

  // attr: build_report + render_json on one report class's slice.
  {
    const attr::CampaignSlice slice{"fp32", r_ffma.attribution,
                                    r_ffma.injected};
    Span s("attr.build_report");
    out.layer.set("attr.report_ms",
                  time_per_call(
                      [&](std::size_t) {
                        const auto report = attr::build_report(
                            ffma.name, *g_ffma.liveness, {slice});
                        keep(attr::render_json(report).size());
                      },
                      1, kBudgetS, 1e3),
                  "ms");
  }

  // serve: the Result payload serialization of the rtl class's result.
  serve::CampaignSpec spec;
  spec.faults = cc_t.n_faults;
  spec.seed = cc_t.seed;
  {
    Span s("serve.serialize_campaign_result");
    out.layer.set("serve.serialize_us",
                  time_per_call(
                      [&](std::size_t) {
                        keep(serve::serialize_campaign_result(spec, r_ffma)
                                 .size());
                      },
                      4, kBudgetS, 1e6),
                  "us");
  }

  // fabric: decode_rtl_partial + CampaignResult::merge over one job's
  // shards, in shard order.
  {
    std::vector<std::string> partials;
    for (const auto& range : exec::plan_shards(cc_t.n_faults, 8)) {
      auto cc = cc_t;
      cc.shard_offset = range.offset;
      cc.shard_count = range.count;
      partials.push_back(
          fabric::encode_rtl_partial(rtlfi::run_campaign(ffma, cc, g_ffma)));
    }
    Span s("fabric.merge");
    out.layer.set("fabric.merge_us",
                  time_per_call(
                      [&](std::size_t) {
                        rtlfi::CampaignResult merged;
                        for (const auto& p : partials)
                          merged.merge(fabric::decode_rtl_partial(p).value());
                        keep(merged.injected);
                      },
                      2, kBudgetS, 1e6),
                  "us");
  }
}

void emu_probes(Report& out) {
  // The two_level table's applications at their answer sizes.
  std::vector<apps::HpcApp> hpc;
  for (const char* name : {"mxm", "lava", "quicksort"})
    hpc.push_back(table_app(name));
  std::uint64_t retired = 0;
  for (auto& a : hpc) {
    emu::Device dev(a.app.device_words);
    CountingHook hook;
    a.app.run(dev, &hook);
    retired += hook.n;
  }
  const auto per_instr = [&](bool hooked) {
    std::vector<double> samples;
    std::vector<std::unique_ptr<emu::Device>> devs;
    for (auto& a : hpc)
      devs.push_back(std::make_unique<emu::Device>(a.app.device_words));
    const auto t0 = Clock::now();
    while (samples.size() < 3 || seconds_since(t0) < 2 * kBudgetS) {
      double s = 0;
      for (std::size_t i = 0; i < hpc.size(); ++i) {
        devs[i]->reset();
        CountingHook hook;
        const auto r0 = Clock::now();
        hpc[i].app.run(*devs[i], hooked ? &hook : nullptr);
        s += seconds_since(r0);
      }
      samples.push_back(1e9 * s / static_cast<double>(retired));
    }
    return median(samples);
  };
  {
    Span s("emu.launch.unhooked");
    out.layer.set("emu.ns_per_instr.unhooked", per_instr(false), "ns");
  }
  {
    Span s("emu.launch.hooked");
    out.layer.set("emu.ns_per_instr.hooked", per_instr(true), "ns");
  }
  {
    // Reset after a full app run (the touched prefix is what reset zeroes).
    auto& a = hpc[0];
    emu::Device dev(a.app.device_words);
    std::vector<double> samples;
    Span s("emu.Device.reset");
    const auto t0 = Clock::now();
    while (samples.size() < 16 || seconds_since(t0) < kBudgetS) {
      a.app.run(dev, nullptr);
      const auto r0 = Clock::now();
      dev.reset();
      samples.push_back(1e6 * seconds_since(r0));
    }
    out.layer.set("emu.device_reset_us", median(samples), "us");
  }
}

void exec_probes(Report& out) {
  exec::EngineConfig ec;
  ec.n_trials = 1 << 16;
  ec.jobs = 1;
  Span s("exec.run_trials.empty");
  out.layer.set("exec.trial_overhead_ns",
                time_per_call(
                    [&](std::size_t) {
                      (void)exec::run_trials<EmptyResult>(
                          ec, [] { return 0; },
                          [](int&, std::size_t, Rng& rng, EmptyResult&) {
                            keep(rng());
                          });
                    },
                    1, kBudgetS, 1e9 / static_cast<double>(ec.n_trials)),
                "ns");
}

void syndrome_probes(Report& out) {
  Span s("syndrome.load_file");
  out.layer.set("syndrome.load_ms",
                time_per_call(
                    [&](std::size_t) {
                      keep(syndrome::Database::load_file(
                               "gpufi_data/syndromes.db")
                               .keys()
                               .size());
                    },
                    1, 0.3, 1e3),
                "ms");
}

}  // namespace

void run_probes(const Options& opt, Report& out) {
  Span probes("probes", Tracer::new_request());
  fparith_probes(opt.seed, out);
  rtl_probes(opt.seed, out);
  rtlfi_probes(opt.seed, out);
  emu_probes(out);
  exec_probes(out);
  syndrome_probes(out);
}

}  // namespace ledger
