#include "core/gpufi.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rtlfi/campaign.hpp"
#include "rtlfi/microbench.hpp"

namespace gpufi::core {

using rtlfi::InputRange;
using rtlfi::TileKind;

namespace {

/// Modules characterized for a given instruction (the functional units are
/// idle for memory/control instructions; Sec. V-B).
std::vector<rtl::Module> modules_for(isa::Opcode op) {
  using isa::OpClass;
  using rtl::Module;
  std::vector<Module> mods{Module::Scheduler, Module::PipelineRegs};
  switch (isa::op_class(op)) {
    case OpClass::Fp32:
      mods.push_back(Module::Fp32Fu);
      break;
    case OpClass::Int32:
      mods.push_back(Module::IntFu);
      break;
    case OpClass::Special:
      mods.push_back(Module::Sfu);
      mods.push_back(Module::SfuCtl);
      break;
    default:
      break;
  }
  return mods;
}

constexpr isa::Opcode kCharacterized[12] = {
    isa::Opcode::FADD, isa::Opcode::FMUL, isa::Opcode::FFMA,
    isa::Opcode::IADD, isa::Opcode::IMUL, isa::Opcode::IMAD,
    isa::Opcode::FSIN, isa::Opcode::FEXP, isa::Opcode::GLD,
    isa::Opcode::GST,  isa::Opcode::BRA,  isa::Opcode::ISETP,
};

/// One entry of the flattened characterization grid. The grid is enumerated
/// up front so campaigns can run on any worker in any order while seeds and
/// database ingestion stay a pure function of the campaign index.
struct CampaignDesc {
  bool tmxm = false;
  isa::Opcode op = isa::Opcode::NOP;
  InputRange range = InputRange::Small;
  rtl::Module module = rtl::Module::Scheduler;
  TileKind kind = TileKind::Max;
  rtl::FaultModel model = rtl::FaultModel::Transient;
};

std::vector<CampaignDesc> characterization_grid(
    const std::vector<rtl::FaultModel>& models) {
  // Model-major, in enum order, each listed model once: the transient block
  // (micro grid + t-MxM) comes first and keeps exactly the grid indices of
  // the transient-only grid, so its derived seeds — and the transient slice
  // of the database — are byte-identical. Extra models append whole micro
  // grids after it; t-MxM patterns are characterized for Transient only (a
  // permanent fault corrupts every tile, which carries no pattern
  // information).
  std::vector<CampaignDesc> grid;
  for (std::size_t m = 0; m < rtl::kNumFaultModels; ++m) {
    const auto model = static_cast<rtl::FaultModel>(m);
    if (std::find(models.begin(), models.end(), model) == models.end())
      continue;
    for (isa::Opcode op : kCharacterized)
      for (unsigned r = 0; r < rtlfi::kNumRanges; ++r)
        for (rtl::Module module : modules_for(op)) {
          CampaignDesc d;
          d.op = op;
          d.range = static_cast<InputRange>(r);
          d.module = module;
          d.model = model;
          grid.push_back(d);
        }
    if (model != rtl::FaultModel::Transient) continue;
    for (rtl::Module site :
         {rtl::Module::Scheduler, rtl::Module::PipelineRegs})
      for (TileKind kind :
           {TileKind::Max, TileKind::Zero, TileKind::Random}) {
        CampaignDesc d;
        d.tmxm = true;
        d.module = site;
        d.kind = kind;
        grid.push_back(d);
      }
  }
  return grid;
}

}  // namespace

syndrome::Database build_syndrome_database(
    const RtlCharacterizationConfig& cfg) {
  const std::vector<CampaignDesc> grid =
      characterization_grid(cfg.fault_models);
  obs::Span span("core.build_syndrome_database");
  span.set("campaigns", static_cast<std::uint64_t>(grid.size()));
  obs::count("gpufi_core_db_builds_total");

  // Characterize in parallel across the grid (the inner trial loops run
  // serial: one campaign is small, the grid is the wide axis). Each
  // campaign's seed is derived from its grid index, never from a running
  // counter, so completion order cannot change any result.
  std::vector<rtlfi::CampaignResult> results(grid.size());
  exec::run_indexed(grid.size(), cfg.jobs, cfg.progress, [&](std::size_t i) {
    const CampaignDesc& d = grid[i];
    if (d.tmxm) {
      const auto w = rtlfi::make_tmxm(d.kind, static_cast<unsigned>(d.kind) + 1);
      rtlfi::CampaignConfig cc;
      cc.module = d.module;
      cc.n_faults = cfg.tmxm_faults;
      cc.seed = rng_derive(cfg.seed, i, 0);
      cc.jobs = 1;
      results[i] = rtlfi::run_campaign(w, cc);
      return;
    }
    const auto r = static_cast<unsigned>(d.range);
    rtlfi::CampaignResult merged;
    for (std::size_t v = 0; v < cfg.value_seeds; ++v) {
      const auto w = rtlfi::make_microbenchmark(d.op, d.range, 100 * r + v);
      rtlfi::CampaignConfig cc;
      cc.module = d.module;
      cc.n_faults = cfg.faults_per_campaign / cfg.value_seeds +
                    (v < cfg.faults_per_campaign % cfg.value_seeds);
      cc.seed = rng_derive(cfg.seed, i, v + 1);
      cc.jobs = 1;
      cc.fault_model = d.model;  // permanent window (duration 0 default)
      merged.merge(rtlfi::run_campaign(w, cc));
    }
    results[i] = std::move(merged);
  });

  // Ingest in grid order: the database contents (and serialized bytes) are
  // independent of how the campaigns were scheduled.
  syndrome::Database db;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const CampaignDesc& d = grid[i];
    if (d.tmxm)
      db.add_tmxm_campaign(d.module, 8, 8, results[i]);
    else
      db.add_campaign(syndrome::Key{d.module, d.op, d.range, d.model},
                      results[i]);
  }
  db.finalize();
  return db;
}

syndrome::Database ensure_syndrome_database(
    const std::string& path, const RtlCharacterizationConfig& cfg) {
  if (std::filesystem::exists(path)) {
    obs::count("gpufi_core_db_loads_total");
    return syndrome::Database::load_file(path);
  }
  syndrome::Database db = build_syndrome_database(cfg);
  const auto dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  // Write-then-rename so a concurrent builder (e.g. two serve workers racing
  // on a cold cache) can never expose a torn half-written database file.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  db.save_file(tmp);
  std::filesystem::rename(tmp, path);
  return db;
}

Models ensure_models(const std::string& dir, unsigned lenet_steps,
                     unsigned yolo_steps) {
  std::filesystem::create_directories(dir);
  const auto lenet_path = dir + "/lenet.gfnn";
  const auto yolo_path = dir + "/yololite.gfnn";
  Models m;
  if (std::filesystem::exists(lenet_path) &&
      std::filesystem::exists(yolo_path)) {
    m.lenet = nn::Network::load_file(lenet_path);
    m.yololite = nn::Network::load_file(yolo_path);
    return m;
  }
  Rng rng(42);
  m.lenet = nn::make_lenet(rng);
  (void)nn::train_lenet(m.lenet, rng, lenet_steps);
  m.yololite = nn::make_yololite(rng);
  (void)nn::train_yololite(m.yololite, rng, yolo_steps);
  m.lenet.save_file(lenet_path);
  m.yololite.save_file(yolo_path);
  return m;
}

}  // namespace gpufi::core
