#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "core/gpufi.hpp"
#include "emu/device.hpp"
#include "isa/isa.hpp"
#include "obs/metrics.hpp"

namespace gpufi::core {
namespace {

namespace fs = std::filesystem;

/// Temp directory fixture: one directory per test and process, so test
/// binaries running in parallel (ctest -j) never delete each other's files.
class CoreFacade : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("gpufi_core_test_" + std::string(info->name()) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

RtlCharacterizationConfig tiny_cfg() {
  RtlCharacterizationConfig cfg;
  cfg.faults_per_campaign = 40;  // smoke scale: coverage, not statistics
  cfg.value_seeds = 1;
  cfg.tmxm_faults = 80;
  return cfg;
}

TEST_F(CoreFacade, BuildDatabaseCoversTheFullGrid) {
  const auto db = build_syndrome_database(tiny_cfg());
  // Scheduler and pipeline are characterized for all 12 instructions and 3
  // ranges, the FUs only where exercised, the SFU controller for FSIN/FEXP:
  // FP 3*3*3 + INT 3*3*3 + SFU 2*3*4 + mem/ctl 4*3*2 = 102 keys (some may
  // hold zero samples at this scale, but the keys exist).
  EXPECT_EQ(db.keys().size(), 102u);
  EXPECT_GT(db.tmxm(rtl::Module::Scheduler).total() +
                db.tmxm(rtl::Module::PipelineRegs).total(),
            0u);
}

TEST_F(CoreFacade, BuildDatabaseRunsEveryRequestedFault) {
  // faults_per_campaign is a micro campaign's total over its value seeds:
  // 10 faults over 4 seeds run 3 + 3 + 2 + 2, not 4 x (10 / 4).
  if (!obs::kCompiledIn) GTEST_SKIP() << "counts trials through obs";
  auto cfg = tiny_cfg();
  cfg.faults_per_campaign = 10;
  cfg.value_seeds = 4;
  cfg.tmxm_faults = 4;
  obs::set_enabled(true);
  const auto& reg = obs::Registry::global();
  const auto before = reg.counter_value("gpufi_exec_trials_total");
  build_syndrome_database(cfg);
  // 102 micro campaigns plus 2 sites x 3 tile kinds of t-MxM campaigns.
  EXPECT_EQ(reg.counter_value("gpufi_exec_trials_total") - before,
            102u * 10 + 6u * 4);
}

TEST_F(CoreFacade, BuildDatabaseMultiModelGridAppendsModelBlocks) {
  // Extra fault models append 102-key micro blocks after the transient
  // block (t-MxM campaigns are characterized transiently only), and the
  // transient block keeps its grid indices — hence its derived seeds, hence
  // its distributions — bit for bit.
  auto cfg = tiny_cfg();
  const auto transient_only = build_syndrome_database(cfg);
  cfg.fault_models = {rtl::FaultModel::Transient, rtl::FaultModel::StuckAt1};
  const auto both = build_syndrome_database(cfg);
  EXPECT_EQ(both.keys().size(), 204u);
  std::size_t stuck_keys = 0;
  for (const auto& k : both.keys())
    if (k.model == rtl::FaultModel::StuckAt1) ++stuck_keys;
  EXPECT_EQ(stuck_keys, 102u);
  const syndrome::Key probe{rtl::Module::Fp32Fu, isa::Opcode::FADD,
                            rtlfi::InputRange::Medium};
  ASSERT_NE(both.find(probe), nullptr);
  ASSERT_NE(transient_only.find(probe), nullptr);
  EXPECT_EQ(both.find(probe)->count(), transient_only.find(probe)->count());
  if (both.find(probe)->count() > 0) {
    EXPECT_EQ(both.find(probe)->median(), transient_only.find(probe)->median());
  }

  // The model list is a set: a repeated model runs once and the listed
  // order changes no byte of the saved database.
  const auto saved = [](const syndrome::Database& db) {
    std::ostringstream os;
    db.save(os);
    return os.str();
  };
  cfg.fault_models = {rtl::FaultModel::Transient, rtl::FaultModel::Transient};
  EXPECT_EQ(saved(build_syndrome_database(cfg)), saved(transient_only));
  cfg.fault_models = {rtl::FaultModel::StuckAt1, rtl::FaultModel::Transient};
  EXPECT_EQ(saved(build_syndrome_database(cfg)), saved(both));
}

TEST_F(CoreFacade, EnsureDatabaseCaches) {
  const auto path = (dir_ / "db.txt").string();
  const auto db1 = ensure_syndrome_database(path, tiny_cfg());
  ASSERT_TRUE(fs::exists(path));
  const auto t1 = fs::last_write_time(path);
  const auto db2 = ensure_syndrome_database(path, tiny_cfg());
  EXPECT_EQ(fs::last_write_time(path), t1);  // loaded, not rebuilt
  EXPECT_EQ(db1.keys().size(), db2.keys().size());
}

TEST_F(CoreFacade, EnsureModelsTrainsOnceAndReloads) {
  const auto models = ensure_models(dir_.string(), /*lenet_steps=*/300,
                                    /*yolo_steps=*/200);
  EXPECT_TRUE(fs::exists(dir_ / "lenet.gfnn"));
  EXPECT_TRUE(fs::exists(dir_ / "yololite.gfnn"));
  EXPECT_GT(models.lenet.total_params(), 0u);
  const auto reloaded = ensure_models(dir_.string());
  EXPECT_EQ(reloaded.lenet.total_params(), models.lenet.total_params());
  EXPECT_EQ(reloaded.yololite.convs.size(), models.yololite.convs.size());
  // The reload reads back the weights the training run saved.
  EXPECT_EQ(reloaded.lenet.fcs[0].weights, models.lenet.fcs[0].weights);
}

TEST(EmuExtras, OobWrapModeWrapsInsteadOfTrapping) {
  using namespace isa;
  emu::Device dev(64);
  dev.write_word(4, 0xABCD);
  KernelBuilder kb("wrap");
  kb.movi(0, 64 + 4);  // one full wrap beyond word 4
  kb.gld(1, R(0));
  kb.movi(2, 0);
  kb.gst(R(2), R(1));
  const Program p = kb.build();
  emu::LaunchConfig cfg;
  cfg.oob_wraps = true;
  const auto r = dev.launch(p, emu::LaunchDims{1, 1, 1, 1}, cfg);
  ASSERT_EQ(r.status, emu::LaunchStatus::Ok);
  EXPECT_EQ(dev.read_word(0), 0xABCDu);
  // Without the flag the same program traps.
  emu::Device strict(64);
  strict.write_word(4, 0xABCD);
  EXPECT_EQ(strict.launch(p, emu::LaunchDims{1, 1, 1, 1}).status,
            emu::LaunchStatus::Trap);
}

TEST(EmuExtras, ParamOperandsResolve) {
  using namespace isa;
  emu::Device dev(64);
  KernelBuilder kb("params");
  kb.mov(0, S(SReg::PARAM2));
  kb.mov(1, S(SReg::PARAM7));
  kb.iadd(2, R(0), R(1));
  kb.movi(3, 0);
  kb.gst(R(3), R(2));
  Program p = kb.build();
  p.params = {0, 0, 40, 0, 0, 0, 0, 2};
  ASSERT_EQ(dev.launch(p, emu::LaunchDims{1, 1, 1, 1}).status,
            emu::LaunchStatus::Ok);
  EXPECT_EQ(dev.read_word(0), 42u);
}

TEST(IsaExtras, DisassemblyOfEveryFormat) {
  using namespace isa;
  Instr param_mov{.op = Opcode::MOV, .dst = 1,
                  .a = Operand::special(SReg::PARAM3)};
  EXPECT_NE(param_mov.to_string().find("param[3]"), std::string::npos);
  Instr lds{.op = Opcode::LDS, .dst = 2, .a = R(1), .imm = -4};
  EXPECT_NE(lds.to_string().find("[R1-4]"), std::string::npos);
  Instr sts{.op = Opcode::STS, .a = R(1), .b = R(2), .imm = 64};
  EXPECT_NE(sts.to_string().find("[R1+64]"), std::string::npos);
  Instr frcp{.op = Opcode::FRCP, .dst = 3, .a = R(4)};
  EXPECT_NE(frcp.to_string().find("FRCP"), std::string::npos);
  EXPECT_EQ(Instr{.op = Opcode::BAR}.to_string(), "BAR");
}

}  // namespace
}  // namespace gpufi::core
