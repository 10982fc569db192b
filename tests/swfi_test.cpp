#include <gtest/gtest.h>

#include <bit>

#include "apps/apps.hpp"
#include "swfi/swfi.hpp"

namespace gpufi::swfi {
namespace {

TEST(ProfileHook, CandidateSetMatchesPolicy) {
  // Value-producing characterized instructions only.
  EXPECT_TRUE(ProfileHook::is_candidate(isa::Opcode::FADD));
  EXPECT_TRUE(ProfileHook::is_candidate(isa::Opcode::GLD));
  EXPECT_TRUE(ProfileHook::is_candidate(isa::Opcode::ISETP));
  EXPECT_FALSE(ProfileHook::is_candidate(isa::Opcode::BRA));
  EXPECT_FALSE(ProfileHook::is_candidate(isa::Opcode::GST));
  EXPECT_FALSE(ProfileHook::is_candidate(isa::Opcode::MOV));
  EXPECT_FALSE(ProfileHook::is_candidate(isa::Opcode::SHL));
}

TEST(InjectHook, SingleBitFlipFlipsExactlyOneBit) {
  InjectHook h(FaultModel::SingleBitFlip, 0, 1, nullptr, true);
  emu::RetireInfo info;
  isa::Instr instr{.op = isa::Opcode::FADD};
  info.instr = &instr;
  std::uint32_t v = 0x12345678;
  h.on_retire(info, v);
  EXPECT_TRUE(h.fired());
  EXPECT_EQ(std::popcount(v ^ 0x12345678u), 1);
  // Only one shot per run.
  std::uint32_t w = 0;
  h.on_retire(info, w);
  EXPECT_EQ(w, 0u);
}

TEST(InjectHook, DoubleBitFlipFlipsTwoBits) {
  InjectHook h(FaultModel::DoubleBitFlip, 0, 7, nullptr, true);
  emu::RetireInfo info;
  isa::Instr instr{.op = isa::Opcode::IMUL};
  info.instr = &instr;
  std::uint32_t v = 0;
  h.on_retire(info, v);
  EXPECT_EQ(std::popcount(v), 2);
}

TEST(InjectHook, TargetsTheNthCandidate) {
  InjectHook h(FaultModel::SingleBitFlip, 2, 1, nullptr, true);
  emu::RetireInfo info;
  isa::Instr instr{.op = isa::Opcode::IADD};
  info.instr = &instr;
  std::uint32_t v = 0;
  h.on_retire(info, v);
  EXPECT_EQ(v, 0u);  // candidate 0 skipped
  h.on_retire(info, v);
  EXPECT_EQ(v, 0u);  // candidate 1 skipped
  h.on_retire(info, v);
  EXPECT_NE(v, 0u);  // candidate 2 corrupted
  EXPECT_EQ(h.hit_opcode(), isa::Opcode::IADD);
}

TEST(InjectHook, NonCandidatesDoNotConsumeTheBudget) {
  InjectHook h(FaultModel::SingleBitFlip, 0, 1, nullptr, true);
  emu::RetireInfo info;
  isa::Instr mov{.op = isa::Opcode::MOV};
  info.instr = &mov;
  std::uint32_t v = 5;
  h.on_retire(info, v);
  EXPECT_EQ(v, 5u);  // MOV untouched and not counted
  isa::Instr add{.op = isa::Opcode::FADD};
  info.instr = &add;
  h.on_retire(info, v);
  EXPECT_NE(v, 5u);
}

TEST(InjectHook, PredicateInjectionInverts) {
  InjectHook h(FaultModel::RelativeError, 0, 1, nullptr, true);
  emu::RetireInfo info;
  isa::Instr setp{.op = isa::Opcode::ISETP};
  info.instr = &setp;
  bool p = true;
  h.on_pred_retire(info, p);
  EXPECT_FALSE(p);
}

TEST(InjectHook, RelativeErrorScalesFloats) {
  // Without a database the hook applies a relative error of 1.0 (value
  // doubles or zeroes); verify the multiplicative structure.
  for (std::uint64_t seed = 1; seed < 10; ++seed) {
    InjectHook h(FaultModel::RelativeError, 0, seed, nullptr, true);
    emu::RetireInfo info;
    isa::Instr f{.op = isa::Opcode::FMUL};
    info.instr = &f;
    info.a = std::bit_cast<std::uint32_t>(2.0f);
    info.b = std::bit_cast<std::uint32_t>(3.0f);
    std::uint32_t v = std::bit_cast<std::uint32_t>(6.0f);
    h.on_retire(info, v);
    const float out = std::bit_cast<float>(v);
    EXPECT_TRUE(out == 12.0f || out == 0.0f) << out;
    EXPECT_NEAR(h.applied_rel_error(), 1.0, 1e-12);
  }
}

TEST(InjectHook, RelativeErrorOnIntegersRounds) {
  InjectHook h(FaultModel::RelativeError, 0, 3, nullptr, false);
  emu::RetireInfo info;
  isa::Instr f{.op = isa::Opcode::IADD};
  info.instr = &f;
  info.a = 50;
  info.b = 50;
  std::uint32_t v = 100;
  h.on_retire(info, v);
  const auto out = static_cast<std::int32_t>(v);
  EXPECT_TRUE(out == 200 || out == 0) << out;
}

TEST(Campaign, MxMPvfIsVeryHigh) {
  // Table III: MxM PVF = 1.0 (essentially every reached fault shows).
  auto h = apps::make_mxm(16);
  Config cfg;
  cfg.model = FaultModel::SingleBitFlip;
  cfg.n_injections = 120;
  cfg.seed = 11;
  const auto r = run_sw_campaign(h.app, cfg);
  EXPECT_EQ(r.injections, 120u);
  EXPECT_GT(r.pvf(), 0.6);
}

TEST(Campaign, DeterministicForSeed) {
  auto h = apps::make_quicksort(256);
  Config cfg;
  cfg.model = FaultModel::SingleBitFlip;
  cfg.n_injections = 60;
  cfg.seed = 12;
  const auto a = run_sw_campaign(h.app, cfg);
  const auto b = run_sw_campaign(h.app, cfg);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.due, b.due);
}

TEST(Campaign, CountsConsistent) {
  auto h = apps::make_lava(1, 32);
  Config cfg;
  cfg.model = FaultModel::DoubleBitFlip;
  cfg.n_injections = 80;
  cfg.seed = 13;
  const auto r = run_sw_campaign(h.app, cfg);
  EXPECT_EQ(r.masked + r.sdc + r.due, r.injections);
  EXPECT_GT(r.candidate_instructions, 0u);
}

TEST(Campaign, MarginOfErrorReported) {
  auto h = apps::make_lava(1, 32);
  Config cfg;
  cfg.n_injections = 100;
  const auto r = run_sw_campaign(h.app, cfg);
  EXPECT_GT(r.margin_of_error(), 0.0);
  EXPECT_LT(r.margin_of_error(), 0.15);
}

}  // namespace
}  // namespace gpufi::swfi

namespace gpufi::swfi {
namespace {

TEST(InjectHook, WarpModelCorruptsWholeWarpOnce) {
  InjectHook h(FaultModel::WarpRelativeError, 0, 1, nullptr, true);
  isa::Instr f{.op = isa::Opcode::FADD};
  // One warp instruction retiring 32 lanes.
  for (unsigned lane = 0; lane < 32; ++lane) {
    emu::RetireInfo info;
    info.instr = &f;
    info.pc = 7;
    info.thread = emu::ThreadId{0, 0, lane, lane};
    std::uint32_t v = std::bit_cast<std::uint32_t>(2.0f);
    h.on_retire(info, v);
    EXPECT_NE(std::bit_cast<float>(v), 2.0f) << lane;
  }
  EXPECT_EQ(h.corrupted_threads(), 32u);
  // A different instruction from the same warp disarms the fault...
  isa::Instr g{.op = isa::Opcode::IADD};
  emu::RetireInfo other;
  other.instr = &g;
  other.pc = 8;
  other.thread = emu::ThreadId{0, 0, 0, 0};
  std::uint32_t w = 5;
  h.on_retire(other, w);
  EXPECT_EQ(w, 5u);
  // ...so re-executing the original PC (a loop) is NOT corrupted again.
  emu::RetireInfo again;
  again.instr = &f;
  again.pc = 7;
  again.thread = emu::ThreadId{0, 0, 0, 0};
  std::uint32_t v2 = std::bit_cast<std::uint32_t>(2.0f);
  h.on_retire(again, v2);
  EXPECT_EQ(std::bit_cast<float>(v2), 2.0f);
  EXPECT_EQ(h.corrupted_threads(), 32u);
}

TEST(InjectHook, WarpModelStopsAtOtherWarp) {
  InjectHook h(FaultModel::WarpRelativeError, 0, 2, nullptr, true);
  isa::Instr f{.op = isa::Opcode::FMUL};
  emu::RetireInfo a;
  a.instr = &f;
  a.pc = 3;
  a.thread = emu::ThreadId{0, 0, 0, 0};
  std::uint32_t v = std::bit_cast<std::uint32_t>(1.0f);
  h.on_retire(a, v);
  EXPECT_NE(std::bit_cast<float>(v), 1.0f);
  emu::RetireInfo b = a;
  b.thread.warp = 1;  // same PC, different warp: untouched
  std::uint32_t u = std::bit_cast<std::uint32_t>(1.0f);
  h.on_retire(b, u);
  EXPECT_EQ(std::bit_cast<float>(u), 1.0f);
}

TEST(InjectHook, StickyModelRefiresOnSamePcOnly) {
  // A stuck-at flip-flop keeps corrupting the same static instruction:
  // every later retirement of the hit pc fires again — any thread, any
  // warp, including loop re-executions — while other pcs stay clean.
  InjectHook h(FaultModel::StickyRelativeError, 0, 1, nullptr, true);
  isa::Instr f{.op = isa::Opcode::FADD};
  emu::RetireInfo first;
  first.instr = &f;
  first.pc = 7;
  first.thread = emu::ThreadId{0, 0, 0, 0};
  std::uint32_t v = std::bit_cast<std::uint32_t>(2.0f);
  h.on_retire(first, v);
  EXPECT_TRUE(h.fired());
  EXPECT_NE(std::bit_cast<float>(v), 2.0f);

  // Same pc, a different warp: still corrupted.
  emu::RetireInfo other_warp = first;
  other_warp.thread = emu::ThreadId{0, 1, 0, 32};
  std::uint32_t w = std::bit_cast<std::uint32_t>(2.0f);
  h.on_retire(other_warp, w);
  EXPECT_NE(std::bit_cast<float>(w), 2.0f);

  // A different pc: untouched, and it does NOT disarm the fault.
  isa::Instr g{.op = isa::Opcode::IADD};
  emu::RetireInfo elsewhere;
  elsewhere.instr = &g;
  elsewhere.pc = 8;
  elsewhere.thread = emu::ThreadId{0, 0, 0, 0};
  std::uint32_t u = 5;
  h.on_retire(elsewhere, u);
  EXPECT_EQ(u, 5u);

  // Loop re-execution of the hit pc: corrupted again (unlike the warp
  // model, which has transient semantics).
  emu::RetireInfo again = first;
  std::uint32_t v2 = std::bit_cast<std::uint32_t>(2.0f);
  h.on_retire(again, v2);
  EXPECT_NE(std::bit_cast<float>(v2), 2.0f);
  EXPECT_EQ(h.corrupted_threads(), 3u);
}

TEST(InjectHook, StickyModelHitCapBoundsCorruption) {
  InjectHook h(FaultModel::StickyRelativeError, 0, 4, nullptr, true);
  isa::Instr f{.op = isa::Opcode::FMUL};
  emu::RetireInfo info;
  info.instr = &f;
  info.pc = 3;
  info.thread = emu::ThreadId{0, 0, 0, 0};
  for (unsigned i = 0; i < InjectHook::kStickyMaxHits + 50; ++i) {
    std::uint32_t v = std::bit_cast<std::uint32_t>(1.0f);
    h.on_retire(info, v);
  }
  EXPECT_EQ(h.corrupted_threads(), InjectHook::kStickyMaxHits);
}

TEST(InjectHook, StickyModelRefiresOnItsInstructionNotItsPc) {
  // Two kernels of one app both have a pc 5: a stuck fault at pc 5 of one
  // kernel keeps corrupting that instruction only. The fast-path query
  // agrees: once fired, the hook is done everywhere but at its instruction.
  InjectHook h(FaultModel::StickyRelativeError, 0, 1, nullptr, true);
  const isa::Instr hit{.op = isa::Opcode::FADD};
  const isa::Instr other{.op = isa::Opcode::FADD};
  EXPECT_FALSE(h.done(&other));
  emu::RetireInfo first;
  first.instr = &hit;
  first.pc = 5;
  first.thread = emu::ThreadId{0, 0, 0, 0};
  std::uint32_t v = std::bit_cast<std::uint32_t>(2.0f);
  h.on_retire(first, v);
  ASSERT_TRUE(h.fired());
  EXPECT_NE(std::bit_cast<float>(v), 2.0f);
  EXPECT_FALSE(h.done(&hit));
  EXPECT_TRUE(h.done(&other));
  EXPECT_FALSE(h.done(nullptr));

  emu::RetireInfo other_kernel = first;
  other_kernel.instr = &other;
  std::uint32_t u = std::bit_cast<std::uint32_t>(2.0f);
  h.on_retire(other_kernel, u);
  EXPECT_EQ(std::bit_cast<float>(u), 2.0f);
  EXPECT_EQ(h.corrupted_threads(), 1u);

  // The hit instruction re-fires until the cap, and then nothing is left.
  while (h.corrupted_threads() < InjectHook::kStickyMaxHits) {
    std::uint32_t w = std::bit_cast<std::uint32_t>(2.0f);
    h.on_retire(first, w);
    ASSERT_NE(std::bit_cast<float>(w), 2.0f);
  }
  EXPECT_TRUE(h.done(&hit));
  EXPECT_TRUE(h.done(nullptr));
}

TEST(InjectHook, WarpModelStopsAtAnotherKernelsPc) {
  InjectHook h(FaultModel::WarpRelativeError, 0, 2, nullptr, true);
  const isa::Instr hit{.op = isa::Opcode::FMUL};
  const isa::Instr other{.op = isa::Opcode::FMUL};
  emu::RetireInfo a;
  a.instr = &hit;
  a.pc = 3;
  a.thread = emu::ThreadId{0, 0, 0, 0};
  std::uint32_t v = std::bit_cast<std::uint32_t>(1.0f);
  h.on_retire(a, v);
  ASSERT_TRUE(h.fired());
  emu::RetireInfo b = a;
  b.instr = &other;  // same pc, cta and warp, another kernel: untouched
  b.thread.lane = 1;
  std::uint32_t u = std::bit_cast<std::uint32_t>(1.0f);
  h.on_retire(b, u);
  EXPECT_EQ(std::bit_cast<float>(u), 1.0f);
  EXPECT_TRUE(h.done(nullptr));  // and the fault is disarmed
}

TEST(Campaign, StickyModelIsDeterministicAcrossJobs) {
  auto h = apps::make_mxm(16);
  Config cfg;
  cfg.model = FaultModel::StickyRelativeError;
  cfg.n_injections = 60;
  cfg.seed = 31;
  cfg.jobs = 1;
  const auto a = run_sw_campaign(h.app, cfg);
  cfg.jobs = 4;
  const auto b = run_sw_campaign(h.app, cfg);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.due, b.due);
}

TEST(Campaign, StickyModelPvfAtLeastSingleShot) {
  // Re-corrupting every re-execution of the hit pc can only widen the
  // blast radius relative to a one-shot relative error on the same sites.
  auto h = apps::make_mxm(16);
  Config single;
  single.model = FaultModel::RelativeError;
  single.n_injections = 80;
  single.seed = 33;
  const auto rs = run_sw_campaign(h.app, single);
  Config sticky = single;
  sticky.model = FaultModel::StickyRelativeError;
  const auto rt = run_sw_campaign(h.app, sticky);
  EXPECT_GE(rt.pvf() + 0.05, rs.pvf());
}

TEST(Campaign, WarpModelPvfAtLeastSingleThread) {
  auto h = apps::make_mxm(16);
  swfi::Config single;
  single.model = FaultModel::RelativeError;
  single.n_injections = 80;
  single.seed = 21;
  const auto rs = run_sw_campaign(h.app, single);
  swfi::Config warp = single;
  warp.model = FaultModel::WarpRelativeError;
  const auto rw = run_sw_campaign(h.app, warp);
  EXPECT_GE(rw.pvf() + 0.05, rs.pvf());
}

}  // namespace
}  // namespace gpufi::swfi
