#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "emu/device.hpp"
#include "isa/isa.hpp"
#include "rtl/layouts.hpp"
#include "rtl/sm.hpp"

namespace gpufi::rtl {
namespace {

using namespace gpufi::isa;

// ------------------------------------------------------------ layout checks

TEST(Layouts, SchedulerSizeMatchesTableI) {
  EXPECT_EQ(layouts().scheduler.layout.bits(), 3358u);
}

TEST(Layouts, IntFuSizeMatchesTableI) {
  EXPECT_EQ(layouts().int_fu.layout.bits(), 1542u);
}

TEST(Layouts, ModuleSizesAreInPaperBallpark) {
  // The remaining modules land close to (within ~12% of) Table I; exact
  // values are asserted so any layout change is a conscious decision.
  const auto& l = layouts();
  EXPECT_NEAR(static_cast<double>(l.fp32_fu.layout.bits()), 4451.0,
              4451.0 * 0.12);
  EXPECT_NEAR(static_cast<double>(l.sfu.layout.bits()), 3231.0,
              3231.0 * 0.12);
  EXPECT_NEAR(static_cast<double>(l.sfu_ctl.layout.bits()), 190.0,
              190.0 * 0.12);
  EXPECT_NEAR(static_cast<double>(l.pipeline.layout.bits()), 10949.0,
              10949.0 * 0.12);
}

TEST(Layouts, Fp32LargerThanIntByAboutThreeTimes) {
  // The paper attributes the lower FP AVF to the ~3x larger FP unit.
  const double ratio =
      static_cast<double>(layouts().fp32_fu.layout.bits()) /
      static_cast<double>(layouts().int_fu.layout.bits());
  EXPECT_GT(ratio, 2.4);
  EXPECT_LT(ratio, 3.6);
}

TEST(Layouts, PipelineDataControlSplit) {
  // Sec. V-B: ~84% of pipeline registers store operands, ~16% control.
  const auto& p = layouts().pipeline.layout;
  const double data_share =
      static_cast<double>(p.data_bits()) / static_cast<double>(p.bits());
  EXPECT_GT(data_share, 0.80);
  EXPECT_LT(data_share, 0.95);
  EXPECT_GT(p.control_bits(), 500u);
}

TEST(Layouts, FieldLookupCoversEveryBit) {
  for (auto m : {Module::Fp32Fu, Module::IntFu, Module::Sfu, Module::SfuCtl,
                 Module::Scheduler, Module::PipelineRegs}) {
    const auto& l = layouts().of(m);
    std::size_t covered = 0;
    for (const auto& f : l.fields()) covered += f.width;
    EXPECT_EQ(covered, l.bits()) << module_name(m);
    // Spot-check the bit->field mapping at the boundaries.
    EXPECT_EQ(l.field_at(0).offset, 0u);
    const auto& last = l.field_at(l.bits() - 1);
    EXPECT_EQ(last.offset + last.width, l.bits());
  }
}

TEST(Layouts, FieldNamesAreUnique) {
  for (auto m : {Module::Fp32Fu, Module::IntFu, Module::Sfu, Module::SfuCtl,
                 Module::Scheduler, Module::PipelineRegs}) {
    const auto& l = layouts().of(m);
    std::set<std::string> names;
    for (const auto& f : l.fields()) names.insert(f.name);
    EXPECT_EQ(names.size(), l.fields().size()) << module_name(m);
  }
}

// ------------------------------------- word-per-field bank vs packed image

/// A bank's digest recomputed from a packed image: the XOR of
/// state_digest_mix over every field's (offset, value) pair.
std::uint64_t packed_digest(const StateLayout& l, const BitVector& bits,
                            std::uint64_t salt) {
  std::uint64_t d = 0;
  for (const auto& f : l.fields())
    d ^= state_digest_mix(salt, f.offset, bits.get_field(f.offset, f.width));
  return d;
}

/// Every observable of a live bank against the packed reference: each
/// field read, the packed image, and (while tracking) the digest.
::testing::AssertionResult bank_matches(const ModuleState& bank,
                                        const BitVector& ref,
                                        std::uint64_t salt) {
  const auto& l = bank.layout();
  for (const auto& f : l.fields()) {
    const std::uint64_t got = bank.get(l.locate(f.offset).field);
    const std::uint64_t want = ref.get_field(f.offset, f.width);
    if (got != want)
      return ::testing::AssertionFailure()
             << "field " << f.name << " reads " << got << ", packed " << want;
  }
  if (!(bank.bits() == ref))
    return ::testing::AssertionFailure() << "packed image differs";
  if (bank.tracking() && bank.digest() != packed_digest(l, ref, salt))
    return ::testing::AssertionFailure() << "digest is not the state's";
  return ::testing::AssertionSuccess();
}

TEST(ModuleStateTest, WordPerFieldStorageMatchesPackedReference) {
  for (auto m : {Module::Fp32Fu, Module::IntFu, Module::Sfu, Module::SfuCtl,
                 Module::Scheduler, Module::PipelineRegs}) {
    SCOPED_TRACE(std::string(module_name(m)));
    const auto& l = layouts().of(m);
    const std::uint64_t salt =
        digest_salt(kSaltDomainModule0 + static_cast<unsigned>(m));
    ModuleState bank(l);
    BitVector ref(l.bits());
    bank.set_tracking(true, salt);
    Rng rng(0xb17 + static_cast<unsigned>(m));

    // A value with bits set above the field (all 64 bits for a 64-bit
    // field), or a small negative number written sign-extended.
    auto wide = [&](const FieldInfo& f) {
      std::uint64_t v = rng();
      if (f.width < 64) v |= std::uint64_t{1} << f.width;
      if (rng.chance(0.3))
        v = static_cast<std::uint64_t>(
            -static_cast<std::int64_t>(1 + rng.below(300)));
      return v;
    };
    auto set = [&](const FieldInfo& f, std::uint64_t v) {
      bank.set(l.locate(f.offset).field, v);
      ref.set_field(f.offset, f.width, v);
    };

    // Every field written wider than it is, then its first and last bit
    // flipped and forced both ways.
    for (const auto& f : l.fields()) {
      set(f, wide(f));
      ASSERT_TRUE(bank_matches(bank, ref, salt)) << "set " << f.name;
      for (const std::size_t bit : {std::size_t{f.offset},
                                    std::size_t{f.offset} + f.width - 1}) {
        bank.flip(bit);
        ref.flip(bit);
        ASSERT_TRUE(bank_matches(bank, ref, salt)) << "flip " << bit;
        for (const bool v : {true, false, false, true}) {
          bank.force(l.locate(bit), v);
          ref.set(bit, v);
          ASSERT_TRUE(bank_matches(bank, ref, salt)) << "force " << bit;
        }
      }
    }

    // A seeded mix of every operation, with resets and tracking switched
    // off and back on (which recomputes the digest from the state).
    for (int step = 0; step < 3000; ++step) {
      const auto& f = l.fields()[rng.below(l.fields().size())];
      const std::size_t bit = rng.below(l.bits());
      switch (rng.below(16)) {
        case 0:
          bank.reset();
          ref.clear();
          break;
        case 1:
          bank.set_tracking(!bank.tracking(), salt);
          break;
        case 2:
        case 3:
        case 4:
          set(f, rng() & (~std::uint64_t{0} >> (64 - f.width)));
          break;
        case 5:
        case 6:
        case 7:
        case 8:
          set(f, wide(f));
          break;
        case 9:
        case 10:
        case 11:
          bank.flip(bit);
          ref.flip(bit);
          break;
        default: {
          const bool v = rng.chance(0.5);
          bank.force(l.locate(bit), v);
          ref.set(bit, v);
          break;
        }
      }
      ASSERT_TRUE(bank_matches(bank, ref, salt)) << "step " << step;
    }
  }
}

// ------------------------------------------------- golden-run functionality

/// Builds kernels used by both engines and asserts bit-identical global
/// memory afterwards — the cross-level agreement the methodology rests on.
void expect_cross_level_match(const Program& p, unsigned block,
                              unsigned grid, std::size_t words,
                              unsigned block_y = 1) {
  emu::Device dev(words);
  Sm sm(words);
  const emu::LaunchDims edims{grid, 1, block, block_y};
  const GridDims rdims{grid, 1, block, block_y};
  const auto er = dev.launch(p, edims);
  ASSERT_EQ(er.status, emu::LaunchStatus::Ok) << er.trap_reason;
  const auto rr = sm.run(p, rdims);
  ASSERT_EQ(rr.status, RunStatus::Ok) << rr.trap_reason;
  EXPECT_GT(rr.cycles, 0u);
  for (std::uint32_t a = 0; a < words; ++a)
    ASSERT_EQ(sm.read_word(a), dev.read_word(a)) << "addr " << a;
}

Program store_tid_kernel() {
  KernelBuilder kb("store_tid");
  kb.mov(0, S(SReg::TID_X));
  kb.gst(R(0), R(0));
  return kb.build();
}

TEST(SmGolden, StoreTidSingleWarp) {
  expect_cross_level_match(store_tid_kernel(), 32, 1, 64);
}

TEST(SmGolden, StoreTidTwoWarps) {
  expect_cross_level_match(store_tid_kernel(), 64, 1, 128);
}

TEST(SmGolden, PartialWarp) {
  expect_cross_level_match(store_tid_kernel(), 23, 1, 64);
}

TEST(SmGolden, FpPipeline) {
  KernelBuilder kb("fp");
  kb.mov(0, S(SReg::TID_X));
  kb.i2f(1, R(0));
  kb.fmul(2, R(1), F(0.37f));
  kb.fadd(3, R(2), F(-1.25f));
  kb.ffma(4, R(3), R(1), R(2));
  kb.gst(R(0), R(4));
  expect_cross_level_match(kb.build(), 64, 1, 128);
}

TEST(SmGolden, IntPipeline) {
  KernelBuilder kb("int");
  kb.mov(0, S(SReg::TID_X));
  kb.imul(1, R(0), I(2654435761));
  kb.imad(2, R(1), I(97), R(0));
  kb.iadd(3, R(2), I(-7));
  kb.gst(R(0), R(3));
  expect_cross_level_match(kb.build(), 64, 1, 128);
}

TEST(SmGolden, SfuPipeline) {
  KernelBuilder kb("sfu");
  kb.mov(0, S(SReg::TID_X));
  kb.i2f(1, R(0));
  kb.fmul(2, R(1), F(0.0490873852f));  // ~ pi/64: stays in [0, pi/2]
  kb.fsin(3, R(2));
  kb.fexp(4, R(2));
  kb.fadd(5, R(3), R(4));
  kb.gst(R(0), R(5));
  expect_cross_level_match(kb.build(), 64, 1, 128);
}

TEST(SmGolden, DivergentIfElse) {
  KernelBuilder kb("div");
  kb.mov(0, S(SReg::TID_X));
  kb.isetp(0, CmpOp::LT, R(0), I(20));
  kb.if_begin(0);
  kb.movi(1, 111);
  kb.else_begin();
  kb.movi(1, 222);
  kb.if_end();
  kb.gst(R(0), R(1));
  expect_cross_level_match(kb.build(), 64, 1, 128);
}

TEST(SmGolden, DataDependentLoop) {
  KernelBuilder kb("loop");
  kb.mov(0, S(SReg::TID_X));
  kb.and_(0, R(0), I(7));  // trip count = tid & 7
  kb.movi(1, 0);
  kb.movi(2, 0);
  kb.loop_begin();
  kb.isetp(0, CmpOp::LT, R(1), R(0));
  kb.loop_while(0);
  kb.iadd(1, R(1), I(1));
  kb.imad(2, R(2), I(3), R(1));
  kb.loop_end();
  kb.mov(3, S(SReg::TID_X));
  kb.gst(R(3), R(2));
  expect_cross_level_match(kb.build(), 64, 1, 128);
}

TEST(SmGolden, SharedMemoryBarrierReduce) {
  KernelBuilder kb("reduce");
  kb.shared(64);
  kb.mov(0, S(SReg::TID_X));
  kb.imul(1, R(0), R(0));
  kb.sts(R(0), R(1));
  kb.bar();
  kb.isetp(0, CmpOp::EQ, R(0), I(0));
  kb.if_begin(0);
  kb.movi(2, 0);
  kb.movi(3, 0);
  kb.loop_begin();
  kb.isetp(1, CmpOp::LT, R(2), I(64));
  kb.loop_while(1);
  kb.lds(4, R(2));
  kb.iadd(3, R(3), R(4));
  kb.iadd(2, R(2), I(1));
  kb.loop_end();
  kb.movi(5, 0);
  kb.gst(R(5), R(3));
  kb.if_end();
  expect_cross_level_match(kb.build(), 64, 1, 128);
}

TEST(SmGolden, TwoDimensionalBlocks) {
  KernelBuilder kb("2d");
  kb.mov(0, S(SReg::TID_X));
  kb.mov(1, S(SReg::TID_Y));
  kb.imad(2, R(1), S(SReg::NTID_X), R(0));
  kb.imad(3, R(2), I(5), I(3));
  kb.gst(R(2), R(3));
  expect_cross_level_match(kb.build(), 8, 1, 128, 8);
}

TEST(SmGolden, MultiCta) {
  KernelBuilder kb("grid");
  kb.mov(0, S(SReg::TID_X));
  kb.mov(1, S(SReg::CTAID_X));
  kb.imad(2, R(1), S(SReg::NTID_X), R(0));
  kb.gst(R(2), R(2));
  expect_cross_level_match(kb.build(), 32, 3, 128);
}

TEST(SmGolden, GuardedEarlyExit) {
  KernelBuilder kb("exit");
  kb.mov(0, S(SReg::TID_X));
  kb.isetp(0, CmpOp::GE, R(0), I(40));
  kb.if_begin(0);
  kb.exit();
  kb.if_end();
  kb.gst(R(0), I(9));
  expect_cross_level_match(kb.build(), 64, 1, 128);
}

TEST(SmGolden, SelAndConversions) {
  KernelBuilder kb("selconv");
  kb.mov(0, S(SReg::TID_X));
  kb.isetp(1, CmpOp::GT, R(0), I(10));
  kb.sel(1, I(77), I(33), 1);
  kb.i2f(2, R(0));
  kb.fmul(2, R(2), F(1.5f));
  kb.f2i(3, R(2));
  kb.iadd(4, R(1), R(3));
  kb.gst(R(0), R(4));
  expect_cross_level_match(kb.build(), 64, 1, 128);
}

TEST(SmGolden, DeterministicCycleCount) {
  Sm sm(128);
  const Program p = store_tid_kernel();
  const auto r1 = sm.run(p, GridDims{1, 1, 32, 1});
  const auto r2 = sm.run(p, GridDims{1, 1, 32, 1});
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.status, RunStatus::Ok);
}

TEST(SmGolden, WatchdogFiresOnInfiniteLoop) {
  Program p;
  Instr b{.op = Opcode::BRA, .target = 0};
  p.code.push_back(b);
  p.code.push_back(Instr{.op = Opcode::EXIT});
  Sm sm(64);
  const auto r = sm.run(p, GridDims{1, 1, 32, 1}, 5000);
  EXPECT_EQ(r.status, RunStatus::Watchdog);
}

TEST(SmGolden, OutOfBoundsStoreTraps) {
  KernelBuilder kb("oob");
  kb.movi(0, 1 << 24);
  kb.gst(R(0), I(1));
  Sm sm(64);
  const auto r = sm.run(kb.build(), GridDims{1, 1, 32, 1});
  EXPECT_EQ(r.status, RunStatus::Trap);
  EXPECT_NE(r.trap_reason.find("out-of-bounds"), std::string::npos);
}

// ------------------------------------------------------ fault injection

/// Runs the same program golden and with one fault; returns (status, number
/// of differing output words in [0, words)).
std::pair<RunStatus, int> inject_once(const Program& p, unsigned block,
                                      std::size_t words,
                                      const FaultSpec& fault) {
  Sm golden(words);
  const auto gr = golden.run(p, GridDims{1, 1, block, 1});
  EXPECT_EQ(gr.status, RunStatus::Ok);

  Sm faulty(words);
  const auto fr = faulty.run_with_fault(p, GridDims{1, 1, block, 1}, fault,
                                        gr.cycles * 4 + 2048);
  int diffs = 0;
  for (std::uint32_t a = 0; a < words; ++a)
    diffs += faulty.read_word(a) != golden.read_word(a);
  return {fr.status, diffs};
}

Program fp_chain_kernel() {
  KernelBuilder kb("fpchain");
  kb.mov(0, S(SReg::TID_X));
  kb.i2f(1, R(0));
  for (int i = 0; i < 6; ++i) kb.ffma(1, R(1), F(1.0001f), F(0.75f));
  kb.gst(R(0), R(1));
  return kb.build();
}

TEST(SmFault, FaultAfterCompletionIsMasked) {
  const Program p = fp_chain_kernel();
  Sm probe(128);
  const auto cycles = probe.run(p, GridDims{1, 1, 64, 1}).cycles;
  // Inject way past the end: no effect possible.
  const auto [status, diffs] = inject_once(
      p, 64, 128, FaultSpec{Module::Fp32Fu, 10, cycles + 100});
  EXPECT_EQ(status, RunStatus::Ok);
  EXPECT_EQ(diffs, 0);
}

TEST(SmFault, SweepFp32ProducesSdcsAndMasks) {
  const Program p = fp_chain_kernel();
  Sm probe(128);
  const auto cycles = probe.run(p, GridDims{1, 1, 64, 1}).cycles;

  Rng rng(404);
  int sdc = 0, masked = 0, due = 0;
  const auto bits = layouts().fp32_fu.layout.bits();
  for (int i = 0; i < 120; ++i) {
    FaultSpec f;
    f.module = Module::Fp32Fu;
    f.bit = static_cast<std::uint32_t>(rng.below(bits));
    f.cycle = rng.below(cycles);
    const auto [status, diffs] = inject_once(p, 64, 128, f);
    if (status != RunStatus::Ok)
      ++due;
    else if (diffs > 0)
      ++sdc;
    else
      ++masked;
  }
  // The FP datapath must produce silent corruptions and also mask faults;
  // FU data faults essentially never hang the machine.
  EXPECT_GT(sdc, 0);
  EXPECT_GT(masked, 0);
  EXPECT_LE(due, 3);
}

TEST(SmFault, Fp32FaultsCorruptSingleThread) {
  const Program p = fp_chain_kernel();
  Sm probe(128);
  const auto cycles = probe.run(p, GridDims{1, 1, 64, 1}).cycles;
  Rng rng(405);
  const auto bits = layouts().fp32_fu.layout.bits();
  int multi = 0, sdc = 0;
  for (int i = 0; i < 150; ++i) {
    FaultSpec f{Module::Fp32Fu,
                static_cast<std::uint32_t>(rng.below(bits)),
                rng.below(cycles)};
    const auto [status, diffs] = inject_once(p, 64, 128, f);
    if (status == RunStatus::Ok && diffs > 0) {
      ++sdc;
      if (diffs > 1) ++multi;
    }
  }
  ASSERT_GT(sdc, 0);
  // Per-lane datapath: the overwhelming majority of FU SDCs hit one thread.
  EXPECT_LE(static_cast<double>(multi) / sdc, 0.1);
}

TEST(SmFault, SchedulerMaskFlipCorruptsMultipleThreads) {
  // Flip a bit of warp 0's base active mask early: a thread is disabled or
  // a dead lane enabled, visible as one-or-more wrong outputs.
  const Program p = store_tid_kernel();
  const auto& sl = layouts().scheduler;
  // stack_mask[0][0] occupies the first 32 bits of the scheduler bank.
  FaultSpec f{Module::Scheduler, sl.warp[0].stack[0].mask.offset + 5, 6};
  const auto [status, diffs] = inject_once(p, 64, 128, f);
  // Disabling an active thread loses its store: an SDC, never a clean run.
  EXPECT_TRUE(status != RunStatus::Ok || diffs > 0);
}

TEST(SmFault, SchedulerPcFlipCausesDueOrSdc) {
  const Program p = fp_chain_kernel();
  const auto& sl = layouts().scheduler;
  int interesting = 0;
  for (unsigned bit = 0; bit < 10; ++bit) {
    FaultSpec f{Module::Scheduler, sl.warp[0].stack[0].pc.offset + bit, 40};
    const auto [status, diffs] = inject_once(p, 64, 128, f);
    interesting += status != RunStatus::Ok || diffs > 0;
  }
  EXPECT_GT(interesting, 0);
}

TEST(SmFault, PipelineControlFaultsCauseDues) {
  // Sweep the pipeline register bank; control-field faults must produce
  // some DUEs (scoreboard wedges, bad opcodes, bad warp ids).
  const Program p = fp_chain_kernel();
  Sm probe(128);
  const auto cycles = probe.run(p, GridDims{1, 1, 64, 1}).cycles;
  Rng rng(406);
  const auto& layout = layouts().pipeline.layout;
  int due = 0, sdc = 0, total = 250;
  for (int i = 0; i < total; ++i) {
    FaultSpec f{Module::PipelineRegs,
                static_cast<std::uint32_t>(rng.below(layout.bits())),
                rng.below(cycles)};
    const auto [status, diffs] = inject_once(p, 64, 128, f);
    if (status != RunStatus::Ok) ++due;
    else if (diffs > 0) ++sdc;
  }
  EXPECT_GT(due, 0);
  EXPECT_GT(sdc, 0);
}

TEST(SmFault, SfuControllerFaultCanCorruptOrHang) {
  KernelBuilder kb("sin");
  kb.mov(0, S(SReg::TID_X));
  kb.i2f(1, R(0));
  kb.fmul(1, R(1), F(0.04f));
  kb.fsin(2, R(1));
  kb.gst(R(0), R(2));
  const Program p = kb.build();
  Sm probe(128);
  const auto cycles = probe.run(p, GridDims{1, 1, 64, 1}).cycles;
  Rng rng(407);
  const auto bits = layouts().sfu_ctl.layout.bits();
  int effects = 0;
  for (int i = 0; i < 200; ++i) {
    FaultSpec f{Module::SfuCtl, static_cast<std::uint32_t>(rng.below(bits)),
                rng.below(cycles)};
    const auto [status, diffs] = inject_once(p, 64, 128, f);
    effects += status != RunStatus::Ok || diffs > 0;
  }
  EXPECT_GT(effects, 0);
}

// ------------------------------------------------------ fault models

TEST(SmFaultModel, NamesAndPermanence) {
  EXPECT_EQ(fault_model_name(FaultModel::Transient), "transient");
  EXPECT_EQ(fault_model_name(FaultModel::StuckAt0), "stuck-at-0");
  EXPECT_EQ(fault_model_name(FaultModel::StuckAt1), "stuck-at-1");
  EXPECT_EQ(fault_model_name(FaultModel::IntermittentBurst),
            "intermittent-burst");
  FaultSpec f;
  EXPECT_FALSE(f.permanent());  // transient is never permanent
  f.model = FaultModel::StuckAt1;
  EXPECT_TRUE(f.permanent());  // duration 0 = forever
  f.duration = 10;
  EXPECT_FALSE(f.permanent());
}

TEST(SmFaultModel, BurstWithUnitWindowMatchesTransient) {
  // An intermittent burst whose window is one cycle flips exactly once at
  // fault.cycle — it must be indistinguishable from the transient model,
  // status and output words alike, at every site.
  const Program p = fp_chain_kernel();
  Sm probe(128);
  const auto cycles = probe.run(p, GridDims{1, 1, 64, 1}).cycles;
  const auto bits = layouts().fp32_fu.layout.bits();
  Rng rng(606);
  for (int i = 0; i < 40; ++i) {
    FaultSpec f{Module::Fp32Fu, static_cast<std::uint32_t>(rng.below(bits)),
                rng.below(cycles)};
    const auto [ts, td] = inject_once(p, 64, 128, f);
    f.model = FaultModel::IntermittentBurst;
    f.duration = 1;
    f.period = 7;  // irrelevant within a one-cycle window
    const auto [bs, bd] = inject_once(p, 64, 128, f);
    EXPECT_EQ(ts, bs) << "bit " << f.bit << " cycle " << f.cycle;
    EXPECT_EQ(td, bd) << "bit " << f.bit << " cycle " << f.cycle;
  }
}

Program counting_loop_kernel() {
  KernelBuilder kb("loopy");
  kb.mov(0, S(SReg::TID_X));
  kb.movi(1, 0);
  kb.movi(2, 0);
  kb.loop_begin();
  kb.isetp(0, CmpOp::LT, R(1), I(8));
  kb.loop_while(0);
  kb.iadd(2, R(2), R(1));
  kb.iadd(1, R(1), I(1));
  kb.loop_end();
  kb.gst(R(0), R(2));
  return kb.build();
}

TEST(SmFaultModel, StuckAt1WedgesTheSchedulerWhereTransientCompletes) {
  // Scheduler bit 32 sits in the warp's branch/stack PC state. On a loop,
  // that state is rewritten every iteration, so a transient flip is flushed
  // and the kernel completes; a stuck-at-1 re-asserts on every clock edge,
  // the loop PC can never advance past it, and the run must hang into the
  // watchdog. This is the behavioural gap between the two fault models.
  const Program p = counting_loop_kernel();
  Sm probe(128);
  const auto cycles = probe.run(p, GridDims{1, 1, 64, 1}).cycles;

  FaultSpec f{Module::Scheduler, 32, 0};
  f.model = FaultModel::StuckAt1;
  Sm stuck(128);
  const auto sr = stuck.run_with_fault(p, GridDims{1, 1, 64, 1}, f,
                                       cycles * 4 + 2048);
  EXPECT_EQ(sr.status, RunStatus::Watchdog);

  f.model = FaultModel::Transient;
  Sm trans(128);
  const auto tr = trans.run_with_fault(p, GridDims{1, 1, 64, 1}, f,
                                       cycles * 4 + 2048);
  EXPECT_EQ(tr.status, RunStatus::Ok);
}

TEST(SmFaultModel, FaultyRunCycleCapBoundsHangingRuns) {
  // A faulty run launched with max_cycles=0 must not spin for 2^62 cycles
  // on a permanently wedged scheduler: the kFaultyRunCycleCap watchdog
  // converts the hang into a classifiable Watchdog/DUE.
  const Program p = fp_chain_kernel();
  FaultSpec f{Module::Scheduler, 468, 0};
  f.model = FaultModel::StuckAt1;
  Sm sm(128);
  const auto r = sm.run_with_fault(p, GridDims{1, 1, 64, 1}, f, 0);
  EXPECT_EQ(r.status, RunStatus::Watchdog);
  EXPECT_LE(r.cycles, kFaultyRunCycleCap + 1);
}

TEST(SmFault, FaultyRunLeavesNoPermanentState) {
  // After a faulty run, a fresh golden run on the same Sm must be clean
  // (the flip-flop banks are reset per run; only memory carries over).
  const Program p = store_tid_kernel();
  Sm sm(128);
  (void)sm.run_with_fault(p, GridDims{1, 1, 64, 1},
                          FaultSpec{Module::Scheduler, 3, 5}, 100000);
  sm.fill(0, 128, 0);
  const auto r = sm.run(p, GridDims{1, 1, 64, 1});
  ASSERT_EQ(r.status, RunStatus::Ok);
  for (unsigned t = 0; t < 64; ++t) ASSERT_EQ(sm.read_word(t), t);
}

}  // namespace
}  // namespace gpufi::rtl
