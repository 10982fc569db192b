// Scalar-vs-SoA interpreter equivalence: the SoA warp interpreter must be
// bit-identical to the scalar reference — outputs, retire-callback order and
// values (so an InjectHook targets the same dynamic candidate on both),
// profiler counts, trap reasons and retired totals — across divergence,
// barriers, shared memory, guarded predication and every software fault
// model.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "apps/apps.hpp"
#include "emu/device.hpp"
#include "emu/profiler.hpp"
#include "isa/isa.hpp"
#include "swfi/swfi.hpp"

namespace gpufi::emu {
namespace {

using namespace gpufi::isa;

/// Records the full instrumentation stream: every value/predicate retirement
/// (in order, with operands and the post-hook value) plus per-opcode counts.
struct Recorder : InstrumentHook {
  struct Ev {
    bool is_pred;
    Opcode op;
    std::int32_t pc;
    unsigned cta, warp, lane, tid;
    std::uint64_t dyn;
    std::uint32_t a, b, c;
    std::uint32_t value;  ///< pred retires store 0/1

    bool operator==(const Ev&) const = default;
  };
  std::vector<Ev> evs;
  std::array<std::uint64_t, kNumOpcodes> counts{};

  void on_retire(const RetireInfo& i, std::uint32_t& v) override {
    evs.push_back({false, i.instr->op, i.pc, i.thread.cta, i.thread.warp,
                   i.thread.lane, i.thread.tid, i.dyn_index, i.a, i.b, i.c,
                   v});
  }
  void on_pred_retire(const RetireInfo& i, bool& v) override {
    evs.push_back({true, i.instr->op, i.pc, i.thread.cta, i.thread.warp,
                   i.thread.lane, i.thread.tid, i.dyn_index, i.a, i.b, i.c,
                   v ? 1u : 0u});
  }
  void on_count(const RetireInfo& i) override {
    ++counts[static_cast<std::size_t>(i.instr->op)];
  }
};

/// Runs `prog` under both interpreters and asserts byte-identity of the
/// launch outcome, the whole global memory, and the instrumentation stream.
void expect_equivalent(const Program& prog, const LaunchDims& dims,
                       std::size_t words = 4096,
                       std::uint64_t max_retired = 400'000'000) {
  Device scalar(words), soa(words);
  scalar.set_interpreter(Interpreter::Scalar);
  soa.set_interpreter(Interpreter::SoA);
  Recorder rs, rv;
  LaunchConfig cs, cv;
  cs.hook = &rs;
  cv.hook = &rv;
  cs.max_retired = cv.max_retired = max_retired;
  const auto a = scalar.launch(prog, dims, cs);
  const auto b = soa.launch(prog, dims, cv);
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.trap_reason, b.trap_reason);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(rs.counts, rv.counts);
  ASSERT_EQ(rs.evs.size(), rv.evs.size());
  for (std::size_t i = 0; i < rs.evs.size(); ++i)
    ASSERT_EQ(rs.evs[i], rv.evs[i]) << "retire event " << i;
  for (std::uint32_t w = 0; w < words; ++w)
    ASSERT_EQ(scalar.read_word(w), soa.read_word(w)) << "word " << w;
}

Program affine_kernel(std::uint32_t out_base) {
  KernelBuilder kb("affine");
  kb.mov(0, S(SReg::TID_X));
  kb.mov(1, S(SReg::NTID_X));
  kb.mov(2, S(SReg::CTAID_X));
  kb.imad(3, R(2), R(1), R(0));
  kb.imad(4, R(3), I(2), I(1));
  kb.iadd(5, R(3), I(static_cast<std::int32_t>(out_base)));
  kb.gst(R(5), R(4));
  return kb.build();
}

TEST(Equiv, MultiWarpMultiCta) {
  expect_equivalent(affine_kernel(1024), {4, 1, 64, 1});
}

TEST(Equiv, PartialWarp) {
  expect_equivalent(affine_kernel(256), {1, 1, 40, 1});
}

TEST(Equiv, NestedDivergence) {
  KernelBuilder kb("nested");
  kb.mov(0, S(SReg::TID_X));
  kb.isetp(0, CmpOp::LT, R(0), I(16));
  kb.isetp(1, CmpOp::LT, R(0), I(8));
  kb.if_begin(0);
  kb.if_begin(1);
  kb.movi(1, 1);
  kb.else_begin();
  kb.movi(1, 2);
  kb.if_end();
  kb.else_begin();
  kb.movi(1, 3);
  kb.if_end();
  kb.iadd(2, R(0), I(64));
  kb.gst(R(2), R(1));
  expect_equivalent(kb.build(), {1, 1, 32, 1});
}

TEST(Equiv, DataDependentLoops) {
  KernelBuilder kb("trip");
  kb.mov(0, S(SReg::TID_X));
  kb.movi(1, 0);
  kb.movi(2, 0);
  kb.loop_begin();
  kb.isetp(0, CmpOp::LT, R(1), R(0));
  kb.loop_while(0);
  kb.iadd(1, R(1), I(1));
  kb.iadd(2, R(2), R(1));
  kb.loop_end();
  kb.iadd(3, R(0), I(64));
  kb.gst(R(3), R(2));
  expect_equivalent(kb.build(), {1, 1, 32, 1});
}

TEST(Equiv, SharedMemoryBarrierReduce) {
  KernelBuilder kb("reduce");
  kb.shared(64);
  kb.mov(0, S(SReg::TID_X));
  kb.sts(R(0), R(0));
  kb.bar();
  kb.isetp(0, CmpOp::EQ, R(0), I(0));
  kb.if_begin(0);
  kb.movi(1, 0);
  kb.movi(2, 0);
  kb.loop_begin();
  kb.isetp(1, CmpOp::LT, R(1), I(64));
  kb.loop_while(1);
  kb.lds(3, R(1));
  kb.iadd(2, R(2), R(3));
  kb.iadd(1, R(1), I(1));
  kb.loop_end();
  kb.movi(4, 100);
  kb.gst(R(4), R(2));
  kb.if_end();
  expect_equivalent(kb.build(), {1, 1, 64, 1});
}

TEST(Equiv, FloatSfuChain) {
  KernelBuilder kb("sfu");
  kb.mov(0, S(SReg::TID_X));
  kb.i2f(1, R(0));
  kb.fsin(2, R(1));
  kb.fexp(3, R(2));
  kb.fmul(4, R(3), F(1.5f));
  kb.ffma(5, R(4), F(2.0f), R(2));
  kb.frcp(6, R(5));
  kb.f2i(7, R(6));
  kb.iadd(8, R(0), I(0));
  kb.gst(R(8), R(5));
  expect_equivalent(kb.build(), {1, 1, 32, 1}, 256);
}

TEST(Equiv, SelAndGuardedPredication) {
  KernelBuilder kb("sel");
  kb.mov(0, S(SReg::TID_X));
  kb.isetp(2, CmpOp::LT, R(0), I(7));
  kb.sel(1, I(100), I(200), 2);
  kb.pred(2).iadd(1, R(1), I(1));
  kb.iadd(3, R(0), I(64));
  kb.gst(R(3), R(1));
  expect_equivalent(kb.build(), {1, 1, 32, 1}, 256);
}

TEST(Equiv, GuardedEarlyExit) {
  KernelBuilder kb("earlyexit");
  kb.mov(0, S(SReg::TID_X));
  kb.isetp(0, CmpOp::GE, R(0), I(16));
  kb.if_begin(0);
  kb.exit();
  kb.if_end();
  kb.iadd(1, R(0), I(64));
  kb.gst(R(1), I(5));
  expect_equivalent(kb.build(), {1, 1, 32, 1}, 256);
}

TEST(Equiv, TwoDimensionalIndexing) {
  KernelBuilder kb("idx2d");
  kb.mov(0, S(SReg::TID_X));
  kb.mov(1, S(SReg::TID_Y));
  kb.mov(2, S(SReg::CTAID_X));
  kb.mov(3, S(SReg::CTAID_Y));
  kb.imad(4, R(2), I(4), R(0));
  kb.imad(5, R(3), I(4), R(1));
  kb.imad(6, R(5), I(8), R(4));
  kb.iadd(7, R(6), I(128));
  kb.gst(R(7), R(6));
  expect_equivalent(kb.build(), {2, 2, 4, 4}, 1024);
}

TEST(Equiv, OutOfBoundsTrap) {
  KernelBuilder kb("oob");
  kb.mov(0, S(SReg::TID_X));
  kb.iadd(1, R(0), I(1 << 20));
  kb.gld(2, R(1));
  kb.gst(R(0), R(2));
  expect_equivalent(kb.build(), {1, 1, 32, 1}, 64);
}

TEST(Equiv, SharedOutOfBoundsTrap) {
  KernelBuilder kb("oobs");
  kb.shared(8);
  kb.mov(0, S(SReg::TID_X));
  kb.iadd(1, R(0), I(5));
  kb.sts(R(1), R(0));
  expect_equivalent(kb.build(), {1, 1, 32, 1}, 64);
}

TEST(Equiv, InvalidPcTrap) {
  Program p;
  p.code.push_back(Instr{.op = Opcode::BRA, .target = 1000});
  p.code.push_back(Instr{.op = Opcode::EXIT});
  expect_equivalent(p, {1, 1, 32, 1}, 64);
}

TEST(Equiv, WatchdogTimeout) {
  Program p;
  p.code.push_back(Instr{.op = Opcode::BRA, .target = 0});
  p.code.push_back(Instr{.op = Opcode::EXIT});
  expect_equivalent(p, {1, 1, 32, 1}, 64, 10000);
}

/// A value-rewriting hook must corrupt the same dynamic instruction and
/// propagate identically on both paths.
TEST(Equiv, HookCorruptionPropagatesIdentically) {
  struct FlipHook : InstrumentHook {
    std::uint64_t target;
    explicit FlipHook(std::uint64_t t) : target(t) {}
    void on_retire(const RetireInfo& info, std::uint32_t& value) override {
      if (info.dyn_index == target) value ^= 1u << 30;
    }
  };
  const Program p = affine_kernel(256);
  for (const std::uint64_t target : {0ull, 35ull, 100ull}) {
    Device scalar(1024), soa(1024);
    scalar.set_interpreter(Interpreter::Scalar);
    soa.set_interpreter(Interpreter::SoA);
    FlipHook hs(target), hv(target);
    LaunchConfig cs, cv;
    cs.hook = &hs;
    cv.hook = &hv;
    // A corrupted address register may legitimately trap — both paths must
    // then trap identically, with identical partial memory state.
    const auto a = scalar.launch(p, {2, 1, 40, 1}, cs);
    const auto b = soa.launch(p, {2, 1, 40, 1}, cv);
    ASSERT_EQ(a.status, b.status) << "target " << target;
    EXPECT_EQ(a.trap_reason, b.trap_reason) << "target " << target;
    EXPECT_EQ(a.retired, b.retired) << "target " << target;
    for (std::uint32_t w = 0; w < 1024; ++w)
      ASSERT_EQ(scalar.read_word(w), soa.read_word(w))
          << "target " << target << " word " << w;
  }
}

TEST(Equiv, ProfilerCountsIdentical) {
  Device scalar(4096), soa(4096);
  scalar.set_interpreter(Interpreter::Scalar);
  soa.set_interpreter(Interpreter::SoA);
  Profiler ps, pv;
  LaunchConfig cs, cv;
  cs.hook = &ps;
  cv.hook = &pv;
  const Program p = affine_kernel(1024);
  ASSERT_EQ(scalar.launch(p, {4, 1, 64, 1}, cs).status, LaunchStatus::Ok);
  ASSERT_EQ(soa.launch(p, {4, 1, 64, 1}, cv).status, LaunchStatus::Ok);
  EXPECT_EQ(ps.total(), pv.total());
  EXPECT_EQ(ps.candidate_total(), pv.candidate_total());
  for (std::size_t i = 0; i < kNumOpcodes; ++i)
    EXPECT_EQ(ps.count(static_cast<Opcode>(i)),
              pv.count(static_cast<Opcode>(i)));
  EXPECT_EQ(ps.pc_counts(), pv.pc_counts());
}

/// Device::reset must restore the freshly-constructed state byte for byte.
TEST(Equiv, ResetRestoresFreshState) {
  Device used(512), fresh(512);
  const auto out = used.alloc(64);
  ASSERT_EQ(used.launch(affine_kernel(out), {1, 1, 64, 1}).status,
            LaunchStatus::Ok);
  used.write_word(500, 0xDEAD);
  used.reset();
  for (std::uint32_t w = 0; w < 512; ++w)
    ASSERT_EQ(used.read_word(w), fresh.read_word(w)) << w;
  EXPECT_EQ(used.alloc(1), fresh.alloc(1));  // allocator rewound too
}

/// Full campaign Results must be identical under both interpreters for every
/// software fault model: same targets hit, same outcome of every trial.
TEST(Equiv, CampaignsIdenticalAcrossFaultModels) {
  using swfi::FaultModel;
  for (const auto model :
       {FaultModel::SingleBitFlip, FaultModel::DoubleBitFlip,
        FaultModel::RelativeError, FaultModel::WarpRelativeError,
        FaultModel::StickyRelativeError}) {
    const auto app = apps::make_mxm(8);
    swfi::Config cfg;
    cfg.model = model;
    cfg.n_injections = 24;
    cfg.seed = 7;
    cfg.jobs = 1;
    cfg.interpreter = Interpreter::Scalar;
    const auto a = swfi::run_sw_campaign(app.app, cfg);
    cfg.interpreter = Interpreter::SoA;
    const auto b = swfi::run_sw_campaign(app.app, cfg);
    const auto tag = std::string(swfi::fault_model_name(model));
    EXPECT_EQ(a.injections, b.injections) << tag;
    EXPECT_EQ(a.masked, b.masked) << tag;
    EXPECT_EQ(a.sdc, b.sdc) << tag;
    EXPECT_EQ(a.due, b.due) << tag;
    EXPECT_EQ(a.candidate_instructions, b.candidate_instructions) << tag;
  }
}

}  // namespace
}  // namespace gpufi::emu
