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

/// Done at every instruction: both interpreters run the whole launch on
/// their unhooked paths although a hook is attached.
struct AlwaysDone : InstrumentHook {
  bool done(const Instr*) const override { return true; }
};

/// Launches `prog` on a fresh device per interpreter, with hook `hs` on the
/// scalar one and `hv` on the SoA one (either may be null), and asserts the
/// same status, trap reason, retired count and global memory.
void expect_same_launch(const Program& prog, const LaunchDims& dims,
                        std::size_t words, LaunchConfig cfg,
                        InstrumentHook* hs, InstrumentHook* hv,
                        const char* what) {
  Device scalar(words), soa(words);
  scalar.set_interpreter(Interpreter::Scalar);
  soa.set_interpreter(Interpreter::SoA);
  cfg.hook = hs;
  const auto a = scalar.launch(prog, dims, cfg);
  cfg.hook = hv;
  const auto b = soa.launch(prog, dims, cfg);
  ASSERT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.trap_reason, b.trap_reason) << what;
  EXPECT_EQ(a.retired, b.retired) << what;
  for (std::uint32_t w = 0; w < words; ++w)
    ASSERT_EQ(scalar.read_word(w), soa.read_word(w)) << what << " word " << w;
}

/// Runs `prog` under both interpreters and asserts byte-identity of the
/// launch outcome and the whole global memory: hooked (and then of the
/// instrumentation stream too), unhooked, and under a hook done everywhere.
void expect_equivalent(const Program& prog, const LaunchDims& dims,
                       std::size_t words = 4096,
                       std::uint64_t max_retired = 400'000'000,
                       bool oob_wraps = false) {
  LaunchConfig cfg;
  cfg.max_retired = max_retired;
  cfg.oob_wraps = oob_wraps;
  Recorder rs, rv;
  expect_same_launch(prog, dims, words, cfg, &rs, &rv, "hooked");
  EXPECT_EQ(rs.counts, rv.counts);
  ASSERT_EQ(rs.evs.size(), rv.evs.size());
  for (std::size_t i = 0; i < rs.evs.size(); ++i)
    ASSERT_EQ(rs.evs[i], rv.evs[i]) << "retire event " << i;
  expect_same_launch(prog, dims, words, cfg, nullptr, nullptr, "unhooked");
  AlwaysDone ds, dv;
  expect_same_launch(prog, dims, words, cfg, &ds, &dv, "done hook");
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

/// One thread, as quicksort's partition kernel runs: fills 48 words from a
/// data-dependent generator loop, then partitions them around the last
/// (Lomuto). Every warp-instruction has one live lane.
TEST(Equiv, SingleThreadPartition) {
  KernelBuilder kb("partition1");
  kb.mov(0, S(SReg::PARAM0));                // &data[0]
  kb.movi(1, 0);
  kb.movi(2, 12345);
  kb.loop_begin();
  kb.isetp(0, CmpOp::LT, R(1), I(48));
  kb.loop_while(0);
  kb.imad(2, R(2), I(1103515245), I(12345));
  kb.shr(3, R(2), I(20));
  kb.iadd(4, R(1), R(0));
  kb.gst(R(4), R(3));
  kb.iadd(1, R(1), I(1));
  kb.loop_end();
  kb.iadd(5, R(0), I(47));                   // &data[hi]
  kb.gld(6, R(5));                           // pivot
  kb.iadd(7, R(0), I(-1));                   // &data[i]
  kb.mov(8, R(0));                           // &data[j]
  kb.loop_begin();
  kb.isetp(1, CmpOp::LT, R(8), R(5));
  kb.loop_while(1);
  kb.gld(9, R(8));
  kb.isetp(2, CmpOp::LE, R(9), R(6));
  kb.if_begin(2);
  kb.iadd(7, R(7), I(1));
  kb.gld(10, R(7));
  kb.gst(R(7), R(9));
  kb.gst(R(8), R(10));                       // swap
  kb.if_end();
  kb.iadd(8, R(8), I(1));
  kb.loop_end();
  kb.iadd(7, R(7), I(1));
  kb.gld(10, R(7));
  kb.gst(R(5), R(10));
  kb.gst(R(7), R(6));
  kb.gst(S(SReg::PARAM1), R(7));             // pivot position
  Program p = kb.build();
  p.params = {64, 200, 0, 0, 0, 0, 0, 0};
  expect_equivalent(p, {1, 1, 1, 1}, 256);
}

/// 33 threads per CTA: the second warp is one lane, through a barrier, shared
/// memory and a data-dependent loop.
TEST(Equiv, ThirtyThreeThreadCta) {
  KernelBuilder kb("cta33");
  kb.shared(64);
  kb.mov(0, S(SReg::TID_X));
  kb.imad(1, R(0), I(3), I(1));
  kb.sts(R(0), R(1));
  kb.bar();
  kb.imad(2, R(0), I(-1), S(SReg::NTID_X));
  kb.lds(3, R(2), -1);                       // the mirror thread's value
  kb.and_(4, R(0), I(7));
  kb.movi(5, 0);
  kb.loop_begin();
  kb.isetp(0, CmpOp::GT, R(4), I(0));
  kb.loop_while(0);
  kb.iadd(5, R(5), R(3));
  kb.iadd(4, R(4), I(-1));
  kb.loop_end();
  kb.imad(6, S(SReg::LANEID), I(1000), R(5));
  kb.imad(7, S(SReg::CTAID_X), I(64), R(0));
  kb.gst(R(7), R(6), 64);
  expect_equivalent(kb.build(), {2, 1, 33, 1}, 256);
}

/// The second warp exits at once and the third after the first reached the
/// barrier, so the first is released by the round in which the third exits.
TEST(Equiv, BarrierReleasedByExitingWarps) {
  KernelBuilder kb("exitbar");
  kb.shared(96);
  kb.mov(0, S(SReg::TID_X));
  kb.isetp(0, CmpOp::GE, R(0), I(32));
  kb.isetp(1, CmpOp::LT, R(0), I(64));
  kb.sel(1, I(1), I(0), 0);
  kb.sel(1, R(1), I(0), 1);
  kb.isetp(2, CmpOp::NE, R(1), I(0));
  kb.pred(2).exit();
  kb.shr(2, R(0), I(2));                     // 0..7 trips, 16..23 in warp 2
  kb.loop_begin();
  kb.isetp(3, CmpOp::GT, R(2), I(0));
  kb.loop_while(3);
  kb.iadd(2, R(2), I(-1));
  kb.loop_end();
  kb.sts(R(0), R(0));
  kb.isetp(0, CmpOp::GE, R(0), I(64));
  kb.pred(0).exit();
  kb.bar();
  kb.imad(3, R(0), I(-1), I(95));
  kb.lds(4, R(3));                           // warp 2's value
  kb.gst(R(0), R(4), 64);
  expect_equivalent(kb.build(), {1, 1, 96, 1}, 256);
}

/// A guarded EXIT thins a full warp to three lanes (5, 17, 30), a second to
/// one (17); the survivors read special registers, compute, loop and store.
TEST(Equiv, GuardedExitThinsWarp) {
  KernelBuilder kb("thin");
  kb.mov(0, S(SReg::TID_X));
  kb.isetp(0, CmpOp::EQ, R(0), I(5));
  kb.sel(1, I(1), I(0), 0);
  kb.isetp(0, CmpOp::EQ, R(0), I(17));
  kb.pred(0).movi(1, 1);
  kb.isetp(0, CmpOp::EQ, R(0), I(30));
  kb.pred(0).movi(1, 1);
  kb.isetp(1, CmpOp::EQ, R(1), I(0));
  kb.pred(1).exit();
  kb.mov(2, S(SReg::LANEID));
  kb.imad(5, R(2), S(SReg::NTID_X), S(SReg::TID_X));
  kb.i2f(6, R(5));
  kb.ffma(7, R(6), F(0.5f), F(1.25f));
  kb.fsin(8, R(7));
  kb.fsetp(2, CmpOp::GT, R(8), F(0.0f));
  kb.sel(9, R(5), R(7), 2);
  kb.gst(R(0), R(9), 64);
  kb.movi(10, 0);
  kb.loop_begin();
  kb.isetp(3, CmpOp::LT, R(10), R(2));
  kb.loop_while(3);
  kb.gld(11, R(0), 64);
  kb.iadd(11, R(11), R(10));
  kb.gst(R(0), R(11), 64);
  kb.iadd(10, R(10), I(1));
  kb.loop_end();
  kb.isetp(4, CmpOp::NE, R(0), I(17));
  kb.pred(4).exit();
  kb.imad(12, S(SReg::TID_X), I(100), S(SReg::LANEID));
  kb.gst(R(0), R(12), 128);
  expect_equivalent(kb.build(), {1, 1, 32, 1}, 256);
}

/// Lanes 3, 11, 19 and 27 stay live; lane 19's address is out of range, so
/// its store traps after lanes 3 and 11 stored (or wraps, under oob_wraps).
Program sparse_oob_kernel() {
  KernelBuilder kb("sparse_oob");
  kb.mov(0, S(SReg::TID_X));
  kb.and_(1, R(0), I(7));
  kb.isetp(0, CmpOp::NE, R(1), I(3));
  kb.pred(0).exit();
  kb.isetp(1, CmpOp::EQ, R(0), I(19));
  kb.sel(2, I(1 << 20), I(100), 1);
  kb.iadd(3, R(2), R(0));
  kb.gst(R(3), R(0));
  kb.gld(4, R(3));
  kb.iadd(4, R(4), I(1000));
  kb.gst(R(0), R(4), 200);
  return kb.build();
}

TEST(Equiv, SparseOutOfBoundsTrapsOnMiddleLane) {
  expect_equivalent(sparse_oob_kernel(), {1, 1, 32, 1}, 256);
  Device dev(256);
  EXPECT_EQ(dev.launch(sparse_oob_kernel(), {1, 1, 32, 1}).status,
            LaunchStatus::Trap);
  EXPECT_EQ(dev.read_word(111), 11u);
  EXPECT_EQ(dev.read_word(127), 0u);
}

TEST(Equiv, SparseOutOfBoundsWraps) {
  expect_equivalent(sparse_oob_kernel(), {1, 1, 32, 1}, 256, 400'000'000,
                    /*oob_wraps=*/true);
  Device dev(256);
  LaunchConfig cfg;
  cfg.oob_wraps = true;
  EXPECT_EQ(dev.launch(sparse_oob_kernel(), {1, 1, 32, 1}, cfg).status,
            LaunchStatus::Ok);
  EXPECT_EQ(dev.read_word(19), 19u);  // (1 << 20) + 19 wrapped mod 256
  EXPECT_EQ(dev.read_word(227), 1027u);
}

/// One lane of 32 spins on loads and stores until the watchdog trips.
TEST(Equiv, OneLaneWatchdogTimeout) {
  KernelBuilder kb("spin1");
  kb.mov(0, S(SReg::TID_X));
  kb.isetp(0, CmpOp::NE, R(0), I(9));
  kb.pred(0).exit();
  kb.movi(1, 0);
  kb.loop_begin();
  kb.isetp(1, CmpOp::GE, R(1), I(0));
  kb.loop_while(1);
  kb.gld(2, R(0), 64);
  kb.iadd(2, R(2), I(3));
  kb.gst(R(0), R(2), 64);
  kb.iadd(1, R(1), I(1));
  kb.loop_end();
  const Program p = kb.build();
  expect_equivalent(p, {1, 1, 32, 1}, 256, 5000);
  Device dev(256);
  LaunchConfig cfg;
  cfg.max_retired = 5000;
  EXPECT_EQ(dev.launch(p, {1, 1, 32, 1}, cfg).status, LaunchStatus::Timeout);
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
  for (const auto& app :
       {apps::make_mxm(8), apps::make_quicksort(96), apps::make_lava(2, 32)}) {
    for (const auto model :
         {FaultModel::SingleBitFlip, FaultModel::DoubleBitFlip,
          FaultModel::RelativeError, FaultModel::WarpRelativeError,
          FaultModel::StickyRelativeError}) {
      swfi::Config cfg;
      cfg.model = model;
      cfg.n_injections = 24;
      cfg.seed = 7;
      cfg.jobs = 1;
      cfg.interpreter = Interpreter::Scalar;
      const auto a = swfi::run_sw_campaign(app.app, cfg);
      cfg.interpreter = Interpreter::SoA;
      const auto b = swfi::run_sw_campaign(app.app, cfg);
      const auto tag =
          app.app.name + " " + std::string(swfi::fault_model_name(model));
      EXPECT_EQ(a.injections, b.injections) << tag;
      EXPECT_EQ(a.masked, b.masked) << tag;
      EXPECT_EQ(a.sdc, b.sdc) << tag;
      EXPECT_EQ(a.due, b.due) << tag;
      EXPECT_EQ(a.candidate_instructions, b.candidate_instructions) << tag;
    }
  }
}

}  // namespace
}  // namespace gpufi::emu
