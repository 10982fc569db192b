// Tests for the Sm checkpoint/restore fast path: digest determinism,
// snapshot -> mutate -> restore round-trips (including mid-beat and
// SFU-busy capture points), the golden checkpoint ladder, and the
// resume-equals-fresh-replay guarantee the campaign acceleration rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "rtl/layouts.hpp"
#include "rtl/sm.hpp"
#include "rtlfi/microbench.hpp"

namespace gpufi::rtl {
namespace {

using rtlfi::Workload;

Workload ffma_workload() {
  return rtlfi::make_microbenchmark(isa::Opcode::FFMA,
                                    rtlfi::InputRange::Medium, 7);
}

Workload sfu_workload() {
  return rtlfi::make_microbenchmark(isa::Opcode::FEXP,
                                    rtlfi::InputRange::Medium, 7);
}

/// Runs the workload once with digest tracking on; returns the final digest.
std::uint64_t run_and_digest(const Workload& w) {
  Sm sm;
  sm.enable_digest_tracking();
  w.setup(sm);
  EXPECT_EQ(sm.run(w.program, w.dims).status, RunStatus::Ok);
  return sm.state_digest();
}

// ------------------------------------------------------------ digest basics

TEST(StateDigest, DeterministicAcrossIndependentSms) {
  const auto w = ffma_workload();
  EXPECT_EQ(run_and_digest(w), run_and_digest(w));
}

TEST(StateDigest, DistinguishesDifferentInputs) {
  EXPECT_NE(run_and_digest(ffma_workload()),
            run_and_digest(rtlfi::make_microbenchmark(
                isa::Opcode::FFMA, rtlfi::InputRange::Medium, 8)));
}

TEST(StateDigest, EnablingTrackingMidwayMatchesAlwaysOn) {
  // The incremental digest maintained across a run must equal the digest
  // recomputed from the final at-rest state.
  const auto w = ffma_workload();
  Sm tracked;
  tracked.enable_digest_tracking();
  w.setup(tracked);
  ASSERT_EQ(tracked.run(w.program, w.dims).status, RunStatus::Ok);

  Sm late;
  w.setup(late);
  ASSERT_EQ(late.run(w.program, w.dims).status, RunStatus::Ok);
  late.enable_digest_tracking();  // recomputes from live state
  EXPECT_EQ(tracked.state_digest(), late.state_digest());
}

TEST(StateDigest, IncrementalMatchesRecomputedOnAllCharacterizedWorkloads) {
  // The same check over the 39 workloads the syndrome DB characterizes: the
  // 12 instructions' micro-benchmarks in every range (value seed 100·r, as
  // the grid's first value seed) and the three t-MxM tiles. Fields written
  // sign-extended (the FP32 unit's signed exponents, the SFU's polynomial
  // terms) must leave no residue of their write history in the digest.
  constexpr isa::Opcode kOps[] = {
      isa::Opcode::FADD, isa::Opcode::FMUL, isa::Opcode::FFMA,
      isa::Opcode::IADD, isa::Opcode::IMUL, isa::Opcode::IMAD,
      isa::Opcode::FSIN, isa::Opcode::FEXP, isa::Opcode::GLD,
      isa::Opcode::GST,  isa::Opcode::BRA,  isa::Opcode::ISETP};
  std::vector<Workload> workloads;
  for (const auto op : kOps)
    for (unsigned r = 0; r < rtlfi::kNumRanges; ++r)
      workloads.push_back(rtlfi::make_microbenchmark(
          op, static_cast<rtlfi::InputRange>(r), 100 * r));
  for (unsigned k = 0; k < 3; ++k)
    workloads.push_back(
        rtlfi::make_tmxm(static_cast<rtlfi::TileKind>(k), k + 1));
  ASSERT_EQ(workloads.size(), 39u);

  for (const auto& w : workloads) {
    Sm tracked;
    tracked.enable_digest_tracking();
    w.setup(tracked);
    ASSERT_EQ(tracked.run(w.program, w.dims).status, RunStatus::Ok) << w.name;
    const std::uint64_t incremental = tracked.state_digest();

    Sm late;
    w.setup(late);
    ASSERT_EQ(late.run(w.program, w.dims).status, RunStatus::Ok) << w.name;
    late.enable_digest_tracking();
    EXPECT_EQ(incremental, late.state_digest()) << w.name;
  }
}

TEST(StateDigest, FlipChangesAndRevertsDigest) {
  Sm sm;
  sm.enable_digest_tracking();
  const auto before = sm.state_digest();
  auto& bank = const_cast<ModuleState&>(sm.module_state(Module::Scheduler));
  bank.flip(100);
  EXPECT_NE(sm.state_digest(), before);
  bank.flip(100);
  EXPECT_EQ(sm.state_digest(), before);
}

// ------------------------------------------------------- at-rest round-trip

TEST(SmCheckpointTest, AtRestRoundTripRestoresMemoryAndDigest) {
  const auto w = ffma_workload();
  Sm sm;
  w.setup(sm);
  ASSERT_EQ(sm.run(w.program, w.dims).status, RunStatus::Ok);

  const SmCheckpoint c = sm.checkpoint();
  const auto global_before = sm.global();
  const auto digest_before = sm.state_digest();
  ASSERT_EQ(c.digest, digest_before);

  // Scribble over memory and a flip-flop bank.
  sm.write_word(0, 0xdeadbeef);
  sm.write_word(500000, 42);  // untouched-high address: extends the prefix
  const_cast<ModuleState&>(sm.module_state(Module::PipelineRegs)).flip(3);
  EXPECT_NE(sm.state_digest(), digest_before);

  sm.restore(c);
  EXPECT_EQ(sm.state_digest(), digest_before);
  EXPECT_EQ(sm.global(), global_before);
  EXPECT_EQ(sm.read_word(500000), 0u);
}

// --------------------------------------------- mid-instruction round-trips

/// Captures restorable checkpoints on a dense cycle range of a traced run
/// and returns the trace (checkpoints include the quiescent ladder rungs).
GoldenTrace trace_with_captures(const Workload& w, std::uint64_t first,
                                std::uint64_t count) {
  std::vector<std::uint64_t> grab;
  for (std::uint64_t c = first; c < first + count; ++c) grab.push_back(c);
  GoldenTrace trace;
  Sm sm;
  w.setup(sm);
  EXPECT_EQ(sm.run_traced(w.program, w.dims, trace, 64, 0, grab).status,
            RunStatus::Ok);
  return trace;
}

/// Restores `c` into a fresh Sm and checks bit-exact state fidelity.
void expect_restores_exactly(const SmCheckpoint& c) {
  Sm sm;
  sm.enable_digest_tracking();
  sm.restore(c);
  EXPECT_EQ(sm.state_digest(), c.digest);
  for (std::size_t m = 0; m < kNumModules; ++m) {
    EXPECT_EQ(sm.module_state(static_cast<Module>(m)).bits(),
              c.modules[m].bits)
        << "module " << m;
  }
}

TEST(SmCheckpointTest, MidBeatCaptureRestoresExactly) {
  const auto w = ffma_workload();
  const auto trace = trace_with_captures(w, 200, 40);
  const auto& beat_f = layouts().scheduler.beat;
  bool found_mid_beat = false;
  for (const auto& c : trace.checkpoints) {
    if (c.quiescent) continue;
    if (c.modules[static_cast<std::size_t>(Module::Scheduler)].bits.get_field(
            beat_f.offset, beat_f.width) == 0)
      continue;
    found_mid_beat = true;
    expect_restores_exactly(c);
  }
  EXPECT_TRUE(found_mid_beat)
      << "no capture landed on a non-zero beat counter";
}

TEST(SmCheckpointTest, SfuBusyCaptureRestoresExactly) {
  // The SFU controller is only busy inside an FSIN/FEXP instruction, so
  // capture the whole run and pick the busy cycles out of the trace.
  const auto w = sfu_workload();
  Sm probe;
  w.setup(probe);
  const auto golden = probe.run(w.program, w.dims);
  ASSERT_EQ(golden.status, RunStatus::Ok);
  const auto trace = trace_with_captures(w, 1, golden.cycles);
  const auto& busy_f = layouts().sfu_ctl.busy;
  std::size_t found_busy = 0;
  for (const auto& c : trace.checkpoints) {
    if (c.quiescent) continue;
    if (c.modules[static_cast<std::size_t>(Module::SfuCtl)].bits.get_field(
            busy_f.offset, busy_f.width) == 0)
      continue;
    // Checking every busy capture would be slow for no extra coverage;
    // probe the first few (pipeline filling) and every 32nd after.
    if (found_busy < 4 || found_busy % 32 == 0) expect_restores_exactly(c);
    ++found_busy;
  }
  EXPECT_GT(found_busy, 0u) << "no capture landed on an SFU-busy cycle";
}

// ----------------------------------------------------- ladder and resuming

TEST(GoldenTraceTest, FloorReturnsNearestResumableRung) {
  const auto w = ffma_workload();
  GoldenTrace trace;
  Sm sm;
  w.setup(sm);
  ASSERT_EQ(sm.run_traced(w.program, w.dims, trace, 50).status,
            RunStatus::Ok);
  ASSERT_GE(trace.checkpoints.size(), 3u);
  ASSERT_EQ(trace.checkpoints.front().cycle, 0u);

  for (const std::uint64_t probe :
       {std::uint64_t{0}, std::uint64_t{1}, trace.result.cycles / 2,
        trace.result.cycles}) {
    const SmCheckpoint* f = trace.floor(probe);
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->quiescent);
    EXPECT_LE(f->cycle, probe);
    for (const auto& c : trace.checkpoints) {
      if (c.quiescent && c.cycle <= probe) EXPECT_LE(c.cycle, f->cycle);
    }
  }
}

TEST(GoldenTraceTest, TimelineCoversEveryQuiescentPointUpToTheEnd) {
  const auto w = ffma_workload();
  GoldenTrace trace;
  Sm sm;
  w.setup(sm);
  ASSERT_EQ(sm.run_traced(w.program, w.dims, trace, 50).status,
            RunStatus::Ok);
  EXPECT_FALSE(trace.digest_at.empty());
  // The final quiescent point (all warps done) is on the timeline, which
  // is what lets a converged trial claim the golden cycle count.
  EXPECT_TRUE(trace.digest_at.count(trace.result.cycles));
}

TEST(ResumeTest, ResumeFromEveryRungEqualsFreshRun) {
  // t-MxM: multi-instruction kernel with shared memory, branches, barriers.
  const auto w = rtlfi::make_tmxm(rtlfi::TileKind::Random, 3);
  GoldenTrace trace;
  Sm golden;
  w.setup(golden);
  ASSERT_EQ(golden.run_traced(w.program, w.dims, trace, 200).status,
            RunStatus::Ok);
  const auto golden_global = golden.global();

  // A fault scheduled far past the end never fires: the resumed run must
  // reproduce the golden suffix exactly from every rung.
  FaultSpec never;
  never.module = Module::Scheduler;
  never.bit = 0;
  never.cycle = std::uint64_t{1} << 40;

  ASSERT_GE(trace.checkpoints.size(), 2u);
  Sm sm;
  for (const auto& rung : trace.checkpoints) {
    if (!rung.quiescent) continue;
    const auto run = sm.resume_with_fault(w.program, w.dims, never,
                                          trace.result.cycles * 4 + 4096,
                                          rung);
    EXPECT_EQ(run.status, RunStatus::Ok);
    EXPECT_FALSE(run.converged);
    EXPECT_EQ(run.cycles, trace.result.cycles) << "rung @" << rung.cycle;
    EXPECT_EQ(sm.global(), golden_global) << "rung @" << rung.cycle;
  }
}

TEST(ResumeTest, RejectsNonResumableCheckpoint) {
  Sm sm;
  const SmCheckpoint c = sm.checkpoint();  // at-rest: not resumable
  const auto w = ffma_workload();
  EXPECT_THROW(sm.resume_with_fault(w.program, w.dims, FaultSpec{}, 1000, c),
               std::invalid_argument);
}

TEST(ResumeTest, ConvergedTrialReportsGoldenOutcome) {
  // A flip of a flip-flop that normal operation overwrites is masked; with
  // the golden timeline attached the run must detect re-convergence, stop
  // early, and report the golden cycle count.
  const auto w = ffma_workload();
  GoldenTrace trace;
  Sm golden;
  w.setup(golden);
  ASSERT_EQ(golden.run_traced(w.program, w.dims, trace, 50).status,
            RunStatus::Ok);

  // Draw (bit, cycle) like a campaign does; the FP32 AVF is a few percent,
  // so a converging (masked) trial turns up within a handful of draws.
  bool converged_once = false;
  Sm sm;
  Rng rng(12345);
  const auto bits = layouts().fp32_fu.layout.bits();
  for (unsigned attempt = 0; attempt < 100 && !converged_once; ++attempt) {
    FaultSpec f;
    f.module = Module::Fp32Fu;
    f.bit = static_cast<std::uint32_t>(rng.below(bits));
    f.cycle = rng.below(trace.result.cycles);
    const auto run = sm.resume_with_fault(w.program, w.dims, f,
                                          trace.result.cycles * 4 + 4096,
                                          *trace.floor(f.cycle), &trace, 4);
    if (!run.converged) continue;
    converged_once = true;
    EXPECT_EQ(run.status, RunStatus::Ok);
    EXPECT_EQ(run.cycles, trace.result.cycles);
  }
  EXPECT_TRUE(converged_once)
      << "no FP32 flip converged in 100 draws -- early exit never fires";
}

}  // namespace
}  // namespace gpufi::rtl
