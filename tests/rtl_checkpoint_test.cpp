// Tests for the Sm checkpoint/restore fast path: digest determinism,
// snapshot -> mutate -> restore round-trips (including mid-beat and
// SFU-busy capture points), paged memory against a dense reference, the
// golden checkpoint ladder, and the resume-equals-fresh-replay guarantee the
// campaign acceleration rests on.
#include <gtest/gtest.h>

#include <array>
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

// ------------------------------------------------ paged memory vs dense

/// The dense TrackedArray the paged one replaced: a zero-filled vector with
/// the same watermark, digest and snapshot rules. Reference for the paged
/// storage.
template <class T>
class DenseArray {
 public:
  struct Snapshot {
    std::vector<T> prefix;
    std::size_t size = 0;
    std::uint64_t digest = 0;
  };

  void init(std::size_t n, std::uint64_t salt) {
    v_.assign(n, T{});
    salt_ = salt;
    hi_ = 0;
    digest_ = 0;
  }
  void resize_clear(std::size_t n) {
    if (v_.size() == n) {
      clear();
      return;
    }
    v_.assign(n, T{});
    hi_ = 0;
    digest_ = 0;
  }
  std::size_t size() const { return v_.size(); }
  T operator[](std::size_t i) const { return v_[i]; }
  void store(std::size_t i, T val) {
    T& slot = v_[i];
    if (slot == val) return;
    if (track_)
      digest_ ^= state_digest_mix(salt_, i, slot) ^
                 state_digest_mix(salt_, i, val);
    slot = val;
    if (i >= hi_) hi_ = i + 1;
  }
  void clear() {
    std::fill(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(hi_), T{});
    hi_ = 0;
    digest_ = 0;
  }
  std::size_t hi() const { return hi_; }
  std::uint64_t digest() const { return digest_; }
  void set_tracking(bool on) {
    if (on && !track_) {
      digest_ = 0;
      for (std::size_t i = 0; i < hi_; ++i)
        digest_ ^= state_digest_mix(salt_, i, v_[i]);
    }
    track_ = on;
  }
  bool tracking() const { return track_; }
  Snapshot snapshot() const {
    Snapshot s;
    s.prefix.assign(v_.begin(),
                    v_.begin() + static_cast<std::ptrdiff_t>(hi_));
    s.size = v_.size();
    s.digest = digest_;
    return s;
  }
  void restore(const Snapshot& s) {
    if (v_.size() != s.size)
      v_.assign(s.size, T{});
    else if (hi_ > s.prefix.size())
      std::fill(v_.begin() + static_cast<std::ptrdiff_t>(s.prefix.size()),
                v_.begin() + static_cast<std::ptrdiff_t>(hi_), T{});
    std::copy(s.prefix.begin(), s.prefix.end(), v_.begin());
    hi_ = s.prefix.size();
    digest_ = s.digest;
  }

 private:
  std::vector<T> v_;
  std::size_t hi_ = 0;
  std::uint64_t salt_ = 0;
  std::uint64_t digest_ = 0;
  bool track_ = false;
};

using Paged = TrackedArray<std::uint32_t>;
using Dense = DenseArray<std::uint32_t>;

/// Every observable of the two arrays agrees: size, watermark, digest,
/// tracking mode, the snapshot, and the words at `addrs` (those in range).
testing::AssertionResult same_memory(const Paged& p, const Dense& d,
                                     const std::vector<std::size_t>& addrs) {
  if (p.size() != d.size())
    return testing::AssertionFailure()
           << "size " << p.size() << " vs " << d.size();
  if (p.hi() != d.hi())
    return testing::AssertionFailure() << "hi " << p.hi() << " vs " << d.hi();
  if (p.digest() != d.digest() || p.tracking() != d.tracking())
    return testing::AssertionFailure() << "digest or tracking mode";
  for (const std::size_t a : addrs)
    if (a < p.size() && p[a] != d[a])
      return testing::AssertionFailure()
             << "word " << a << ": " << p[a] << " vs " << d[a];
  const auto ps = p.snapshot();
  const auto ds = d.snapshot();
  if (ps.prefix != ds.prefix || ps.size != ds.size || ps.digest != ds.digest)
    return testing::AssertionFailure() << "snapshot";
  return testing::AssertionSuccess();
}

TEST(PagedMemory, MatchesTheDenseReferenceOverASeededSequence) {
  constexpr std::size_t kWords = std::size_t{1} << 20;
  constexpr std::size_t kPage = Paged::kPageWords;
  // A size that ends inside a page, for snapshots of another size.
  constexpr std::size_t kOther = 5 * kPage + 300;
  constexpr std::array<std::size_t, 4> kEdges = {0, kPage - 1, kPage,
                                                 kWords - 1};
  const std::uint64_t salt = digest_salt(kSaltDomainGlobal);
  Paged paged;
  Dense dense;
  paged.init(kWords, salt);
  dense.init(kWords, salt);

  Rng rng(20261019);
  std::vector<std::pair<Paged::Snapshot, Dense::Snapshot>> saved;
  {
    Paged p;
    Dense d;
    p.init(kOther, salt);
    d.init(kOther, salt);
    for (const std::size_t a : {std::size_t{3}, kPage + 7, kOther - 1}) {
      p.store(a, 0x5a5a0000u + static_cast<std::uint32_t>(a));
      d.store(a, 0x5a5a0000u + static_cast<std::uint32_t>(a));
    }
    saved.emplace_back(p.snapshot(), d.snapshot());
  }

  // Words read back after every step: the edges, recent stores, and random
  // words over the whole array and over the data window.
  std::vector<std::size_t> recent;
  std::size_t zero_stores = 0, shorter = 0, longer = 0, resized = 0;
  std::array<std::size_t, kEdges.size()> edge_stores{};
  constexpr std::size_t kSteps = 12000;
  for (std::size_t step = 0; step < kSteps; ++step) {
    const std::size_t n = dense.size();
    const auto op = rng.below(1000);
    if (op < 700) {
      std::size_t a = rng.below(std::min(n, 3 * kPage));
      if (const auto e = rng.below(100); e < kEdges.size() && kEdges[e] < n) {
        a = kEdges[e];
        ++edge_stores[e];
      } else if (e == kEdges.size()) {
        a = rng.below(n);  // a wild store anywhere in range
      }
      std::uint32_t v = static_cast<std::uint32_t>(rng());
      if (const auto k = rng.below(10); k < 3) {
        v = 0;
        ++zero_stores;
      } else if (k < 5) {
        v = dense[a];  // a store that changes nothing
      }
      paged.store(a, v);
      dense.store(a, v);
      recent.push_back(a);
      if (recent.size() > 16) recent.erase(recent.begin());
    } else if (op < 760) {
      paged.clear();
      dense.clear();
    } else if (op < 820) {
      if (saved.size() < 16)
        saved.emplace_back(paged.snapshot(), dense.snapshot());
      else
        saved[rng.below(saved.size())] = {paged.snapshot(), dense.snapshot()};
    } else if (op < 900) {
      const auto& [ps, ds] = saved[rng.below(saved.size())];
      if (ds.size != n)
        ++resized;
      else if (ds.prefix.size() < dense.hi())
        ++shorter;
      else if (ds.prefix.size() > dense.hi())
        ++longer;
      paged.restore(ps);
      dense.restore(ds);
    } else if (op < 920) {
      const bool on = !dense.tracking();
      paged.set_tracking(on);
      dense.set_tracking(on);
    } else if (op < 930) {
      const std::size_t to = rng.below(2) ? kWords : kOther;
      paged.resize_clear(to);
      dense.resize_clear(to);
    }

    std::vector<std::size_t> addrs(kEdges.begin(), kEdges.end());
    addrs.insert(addrs.end(), recent.begin(), recent.end());
    for (unsigned r = 0; r < 8; ++r) {
      addrs.push_back(rng.below(dense.size()));
      addrs.push_back(rng.below(std::min(dense.size(), 3 * kPage)));
    }
    if (step % 1000 == 999)
      for (std::size_t a = 0; a < dense.size(); ++a) addrs.push_back(a);
    ASSERT_TRUE(same_memory(paged, dense, addrs)) << "after step " << step;
  }
  // The sequence covered every case it is meant to.
  EXPECT_GT(zero_stores, 0u);
  for (std::size_t e = 0; e < kEdges.size(); ++e)
    EXPECT_GT(edge_stores[e], 0u) << "edge word " << kEdges[e];
  EXPECT_GT(shorter, 0u);
  EXPECT_GT(longer, 0u);
  EXPECT_GT(resized, 0u);
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
      if (c.quiescent && c.cycle <= probe) {
        EXPECT_LE(c.cycle, f->cycle);
      }
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

TEST(ResumeTest, WildStoreNeverReachesTheNextTrial) {
  // A faulty trial may store to any in-range word, far above the workload's
  // data. Restoring a rung must leave no trace of it in the next trial.
  const auto w = ffma_workload();
  GoldenTrace trace;
  Sm golden;
  w.setup(golden);
  ASSERT_EQ(golden.run_traced(w.program, w.dims, trace, 50).status,
            RunStatus::Ok);
  std::vector<const SmCheckpoint*> rungs;
  for (const auto& c : trace.checkpoints)
    if (c.quiescent) rungs.push_back(&c);
  ASSERT_GE(rungs.size(), 3u);
  const SmCheckpoint& rung = *rungs[rungs.size() / 2];

  const auto last = static_cast<std::uint32_t>(golden.global_words() - 1);
  const std::uint32_t untouched = 500000;  // a page the workload never uses
  ASSERT_EQ(golden.read_word(untouched), 0u);

  Sm dirty;
  dirty.enable_digest_tracking();
  dirty.restore(rung);
  dirty.write_word(last, 0xdeadbeef);
  dirty.write_word(untouched, 42);
  dirty.restore(rung);
  {
    Sm fresh;
    fresh.enable_digest_tracking();
    fresh.restore(rung);
    EXPECT_EQ(dirty.global(), fresh.global());
    EXPECT_EQ(dirty.state_digest(), fresh.state_digest());
  }

  // The next trials from that rung, each after another wild store.
  Rng rng(777);
  const auto bits = layouts().pipeline.layout.bits();
  for (unsigned trial = 0; trial < 8; ++trial) {
    FaultSpec f;
    f.module = Module::PipelineRegs;
    f.bit = static_cast<std::uint32_t>(rng.below(bits));
    f.cycle = rung.cycle + rng.below(trace.result.cycles - rung.cycle);
    dirty.write_word(last, 0xdeadbeef + trial);
    dirty.write_word(untouched + 4096 * trial, 42);
    Sm fresh;
    fresh.restore(rung);
    const auto a = dirty.resume_with_fault(w.program, w.dims, f,
                                           trace.result.cycles * 4 + 4096,
                                           rung, &trace);
    const auto b = fresh.resume_with_fault(w.program, w.dims, f,
                                           trace.result.cycles * 4 + 4096,
                                           rung, &trace);
    EXPECT_EQ(a.status, b.status) << "trial " << trial;
    EXPECT_EQ(a.trap_reason, b.trap_reason) << "trial " << trial;
    EXPECT_EQ(a.cycles, b.cycles) << "trial " << trial;
    EXPECT_EQ(a.converged, b.converged) << "trial " << trial;
    EXPECT_EQ(dirty.global(), fresh.global()) << "trial " << trial;
    EXPECT_EQ(dirty.state_digest(), fresh.state_digest()) << "trial " << trial;
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
