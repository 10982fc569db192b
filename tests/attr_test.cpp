// The attribution layer: liveness-timeline mechanics, pipeline-stage
// derivation, the Wilson interval, report construction invariants, and the
// golden-file pin on the rendered report (text + JSON) — the bytes
// `gpufi report` promises are stable across acceleration levels and job
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "attr/attr.hpp"
#include "common/statistics.hpp"
#include "rtl/layouts.hpp"
#include "rtl/liveness.hpp"
#include "serve/server.hpp"

namespace gpufi {
namespace {

using attr::Report;
using rtl::LivenessTimeline;
using rtl::PipeStage;

// ---------------------------------------------------------------------------
// Liveness timeline.
// ---------------------------------------------------------------------------

TEST(LivenessTimeline, IntervalLookupAndResidency) {
  LivenessTimeline t;
  t.begin(0, 0, 0, /*pc=*/3, isa::Opcode::FFMA);
  t.close(5);
  t.begin(5, 0, 0, /*pc=*/4, isa::Opcode::GST);
  t.close(12);
  t.begin(14, 0, 1, /*pc=*/3, isa::Opcode::FFMA);  // gap at [12, 14)
  t.close(20);
  t.finalize(25);

  ASSERT_NE(t.at(0), nullptr);
  EXPECT_EQ(t.at(0)->pc, 3u);
  EXPECT_EQ(t.at(4)->pc, 3u);
  EXPECT_EQ(t.at(5)->pc, 4u);
  EXPECT_EQ(t.at(11)->pc, 4u);
  EXPECT_EQ(t.at(12), nullptr);  // the gap is idle
  EXPECT_EQ(t.at(13), nullptr);
  EXPECT_EQ(t.at(14)->warp, 1u);
  EXPECT_EQ(t.at(19)->dyn_index, 2u);
  EXPECT_EQ(t.at(20), nullptr);  // past the last interval
  EXPECT_EQ(t.at(1000), nullptr);

  EXPECT_EQ(t.total_cycles(), 25u);
  EXPECT_EQ(t.live_cycles_at_pc(3), 5u + 6u);  // both dynamic executions
  EXPECT_EQ(t.live_cycles_at_pc(4), 7u);
  EXPECT_EQ(t.live_cycles_at_pc(99), 0u);
}

TEST(LivenessTimeline, TrappedRunExtendsTheUnclosedInterval) {
  // A trapping instruction never reaches close(); finalize must still make
  // it attributable up to the end of the run.
  LivenessTimeline t;
  t.begin(0, 0, 0, 0, isa::Opcode::IADD);
  t.close(6);
  t.begin(6, 0, 0, 1, isa::Opcode::GLD);  // traps mid-flight
  t.finalize(10);
  ASSERT_NE(t.at(9), nullptr);
  EXPECT_EQ(t.at(9)->pc, 1u);
  EXPECT_EQ(t.at(10), nullptr);
}

TEST(LivenessTimeline, StageDerivation) {
  // A data instruction long enough to expose every phase: with len = 12 and
  // kBeats writeback ticks, the interpreter's micro-sequence maps offsets
  // 0 -> fetch, 1 -> guard, middle -> execute, the kBeats ticks before the
  // last -> writeback, len-1 -> retire.
  LivenessTimeline t;
  t.begin(100, 0, 0, 7, isa::Opcode::FFMA);
  t.close(112);
  // A control op: everything past the guard is the scheduler resolve tick.
  t.begin(112, 0, 0, 8, isa::Opcode::BRA);
  t.close(116);
  t.finalize(116);

  const auto stage = [&](std::uint64_t cycle) {
    return rtl::resolve_fault_site(t, cycle, rtl::Module::Fp32Fu).stage;
  };
  EXPECT_EQ(stage(100), PipeStage::Fetch);
  EXPECT_EQ(stage(101), PipeStage::Guard);
  EXPECT_EQ(stage(102), PipeStage::Execute);
  EXPECT_EQ(stage(106), PipeStage::Execute);
  for (std::uint64_t c = 111 - rtl::kBeats; c < 111; ++c)
    EXPECT_EQ(stage(c), PipeStage::Writeback) << "cycle " << c;
  EXPECT_EQ(stage(111), PipeStage::Retire);

  EXPECT_EQ(stage(112), PipeStage::Fetch);
  EXPECT_EQ(stage(113), PipeStage::Guard);
  EXPECT_EQ(stage(114), PipeStage::Execute);
  EXPECT_EQ(stage(115), PipeStage::Execute);
  EXPECT_EQ(stage(116), PipeStage::Idle);
}

TEST(LivenessTimeline, UnitOccupancyFollowsTheDatapath) {
  using isa::Opcode;
  using rtl::Module;
  using rtl::unit_occupied;
  // Every instruction traverses scheduler + pipeline registers.
  EXPECT_TRUE(unit_occupied(Module::Scheduler, Opcode::FFMA));
  EXPECT_TRUE(unit_occupied(Module::PipelineRegs, Opcode::GLD));
  // Functional units are busy only for their own class.
  EXPECT_TRUE(unit_occupied(Module::Fp32Fu, Opcode::FFMA));
  EXPECT_FALSE(unit_occupied(Module::Fp32Fu, Opcode::IADD));
  EXPECT_TRUE(unit_occupied(Module::IntFu, Opcode::IMAD));
  EXPECT_FALSE(unit_occupied(Module::IntFu, Opcode::FSIN));
  EXPECT_TRUE(unit_occupied(Module::Sfu, Opcode::FEXP));
  EXPECT_TRUE(unit_occupied(Module::SfuCtl, Opcode::FSIN));
  EXPECT_FALSE(unit_occupied(Module::Sfu, Opcode::FFMA));
}

// ---------------------------------------------------------------------------
// Wilson interval.
// ---------------------------------------------------------------------------

TEST(WilsonInterval, BracketsTheProportionAndNarrowsWithN) {
  const auto empty = stats::wilson_interval(0, 0);
  EXPECT_EQ(empty.lo, 0.0);
  EXPECT_EQ(empty.hi, 1.0);

  const auto small = stats::wilson_interval(5, 20);
  EXPECT_GT(small.lo, 0.0);
  EXPECT_LT(small.lo, 0.25);
  EXPECT_GT(small.hi, 0.25);
  EXPECT_LT(small.hi, 1.0);

  const auto large = stats::wilson_interval(500, 2000);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
  EXPECT_LT(large.lo, 0.25);
  EXPECT_GT(large.hi, 0.25);

  // Degenerate proportions never escape [0, 1] (the classic Wald failure).
  const auto zero = stats::wilson_interval(0, 50);
  EXPECT_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  const auto one = stats::wilson_interval(50, 50);
  EXPECT_GT(one.hi, 0.99);  // 1 up to rounding in the score computation
  EXPECT_LE(one.hi, 1.0);
  EXPECT_LT(one.lo, 1.0);
}

// ---------------------------------------------------------------------------
// Report construction.
// ---------------------------------------------------------------------------

/// The FP32 report of FFMA on M-range inputs; `module` "all" bombards the
/// six modules.
serve::CampaignSpec report_spec(const std::string& module = "fp32") {
  serve::CampaignSpec spec;
  spec.kind = serve::CampaignKind::Report;
  spec.op = "FFMA";
  spec.module = module;
  spec.faults = 200;
  spec.seed = 7;
  spec.jobs = 0;
  return spec;
}

Report run_report(const serve::CampaignSpec& spec) {
  serve::Caches caches;
  return serve::run_report_spec(spec, caches, {}, nullptr);
}

TEST(AttrReport, CountsAreConsistent) {
  const Report r = run_report(report_spec());
  EXPECT_EQ(r.workload, "FFMA/M");
  EXPECT_GT(r.golden_cycles, 0u);
  EXPECT_EQ(r.injected, 200u);
  EXPECT_EQ(r.attributed + r.unattributed, r.injected);
  ASSERT_FALSE(r.rows.empty());
  std::uint64_t hits = 0;
  for (const auto& row : r.rows) {
    hits += row.hits;
    EXPECT_EQ(row.hits, row.masked + row.sdc + row.due);
    EXPECT_LE(row.sdc_lo, row.p_sdc);
    EXPECT_GE(row.sdc_hi, row.p_sdc);
    EXPECT_GE(row.residency, 0.0);
    EXPECT_LE(row.residency, 1.0);
  }
  EXPECT_EQ(hits, r.injected);
  // Rows are sorted by descending score, the report's headline ordering.
  for (std::size_t i = 1; i < r.rows.size(); ++i)
    EXPECT_GE(r.rows[i - 1].score, r.rows[i].score);
  // Opcode aggregates cover the same hits.
  std::uint64_t op_hits = 0;
  for (const auto& o : r.opcodes) op_hits += o.hits;
  EXPECT_EQ(op_hits, r.injected);
}

TEST(AttrReport, SingleModuleReportIsASliceOfTheAllModuleReport) {
  // The per-module seed derivation (rng_derive(seed, module)) makes the
  // fp32-only report reproduce exactly the FP32 rows of the all-module
  // report, so single-module reports compose into the full one.
  const Report single = run_report(report_spec());
  const Report all = run_report(report_spec("all"));

  std::vector<attr::InstrRow> fp32_rows;
  for (const auto& row : all.rows)
    if (row.module == "FP32") fp32_rows.push_back(row);
  ASSERT_EQ(fp32_rows.size(), single.rows.size());
  // Same counts per (pc, op); the floating-point derivatives follow.
  auto sorted = [](std::vector<attr::InstrRow> rows) {
    std::sort(rows.begin(), rows.end(),
              [](const attr::InstrRow& a, const attr::InstrRow& b) {
                return std::tie(a.live, a.pc) < std::tie(b.live, b.pc);
              });
    return rows;
  };
  const auto a = sorted(fp32_rows);
  const auto b = sorted(single.rows);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pc, b[i].pc);
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].hits, b[i].hits);
    EXPECT_EQ(a[i].masked, b[i].masked);
    EXPECT_EQ(a[i].sdc, b[i].sdc);
    EXPECT_EQ(a[i].due, b[i].due);
  }
}

// ---------------------------------------------------------------------------
// Golden-file pin on the rendered bytes.
// ---------------------------------------------------------------------------

std::string read_golden(const std::string& name) {
  const std::string path = std::string(GPUFI_TEST_GOLDEN_DIR) + "/" + name;
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << "missing golden file " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(AttrReport, RenderedReportMatchesGoldenFiles) {
  // Regenerate with:
  //   gpufi report FFMA fp32 --faults 200 --seed 7
  //       --out tests/golden/report_ffma_fp32.txt
  //   gpufi report FFMA fp32 --faults 200 --seed 7 --json
  //       --out tests/golden/report_ffma_fp32.json
  const Report r = run_report(report_spec());
  EXPECT_EQ(attr::render_text(r), read_golden("report_ffma_fp32.txt"));
  EXPECT_EQ(attr::render_json(r), read_golden("report_ffma_fp32.json"));
}

}  // namespace
}  // namespace gpufi
