// Unit tests for the shared parallel campaign engine: the thread pool, the
// derived-stream rng, and the bit-identical-across-jobs determinism contract
// of the RTL/software campaign runners and the syndrome-database builder.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/gpufi.hpp"
#include "exec/engine.hpp"
#include "rtlfi/campaign.hpp"
#include "rtlfi/microbench.hpp"
#include "swfi/swfi.hpp"
#include "syndrome/syndrome.hpp"

using namespace gpufi;

// ---------------------------------------------------------------- rng_derive

TEST(RngDerive, IsDeterministicAndStreamSensitive) {
  EXPECT_EQ(rng_derive(42, 7), rng_derive(42, 7));
  EXPECT_NE(rng_derive(42, 7), rng_derive(42, 8));
  EXPECT_NE(rng_derive(42, 7), rng_derive(43, 7));
  // Order of stream indices matters (a stream is a path, not a set).
  EXPECT_NE(rng_derive(42, 1, 2), rng_derive(42, 2, 1));
  // More indices = a different stream, not a prefix alias.
  EXPECT_NE(rng_derive(42, 1), rng_derive(42, 1, 0));
}

TEST(RngDerive, IsUsableAtCompileTime) {
  static_assert(rng_derive(1, 2, 3) != rng_derive(1, 2, 4));
  constexpr std::uint64_t s = splitmix64(0);
  static_assert(s != 0);
}

TEST(RngDerive, NearbySeedsGiveDecorrelatedStreams) {
  // Consecutive trial indices must not produce correlated generators: check
  // that the first outputs of 64 adjacent streams are all distinct.
  std::vector<std::uint64_t> firsts;
  for (std::uint64_t i = 0; i < 64; ++i)
    firsts.push_back(Rng(rng_derive(123, i))());
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::adjacent_find(firsts.begin(), firsts.end()), firsts.end());
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (unsigned jobs : {1u, 2u, 4u}) {
    ThreadPool pool(jobs);
    std::vector<std::atomic<int>> hits(257);
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, IsReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 20; ++batch)
    pool.run(31, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 20u * 31u);
}

TEST(ThreadPool, HandlesEmptyAndTinyBatches) {
  ThreadPool pool(4);
  pool.run(0, [](std::size_t) { FAIL() << "task ran for n=0"; });
  std::atomic<int> n{0};
  pool.run(1, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, RethrowsFirstTaskException) {
  for (unsigned jobs : {1u, 4u}) {
    ThreadPool pool(jobs);
    EXPECT_THROW(
        pool.run(64,
                 [](std::size_t i) {
                   if (i == 13) throw std::runtime_error("boom");
                 }),
        std::runtime_error);
    // The pool survives a throwing batch.
    std::atomic<int> n{0};
    pool.run(8, [&](std::size_t) { ++n; });
    EXPECT_EQ(n.load(), 8);
  }
}

TEST(ThreadPool, SizeIsAtLeastOne) {
  EXPECT_GE(ThreadPool(1).size(), 1u);
  EXPECT_GE(ThreadPool(3).size(), 3u);
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
}

// -------------------------------------------------------------- exec engine

namespace {

/// Toy result type: order-sensitive record list + commutative counter.
struct ToyResult {
  std::vector<std::uint64_t> draws;
  std::uint64_t sum = 0;
  void merge(const ToyResult& o) {
    sum += o.sum;
    draws.insert(draws.end(), o.draws.begin(), o.draws.end());
  }
};

ToyResult toy_campaign(std::size_t n, unsigned jobs) {
  exec::EngineConfig ec;
  ec.n_trials = n;
  ec.seed = 99;
  ec.jobs = jobs;
  return exec::run_trials<ToyResult>(
      ec, [] { return 0; },
      [](int&, std::size_t, Rng& rng, ToyResult& shard) {
        const std::uint64_t d = rng();
        shard.sum += d;
        shard.draws.push_back(d);
      });
}

}  // namespace

TEST(Engine, ChunkSizeDependsOnlyOnTrialCount) {
  EXPECT_GE(exec::chunk_size(1), 1u);
  EXPECT_EQ(exec::chunk_size(500), exec::chunk_size(500));
  EXPECT_LE(exec::chunk_size(1'000'000), 256u);
}

TEST(Engine, TrialsAreIdenticalAndOrderedForAnyJobs) {
  const ToyResult serial = toy_campaign(333, 1);
  ASSERT_EQ(serial.draws.size(), 333u);
  for (unsigned jobs : {2u, 4u, 7u}) {
    const ToyResult parallel = toy_campaign(333, jobs);
    EXPECT_EQ(serial.sum, parallel.sum);
    EXPECT_EQ(serial.draws, parallel.draws);  // trial-index order preserved
  }
}

TEST(Engine, ProgressReachesTotalExactlyOnceAtEnd) {
  exec::EngineConfig ec;
  ec.n_trials = 200;
  ec.seed = 1;
  ec.jobs = 4;
  std::atomic<std::size_t> final_reports{0};
  std::atomic<std::size_t> last_done{0};
  ec.progress = [&](const exec::Progress& p) {
    EXPECT_EQ(p.total, 200u);
    EXPECT_LE(p.done, p.total);
    last_done = p.done;
    if (p.done == p.total) ++final_reports;
  };
  exec::run_trials<ToyResult>(
      ec, [] { return 0; },
      [](int&, std::size_t, Rng&, ToyResult& shard) { ++shard.sum; });
  EXPECT_EQ(final_reports.load(), 1u);
  EXPECT_EQ(last_done.load(), 200u);
}

// ------------------------------------------------------------- edge cases

TEST(Engine, ZeroTrialsRunsNothing) {
  exec::EngineConfig ec;
  ec.n_trials = 0;
  ec.seed = 5;
  std::atomic<int> contexts{0};
  const ToyResult r = exec::run_trials<ToyResult>(
      ec,
      [&] {
        ++contexts;
        return 0;
      },
      [](int&, std::size_t, Rng&, ToyResult&) {
        FAIL() << "trial ran for n_trials=0";
      });
  EXPECT_EQ(r.sum, 0u);
  EXPECT_TRUE(r.draws.empty());
  EXPECT_EQ(contexts.load(), 0);
}

TEST(Engine, ResolveJobsClampsToBatchWidth) {
  EXPECT_EQ(exec::resolve_jobs(8, 3), 3u);   // never wider than the batch
  EXPECT_EQ(exec::resolve_jobs(2, 100), 2u);
  EXPECT_EQ(exec::resolve_jobs(5, 5), 5u);
  EXPECT_GE(exec::resolve_jobs(0, 1000), 1u);  // 0 = default, still >= 1
  EXPECT_EQ(exec::resolve_jobs(0, 1), 1u);
  EXPECT_EQ(exec::resolve_jobs(7, 0), 1u);  // empty batch: minimal pool
}

TEST(Engine, MoreJobsThanTrialsIsIdenticalToSerial) {
  const ToyResult serial = toy_campaign(3, 1);
  const ToyResult wide = toy_campaign(3, 64);  // 64 workers, 3 trials
  EXPECT_EQ(serial.sum, wide.sum);
  EXPECT_EQ(serial.draws, wide.draws);
  ASSERT_EQ(wide.draws.size(), 3u);
}

TEST(Engine, SingleJobRunsInlineOnTheCallingThread) {
  // jobs == 1 must not spin up a pool: every trial executes on the caller's
  // thread (the fast path campaigns rely on for nested parallelism).
  const auto caller = std::this_thread::get_id();
  exec::EngineConfig ec;
  ec.n_trials = 40;
  ec.seed = 9;
  ec.jobs = 1;
  exec::run_trials<ToyResult>(
      ec, [] { return 0; },
      [&](int&, std::size_t, Rng&, ToyResult& shard) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++shard.sum;
      });
}

// ------------------------------------------------------------- cancellation

TEST(CancelToken, StartsUnstoppedAndLatchesCancel) {
  exec::CancelToken t;
  EXPECT_FALSE(t.cancelled());
  EXPECT_FALSE(t.expired());
  EXPECT_FALSE(t.stopped());
  t.cancel();
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(t.stopped());
  EXPECT_FALSE(t.expired());  // cancel is not a deadline
}

TEST(CancelToken, DeadlineExpires) {
  exec::CancelToken t;
  t.set_deadline_after(std::chrono::hours(1));
  EXPECT_FALSE(t.expired());
  t.set_deadline(std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(1));
  EXPECT_TRUE(t.expired());
  EXPECT_TRUE(t.stopped());
  EXPECT_FALSE(t.cancelled());
}

TEST(Engine, CancelledTokenSkipsRemainingTrials) {
  exec::CancelToken token;
  exec::EngineConfig ec;
  ec.n_trials = 10'000;
  ec.seed = 4;
  ec.jobs = 1;
  ec.cancel = &token;
  const ToyResult r = exec::run_trials<ToyResult>(
      ec, [] { return 0; },
      [&](int&, std::size_t i, Rng&, ToyResult& shard) {
        if (i == 9) token.cancel();  // stop after the 10th trial
        ++shard.sum;
      });
  EXPECT_TRUE(token.stopped());
  // Trials 0..9 ran; everything after the cancel was skipped.
  EXPECT_GE(r.sum, 10u);
  EXPECT_LT(r.sum, 10'000u);
}

TEST(Engine, PreCancelledTokenRunsNoTrials) {
  exec::CancelToken token;
  token.cancel();
  exec::EngineConfig ec;
  ec.n_trials = 100;
  ec.seed = 4;
  ec.jobs = 2;
  ec.cancel = &token;
  const ToyResult r = exec::run_trials<ToyResult>(
      ec, [] { return 0; },
      [](int&, std::size_t, Rng&, ToyResult&) {
        FAIL() << "trial ran under a pre-cancelled token";
      });
  EXPECT_EQ(r.sum, 0u);
}

TEST(Engine, CancelledPrefixIsByteIdenticalToUncancelledRun) {
  // The partial merge under cancellation is a prefix of the full run per
  // chunk — with jobs=1 and a cancel inside the first chunk, an exact prefix.
  const ToyResult full = toy_campaign(333, 1);
  exec::CancelToken token;
  exec::EngineConfig ec;
  ec.n_trials = 333;
  ec.seed = 99;
  ec.jobs = 1;
  ec.cancel = &token;
  const ToyResult part = exec::run_trials<ToyResult>(
      ec, [] { return 0; },
      [&](int&, std::size_t i, Rng& rng, ToyResult& shard) {
        const std::uint64_t d = rng();
        shard.sum += d;
        shard.draws.push_back(d);
        if (i == 4) token.cancel();
      });
  ASSERT_EQ(part.draws.size(), 5u);
  for (std::size_t i = 0; i < part.draws.size(); ++i)
    EXPECT_EQ(part.draws[i], full.draws[i]) << "trial " << i;
}

TEST(Engine, RtlCampaignHonoursCancelToken) {
  const auto w = rtlfi::make_microbenchmark(isa::Opcode::FADD,
                                            rtlfi::InputRange::Medium, 3);
  exec::CancelToken token;
  token.cancel();
  rtlfi::CampaignConfig cfg;
  cfg.module = rtl::Module::Fp32Fu;
  cfg.n_faults = 50;
  cfg.seed = 11;
  cfg.jobs = 1;
  cfg.cancel = &token;
  const auto r = rtlfi::run_campaign(w, cfg);
  EXPECT_EQ(r.injected, 0u);  // pre-cancelled: no trial ran
}

// ------------------------------------------------- campaign-level determinism

namespace {

rtlfi::CampaignResult small_rtl_campaign(unsigned jobs) {
  const auto w = rtlfi::make_microbenchmark(isa::Opcode::FADD,
                                            rtlfi::InputRange::Medium, 3);
  rtlfi::CampaignConfig cfg;
  cfg.module = rtl::Module::Fp32Fu;
  cfg.n_faults = 150;
  cfg.seed = 2024;
  cfg.keep_all_records = true;
  cfg.jobs = jobs;
  return rtlfi::run_campaign(w, cfg);
}

void expect_same_records(const rtlfi::CampaignResult& a,
                         const rtlfi::CampaignResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    EXPECT_EQ(ra.fault.bit, rb.fault.bit) << "record " << i;
    EXPECT_EQ(ra.fault.cycle, rb.fault.cycle) << "record " << i;
    EXPECT_EQ(ra.field, rb.field) << "record " << i;
    EXPECT_EQ(ra.outcome, rb.outcome) << "record " << i;
    EXPECT_EQ(ra.due_reason, rb.due_reason) << "record " << i;
    EXPECT_EQ(ra.corrupted_elements, rb.corrupted_elements) << "record " << i;
    EXPECT_EQ(ra.corrupted_threads, rb.corrupted_threads) << "record " << i;
    ASSERT_EQ(ra.diffs.size(), rb.diffs.size()) << "record " << i;
    for (std::size_t d = 0; d < ra.diffs.size(); ++d) {
      EXPECT_EQ(ra.diffs[d].index, rb.diffs[d].index);
      EXPECT_EQ(ra.diffs[d].golden, rb.diffs[d].golden);
      EXPECT_EQ(ra.diffs[d].faulty, rb.diffs[d].faulty);
      EXPECT_EQ(ra.diffs[d].bits_flipped, rb.diffs[d].bits_flipped);
    }
  }
}

}  // namespace

TEST(CampaignDeterminism, RtlCountersAndRecordsMatchAcrossJobs) {
  const auto serial = small_rtl_campaign(1);
  const auto parallel = small_rtl_campaign(4);
  EXPECT_EQ(serial.injected, parallel.injected);
  EXPECT_EQ(serial.masked, parallel.masked);
  EXPECT_EQ(serial.sdc_single, parallel.sdc_single);
  EXPECT_EQ(serial.sdc_multi, parallel.sdc_multi);
  EXPECT_EQ(serial.due, parallel.due);
  EXPECT_EQ(serial.golden_cycles, parallel.golden_cycles);
  EXPECT_GT(serial.injected, 0u);
  expect_same_records(serial, parallel);
}

TEST(CampaignDeterminism, DownstreamSyndromeDatabaseBytesMatch) {
  // The syndrome distributions ingest SDC records in order, so identical
  // serialized bytes prove the whole record stream is schedule-independent.
  const auto make_db = [](unsigned jobs) {
    syndrome::Database db;
    db.add_campaign(syndrome::Key{rtl::Module::Fp32Fu, isa::Opcode::FADD,
                                  rtlfi::InputRange::Medium},
                    small_rtl_campaign(jobs));
    db.finalize();
    std::ostringstream os;
    db.save(os);
    return os.str();
  };
  EXPECT_EQ(make_db(1), make_db(4));
}

TEST(CampaignDeterminism, SoftwareCampaignMatchesAcrossJobs) {
  const auto run = [](unsigned jobs) {
    auto h = apps::make_mxm(12);
    swfi::Config cfg;
    cfg.model = swfi::FaultModel::SingleBitFlip;
    cfg.n_injections = 60;
    cfg.seed = 31;
    cfg.jobs = jobs;
    return swfi::run_sw_campaign(h.app, cfg);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(serial.injections, parallel.injections);
  EXPECT_EQ(serial.masked, parallel.masked);
  EXPECT_EQ(serial.sdc, parallel.sdc);
  EXPECT_EQ(serial.due, parallel.due);
  EXPECT_EQ(serial.candidate_instructions, parallel.candidate_instructions);
  EXPECT_GT(serial.injections, 0u);
}

TEST(CampaignDeterminism, DatabaseBuildMatchesAcrossJobs) {
  // Full builder at miniature scale: every (module, opcode, range) campaign
  // plus t-MxM, serialized byte-for-byte equal whatever the parallelism.
  const auto build = [](unsigned jobs) {
    core::RtlCharacterizationConfig cfg;
    cfg.faults_per_campaign = 8;
    cfg.value_seeds = 1;
    cfg.tmxm_faults = 16;
    cfg.jobs = jobs;
    std::ostringstream os;
    core::build_syndrome_database(cfg).save(os);
    return os.str();
  };
  EXPECT_EQ(build(1), build(3));
}

// ------------------------------------------------------------ merge algebra

namespace {

rtlfi::CampaignResult counters(std::size_t injected, std::size_t masked,
                               std::size_t s1, std::size_t sm,
                               std::size_t due) {
  rtlfi::CampaignResult r;
  r.injected = injected;
  r.masked = masked;
  r.sdc_single = s1;
  r.sdc_multi = sm;
  r.due = due;
  return r;
}

void expect_same_counters(const rtlfi::CampaignResult& a,
                          const rtlfi::CampaignResult& b) {
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.sdc_single, b.sdc_single);
  EXPECT_EQ(a.sdc_multi, b.sdc_multi);
  EXPECT_EQ(a.due, b.due);
  EXPECT_DOUBLE_EQ(a.avf(), b.avf());
  EXPECT_DOUBLE_EQ(a.margin_of_error(), b.margin_of_error());
}

}  // namespace

TEST(MergeAlgebra, CountersAreAssociativeAndCommutative) {
  const auto a = counters(100, 60, 25, 5, 10);
  const auto b = counters(50, 20, 20, 4, 6);
  const auto c = counters(75, 40, 15, 10, 10);

  // (a + b) + c
  rtlfi::CampaignResult ab = a;
  ab.merge(b);
  rtlfi::CampaignResult ab_c = ab;
  ab_c.merge(c);
  // a + (b + c)
  rtlfi::CampaignResult bc = b;
  bc.merge(c);
  rtlfi::CampaignResult a_bc = a;
  a_bc.merge(bc);
  expect_same_counters(ab_c, a_bc);

  // c + b + a (commuted)
  rtlfi::CampaignResult cba = c;
  cba.merge(b);
  cba.merge(a);
  expect_same_counters(ab_c, cba);
  EXPECT_GT(ab_c.margin_of_error(), 0.0);
}

TEST(MergeAlgebra, SwResultMergeAccumulates) {
  swfi::Result a;
  a.injections = 100;
  a.masked = 70;
  a.sdc = 20;
  a.due = 10;
  a.candidate_instructions = 5000;
  swfi::Result b;
  b.injections = 50;
  b.masked = 30;
  b.sdc = 15;
  b.due = 5;
  b.candidate_instructions = 5000;
  swfi::Result ab = a;
  ab.merge(b);
  swfi::Result ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.injections, 150u);
  EXPECT_EQ(ab.masked, 100u);
  EXPECT_EQ(ab.sdc, 35u);
  EXPECT_EQ(ab.due, 15u);
  EXPECT_EQ(ab.candidate_instructions, 5000u);
  EXPECT_EQ(ba.injections, ab.injections);
  EXPECT_DOUBLE_EQ(ba.pvf(), ab.pvf());
  EXPECT_DOUBLE_EQ(ba.margin_of_error(), ab.margin_of_error());
}
