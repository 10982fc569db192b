#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/gpufi.hpp"
#include "obs/metrics.hpp"
#include "rtlfi/campaign.hpp"
#include "rtlfi/microbench.hpp"
#include "syndrome/syndrome.hpp"

namespace gpufi::syndrome {
namespace {

using isa::Opcode;
using rtl::Module;
using rtlfi::InputRange;

// ---------------------------------------------------------------- Dist

TEST(Dist, IgnoresInvalidSamples) {
  Dist d;
  d.add(0.0);
  d.add(-1.0);
  d.add(std::numeric_limits<double>::infinity());
  d.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(d.count(), 0u);
  d.add(0.5);
  EXPECT_EQ(d.count(), 1u);
}

TEST(Dist, MedianAndHistogram) {
  Dist d;
  for (double x : {0.1, 0.2, 0.3, 0.4, 0.5}) d.add(x);
  EXPECT_NEAR(d.median(), 0.3, 1e-12);
  EXPECT_EQ(d.histogram().count(), 5u);
}

TEST(Dist, FitsPowerLawAndSamplesViaEquationOne) {
  Rng rng(1);
  PowerLaw truth{2.3, 1e-3, 0, 0};
  Dist d;
  for (int i = 0; i < 5000; ++i) d.add(truth.sample(rng));
  ASSERT_TRUE(d.fit());
  EXPECT_NEAR(d.power_law()->alpha, 2.3, 0.25);
  for (int i = 0; i < 100; ++i)
    EXPECT_GE(d.sample(rng), d.power_law()->x_min);
}

TEST(Dist, FallsBackToEmpiricalWithoutFit) {
  Rng rng(2);
  Dist d;
  for (int i = 0; i < 4; ++i) d.add(0.25);
  EXPECT_FALSE(d.fit());  // too few samples
  const double s = d.sample(rng);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

TEST(Dist, SyndromesAreNotGaussian) {
  // The paper: Shapiro-Wilk rejects normality for every syndrome
  // distribution (p < 0.05).
  Rng rng(3);
  PowerLaw pl{2.0, 1e-4, 0, 0};
  Dist d;
  for (int i = 0; i < 1000; ++i) d.add(pl.sample(rng));
  EXPECT_LT(d.shapiro_p(), 0.05);
}

// ------------------------------------------------------- pattern classify

std::vector<std::uint32_t> idx(std::initializer_list<std::uint32_t> l) {
  return {l};
}

TEST(Pattern, Classification8x8) {
  EXPECT_EQ(classify_pattern(idx({5}), 8, 8), Pattern::Single);
  EXPECT_EQ(classify_pattern(idx({8, 9, 10, 11, 12, 13, 14, 15}), 8, 8),
            Pattern::Row);
  EXPECT_EQ(classify_pattern(idx({8, 10, 13}), 8, 8), Pattern::Row);
  EXPECT_EQ(classify_pattern(idx({2, 10, 18, 26}), 8, 8), Pattern::Col);
  EXPECT_EQ(classify_pattern(idx({16, 17, 18, 19, 20, 21, 22, 23, 3, 11, 27,
                                  35, 43, 51, 59}),
                             8, 8),
            Pattern::RowCol);
  EXPECT_EQ(classify_pattern(idx({9, 10, 17, 18, 25, 26}), 8, 8),
            Pattern::Block);
  EXPECT_EQ(classify_pattern(idx({0, 9, 27, 45, 63, 12, 33}), 8, 8),
            Pattern::Random);
  std::vector<std::uint32_t> all;
  for (std::uint32_t i = 0; i < 64; ++i) all.push_back(i);
  EXPECT_EQ(classify_pattern(all, 8, 8), Pattern::All);
  all.pop_back();  // 63 of 64 still counts as "all (or almost all)"
  EXPECT_EQ(classify_pattern(all, 8, 8), Pattern::All);
}

TEST(Pattern, NamesAreDistinct) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kNumPatterns; ++i)
    names.insert(pattern_name(static_cast<Pattern>(i)));
  EXPECT_EQ(names.size(), kNumPatterns);
}

// ------------------------------------------------------------- database

Database tiny_db() {
  Database db;
  // FADD/M characterization from a real (small) RTL campaign.
  const auto w = rtlfi::make_microbenchmark(Opcode::FADD, InputRange::Medium,
                                            1);
  rtlfi::CampaignConfig cfg;
  cfg.module = Module::Fp32Fu;
  cfg.n_faults = 600;
  cfg.seed = 4;
  db.add_campaign(Key{Module::Fp32Fu, Opcode::FADD, InputRange::Medium},
                  rtlfi::run_campaign(w, cfg));
  // t-MxM pattern stats.
  const auto tw = rtlfi::make_tmxm(rtlfi::TileKind::Random, 1);
  rtlfi::CampaignConfig tcfg;
  tcfg.module = Module::Scheduler;
  tcfg.n_faults = 700;
  tcfg.seed = 5;
  db.add_tmxm_campaign(Module::Scheduler, 8, 8,
                       rtlfi::run_campaign(tw, tcfg));
  tcfg.module = Module::PipelineRegs;
  db.add_tmxm_campaign(Module::PipelineRegs, 8, 8,
                       rtlfi::run_campaign(tw, tcfg));
  db.finalize();
  return db;
}

TEST(Database, IngestsCampaignsAndSamples) {
  Database db = tiny_db();
  const Dist* d =
      db.find(Key{Module::Fp32Fu, Opcode::FADD, InputRange::Medium});
  ASSERT_NE(d, nullptr);
  EXPECT_GT(d->count(), 0u);
  Rng rng(6);
  const auto s =
      db.sample_relative_error(Opcode::FADD, InputRange::Medium, rng);
  ASSERT_TRUE(s.has_value());
  EXPECT_GT(*s, 0.0);
  EXPECT_FALSE(
      db.sample_relative_error(Opcode::IMUL, InputRange::Medium, rng));
}

TEST(Database, TileCorruptionSampling) {
  Database db = tiny_db();
  Rng rng(7);
  bool saw_multi = false;
  for (int i = 0; i < 50; ++i) {
    const auto tc = db.sample_tile_corruption(8, 8, rng);
    ASSERT_FALSE(tc.elements.empty());
    for (const auto& e : tc.elements) {
      EXPECT_LT(e.row, 8u);
      EXPECT_LT(e.col, 8u);
      EXPECT_GT(e.rel_error, 0.0);
    }
    saw_multi |= tc.elements.size() > 1;
  }
  EXPECT_TRUE(saw_multi);
}

TEST(Database, UntrainedTileCorruptionFallsBack) {
  Database db;
  Rng rng(8);
  const auto tc = db.sample_tile_corruption(8, 8, rng);
  EXPECT_EQ(tc.elements.size(), 1u);
}

TEST(Database, SerializationRoundTrip) {
  Database db = tiny_db();
  std::stringstream ss;
  db.save(ss);
  Database loaded = Database::load(ss);
  const Key key{Module::Fp32Fu, Opcode::FADD, InputRange::Medium};
  ASSERT_NE(loaded.find(key), nullptr);
  EXPECT_EQ(loaded.find(key)->count(), db.find(key)->count());
  EXPECT_NEAR(loaded.find(key)->median(), db.find(key)->median(), 1e-9);
  EXPECT_EQ(loaded.tmxm(Module::Scheduler).total(),
            db.tmxm(Module::Scheduler).total());
}

TEST(Database, LoadRejectsGarbage) {
  std::stringstream ss("not-a-db 7");
  EXPECT_THROW(Database::load(ss), std::runtime_error);
}

/// A database of a few hundred bytes: two keys and both t-MxM sites, built
/// from synthetic SDC records.
std::string small_db_text() {
  rtlfi::CampaignResult r;
  std::uint32_t index = 0;
  for (const double e : {0.5, 1e-3, 2.25, 7e-6, 0.125, 3.0}) {
    rtlfi::InjectionRecord rec;
    rec.outcome = rtlfi::Outcome::Sdc;
    rec.diffs.push_back({.index = index++, .rel_error = e});
    r.records.push_back(rec);
  }
  Database db;
  db.add_campaign(Key{Module::Fp32Fu, Opcode::FADD, InputRange::Medium}, r);
  db.add_campaign(Key{Module::IntFu, Opcode::IADD, InputRange::Large,
                      rtl::FaultModel::StuckAt1},
                  r);
  db.add_tmxm_campaign(Module::Scheduler, 8, 8, r);
  db.add_tmxm_campaign(Module::PipelineRegs, 8, 8, r);
  db.finalize();
  std::ostringstream os;
  db.save(os);
  return os.str();
}

Database load_text(const std::string& text) {
  std::istringstream is(text);
  return Database::load(is);
}

std::string save_text(const Database& db) {
  std::ostringstream os;
  db.save(os);
  return os.str();
}

TEST(Database, EveryStrictPrefixOfASavedDatabaseThrows) {
  const std::string text = small_db_text();
  EXPECT_EQ(save_text(load_text(text)), text);
  for (std::size_t len = 0; len < text.size(); ++len)
    EXPECT_THROW(load_text(text.substr(0, len)), std::runtime_error)
        << "prefix length " << len;
}

TEST(Database, HugeCountsThrowInsteadOfReadingPastTheEnd) {
  // A corrupt count once looped on a failed stream for as long as it said.
  const std::string header = "gpufi-syndrome-db 2\n";
  for (const std::string& text :
       {header + "99999999999\n0 0 0 0\n",
        header + "1\n0 0 0 0\n5 99999999999 0.5\n"}) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(load_text(text), std::runtime_error) << text;
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
  }
}

TEST(Database, LoadRejectsCorruptRecords) {
  const std::string text = small_db_text();
  // Module, opcode, range and fault model all out of their enums.
  std::string bad_key = text;
  bad_key.replace(bad_key.find("\n0 0 1 0\n"), 9, "\n77 200 9 9\n");
  EXPECT_THROW(load_text(bad_key), std::runtime_error);
  EXPECT_THROW(load_text(text + "x"), std::runtime_error);  // trailing bytes
  EXPECT_THROW(load_text(text + "\n"), std::runtime_error);
  // The same key twice (the header count still matches).
  const auto first_key = text.find("\n0 0 1 0\n") + 1;
  const auto second_key = text.find('\n', text.find('\n', first_key) + 1) + 1;
  std::string dup = text.substr(0, second_key) +
                    text.substr(first_key, second_key - first_key) +
                    text.substr(text.find("tmxm"));
  EXPECT_THROW(load_text(dup), std::runtime_error);
  // A sample outside the number grammar, and samples save() never writes:
  // one add() would drop (not > 0), or a stored count other than
  // min(count, kMaxSamples) (six stored of seven syndromes, or of five).
  const std::pair<std::string_view, std::string_view> edits[] = {
      {"0.5", "nan"},      {"0.5", "0"},         {"0.5", "-0.5"},
      {"\n6 6 ", "\n7 6 "}, {"\n6 6 ", "\n5 6 "}};
  for (const auto& [from, to] : edits) {
    std::string bad = text;
    bad.replace(bad.find(from), from.size(), to);
    EXPECT_THROW(load_text(bad), std::runtime_error) << to;
  }
}

TEST(Database, CountPastMaxSamplesSurvivesSaveAndLoad) {
  // One SDC record corrupting 60,000 elements: more syndromes than a
  // distribution keeps samples of.
  rtlfi::InjectionRecord rec;
  rec.outcome = rtlfi::Outcome::Sdc;
  for (std::uint32_t i = 0; i < 60000; ++i)
    rec.diffs.push_back({.index = i, .rel_error = 1e-3 * (1 + i % 997)});
  rtlfi::CampaignResult r;
  r.records.push_back(rec);
  Database db;
  const Key key{Module::Fp32Fu, Opcode::FADD, InputRange::Medium};
  db.add_campaign(key, r);
  db.finalize();
  ASSERT_EQ(db.find(key)->count(), 60000u);

  const std::string text = save_text(db);
  const Database loaded = load_text(text);
  ASSERT_NE(loaded.find(key), nullptr);
  EXPECT_EQ(loaded.find(key)->count(), 60000u);
  EXPECT_EQ(loaded.find(key)->samples().size(), Dist::kMaxSamples);
  EXPECT_EQ(save_text(loaded), text);
  // The histogram (Fig. 5/6, and the sampler when no power law fits) is
  // the same before and after the round trip.
  const LogHistogram& built = db.find(key)->histogram();
  const LogHistogram& reread = loaded.find(key)->histogram();
  EXPECT_EQ(reread.count(), built.count());
  EXPECT_EQ(reread.underflow(), built.underflow());
  EXPECT_EQ(reread.overflow(), built.overflow());
  ASSERT_EQ(reread.buckets(), built.buckets());
  for (std::size_t i = 0; i < built.buckets(); ++i)
    EXPECT_EQ(reread.bucket_count(i), built.bucket_count(i)) << i;
}

TEST(Database, CommittedDatabaseSavesBackByteForByte) {
  std::ifstream f(GPUFI_TEST_DATA_DIR "/syndromes.db", std::ios::binary);
  ASSERT_TRUE(f.is_open());
  std::ostringstream bytes;
  bytes << f.rdbuf();
  EXPECT_EQ(save_text(load_text(bytes.str())), bytes.str());
}

TEST(Database, LoadRejectsWrongSchemaVersionWithSchemaMismatch) {
  // A well-formed header with a stale version must raise the dedicated
  // SchemaMismatch (the CLI maps it to exit code 2), not a generic error.
  std::stringstream ss("gpufi-syndrome-db 1\n0\n");
  try {
    Database::load(ss);
    FAIL() << "expected SchemaMismatch";
  } catch (const SchemaMismatch& e) {
    EXPECT_EQ(e.found(), 1);
    EXPECT_NE(std::string(e.what()).find("schema version 1"),
              std::string::npos);
  }
}

TEST(Database, SavedHeaderCarriesTheSchemaVersion) {
  Database db;
  std::stringstream ss;
  db.save(ss);
  std::string magic;
  int version = 0;
  ss >> magic >> version;
  EXPECT_EQ(magic, "gpufi-syndrome-db");
  EXPECT_EQ(version, Database::kSchemaVersion);
}

TEST(Database, KeysSeparateFaultModelsAndRoundTrip) {
  // The same (module, op, range) under two fault models must stay two
  // distinct syndrome classes, across save/load.
  Database db;
  const auto w =
      rtlfi::make_microbenchmark(Opcode::FADD, InputRange::Medium, 1);
  rtlfi::CampaignConfig cfg;
  cfg.module = Module::Fp32Fu;
  cfg.n_faults = 400;
  cfg.seed = 4;
  db.add_campaign(Key{Module::Fp32Fu, Opcode::FADD, InputRange::Medium},
                  rtlfi::run_campaign(w, cfg));
  cfg.fault_model = rtl::FaultModel::StuckAt1;
  db.add_campaign(Key{Module::Fp32Fu, Opcode::FADD, InputRange::Medium,
                      rtl::FaultModel::StuckAt1},
                  rtlfi::run_campaign(w, cfg));
  db.finalize();
  ASSERT_EQ(db.keys().size(), 2u);

  std::stringstream ss;
  db.save(ss);
  Database loaded = Database::load(ss);
  const Key transient{Module::Fp32Fu, Opcode::FADD, InputRange::Medium};
  const Key stuck{Module::Fp32Fu, Opcode::FADD, InputRange::Medium,
                  rtl::FaultModel::StuckAt1};
  ASSERT_NE(loaded.find(transient), nullptr);
  ASSERT_NE(loaded.find(stuck), nullptr);
  EXPECT_EQ(loaded.find(transient)->count(), db.find(transient)->count());
  EXPECT_EQ(loaded.find(stuck)->count(), db.find(stuck)->count());
}

TEST(Database, SamplingFallsBackToTransientForUncharacterizedModels) {
  Database db = tiny_db();  // transient-only characterization
  Rng rng(9);
  // The stuck-at-1 class was never built: sampling must fall back to the
  // transient pool rather than return nothing.
  const auto s = db.sample_relative_error(Opcode::FADD, InputRange::Medium,
                                          rng, rtl::FaultModel::StuckAt1);
  ASSERT_TRUE(s.has_value());
  EXPECT_GT(*s, 0.0);
  // An opcode with no characterization at all still yields nullopt.
  EXPECT_FALSE(db.sample_relative_error(Opcode::IMUL, InputRange::Medium,
                                        rng, rtl::FaultModel::StuckAt1));
}

// ------------------------------------------------------------ pool index

/// `n` SDC records of one log-uniform relative error in [1e-6, 10) each.
rtlfi::CampaignResult synthetic_sdcs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  rtlfi::CampaignResult r;
  for (std::size_t i = 0; i < n; ++i) {
    rtlfi::InjectionRecord rec;
    rec.outcome = rtlfi::Outcome::Sdc;
    rec.diffs.push_back({.rel_error = std::pow(10.0, rng.uniform(-6.0, 1.0))});
    r.records.push_back(std::move(rec));
  }
  return r;
}

/// A campaign of a synthetic sampling grid, added in a scrambled order.
struct GridCampaign {
  Key key;
  std::size_t sdcs;
};

/// FADD: three modules per range under transient and stuck-at-1 faults,
/// sized so some fit a power law and some fall back to the histogram, plus
/// an SDC-free module. FMUL: two modules, transient only. IMUL: never
/// characterized.
std::vector<GridCampaign> grid_campaigns() {
  std::vector<GridCampaign> g;
  for (const auto model : {rtl::FaultModel::StuckAt1,
                           rtl::FaultModel::Transient}) {
    for (std::size_t r = rtlfi::kNumRanges; r-- > 0;) {
      const auto range = static_cast<InputRange>(r);
      const std::size_t k = r + 3 * static_cast<std::size_t>(model);
      g.push_back({{Module::Scheduler, Opcode::FADD, range, model}, 3 + k});
      g.push_back({{Module::Fp32Fu, Opcode::FADD, range, model}, 90 + 7 * k});
      g.push_back({{Module::PipelineRegs, Opcode::FADD, range, model},
                   40 + 11 * k});
      g.push_back({{Module::IntFu, Opcode::FADD, range, model}, 0});
      if (model == rtl::FaultModel::Transient) {
        g.push_back({{Module::PipelineRegs, Opcode::FMUL, range, model}, 25});
        g.push_back({{Module::Fp32Fu, Opcode::FMUL, range, model}, 60 + k});
      }
    }
  }
  return g;
}

void add_grid(Database& db, const std::vector<GridCampaign>& campaigns) {
  for (const auto& c : campaigns)
    db.add_campaign(c.key, synthetic_sdcs(c.sdcs, c.sdcs * 31 + 7));
}

/// The draw of the sampler before its pools were indexed: a walk over
/// every key, pooling the nonempty distributions of (op, range, model).
/// Bumps `fallbacks` and `misses` where that sampler counted them.
std::optional<double> walk_sample(const Database& db, Opcode op,
                                  InputRange range, Rng& rng,
                                  rtl::FaultModel model,
                                  std::uint64_t& fallbacks,
                                  std::uint64_t& misses) {
  std::vector<const Dist*> pool;
  std::size_t total = 0;
  const auto build_pool = [&](rtl::FaultModel m) {
    pool.clear();
    total = 0;
    for (const Key& key : db.keys()) {
      const Dist* d = db.find(key);
      if (key.op != op || key.range != range || key.model != m ||
          d->count() == 0)
        continue;
      pool.push_back(d);
      total += d->count();
    }
  };
  build_pool(model);
  if (total == 0 && model != rtl::FaultModel::Transient) {
    ++fallbacks;
    build_pool(rtl::FaultModel::Transient);
  }
  if (total == 0) {
    ++misses;
    return std::nullopt;
  }
  std::size_t target = rng.below(total);
  for (const Dist* d : pool) {
    if (target < d->count()) return d->sample(rng);
    target -= d->count();
  }
  return pool.back()->sample(rng);
}

constexpr std::string_view kFallbackCounter =
    "gpufi_syndrome_transient_fallback_total";
constexpr std::string_view kMissCounter = "gpufi_syndrome_sample_miss_total";

std::uint64_t counter_value(std::string_view name) {
  return obs::Registry::global().counter(name).value();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every (op, range, model) a replay can ask for, FADD, FMUL and IMUL.
template <class Fn>
void for_each_class(Fn&& fn) {
  for (const Opcode op : {Opcode::FADD, Opcode::FMUL, Opcode::IMUL})
    for (std::size_t r = 0; r < rtlfi::kNumRanges; ++r)
      for (std::size_t m = 0; m < rtl::kNumFaultModels; ++m)
        fn(op, static_cast<InputRange>(r), static_cast<rtl::FaultModel>(m));
}

/// `db` draws, per class, what the walk over `db` draws from a twin Rng,
/// leaves the Rng in the same state and bumps the same counters. Returns
/// the fallbacks and misses seen.
std::pair<std::uint64_t, std::uint64_t> expect_draws_like_walk(
    const Database& db, const std::string& tag) {
  const std::uint64_t on = obs::enabled() ? 1 : 0;
  std::uint64_t fallbacks = 0, misses = 0;
  for_each_class([&](Opcode op, InputRange range, rtl::FaultModel model) {
    const std::string cls = tag + " " + std::string(isa::mnemonic(op)) +
                            "/" + std::string(rtlfi::range_name(range)) +
                            "/" + std::string(rtl::fault_model_name(model));
    Rng got_rng(rng_derive(17, static_cast<std::uint64_t>(op),
                           static_cast<std::uint64_t>(range),
                           static_cast<std::uint64_t>(model)));
    Rng want_rng = got_rng;
    for (int i = 0; i < 48; ++i) {
      const std::uint64_t fb0 = counter_value(kFallbackCounter);
      const std::uint64_t miss0 = counter_value(kMissCounter);
      std::uint64_t fb = 0, miss = 0;
      const auto got = db.sample_relative_error(op, range, got_rng, model);
      const auto want = walk_sample(db, op, range, want_rng, model, fb, miss);
      ASSERT_EQ(got.has_value(), want.has_value()) << cls << " draw " << i;
      if (got) {
        EXPECT_EQ(bits(*got), bits(*want)) << cls << " draw " << i;
      }
      Rng a = got_rng, b = want_rng;
      ASSERT_EQ(a(), b()) << cls << " rng state after draw " << i;
      EXPECT_EQ(counter_value(kFallbackCounter) - fb0, on * fb) << cls;
      EXPECT_EQ(counter_value(kMissCounter) - miss0, on * miss) << cls;
      fallbacks += fb;
      misses += miss;
    }
  });
  return {fallbacks, misses};
}

/// Both databases draw the same values, class by class.
void expect_same_draws(const Database& a, const Database& b,
                       const std::string& tag) {
  for_each_class([&](Opcode op, InputRange range, rtl::FaultModel model) {
    Rng ra(rng_derive(23, static_cast<std::uint64_t>(op),
                      static_cast<std::uint64_t>(range),
                      static_cast<std::uint64_t>(model)));
    Rng rb = ra;
    for (int i = 0; i < 32; ++i) {
      const auto x = a.sample_relative_error(op, range, ra, model);
      const auto y = b.sample_relative_error(op, range, rb, model);
      ASSERT_EQ(x.has_value(), y.has_value()) << tag;
      if (x) {
        EXPECT_EQ(bits(*x), bits(*y)) << tag;
      }
    }
  });
}

TEST(Database, IndexedPoolsDrawWhatAWalkOfEveryKeyDrew) {
  Database db;
  add_grid(db, grid_campaigns());
  db.finalize();
  // The grid has what the index must get right: several modules per FADD
  // class under both fault models (some fitted, some histogram-sampled), an
  // SDC-free distribution, an opcode without the stuck-at class and one
  // that was never characterized.
  bool fitted = false, unfitted = false;
  for (const Key& k : db.keys()) {
    const Dist& d = *db.find(k);
    if (d.count() == 0) continue;
    (d.power_law() ? fitted : unfitted) = true;
  }
  EXPECT_TRUE(fitted);
  EXPECT_TRUE(unfitted);
  const auto [fallbacks, misses] = expect_draws_like_walk(db, "built");
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(misses, 0u);

  // A loaded copy indexes what it read.
  const Database loaded = load_text(save_text(db));
  expect_draws_like_walk(loaded, "loaded");
  expect_same_draws(db, loaded, "built vs loaded");
}

TEST(Database, CopiesAndLateCampaignsSampleLikeAFreshDatabase) {
  const auto campaigns = grid_campaigns();
  Database fresh;
  add_grid(fresh, campaigns);
  fresh.finalize();

  // Half the grid, finalized, then the other half added: the index follows
  // every add_campaign, also after finalize().
  const std::size_t half = campaigns.size() / 2;
  Database late;
  add_grid(late, {campaigns.begin(), campaigns.begin() + half});
  late.finalize();
  add_grid(late, {campaigns.begin() + half, campaigns.end()});
  expect_draws_like_walk(late, "late, unfitted");
  late.finalize();
  expect_draws_like_walk(late, "late");
  expect_same_draws(fresh, late, "fresh vs late");

  // Copies index their own distributions: growing the source afterwards
  // changes none of a copy's draws.
  Database source;
  add_grid(source, campaigns);
  source.finalize();
  const Database constructed(source);
  Database assigned;
  assigned = source;
  add_grid(source, campaigns);
  expect_draws_like_walk(source, "grown source");
  expect_draws_like_walk(constructed, "copy-constructed");
  expect_draws_like_walk(assigned, "copy-assigned");
  expect_same_draws(fresh, constructed, "fresh vs copy-constructed");
  expect_same_draws(fresh, assigned, "fresh vs copy-assigned");
  // A move keeps the map nodes the index points at.
  const Database moved(std::move(assigned));
  expect_same_draws(fresh, moved, "fresh vs moved");
}

TEST(Database, ConcurrentDrawsFromASharedDatabaseMatchSerialOnes) {
  // The pools are read-only state shared by every injecting thread.
  Database built;
  add_grid(built, grid_campaigns());
  built.finalize();
  const Database& db = built;
  constexpr int kThreads = 4;
  constexpr int kDraws = 4000;
  const auto draw_all = [&](int t, std::vector<std::uint64_t>& out) {
    Rng rng(rng_derive(29, static_cast<std::uint64_t>(t)));
    for (int i = 0; i < kDraws; ++i) {
      const auto op = i % 3 == 0 ? Opcode::FMUL : Opcode::FADD;
      const auto range = static_cast<InputRange>(i % rtlfi::kNumRanges);
      const auto model = i % 2 ? rtl::FaultModel::StuckAt1
                               : rtl::FaultModel::Transient;
      const auto s = db.sample_relative_error(op, range, rng, model);
      out.push_back(s ? bits(*s) : 0);
    }
  };
  std::vector<std::vector<std::uint64_t>> serial(kThreads), parallel(kThreads);
  for (int t = 0; t < kThreads; ++t) draw_all(t, serial[t]);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(draw_all, t, std::ref(parallel[t]));
  for (auto& th : threads) th.join();
  EXPECT_EQ(parallel, serial);
}

TEST(Database, TmxmStatsSeparateSites) {
  Database db = tiny_db();
  EXPECT_GT(db.tmxm(Module::Scheduler).total(), 0u);
  // multi_fraction over all multi patterns sums to 1.
  const auto& s = db.tmxm(Module::Scheduler);
  double sum = 0;
  for (std::size_t p = 1; p < kNumPatterns; ++p)
    sum += s.multi_fraction(static_cast<Pattern>(p));
  std::size_t multi = 0;
  for (std::size_t p = 1; p < kNumPatterns; ++p) multi += s.counts[p];
  if (multi > 0) {
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace gpufi::syndrome
