#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "common/histogram.hpp"
#include "common/kv.hpp"
#include "common/powerlaw.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"

namespace gpufi {
namespace {

// ---------------------------------------------------------------- BitVector

TEST(BitVector, StartsZeroed) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_EQ(bv.popcount(), 0u);
  for (std::size_t i = 0; i < bv.size(); ++i) EXPECT_FALSE(bv.get(i));
}

TEST(BitVector, SetGetFlip) {
  BitVector bv(100);
  bv.set(3, true);
  bv.set(64, true);
  bv.set(99, true);
  EXPECT_TRUE(bv.get(3));
  EXPECT_TRUE(bv.get(64));
  EXPECT_TRUE(bv.get(99));
  EXPECT_EQ(bv.popcount(), 3u);
  bv.flip(3);
  EXPECT_FALSE(bv.get(3));
  bv.flip(4);
  EXPECT_TRUE(bv.get(4));
  EXPECT_EQ(bv.popcount(), 3u);
}

TEST(BitVector, FieldRoundTripWithinWord) {
  BitVector bv(128);
  bv.set_field(5, 12, 0xABC);
  EXPECT_EQ(bv.get_field(5, 12), 0xABCu);
  EXPECT_EQ(bv.popcount(), 7u);  // 0xABC = 1010_1011_1100 has 7 set bits
}

TEST(BitVector, FieldRoundTripAcrossWordBoundary) {
  BitVector bv(192);
  bv.set_field(60, 24, 0xDEADBEu);
  EXPECT_EQ(bv.get_field(60, 24), 0xDEADBEu);
  bv.set_field(120, 64, 0x0123456789ABCDEFull);
  EXPECT_EQ(bv.get_field(120, 64), 0x0123456789ABCDEFull);
}

TEST(BitVector, FieldWriteDoesNotDisturbNeighbours) {
  BitVector bv(128);
  bv.set_field(0, 64, ~0ull);
  bv.set_field(64, 64, ~0ull);
  bv.set_field(30, 10, 0);
  EXPECT_EQ(bv.get_field(0, 30), (1ull << 30) - 1);
  EXPECT_EQ(bv.get_field(30, 10), 0u);
  EXPECT_EQ(bv.get_field(40, 24), (1ull << 24) - 1);
}

TEST(BitVector, FieldMasksExtraValueBits) {
  BitVector bv(64);
  bv.set_field(0, 4, 0xFFFF);  // only the low 4 bits should land
  EXPECT_EQ(bv.get_field(0, 4), 0xFu);
  EXPECT_EQ(bv.get_field(4, 8), 0u);
}

TEST(BitVector, RandomizedFieldRoundTrip) {
  Rng rng(7);
  BitVector bv(1024);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto width = static_cast<std::size_t>(rng.range(1, 64));
    const auto offset = rng.below(1024 - width + 1);
    const std::uint64_t value = rng();
    bv.set_field(offset, width, value);
    const std::uint64_t mask =
        width == 64 ? ~0ull : (std::uint64_t{1} << width) - 1;
    EXPECT_EQ(bv.get_field(offset, width), value & mask);
  }
}

TEST(BitVector, Equality) {
  BitVector a(70), b(70);
  EXPECT_EQ(a, b);
  a.flip(69);
  EXPECT_FALSE(a == b);
  b.flip(69);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(4);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(9);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 2);
}

// --------------------------------------------------------------- statistics

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 5.0);
  EXPECT_NEAR(stats::stddev(xs), 2.138, 1e-3);
}

TEST(Stats, MedianAndQuantile) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::median(xs), 3.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.25), 2.0);
}

TEST(Stats, NormalQuantileMatchesKnownValues) {
  EXPECT_NEAR(stats::normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(stats::normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(stats::normal_quantile(0.025), -1.959964, 1e-5);
}

TEST(Stats, NormalCdfInvertsQuantile) {
  for (double p : {0.01, 0.1, 0.33, 0.5, 0.77, 0.99}) {
    EXPECT_NEAR(stats::normal_cdf(stats::normal_quantile(p)), p, 1e-7);
  }
}

TEST(Stats, MarginOfErrorMatchesPaperScale) {
  // The paper: >12000 faults per campaign guarantees < 3% margin; 6000
  // software injections give 95% CI below 5%.
  EXPECT_LT(stats::proportion_margin_of_error(0.5, 12000), 0.03);
  EXPECT_LT(stats::proportion_margin_of_error(0.5, 6000), 0.05);
  EXPECT_GT(stats::proportion_margin_of_error(0.5, 100), 0.05);
}

TEST(Stats, RequiredSamplesRoundTrip) {
  const std::size_t n = stats::required_samples(0.01, 0.95);
  EXPECT_NEAR(static_cast<double>(n), 9604.0, 10.0);
  EXPECT_LE(stats::proportion_margin_of_error(0.5, n), 0.0101);
}

TEST(Stats, ShapiroWilkAcceptsGaussian) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    // Box-Muller
    const double u1 = rng.uniform() + 1e-12, u2 = rng.uniform();
    xs.push_back(std::sqrt(-2 * std::log(u1)) *
                 std::cos(2 * M_PI * u2));
  }
  const auto r = stats::shapiro_wilk(xs);
  EXPECT_GT(r.w, 0.98);
  EXPECT_GT(r.p_value, 0.05);
}

TEST(Stats, ShapiroWilkRejectsPowerLaw) {
  // The paper's syndrome distributions are power laws: Shapiro-Wilk must
  // reject normality (p < 0.05).
  Rng rng(12);
  PowerLaw pl{2.5, 1e-3, 0, 0};
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(pl.sample(rng));
  const auto r = stats::shapiro_wilk(xs);
  EXPECT_LT(r.p_value, 0.05);
}

TEST(Stats, ShapiroWilkDegenerateInputs) {
  const std::vector<double> constant{1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(stats::shapiro_wilk(constant).p_value, 1.0);
  const std::vector<double> tiny{1.0, 2.0};
  EXPECT_DOUBLE_EQ(stats::shapiro_wilk(tiny).p_value, 1.0);
}

TEST(Stats, PearsonCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{2, 4, 6, 8, 10};
  EXPECT_NEAR(stats::pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs{10, 8, 6, 4, 2};
  EXPECT_NEAR(stats::pearson(xs, zs), -1.0, 1e-12);
}

// ----------------------------------------------------------------- powerlaw

TEST(Stats, WilsonIntervalCoversExactly) {
  // Exact coverage P(lo(X) <= p <= hi(X)) with X ~ Binomial(n, p), summed
  // over every x (no Monte-Carlo error). Averaged over p the 95% Wilson
  // interval is nominal (0.9506-0.9535 here); pointwise it oscillates, down
  // to 0.920 on p in [0.1, 0.9]. Its known dips right next to p = 0 and 1
  // (0.85 at n = 32, p = 0.005) fall outside the pointwise range checked.
  for (const std::uint64_t n : {16u, 32u, 64u, 128u, 256u}) {
    std::vector<stats::Interval> iv(n + 1);
    for (std::uint64_t x = 0; x <= n; ++x) iv[x] = stats::wilson_interval(x, n);
    const double nn = static_cast<double>(n);
    double sum = 0.0, min_mid = 1.0;
    for (int k = 1; k <= 999; ++k) {
      const double p = k / 1000.0;
      double cov = 0.0;
      for (std::uint64_t x = 0; x <= n; ++x) {
        if (p < iv[x].lo || p > iv[x].hi) continue;
        const double xx = static_cast<double>(x);
        cov += std::exp(std::lgamma(nn + 1) - std::lgamma(xx + 1) -
                        std::lgamma(nn - xx + 1) + xx * std::log(p) +
                        (nn - xx) * std::log1p(-p));
      }
      sum += cov;
      if (k >= 100 && k <= 900) min_mid = std::min(min_mid, cov);
    }
    EXPECT_GE(sum / 999, 0.948) << "n=" << n;
    EXPECT_GE(min_mid, 0.915) << "n=" << n;
  }
}

TEST(PowerLaw, SampleRespectsLowerBound) {
  Rng rng(21);
  PowerLaw pl{2.2, 0.01, 0, 0};
  for (int i = 0; i < 1000; ++i) EXPECT_GE(pl.sample(rng), pl.x_min);
}

TEST(PowerLaw, CdfMonotonic) {
  PowerLaw pl{2.5, 1.0, 0, 0};
  EXPECT_DOUBLE_EQ(pl.cdf(0.5), 0.0);
  double prev = -1;
  for (double x = 1.0; x < 100; x *= 1.5) {
    const double c = pl.cdf(x);
    EXPECT_GT(c, prev);
    prev = c;
  }
  EXPECT_LT(prev, 1.0);
}

TEST(PowerLaw, FitRecoversKnownExponent) {
  Rng rng(22);
  PowerLaw truth{2.5, 1e-4, 0, 0};
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(truth.sample(rng));
  const PowerLaw fit = fit_power_law(xs);
  EXPECT_NEAR(fit.alpha, truth.alpha, 0.1);
  EXPECT_LT(fit.ks, 0.05);
}

TEST(PowerLaw, AlphaMleFormula) {
  // For samples all equal to e * x_min, alpha = 1 + n / n = 2.
  std::vector<double> xs(100, std::exp(1.0));
  EXPECT_NEAR(power_law_alpha(xs, 1.0), 2.0, 1e-12);
}

TEST(PowerLaw, FitRejectsTooFewSamples) {
  std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW(fit_power_law(xs), std::invalid_argument);
}

TEST(PowerLaw, SamplerMatchesCdfStatistically) {
  Rng rng(23);
  PowerLaw pl{3.0, 0.5, 0, 0};
  int below_median = 0;
  const double median = pl.x_min * std::pow(2.0, 1.0 / (pl.alpha - 1));
  for (int i = 0; i < 20000; ++i) below_median += pl.sample(rng) < median;
  EXPECT_NEAR(below_median / 20000.0, 0.5, 0.02);
}

// ---------------------------------------------------------------- histogram

TEST(LogHistogram, BucketsByDecade) {
  LogHistogram h(-2, 2, 1);
  h.add(0.05);   // decade [1e-2, 1e-1)
  h.add(0.5);    // [1e-1, 1)
  h.add(5.0);    // [1, 10)
  h.add(50.0);   // [10, 100)
  EXPECT_EQ(h.count(), 4u);
  for (std::size_t i = 0; i < h.buckets(); ++i)
    EXPECT_EQ(h.bucket_count(i), 1u);
}

TEST(LogHistogram, UnderOverflow) {
  LogHistogram h(-2, 2, 1);
  h.add(0.0);
  h.add(1e-9);
  h.add(1e9);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(LogHistogram, FractionsSumToOne) {
  LogHistogram h(-4, 4, 2);
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) h.add(std::exp(rng.uniform(-8.0, 8.0)));
  double sum = 0;
  for (std::size_t i = 0; i < h.buckets(); ++i) sum += h.bucket_fraction(i);
  sum += static_cast<double>(h.underflow() + h.overflow()) / h.count();
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(LogHistogram, PeakBucketFindsMode) {
  LogHistogram h(-3, 3, 1);
  for (int i = 0; i < 100; ++i) h.add(0.02);  // [1e-2,1e-1) -> bucket 1
  for (int i = 0; i < 5; ++i) h.add(100.0);
  EXPECT_EQ(h.peak_bucket(), 1u);
}

TEST(LogHistogram, EmpiricalSamplerStaysInRange) {
  LogHistogram h(-3, 3, 1);
  for (int i = 0; i < 50; ++i) h.add(0.5);
  Rng rng(33);
  for (int i = 0; i < 200; ++i) {
    const double s = h.sample(rng);
    EXPECT_GE(s, 0.1);
    EXPECT_LT(s, 1.0);
  }
}

TEST(LogHistogram, AsciiRenderingMentionsCounts) {
  LogHistogram h(-2, 2, 1);
  for (int i = 0; i < 7; ++i) h.add(0.5);
  const std::string art = h.to_ascii();
  EXPECT_NE(art.find('7'), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
}

// -------------------------------------------------------------------- table

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"module", "avf"});
  t.add_row({"fp32", "0.031"});
  t.add_row({"scheduler", "0.004"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("module"), std::string::npos);
  EXPECT_NE(s.find("scheduler"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(TextTable, RejectsMisshapenRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::pct(0.12345, 1), "12.3%");
  EXPECT_EQ(TextTable::num(3.14159, 3), "3.14");
}

// ------------------------------------------------------------------ kv codec

template <class T>
struct Token {
  const char* text;
  std::optional<T> want;  ///< nullopt: rejected
};

template <class T>
void expect_tokens(std::initializer_list<Token<T>> tokens) {
  for (const auto& t : tokens)
    EXPECT_EQ(kv::parse_number<T>(t.text), t.want) << '"' << t.text << '"';
}

/// Tokens outside the grammar at every type: signs where none belong,
/// whitespace, base prefixes, trailing garbage, NaN and the empty token.
template <class T>
void expect_common_rejections() {
  for (const char* bad : {"", " 5", "5 ", "\t5", "5\n", "+5", "+0", "--5",
                          "-", "0x10", "12x", "1,5", "nan", "NaN", "inf",
                          "-inf", "infinity"})
    EXPECT_EQ(kv::parse_number<T>(bad), std::nullopt) << '"' << bad << '"';
}

TEST(KvNumber, UnsignedTypesTakeDigitsOnlyAndRejectOverflow) {
  expect_common_rejections<std::uint64_t>();
  expect_tokens<std::uint64_t>({{"0", 0},
                                {"007", 7},
                                {"18446744073709551615", UINT64_MAX},
                                {"18446744073709551616", std::nullopt},
                                {"99999999999999999999", std::nullopt},
                                {"-1", std::nullopt},
                                {"-0", std::nullopt},
                                {"1e3", std::nullopt},
                                {"1.0", std::nullopt}});
  expect_common_rejections<unsigned>();
  expect_tokens<unsigned>({{"4294967295", UINT32_MAX},
                           {"4294967296", std::nullopt},
                           {"-1", std::nullopt}});
  expect_common_rejections<std::uint16_t>();
  expect_tokens<std::uint16_t>({{"0", 0},
                                {"65535", 65535},
                                {"65536", std::nullopt},
                                {"70000", std::nullopt}});
}

TEST(KvNumber, SignedTypesTakeOneLeadingMinus) {
  expect_common_rejections<int>();
  expect_tokens<int>({{"-1", -1},
                      {"-0", 0},
                      {"2147483647", INT32_MAX},
                      {"-2147483648", INT32_MIN},
                      {"2147483648", std::nullopt},
                      {"-2147483649", std::nullopt},
                      {"- 1", std::nullopt}});
  expect_common_rejections<std::int64_t>();
  expect_tokens<std::int64_t>({{"9223372036854775807", INT64_MAX},
                               {"-9223372036854775808", INT64_MIN},
                               {"9223372036854775808", std::nullopt},
                               {"9999999999999999999", std::nullopt}});
}

TEST(KvNumber, DoublesMustBeFinite) {
  expect_common_rejections<double>();
  expect_tokens<double>({{"0.25", 0.25},
                         {"-1.5", -1.5},
                         {"1e3", 1000.0},
                         {"1.7976931348623157e+308", DBL_MAX},
                         {"1e309", std::nullopt},
                         {"-1e309", std::nullopt},
                         {"+1.5", std::nullopt},
                         {"0x1p3", std::nullopt},
                         {"1.5 ", std::nullopt}});
}

TEST(KvFormatDouble, MatchesStreamBytesAndRoundTripsBitForBit) {
  // format_double must write what `os << setprecision(max_digits10)` wrote
  // before it (the progress and result payloads are pinned byte for byte),
  // and parse_number<double> must read it back exactly.
  Rng rng(21);
  std::vector<double> values = {0.0, -0.0, 1.0, 0.1, 1e-300, 5e-324,
                                DBL_MAX, -DBL_MIN, 123.456789012345};
  for (int i = 0; i < 20000; ++i) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  for (const double v : values) {
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
    const std::string text = kv::format_double(v);
    ASSERT_EQ(text, os.str());
    const auto back = kv::parse_number<double>(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
              std::bit_cast<std::uint64_t>(v))
        << text;
  }
}

TEST(KvLines, WriterRejectsNewlinesAndReadersFailOnTruncation) {
  std::string out;
  kv::put_kv(out, "name", "w0");
  kv::put_kv(out, "pid", std::uint64_t{42});
  EXPECT_EQ(out, "name=w0\npid=42\n");
  EXPECT_THROW(kv::put_kv(out, "name", "a\nforged=1"), std::invalid_argument);

  kv::Cursor c{out};
  EXPECT_EQ(c.take_kv("name"), "w0");
  EXPECT_EQ(c.take<std::uint32_t>("pid"), 42u);
  EXPECT_TRUE(c.ok && c.rest.empty());
  kv::Cursor truncated{"name=w0\npid=4"};
  truncated.take_kv("name");
  truncated.take("pid");
  EXPECT_FALSE(truncated.ok);

  kv::Cursor line{"r=7 -3  x\n"};
  kv::Fields f{line.take_kv("r"), &line};
  EXPECT_EQ(f.next<unsigned>(), 7u);
  EXPECT_EQ(f.next<int>(), -3);
  EXPECT_EQ(f.next_token(), "x");
  f.done();
  EXPECT_TRUE(line.ok);
  EXPECT_EQ(f.next(), 0u);  // past the end: fails through the cursor
  EXPECT_FALSE(line.ok);

  std::vector<std::string> seen;
  EXPECT_TRUE(kv::for_each_kv("b=2\n\na=1", nullptr,
                              [&](std::string_view k, std::string_view v) {
                                seen.push_back(std::string(k) + std::string(v));
                                return true;
                              }));
  EXPECT_EQ(seen, (std::vector<std::string>{"b2", "a1"}));
  std::string error;
  EXPECT_FALSE(kv::for_each_kv("a=1\nbogus\n", &error,
                               [](std::string_view, std::string_view) {
                                 return true;
                               }));
  EXPECT_NE(error.find("bogus"), std::string::npos);
}

}  // namespace
}  // namespace gpufi
