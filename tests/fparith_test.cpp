#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "fparith/fp32.hpp"
#include "fparith/sfu.hpp"

namespace gpufi::fparith {
namespace {

std::uint32_t bits_of(float f) { return std::bit_cast<std::uint32_t>(f); }
float float_of(std::uint32_t b) { return std::bit_cast<float>(b); }

bool both_nan(std::uint32_t a, std::uint32_t b) {
  return std::isnan(float_of(a)) && std::isnan(float_of(b));
}

// Random 32-bit patterns with a bias towards interesting exponents
// (subnormals, near-1 values, near-overflow) so edge cases get exercised.
std::uint32_t random_float_bits(Rng& rng) {
  const auto mode = rng.below(8);
  std::uint32_t sign = static_cast<std::uint32_t>(rng.below(2)) << 31;
  std::uint32_t frac = static_cast<std::uint32_t>(rng()) & 0x7fffffu;
  std::uint32_t exp;
  switch (mode) {
    case 0: exp = 0; break;                                     // subnormal/0
    case 1: exp = static_cast<std::uint32_t>(rng.range(1, 5)); break;
    case 2: exp = static_cast<std::uint32_t>(rng.range(120, 134)); break;
    case 3: exp = static_cast<std::uint32_t>(rng.range(250, 255)); break;
    default: exp = static_cast<std::uint32_t>(rng.below(256)); break;
  }
  return sign | (exp << 23) | frac;
}

// ----------------------------------------------------------- unpack / pack

TEST(Fp32Unpack, ClassifiesSpecials) {
  EXPECT_EQ(fp32_unpack(0x00000000u).cls, FpClass::Zero);
  EXPECT_EQ(fp32_unpack(0x80000000u).cls, FpClass::Zero);
  EXPECT_TRUE(fp32_unpack(0x80000000u).sign);
  EXPECT_EQ(fp32_unpack(0x7f800000u).cls, FpClass::Inf);
  EXPECT_EQ(fp32_unpack(0xff800000u).cls, FpClass::Inf);
  EXPECT_EQ(fp32_unpack(0x7fc00000u).cls, FpClass::NaN);
}

TEST(Fp32Unpack, NormalHasHiddenBit) {
  const Unpacked u = fp32_unpack(bits_of(1.0f));
  EXPECT_EQ(u.cls, FpClass::Norm);
  EXPECT_EQ(u.man, 0x800000u);
  EXPECT_EQ(u.exp, 0);
}

TEST(Fp32Unpack, SubnormalHasNoHiddenBit) {
  const Unpacked u = fp32_unpack(0x00000001u);  // min subnormal
  EXPECT_EQ(u.cls, FpClass::Norm);
  EXPECT_EQ(u.man, 1u);
  EXPECT_EQ(u.exp, -126);
}

TEST(Fp32RoundPack, ExactValues) {
  // 1.0 = 2^23 * 2^-23
  EXPECT_EQ(fp32_round_pack(false, -23, 1u << 23, false), bits_of(1.0f));
  EXPECT_EQ(fp32_round_pack(true, -23, 3u << 22, false), bits_of(-1.5f));
  EXPECT_EQ(fp32_round_pack(false, 0, 0, false), 0u);
}

TEST(Fp32RoundPack, RoundsToNearestEven) {
  // 2^24 + 1 is exactly between 2^24 and 2^24+2: rounds to even (2^24).
  EXPECT_EQ(float_of(fp32_round_pack(false, 0, (1u << 24) + 1, false)),
            16777216.0f);
  // With sticky set it must round up.
  EXPECT_EQ(float_of(fp32_round_pack(false, 0, (1u << 24) + 1, true)),
            16777218.0f);
}

TEST(Fp32RoundPack, OverflowGivesInfinity) {
  EXPECT_EQ(fp32_round_pack(false, 110, 1u << 23, false), 0x7f800000u);
  EXPECT_EQ(fp32_round_pack(true, 110, 1u << 23, false), 0xff800000u);
}

TEST(Fp32RoundPack, SubnormalResults) {
  // min subnormal = 2^-149
  EXPECT_EQ(fp32_round_pack(false, -149, 1, false), 0x00000001u);
  // half of min subnormal rounds to zero (ties-to-even)
  EXPECT_EQ(fp32_round_pack(false, -150, 1, false), 0u);
  // slightly more than half rounds up to min subnormal
  EXPECT_EQ(fp32_round_pack(false, -150, 1, true), 0x00000001u);
}

// ------------------------------------------------------ exhaustive-ish FMA

TEST(Fp32Add, MatchesHardwareOnRandomPatterns) {
  Rng rng(101);
  for (int i = 0; i < 200000; ++i) {
    const std::uint32_t a = random_float_bits(rng);
    const std::uint32_t b = random_float_bits(rng);
    const std::uint32_t got = fma_bits(a, b, 0, FpOp::Add);
    const std::uint32_t want = bits_of(float_of(a) + float_of(b));
    if (both_nan(got, want)) continue;
    ASSERT_EQ(got, want) << "a=" << std::hex << a << " b=" << b;
  }
}

TEST(Fp32Mul, MatchesHardwareOnRandomPatterns) {
  Rng rng(102);
  for (int i = 0; i < 200000; ++i) {
    const std::uint32_t a = random_float_bits(rng);
    const std::uint32_t b = random_float_bits(rng);
    const std::uint32_t got = fma_bits(a, b, 0, FpOp::Mul);
    const std::uint32_t want = bits_of(float_of(a) * float_of(b));
    if (both_nan(got, want)) continue;
    ASSERT_EQ(got, want) << "a=" << std::hex << a << " b=" << b;
  }
}

TEST(Fp32Fma, MatchesHardwareOnRandomPatterns) {
  Rng rng(103);
  for (int i = 0; i < 200000; ++i) {
    const std::uint32_t a = random_float_bits(rng);
    const std::uint32_t b = random_float_bits(rng);
    const std::uint32_t c = random_float_bits(rng);
    const std::uint32_t got = fma_bits(a, b, c, FpOp::Fma);
    const std::uint32_t want =
        bits_of(std::fmaf(float_of(a), float_of(b), float_of(c)));
    if (both_nan(got, want)) continue;
    ASSERT_EQ(got, want) << "a=" << std::hex << a << " b=" << b << " c=" << c;
  }
}

TEST(Fp32Fma, CatastrophicCancellation) {
  // fma(x, y, -x*y) extracts the exact rounding error of the product.
  const float x = 1.0f + 0x1p-12f, y = 1.0f + 0x1p-13f;
  const float prod = x * y;
  EXPECT_EQ(ffma(x, y, -prod), std::fmaf(x, y, -prod));
  EXPECT_NE(ffma(x, y, -prod), 0.0f);  // the residual is nonzero
}

TEST(Fp32Fma, SignedZeroRules) {
  EXPECT_EQ(bits_of(fadd(-0.0f, -0.0f)), bits_of(-0.0f));
  EXPECT_EQ(bits_of(fadd(-0.0f, 0.0f)), bits_of(0.0f));
  EXPECT_EQ(bits_of(fmul(-1.0f, 0.0f)), bits_of(-0.0f));
  EXPECT_EQ(bits_of(fmul(-0.0f, -2.0f)), bits_of(0.0f));
  EXPECT_EQ(bits_of(ffma(-1.0f, 0.0f, 0.0f)), bits_of(0.0f));
  EXPECT_EQ(bits_of(ffma(-1.0f, 0.0f, -0.0f)), bits_of(-0.0f));
  EXPECT_EQ(bits_of(ffma(1.0f, 1.0f, -1.0f)), bits_of(0.0f));
}

TEST(Fp32Fma, InfinityAndNanRules) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isnan(fmul(inf, 0.0f)));
  EXPECT_TRUE(std::isnan(fadd(inf, -inf)));
  EXPECT_EQ(fadd(inf, 1e30f), inf);
  EXPECT_TRUE(std::isnan(ffma(inf, 1.0f, -inf)));
  EXPECT_EQ(ffma(inf, 2.0f, -1e30f), inf);
  EXPECT_TRUE(std::isnan(fadd(std::nanf(""), 1.0f)));
}

TEST(Fp32Fma, OverflowAndUnderflow) {
  const float big = 3e38f;
  EXPECT_TRUE(std::isinf(fadd(big, big)));
  EXPECT_EQ(fmul(0x1p-100f, 0x1p-100f), 0.0f);  // deep underflow
  // Gradual underflow into subnormals.
  EXPECT_EQ(fmul(0x1p-100f, 0x1p-30f), 0x1p-130f);
}

TEST(Fp32Fma, StagePipelineAgreesWithOneShot) {
  Rng rng(104);
  for (int i = 0; i < 10000; ++i) {
    const std::uint32_t a = random_float_bits(rng);
    const std::uint32_t b = random_float_bits(rng);
    const std::uint32_t c = random_float_bits(rng);
    const FmaS1 s1 = fma_stage1(a, b, c, FpOp::Fma);
    const FmaS2 s2 = fma_stage2(s1);
    const FmaS3 s3 = fma_stage3(s2);
    ASSERT_EQ(fma_stage4(s3), fma_bits(a, b, c, FpOp::Fma));
  }
}

// ------------------------------------- host arithmetic == staged datapath
//
// The emulator computes FADD/FMUL/FFMA with fma_host_bits; the RTL model
// with the staged fma_bits. They must agree on every bit, NaNs included.

void expect_host_matches_datapath(FpOp op, std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint32_t a = random_float_bits(rng);
    const std::uint32_t b = random_float_bits(rng);
    const std::uint32_t c = random_float_bits(rng);
    ASSERT_EQ(fma_host_bits(a, b, c, op), fma_bits(a, b, c, op))
        << "op=" << static_cast<int>(op) << std::hex << " a=" << a
        << " b=" << b << " c=" << c;
  }
}

TEST(Fp32Host, AddMatchesDatapathOnRandomPatterns) {
  expect_host_matches_datapath(FpOp::Add, 201);
}

TEST(Fp32Host, MulMatchesDatapathOnRandomPatterns) {
  expect_host_matches_datapath(FpOp::Mul, 202);
}

TEST(Fp32Host, FmaMatchesDatapathOnRandomPatterns) {
  expect_host_matches_datapath(FpOp::Fma, 203);
}

TEST(Fp32Host, EdgeCasesMatchDatapath) {
  const std::uint32_t pz = 0x00000000u, nz = 0x80000000u;
  const std::uint32_t one = bits_of(1.0f), mone = bits_of(-1.0f);
  const std::uint32_t inf = 0x7f800000u, ninf = 0xff800000u;
  const std::uint32_t min_sub = 0x00000001u, max_sub = 0x007fffffu;
  const std::uint32_t min_norm = 0x00800000u, max_norm = 0x7f7fffffu;
  const std::uint32_t nan_payload = 0x7fa12345u;  // signalling, payload
  const std::uint32_t neg_qnan = 0xffc00001u;     // negative quiet, payload
  struct Case {
    std::uint32_t a, b, c;
    std::uint32_t want_add, want_mul, want_fma;
  };
  const Case cases[] = {
      // Zero-sign rules: opposite zeros add to +0, same-signed keep it.
      {pz, nz, nz, pz, nz, nz},
      {nz, nz, pz, nz, pz, pz},
      {mone, pz, nz, mone, nz, nz},
      {one, mone, pz, pz, mone, mone},
      // Subnormal results (gradual underflow).
      {min_norm, bits_of(0.5f), pz, bits_of(0.5f), 0x00400000u, 0x00400000u},
      {max_sub, min_sub, nz, 0x00800000u, pz, pz},
      // A nonzero result that rounds to zero keeps its sign.
      {min_sub, bits_of(-0.5f), pz, bits_of(-0.5f), nz, nz},
      // Overflow to infinity.
      {max_norm, max_norm, max_norm, inf, inf, inf},
      {bits_of(-3e38f), bits_of(3e38f), bits_of(-3e38f), pz, ninf, ninf},
      // inf - inf and 0 * inf are invalid: canonical NaN.
      {inf, ninf, inf, kCanonicalNaN, ninf, kCanonicalNaN},
      {pz, inf, one, inf, kCanonicalNaN, kCanonicalNaN},
      // NaN inputs, whatever their sign and payload, give canonical NaN.
      {nan_payload, one, one, kCanonicalNaN, kCanonicalNaN, kCanonicalNaN},
      {one, neg_qnan, one, kCanonicalNaN, kCanonicalNaN, kCanonicalNaN},
      {one, one, nan_payload, bits_of(2.0f), one, kCanonicalNaN},
      // One rounding for FFMA: (1+2^-12)^2 = 1 + 2^-11 + 2^-24 is a float
      // tie (FMUL rounds it to even), and the tiny addend breaks the tie
      // upward. Rounding through a double first would lose the addend.
      {0x3f800800u, 0x3f800800u, bits_of(0x1p-80f), 0x40000800u,
       0x3f801000u, 0x3f801001u},
  };
  for (const Case& t : cases) {
    const std::uint32_t want[] = {t.want_add, t.want_mul, t.want_fma};
    for (const FpOp op : {FpOp::Add, FpOp::Mul, FpOp::Fma}) {
      const auto i = static_cast<std::size_t>(op);
      EXPECT_EQ(fma_bits(t.a, t.b, t.c, op), want[i])
          << "datapath op=" << i << std::hex << " a=" << t.a << " b=" << t.b
          << " c=" << t.c;
      EXPECT_EQ(fma_host_bits(t.a, t.b, t.c, op), want[i])
          << "host op=" << i << std::hex << " a=" << t.a << " b=" << t.b
          << " c=" << t.c;
    }
  }
}

// -------------------------------------------------------------- integer MAD

TEST(IntMad, BasicIdentities) {
  EXPECT_EQ(imad_bits(3, 4, 5), 17u);
  EXPECT_EQ(imad_bits(0, 100, 7), 7u);
  EXPECT_EQ(imad_bits(1u << 31, 2, 0), 0u);  // wraparound
}

TEST(IntMad, MatchesHostWraparound) {
  Rng rng(105);
  for (int i = 0; i < 100000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng());
    const auto b = static_cast<std::uint32_t>(rng());
    const auto c = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(imad_bits(a, b, c), a * b + c);
  }
}

TEST(IntMad, StageAgreement) {
  Rng rng(106);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng());
    const auto b = static_cast<std::uint32_t>(rng());
    const auto c = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(imad_stage2(imad_stage1(a, b, c)), imad_bits(a, b, c));
  }
}

// ------------------------------------------------------------- conversions

TEST(Convert, I2fMatchesHost) {
  Rng rng(107);
  for (int i = 0; i < 100000; ++i) {
    const auto v = static_cast<std::int32_t>(rng());
    EXPECT_EQ(i2f_bits(static_cast<std::uint32_t>(v)),
              bits_of(static_cast<float>(v)))
        << v;
  }
  EXPECT_EQ(i2f_bits(0), 0u);
  EXPECT_EQ(float_of(i2f_bits(static_cast<std::uint32_t>(-1))), -1.0f);
  EXPECT_EQ(float_of(i2f_bits(0x80000000u)), -2147483648.0f);
}

TEST(Convert, F2iTruncatesAndSaturates) {
  EXPECT_EQ(f2i_bits(bits_of(3.99f)), 3u);
  EXPECT_EQ(f2i_bits(bits_of(-3.99f)), static_cast<std::uint32_t>(-3));
  EXPECT_EQ(f2i_bits(bits_of(0.0f)), 0u);
  EXPECT_EQ(f2i_bits(bits_of(1e20f)), 0x7fffffffu);
  EXPECT_EQ(f2i_bits(bits_of(-1e20f)), 0x80000000u);
  EXPECT_EQ(f2i_bits(0x7fc00000u), 0u);  // NaN -> 0
  EXPECT_EQ(f2i_bits(bits_of(2147483520.0f)), 2147483520u);
}

TEST(Convert, F2iRandomAgainstHostDouble) {
  Rng rng(108);
  for (int i = 0; i < 50000; ++i) {
    const std::uint32_t b = random_float_bits(rng);
    const float f = float_of(b);
    if (std::isnan(f)) continue;
    const double d = std::trunc(static_cast<double>(f));
    std::int64_t want;
    if (d > 2147483647.0) want = 2147483647;
    else if (d < -2147483648.0) want = -2147483648;
    else want = static_cast<std::int64_t>(d);
    EXPECT_EQ(static_cast<std::int32_t>(f2i_bits(b)), want) << f;
  }
}

// --------------------------------------------------------------------- SFU

TEST(Sfu, SinAccurateOnPrimaryRange) {
  // The paper constrains SFU inputs to [0, pi/2].
  for (int i = 0; i <= 1000; ++i) {
    const float x = static_cast<float>(i) * 1.5707963e-3f;
    EXPECT_NEAR(sfu_sin(x), std::sin(static_cast<double>(x)), 3e-7) << x;
  }
}

TEST(Sfu, SinQuadrantsAndSign) {
  for (double x = -6.2; x < 6.3; x += 0.037) {
    EXPECT_NEAR(sfu_sin(static_cast<float>(x)), std::sin(x), 5e-7) << x;
  }
}

TEST(Sfu, SinSpecials) {
  EXPECT_EQ(sfu_sin(0.0f), 0.0f);
  EXPECT_TRUE(std::isnan(sfu_sin(std::numeric_limits<float>::infinity())));
  EXPECT_TRUE(std::isnan(sfu_sin(std::nanf(""))));
  EXPECT_NEAR(sfu_sin(1.5707964f), 1.0f, 1e-6);
}

TEST(Sfu, ExpAccurateOnPrimaryRange) {
  for (int i = 0; i <= 1000; ++i) {
    const float x = static_cast<float>(i) * 1.5707963e-3f;
    const double want = std::exp(static_cast<double>(x));
    EXPECT_NEAR(sfu_exp(x) / want, 1.0, 4e-7) << x;
  }
}

TEST(Sfu, ExpWideRange) {
  for (double x = -80; x < 80; x += 0.61) {
    const auto xf = static_cast<float>(x);
    const double want = std::exp(static_cast<double>(xf));
    EXPECT_NEAR(sfu_exp(xf) / want, 1.0, 6e-7) << x;
  }
}

TEST(Sfu, ExpSpecials) {
  EXPECT_EQ(sfu_exp(0.0f), 1.0f);
  EXPECT_EQ(sfu_exp(std::numeric_limits<float>::infinity()),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(sfu_exp(-std::numeric_limits<float>::infinity()), 0.0f);
  EXPECT_TRUE(std::isnan(sfu_exp(std::nanf(""))));
  EXPECT_TRUE(std::isinf(sfu_exp(200.0f)));   // overflow
  EXPECT_EQ(sfu_exp(-200.0f), 0.0f);          // underflow
}

TEST(Sfu, StagePipelineAgreesWithOneShot) {
  Rng rng(109);
  for (int i = 0; i < 5000; ++i) {
    const float x = static_cast<float>(rng.uniform(-10.0, 10.0));
    const std::uint32_t b = bits_of(x);
    const SfuS2 s2 = sfu_stage2(b, SfuFunc::Sin);
    const std::uint32_t staged =
        sfu_stage6(sfu_stage5(sfu_stage4(sfu_stage3(s2))));
    ASSERT_EQ(staged, sfu_sin_bits(b));
  }
}

TEST(Sfu, CarrySavePairSumsToProduct) {
  Rng rng(110);
  for (int i = 0; i < 1000; ++i) {
    const float x = static_cast<float>(rng.uniform(0.0, 1.5707963));
    const SfuS3 s3 = sfu_stage3(sfu_stage2(bits_of(x), SfuFunc::Sin));
    const SfuS4 s4 = sfu_stage4(s3);
    const std::uint64_t c1 =
        static_cast<std::uint64_t>(s4.c1_neg ? -s3.c1 : s3.c1);
    ASSERT_EQ(s4.t1_s + s4.t1_c, c1 * s3.dx);
  }
}

TEST(Sfu, DeterministicAcrossCalls) {
  for (float x : {0.1f, 0.7f, 1.2f, 1.5f}) {
    EXPECT_EQ(sfu_sin_bits(bits_of(x)), sfu_sin_bits(bits_of(x)));
    EXPECT_EQ(sfu_exp_bits(bits_of(x)), sfu_exp_bits(bits_of(x)));
  }
}

}  // namespace
}  // namespace gpufi::fparith
