#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace gpufi::fparith {

/// Classification of an unpacked binary32 value.
enum class FpClass : std::uint8_t { Zero = 0, Norm = 1, Inf = 2, NaN = 3 };

/// Operation selector for the unified FMA datapath.
///
/// The FP32 functional unit is modelled as a single fused multiply-add
/// datapath (as in the G80 streaming processor, whose core is a MAD unit):
/// FADD executes as a*1+b and FMUL as a*b+0, with zero-sign fixups applied
/// at the rounding stage so results are bit-identical to the dedicated IEEE
/// operations.
enum class FpOp : std::uint8_t { Add = 0, Mul = 1, Fma = 2 };

/// An unpacked binary32: value = (-1)^sign * man * 2^(exp - 23).
/// For normals man is in [2^23, 2^24); for subnormals man < 2^23 and
/// exp == -126. Zero/Inf/NaN are flagged in cls (man/exp then irrelevant,
/// except NaN keeps its payload bits for propagation).
struct Unpacked {
  bool sign = false;
  std::int32_t exp = 0;
  std::uint32_t man = 0;
  FpClass cls = FpClass::Zero;
  std::uint32_t payload = 0;  ///< original bits (NaN propagation)
};

/// Decomposes raw binary32 bits.
Unpacked fp32_unpack(std::uint32_t bits);

/// Rounds (-1)^sign * man * 2^(scale_exp) to nearest-even binary32 and packs.
/// `sticky` means "plus a nonzero amount strictly below the LSB of man".
/// Handles subnormal results and overflow to infinity.
std::uint32_t fp32_round_pack(bool sign, std::int64_t scale_exp,
                              std::uint64_t man, bool sticky);

// ---------------------------------------------------------------------------
// Staged FMA datapath. Stage structs mirror the pipeline registers of the
// RTL FP32 unit: the RTL model stores them as fields of a faultable
// flip-flop bank and calls the transition functions below each cycle; a flip
// between stages therefore corrupts exactly one intermediate field, which is
// how the "not-obvious syndrome" of the paper arises.
// ---------------------------------------------------------------------------

/// Stage 1 output: unpacked operands. Produced from the raw operand latches.
struct FmaS1 {
  Unpacked a, b, c;
  FpOp op = FpOp::Fma;
};

/// Stage 2 output: exact 48-bit product plus the pass-through addend.
struct FmaS2 {
  std::uint64_t prod = 0;    ///< man_a * man_b, < 2^48
  std::int32_t exp_p = 0;    ///< value(prod) = prod * 2^(exp_p - 46)
  bool sign_p = false;
  FpClass cls_p = FpClass::Zero;
  Unpacked c;                ///< addend, unchanged
  FpOp op = FpOp::Fma;
  bool special = false;          ///< result already decided (NaN/Inf cases)
  std::uint32_t special_bits = 0;
};

/// Stage 3 output: wide aligned sum.
struct FmaS3 {
  /// value = sum * 2^(exp_r - 70); sum fits in 74 bits.
  unsigned __int128 sum = 0;
  std::int32_t exp_r = 0;
  bool sign_r = false;
  bool sticky = false;
  FpOp op = FpOp::Fma;
  bool special = false;
  std::uint32_t special_bits = 0;
  /// Signs used only for the all-zero sign rule at rounding.
  bool zero_case = false;   ///< both product and addend were zero
  bool sign_p = false, sign_c = false;
  bool cancel = false;      ///< exact cancellation (x + -x)
};

/// Unpacks the three operand words (FADD maps to a*1+b, FMUL to a*b+0).
FmaS1 fma_stage1(std::uint32_t a, std::uint32_t b, std::uint32_t c, FpOp op);
/// Multiplies mantissas; resolves NaN/Inf special cases.
FmaS2 fma_stage2(const FmaS1& s);
/// Aligns the addend against the product and adds/subtracts.
FmaS3 fma_stage3(const FmaS2& s);
/// Normalizes, rounds to nearest-even, packs. Returns result bits.
std::uint32_t fma_stage4(const FmaS3& s);

/// One-shot unified datapath (the canonical arithmetic of the library).
std::uint32_t fma_bits(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                       FpOp op);

/// The datapath's canonical quiet NaN: every NaN result of fma_bits.
inline constexpr std::uint32_t kCanonicalNaN = 0x7fc00000u;

/// fma_bits computed with the host's IEEE-754 binary32 arithmetic (`a + b`,
/// `a * b`, `std::fma`), for the emulator's hot loop. Bit-identical to
/// fma_bits for every input: round-to-nearest-even has exactly one correct
/// result, and any NaN result maps to kCanonicalNaN as the datapath does
/// (tests/fparith_test.cpp pins both). fma_bits stays the RTL model's staged
/// datapath and the oracle. Requires the default floating-point environment
/// (round to nearest, no flush-to-zero or denormals-are-zero).
inline std::uint32_t fma_host_bits(std::uint32_t a, std::uint32_t b,
                                   std::uint32_t c, FpOp op) {
  const float x = std::bit_cast<float>(a), y = std::bit_cast<float>(b);
  float r;
  switch (op) {
    case FpOp::Add: r = x + y; break;
    case FpOp::Mul: r = x * y; break;
    default: r = std::fma(x, y, std::bit_cast<float>(c)); break;
  }
  return std::isnan(r) ? kCanonicalNaN : std::bit_cast<std::uint32_t>(r);
}

/// IEEE-754 binary32 fused multiply-add: a*b + c, one rounding.
float ffma(float a, float b, float c);
/// IEEE-754 binary32 addition.
float fadd(float a, float b);
/// IEEE-754 binary32 multiplication.
float fmul(float a, float b);

// ---------------------------------------------------------------------------
// Integer unified MAD datapath: d = lo32(a * b) + c (wraparound), as used by
// the INT functional unit. IADD maps to a*1+b, IMUL to a*b+0.
// ---------------------------------------------------------------------------

/// Stage 1 output of the integer datapath: the full 64-bit product.
struct IntS1 {
  std::uint64_t prod = 0;  ///< full 32x32 product (of the raw bit patterns)
  std::uint32_t c = 0;     ///< pass-through addend
};

/// Multiply step.
IntS1 imad_stage1(std::uint32_t a, std::uint32_t b, std::uint32_t c);
/// Add step: lo32(prod) + c.
std::uint32_t imad_stage2(const IntS1& s);

/// One-shot integer multiply-add (wraparound, low 32 bits).
std::uint32_t imad_bits(std::uint32_t a, std::uint32_t b, std::uint32_t c);

// ---------------------------------------------------------------------------
// Conversions (functional; used by both execution levels).
// ---------------------------------------------------------------------------

/// int32 -> binary32, round to nearest even.
std::uint32_t i2f_bits(std::uint32_t int_bits);
/// binary32 -> int32, truncation toward zero, saturating; NaN -> 0.
std::uint32_t f2i_bits(std::uint32_t float_bits);

}  // namespace gpufi::fparith
