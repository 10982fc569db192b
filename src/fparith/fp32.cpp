#include "fparith/fp32.hpp"

#include <bit>
#include <cassert>

namespace gpufi::fparith {

namespace {

constexpr std::uint32_t kSignMask = 0x80000000u;

std::uint32_t pack_raw(bool sign, std::uint32_t exp_field,
                       std::uint32_t frac) {
  return (sign ? kSignMask : 0u) | (exp_field << 23) | (frac & 0x7fffffu);
}

}  // namespace

Unpacked fp32_unpack(std::uint32_t bits) {
  Unpacked u;
  u.sign = (bits & kSignMask) != 0;
  u.payload = bits;
  const std::uint32_t e = (bits >> 23) & 0xffu;
  const std::uint32_t f = bits & 0x7fffffu;
  if (e == 0xffu) {
    u.cls = f == 0 ? FpClass::Inf : FpClass::NaN;
    return u;
  }
  if (e == 0) {
    if (f == 0) {
      u.cls = FpClass::Zero;
      return u;
    }
    u.cls = FpClass::Norm;  // subnormal: no hidden bit
    u.man = f;
    u.exp = -126;
    return u;
  }
  u.cls = FpClass::Norm;
  u.man = f | 0x800000u;
  u.exp = static_cast<std::int32_t>(e) - 127;
  return u;
}

std::uint32_t fp32_round_pack(bool sign, std::int64_t scale_exp,
                              std::uint64_t man, bool sticky) {
  if (man == 0) {
    // Anything left only in sticky is below every representable increment we
    // could produce here; round-to-nearest gives (signed) zero.
    return sign ? kSignMask : 0u;
  }
  // Normalize so that man has its MSB at bit 26 (24 mantissa bits + guard,
  // round, extra), i.e. value = man * 2^(scale_exp') with man in [2^26,2^27).
  int msb = 63 - std::countl_zero(man);
  if (msb > 26) {
    const int sh = msb - 26;
    sticky = sticky || (man & ((std::uint64_t{1} << sh) - 1)) != 0;
    man >>= sh;
    scale_exp += sh;
  } else if (msb < 26) {
    const int sh = 26 - msb;
    man <<= sh;
    scale_exp -= sh;
  }
  // Now value = man * 2^scale_exp, man in [2^26, 2^27). The represented
  // number will be (man >> 3) * 2^(scale_exp + 3); a normal result needs
  // (scale_exp + 3) == e - 23 with man>>3 in [2^23, 2^24), i.e.
  // e = scale_exp + 26. Subnormal results need e == -126 with a smaller
  // mantissa: shift right until scale_exp + 26 == -126.
  std::int64_t e = scale_exp + 26;
  if (e < -126) {
    const std::int64_t sh = -126 - e;
    if (sh >= 63) {
      sticky = sticky || man != 0;
      man = 0;
    } else {
      sticky = sticky || (man & ((std::uint64_t{1} << sh) - 1)) != 0;
      man >>= sh;
    }
    e = -126;
  }
  // Round to nearest even on the low 3 bits + sticky.
  const std::uint64_t lsb = (man >> 3) & 1;
  const std::uint64_t round_bits = man & 7;
  man >>= 3;
  const bool round_up =
      round_bits > 4 || (round_bits == 4 && (sticky || lsb != 0));
  if (round_up) {
    ++man;
    if (man == (std::uint64_t{1} << 24)) {  // mantissa overflow
      man >>= 1;
      ++e;
    }
  }
  if (man == 0) return sign ? kSignMask : 0u;
  if (man < (std::uint64_t{1} << 23)) {
    // Subnormal (e must be -126 here).
    return pack_raw(sign, 0, static_cast<std::uint32_t>(man));
  }
  if (e > 127) {  // overflow -> infinity (round-to-nearest)
    return pack_raw(sign, 0xff, 0);
  }
  return pack_raw(sign, static_cast<std::uint32_t>(e + 127),
                  static_cast<std::uint32_t>(man));
}

FmaS1 fma_stage1(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                 FpOp op) {
  FmaS1 s;
  s.op = op;
  switch (op) {
    case FpOp::Add:
      // a + b == a*1 + b
      s.a = fp32_unpack(a);
      s.b = fp32_unpack(0x3f800000u);  // 1.0f
      s.c = fp32_unpack(b);
      break;
    case FpOp::Mul:
      s.a = fp32_unpack(a);
      s.b = fp32_unpack(b);
      s.c = fp32_unpack(0x00000000u);  // +0
      break;
    case FpOp::Fma:
      s.a = fp32_unpack(a);
      s.b = fp32_unpack(b);
      s.c = fp32_unpack(c);
      break;
  }
  return s;
}

FmaS2 fma_stage2(const FmaS1& s) {
  FmaS2 o;
  o.op = s.op;
  o.c = s.c;
  o.sign_p = s.a.sign != s.b.sign;

  // NaN propagation and invalid operations.
  if (s.a.cls == FpClass::NaN || s.b.cls == FpClass::NaN ||
      s.c.cls == FpClass::NaN) {
    o.special = true;
    o.special_bits = kCanonicalNaN;
    return o;
  }
  const bool p_inf = s.a.cls == FpClass::Inf || s.b.cls == FpClass::Inf;
  const bool p_zero = s.a.cls == FpClass::Zero || s.b.cls == FpClass::Zero;
  if (p_inf && p_zero) {  // inf * 0
    o.special = true;
    o.special_bits = kCanonicalNaN;
    return o;
  }
  if (p_inf) {
    if (s.c.cls == FpClass::Inf && s.c.sign != o.sign_p) {
      o.special = true;  // inf - inf
      o.special_bits = kCanonicalNaN;
      return o;
    }
    o.special = true;
    o.special_bits = pack_raw(o.sign_p, 0xff, 0);
    return o;
  }
  if (s.c.cls == FpClass::Inf) {
    o.special = true;
    o.special_bits = pack_raw(s.c.sign, 0xff, 0);
    return o;
  }
  if (p_zero) {
    o.cls_p = FpClass::Zero;
    o.prod = 0;
    o.exp_p = 0;
    return o;
  }
  o.cls_p = FpClass::Norm;
  o.prod = static_cast<std::uint64_t>(s.a.man) * s.b.man;  // < 2^48
  o.exp_p = s.a.exp + s.b.exp;  // value = prod * 2^(exp_p - 46)
  return o;
}

FmaS3 fma_stage3(const FmaS2& s) {
  FmaS3 o;
  o.op = s.op;
  o.special = s.special;
  o.special_bits = s.special_bits;
  o.sign_p = s.sign_p;
  o.sign_c = s.c.sign;
  if (s.special) return o;

  const bool p_zero = s.cls_p == FpClass::Zero || s.prod == 0;
  const bool c_zero = s.c.cls == FpClass::Zero || s.c.man == 0;

  if (p_zero && c_zero) {
    o.zero_case = true;
    return o;
  }
  if (p_zero) {
    // Result is exactly the addend.
    o.sum = static_cast<unsigned __int128>(s.c.man) << 47;
    o.exp_r = s.c.exp;  // value = man_c * 2^(exp_c-23) = sum * 2^(exp_c-70)
    o.sign_r = s.c.sign;
    return o;
  }
  // Product as a 72-bit quantity with 24 guard bits below:
  // value = P * 2^(exp_p - 70).
  unsigned __int128 p = static_cast<unsigned __int128>(s.prod) << 24;
  std::int64_t ep = s.exp_p;
  if (c_zero) {
    o.sum = p;
    o.exp_r = static_cast<std::int32_t>(ep);
    o.sign_r = s.sign_p;
    return o;
  }
  // Addend at the same guard position: value = C * 2^(exp_c - 70).
  unsigned __int128 cq = static_cast<unsigned __int128>(s.c.man) << 47;
  std::int64_t ec = s.c.exp;

  bool sticky = false;
  auto shift_right = [&sticky](unsigned __int128 v, std::int64_t n) {
    if (n <= 0) return v;
    if (n >= 127) {
      sticky = sticky || v != 0;
      return static_cast<unsigned __int128>(0);
    }
    sticky = sticky ||
             (v & ((static_cast<unsigned __int128>(1) << n) - 1)) != 0;
    return v >> n;
  };

  std::int64_t e = ep > ec ? ep : ec;
  const bool shifted_is_p = ep < ec;  // only the smaller exponent is shifted
  p = shift_right(p, e - ep);
  cq = shift_right(cq, e - ec);

  if (s.sign_p == s.c.sign) {
    // True sum = images + delta where delta is the (positive) truncated
    // remainder: the sticky flag carries it into rounding unchanged.
    o.sum = p + cq;
    o.sign_r = s.sign_p;
  } else if (p != cq) {
    const bool p_bigger = p > cq;
    o.sum = p_bigger ? p - cq : cq - p;
    o.sign_r = p_bigger ? s.sign_p : s.c.sign;
    // If the truncated operand is the subtrahend (the smaller image), the
    // true difference is smaller than the image difference: borrow one unit
    // from the sticky region (sticky then represents the 1-delta remainder).
    if (sticky && shifted_is_p != p_bigger) o.sum -= 1;
  } else {
    // Images are equal. With no truncation this is exact cancellation; with
    // truncation the true result is the tiny remainder of the shifted
    // operand (which is therefore the larger true magnitude). That remainder
    // is far below every representable increment at this scale, so it only
    // matters through the sticky flag.
    if (sticky) {
      o.sum = 0;
      o.sign_r = shifted_is_p ? s.sign_p : s.c.sign;
    } else {
      o.cancel = true;
      return o;
    }
  }
  o.exp_r = static_cast<std::int32_t>(e);
  o.sticky = sticky;
  return o;
}

std::uint32_t fma_stage4(const FmaS3& s) {
  if (s.special) return s.special_bits;
  if (s.cancel) return 0u;  // exact x + (-x) -> +0 under round-to-nearest
  if (s.zero_case) {
    // Both product and addend are zero: IEEE sign rules. For FMUL the +0
    // addend is an artifact of the unified datapath, so the product sign
    // stands alone.
    bool sign;
    if (s.op == FpOp::Mul)
      sign = s.sign_p;
    else if (s.sign_p == s.sign_c)
      sign = s.sign_p;  // same-signed zeros keep the sign
    else
      sign = false;  // opposite zeros -> +0 (round-to-nearest)
    return sign ? kSignMask : 0u;
  }
  // value = sum * 2^(exp_r - 70). Reduce the 128-bit sum to 64 bits first.
  unsigned __int128 sum = s.sum;
  bool sticky = s.sticky;
  std::int64_t scale = static_cast<std::int64_t>(s.exp_r) - 70;
  while (sum >> 64) {
    sticky = sticky || (sum & 1) != 0;
    sum >>= 1;
    ++scale;
  }
  return fp32_round_pack(s.sign_r, scale, static_cast<std::uint64_t>(sum),
                         sticky);
}

std::uint32_t fma_bits(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                       FpOp op) {
  return fma_stage4(fma_stage3(fma_stage2(fma_stage1(a, b, c, op))));
}

float ffma(float a, float b, float c) {
  return std::bit_cast<float>(fma_bits(std::bit_cast<std::uint32_t>(a),
                                       std::bit_cast<std::uint32_t>(b),
                                       std::bit_cast<std::uint32_t>(c),
                                       FpOp::Fma));
}

float fadd(float a, float b) {
  return std::bit_cast<float>(fma_bits(std::bit_cast<std::uint32_t>(a),
                                       std::bit_cast<std::uint32_t>(b), 0,
                                       FpOp::Add));
}

float fmul(float a, float b) {
  return std::bit_cast<float>(fma_bits(std::bit_cast<std::uint32_t>(a),
                                       std::bit_cast<std::uint32_t>(b), 0,
                                       FpOp::Mul));
}

IntS1 imad_stage1(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return IntS1{static_cast<std::uint64_t>(a) * b, c};
}

std::uint32_t imad_stage2(const IntS1& s) {
  return static_cast<std::uint32_t>(s.prod) + s.c;
}

std::uint32_t imad_bits(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return imad_stage2(imad_stage1(a, b, c));
}

std::uint32_t i2f_bits(std::uint32_t int_bits) {
  const auto v = static_cast<std::int32_t>(int_bits);
  if (v == 0) return 0;
  const bool sign = v < 0;
  const auto mag = static_cast<std::uint64_t>(
      sign ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v));
  return fp32_round_pack(sign, 0, mag, false);
}

std::uint32_t f2i_bits(std::uint32_t float_bits) {
  const Unpacked u = fp32_unpack(float_bits);
  switch (u.cls) {
    case FpClass::Zero:
      return 0;
    case FpClass::NaN:
      return 0;
    case FpClass::Inf:
      return u.sign ? 0x80000000u : 0x7fffffffu;
    case FpClass::Norm:
      break;
  }
  // value = man * 2^(exp - 23), truncate toward zero.
  std::int64_t mag;
  const int shift = u.exp - 23;
  if (shift >= 0) {
    if (shift > 38) mag = INT64_MAX;  // certainly saturates
    else mag = static_cast<std::int64_t>(u.man) << shift;
  } else {
    // man < 2^24, so any right shift of 24+ clears it (shifting a 32-bit
    // value by >= 32 would be undefined).
    mag = shift <= -24 ? 0 : static_cast<std::int64_t>(u.man >> -shift);
  }
  if (u.sign) {
    if (mag > 0x80000000ll) return 0x80000000u;
    return static_cast<std::uint32_t>(-mag);
  }
  if (mag > 0x7fffffffll) return 0x7fffffffu;
  return static_cast<std::uint32_t>(mag);
}

}  // namespace gpufi::fparith
