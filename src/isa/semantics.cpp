#include "isa/semantics.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "fparith/fp32.hpp"
#include "fparith/sfu.hpp"

namespace gpufi::isa {

namespace {
std::int32_t as_i(std::uint32_t v) { return static_cast<std::int32_t>(v); }
float as_f(std::uint32_t v) { return std::bit_cast<float>(v); }
}  // namespace

std::uint32_t alu_result(Opcode op, std::uint32_t a, std::uint32_t b,
                         std::uint32_t c, bool c_pred) {
  using fparith::FpOp;
  switch (op) {
    case Opcode::FADD:
      return fparith::fma_host_bits(a, b, 0, FpOp::Add);
    case Opcode::FMUL:
      return fparith::fma_host_bits(a, b, 0, FpOp::Mul);
    case Opcode::FFMA:
      return fparith::fma_host_bits(a, b, c, FpOp::Fma);
    case Opcode::IADD:
      return a + b;
    case Opcode::IMUL:
      return fparith::imad_bits(a, b, 0);
    case Opcode::IMAD:
      return fparith::imad_bits(a, b, c);
    case Opcode::FSIN:
      return fparith::sfu_sin_bits(a);
    case Opcode::FEXP:
      return fparith::sfu_exp_bits(a);
    case Opcode::MOV:
      return a;
    case Opcode::SHL:
      return a << (b & 31u);
    case Opcode::SHR:
      return a >> (b & 31u);
    case Opcode::AND:
      return a & b;
    case Opcode::OR:
      return a | b;
    case Opcode::XOR:
      return a ^ b;
    case Opcode::IMIN:
      return as_i(a) < as_i(b) ? a : b;
    case Opcode::IMAX:
      return as_i(a) > as_i(b) ? a : b;
    case Opcode::I2F:
      return fparith::i2f_bits(a);
    case Opcode::F2I:
      return fparith::f2i_bits(a);
    case Opcode::FRCP:
      return std::bit_cast<std::uint32_t>(1.0f / as_f(a));
    case Opcode::FMNMX: {
      const float fa = as_f(a), fb = as_f(b);
      if (std::isnan(fa)) return b;
      if (std::isnan(fb)) return a;
      return fa <= fb ? a : b;
    }
    case Opcode::SEL:
      return c_pred ? a : b;
    default:
      throw std::logic_error("alu_result: not a data-processing opcode");
  }
}

namespace {

/// One opcode dispatch, then a tight lane loop: `f(lane)` must be the pure
/// per-lane semantic of the dispatched opcode.
template <class F>
inline void map_lanes(std::uint32_t* out, F&& f) {
  for (unsigned l = 0; l < kWarpSize; ++l) out[l] = f(l);
}

}  // namespace

void alu_lanes(Opcode op, const std::uint32_t* a, const std::uint32_t* b,
               const std::uint32_t* c, const std::uint8_t* c_pred,
               std::uint32_t* out) {
  using fparith::FpOp;
  switch (op) {
    case Opcode::FADD:
      return map_lanes(out, [&](unsigned l) {
        return fparith::fma_host_bits(a[l], b[l], 0, FpOp::Add);
      });
    case Opcode::FMUL:
      return map_lanes(out, [&](unsigned l) {
        return fparith::fma_host_bits(a[l], b[l], 0, FpOp::Mul);
      });
    case Opcode::FFMA:
      return map_lanes(out, [&](unsigned l) {
        return fparith::fma_host_bits(a[l], b[l], c[l], FpOp::Fma);
      });
    case Opcode::IADD:
      return map_lanes(out, [&](unsigned l) { return a[l] + b[l]; });
    case Opcode::IMUL:
      return map_lanes(out, [&](unsigned l) {
        return fparith::imad_bits(a[l], b[l], 0);
      });
    case Opcode::IMAD:
      return map_lanes(out, [&](unsigned l) {
        return fparith::imad_bits(a[l], b[l], c[l]);
      });
    case Opcode::FSIN:
      return map_lanes(out,
                       [&](unsigned l) { return fparith::sfu_sin_bits(a[l]); });
    case Opcode::FEXP:
      return map_lanes(out,
                       [&](unsigned l) { return fparith::sfu_exp_bits(a[l]); });
    case Opcode::MOV:
      return map_lanes(out, [&](unsigned l) { return a[l]; });
    case Opcode::SHL:
      return map_lanes(out, [&](unsigned l) { return a[l] << (b[l] & 31u); });
    case Opcode::SHR:
      return map_lanes(out, [&](unsigned l) { return a[l] >> (b[l] & 31u); });
    case Opcode::AND:
      return map_lanes(out, [&](unsigned l) { return a[l] & b[l]; });
    case Opcode::OR:
      return map_lanes(out, [&](unsigned l) { return a[l] | b[l]; });
    case Opcode::XOR:
      return map_lanes(out, [&](unsigned l) { return a[l] ^ b[l]; });
    case Opcode::IMIN:
      return map_lanes(out, [&](unsigned l) {
        return as_i(a[l]) < as_i(b[l]) ? a[l] : b[l];
      });
    case Opcode::IMAX:
      return map_lanes(out, [&](unsigned l) {
        return as_i(a[l]) > as_i(b[l]) ? a[l] : b[l];
      });
    case Opcode::I2F:
      return map_lanes(out,
                       [&](unsigned l) { return fparith::i2f_bits(a[l]); });
    case Opcode::F2I:
      return map_lanes(out,
                       [&](unsigned l) { return fparith::f2i_bits(a[l]); });
    case Opcode::FRCP:
      return map_lanes(out, [&](unsigned l) {
        return std::bit_cast<std::uint32_t>(1.0f / as_f(a[l]));
      });
    case Opcode::FMNMX:
      return map_lanes(out, [&](unsigned l) {
        const float fa = as_f(a[l]), fb = as_f(b[l]);
        if (std::isnan(fa)) return b[l];
        if (std::isnan(fb)) return a[l];
        return fa <= fb ? a[l] : b[l];
      });
    case Opcode::SEL:
      return map_lanes(out,
                       [&](unsigned l) { return c_pred[l] ? a[l] : b[l]; });
    default:
      throw std::logic_error("alu_lanes: not a data-processing opcode");
  }
}

void cmp_lanes_i(CmpOp cmp, const std::uint32_t* a, const std::uint32_t* b,
                 std::uint8_t* out) {
  const auto lanes = [&](auto&& f) {
    for (unsigned l = 0; l < kWarpSize; ++l)
      out[l] = f(as_i(a[l]), as_i(b[l])) ? 1 : 0;
  };
  switch (cmp) {
    case CmpOp::EQ: return lanes([](auto x, auto y) { return x == y; });
    case CmpOp::NE: return lanes([](auto x, auto y) { return x != y; });
    case CmpOp::LT: return lanes([](auto x, auto y) { return x < y; });
    case CmpOp::LE: return lanes([](auto x, auto y) { return x <= y; });
    case CmpOp::GT: return lanes([](auto x, auto y) { return x > y; });
    case CmpOp::GE: return lanes([](auto x, auto y) { return x >= y; });
  }
}

void cmp_lanes_f(CmpOp cmp, const std::uint32_t* a, const std::uint32_t* b,
                 std::uint8_t* out) {
  // NaN handling varies per lane, so defer to the scalar semantic; the cmp
  // switch still runs only once per lane here (cmp_eval_f inlines poorly but
  // FSETP is rare relative to the ALU stream).
  for (unsigned l = 0; l < kWarpSize; ++l)
    out[l] = cmp_eval_f(cmp, a[l], b[l]) ? 1 : 0;
}

bool cmp_eval_i(CmpOp cmp, std::uint32_t a, std::uint32_t b) {
  const std::int32_t x = as_i(a), y = as_i(b);
  switch (cmp) {
    case CmpOp::EQ: return x == y;
    case CmpOp::NE: return x != y;
    case CmpOp::LT: return x < y;
    case CmpOp::LE: return x <= y;
    case CmpOp::GT: return x > y;
    case CmpOp::GE: return x >= y;
  }
  return false;
}

bool cmp_eval_f(CmpOp cmp, std::uint32_t a, std::uint32_t b) {
  const float x = as_f(a), y = as_f(b);
  if (std::isnan(x) || std::isnan(y)) return cmp == CmpOp::NE;
  switch (cmp) {
    case CmpOp::EQ: return x == y;
    case CmpOp::NE: return x != y;
    case CmpOp::LT: return x < y;
    case CmpOp::LE: return x <= y;
    case CmpOp::GT: return x > y;
    case CmpOp::GE: return x >= y;
  }
  return false;
}

}  // namespace gpufi::isa
