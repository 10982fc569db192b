#pragma once

#include <cstdint>

#include "isa/isa.hpp"

namespace gpufi::isa {

/// Pure functional result of a data-processing instruction.
///
/// `a`, `b`, `c` are the resolved operand bit patterns; `c_pred` is the
/// value of the predicate consumed by SEL. Memory and control instructions
/// are executed by the engines themselves. Both the emulator and the RTL
/// model use these semantics (the RTL model computes FP32/INT/SFU results
/// through its staged datapaths, which are bit-identical by construction and
/// verified so by tests). FADD/FMUL/FFMA compute through
/// fparith::fma_host_bits, the host-arithmetic twin of fparith::fma_bits.
std::uint32_t alu_result(Opcode op, std::uint32_t a, std::uint32_t b,
                         std::uint32_t c, bool c_pred);

/// Integer comparison (signed) for ISETP.
bool cmp_eval_i(CmpOp cmp, std::uint32_t a, std::uint32_t b);

/// Floating-point comparison for FSETP. Any NaN operand compares false
/// except for NE, which compares true (IEEE unordered semantics).
bool cmp_eval_f(CmpOp cmp, std::uint32_t a, std::uint32_t b);

// ---------------------------------------------------------------------------
// Warp-batched lane kernels.
//
// The SoA interpreter decodes an instruction once per warp and then computes
// all kWarpSize lanes in one tight loop: the opcode switch runs once per
// warp-instruction instead of once per lane. Every ALU semantic is a pure
// total function over bit patterns, so inactive lanes are computed on
// whatever bits their register slab holds and discarded by the caller's
// execution mask — out[lane] for an active lane is bit-identical to
// alu_result()/cmp_eval_*() on the same operands.
// ---------------------------------------------------------------------------

/// alu_result for all kWarpSize lanes. `a`, `b`, `c` point at kWarpSize
/// operand values; `c_pred` (used by SEL only) points at kWarpSize predicate
/// bytes and may be null for every other opcode.
void alu_lanes(Opcode op, const std::uint32_t* a, const std::uint32_t* b,
               const std::uint32_t* c, const std::uint8_t* c_pred,
               std::uint32_t* out);

/// cmp_eval_i for all kWarpSize lanes (out[lane] in {0, 1}).
void cmp_lanes_i(CmpOp cmp, const std::uint32_t* a, const std::uint32_t* b,
                 std::uint8_t* out);

/// cmp_eval_f for all kWarpSize lanes (out[lane] in {0, 1}).
void cmp_lanes_f(CmpOp cmp, const std::uint32_t* a, const std::uint32_t* b,
                 std::uint8_t* out);

}  // namespace gpufi::isa
