#pragma once

// The one spec vocabulary shared by every user-facing layer (CLI flags,
// serve-protocol specs): name<->enum maps for opcodes, modules, input
// ranges, tile kinds, fault models (RTL and software), CNN fault models,
// and the HPC application factory. Hoisted here so the CLI and the wire
// protocol cannot drift — both parse and print exactly these tokens.

#include <optional>
#include <string>
#include <string_view>

#include "apps/apps.hpp"
#include "isa/isa.hpp"
#include "nn/gpu_infer.hpp"
#include "rtl/sm.hpp"
#include "rtl/state.hpp"
#include "rtlfi/microbench.hpp"
#include "swfi/planner.hpp"
#include "swfi/swfi.hpp"

namespace gpufi::vocab {

/// Characterized instruction mnemonic ("FFMA", "BRA", ...).
std::optional<isa::Opcode> parse_opcode(std::string_view s);

/// Module token: fp32|int|sfu|sfuctl|sched|pipe.
std::optional<rtl::Module> parse_module(std::string_view s);
std::string_view module_token(rtl::Module m);

/// Input-range token: S|M|L.
std::optional<rtlfi::InputRange> parse_range(std::string_view s);

/// t-MxM tile token: max|zero|random.
std::optional<rtlfi::TileKind> parse_tile(std::string_view s);

/// RTL fault-model token: transient|stuck0|stuck1|burst.
std::optional<rtl::FaultModel> parse_fault_model(std::string_view s);
std::string_view fault_model_token(rtl::FaultModel m);

/// Software fault-model token: bitflip|doublebit|syndrome|warp|sticky.
std::optional<swfi::FaultModel> parse_sw_model(std::string_view s);

/// CNN fault-model token: bitflip|syndrome|tmxm.
std::optional<nn::CnnFaultModel> parse_cnn_model(std::string_view s);

/// Adaptive-plan token: "target_err=X[,min_trials=N][,max_trials=N]".
/// target_err is required and must be in (0, 0.5]; min/max_trials are
/// positive std::int64_t values in the number grammar of common/kv.hpp and
/// max_trials >= min_trials when both are given. Strict:
/// unknown or duplicate keys reject. On failure returns nullopt and, when
/// `error` is non-null, stores a one-line reason. Shared by the CLI
/// `--plan` flag and the serve-spec codec so both layers accept exactly the
/// same strings.
std::optional<swfi::Plan> parse_plan(std::string_view s,
                                     std::string* error = nullptr);

/// True when `s` names one of the HPC applications of `gpufi sw`.
bool is_known_app(std::string_view s);

/// Instantiates an HPC application by its vocabulary name; throws
/// std::invalid_argument for an unknown name (call is_known_app first on
/// untrusted input).
apps::HpcApp make_app(const std::string& name);

}  // namespace gpufi::vocab
