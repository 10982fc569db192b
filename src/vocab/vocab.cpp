#include "vocab/vocab.hpp"

#include <stdexcept>

#include "common/kv.hpp"

namespace gpufi::vocab {

namespace {

bool fail(std::string* error, std::string_view why) {
  if (error) *error = std::string(why);
  return false;
}

}  // namespace

std::optional<swfi::Plan> parse_plan(std::string_view s, std::string* error) {
  swfi::Plan plan;
  bool saw_target = false, saw_min = false, saw_max = false;
  std::string_view rest = s;
  if (rest.empty()) {
    fail(error, "plan: empty spec (need target_err=X)");
    return std::nullopt;
  }
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const auto eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == item.size()) {
      fail(error, "plan: expected key=value, got '" + std::string(item) + "'");
      return std::nullopt;
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (key == "target_err") {
      if (saw_target) {
        fail(error, "plan: duplicate target_err");
        return std::nullopt;
      }
      saw_target = true;
      plan.target_err = kv::parse_number<double>(value).value_or(0.0);
      if (!(plan.target_err > 0.0 && plan.target_err <= 0.5)) {
        fail(error, "plan: target_err must be a number in (0, 0.5]");
        return std::nullopt;
      }
    } else if (key == "min_trials" || key == "max_trials") {
      bool& seen = key == "min_trials" ? saw_min : saw_max;
      if (seen) {
        fail(error, "plan: duplicate " + std::string(key));
        return std::nullopt;
      }
      seen = true;
      const auto n = kv::parse_number<std::int64_t>(value);
      if (!n || *n <= 0) {
        fail(error,
             "plan: " + std::string(key) + " must be a positive integer");
        return std::nullopt;
      }
      (key == "min_trials" ? plan.min_trials : plan.max_trials) =
          static_cast<std::size_t>(*n);
    } else {
      fail(error, "plan: unknown key '" + std::string(key) + "'");
      return std::nullopt;
    }
  }
  if (!saw_target) {
    fail(error, "plan: target_err is required");
    return std::nullopt;
  }
  if (plan.max_trials != 0 && plan.max_trials < plan.min_trials) {
    fail(error, "plan: max_trials must be >= min_trials");
    return std::nullopt;
  }
  return plan;
}

std::optional<isa::Opcode> parse_opcode(std::string_view s) {
  for (unsigned i = 0; i < isa::kNumOpcodes; ++i) {
    const auto op = static_cast<isa::Opcode>(i);
    if (s == isa::mnemonic(op) && isa::is_characterized(op)) return op;
  }
  return std::nullopt;
}

std::optional<rtl::Module> parse_module(std::string_view s) {
  if (s == "fp32") return rtl::Module::Fp32Fu;
  if (s == "int") return rtl::Module::IntFu;
  if (s == "sfu") return rtl::Module::Sfu;
  if (s == "sfuctl") return rtl::Module::SfuCtl;
  if (s == "sched") return rtl::Module::Scheduler;
  if (s == "pipe") return rtl::Module::PipelineRegs;
  return std::nullopt;
}

std::string_view module_token(rtl::Module m) {
  switch (m) {
    case rtl::Module::Fp32Fu: return "fp32";
    case rtl::Module::IntFu: return "int";
    case rtl::Module::Sfu: return "sfu";
    case rtl::Module::SfuCtl: return "sfuctl";
    case rtl::Module::Scheduler: return "sched";
    case rtl::Module::PipelineRegs: return "pipe";
  }
  return "?";
}

std::optional<rtlfi::InputRange> parse_range(std::string_view s) {
  if (s == "S") return rtlfi::InputRange::Small;
  if (s == "M") return rtlfi::InputRange::Medium;
  if (s == "L") return rtlfi::InputRange::Large;
  return std::nullopt;
}

std::optional<rtlfi::TileKind> parse_tile(std::string_view s) {
  if (s == "max") return rtlfi::TileKind::Max;
  if (s == "zero") return rtlfi::TileKind::Zero;
  if (s == "random") return rtlfi::TileKind::Random;
  return std::nullopt;
}

std::optional<rtl::FaultModel> parse_fault_model(std::string_view s) {
  if (s == "transient") return rtl::FaultModel::Transient;
  if (s == "stuck0") return rtl::FaultModel::StuckAt0;
  if (s == "stuck1") return rtl::FaultModel::StuckAt1;
  if (s == "burst") return rtl::FaultModel::IntermittentBurst;
  return std::nullopt;
}

std::string_view fault_model_token(rtl::FaultModel m) {
  switch (m) {
    case rtl::FaultModel::Transient: return "transient";
    case rtl::FaultModel::StuckAt0: return "stuck0";
    case rtl::FaultModel::StuckAt1: return "stuck1";
    case rtl::FaultModel::IntermittentBurst: return "burst";
  }
  return "?";
}

std::optional<swfi::FaultModel> parse_sw_model(std::string_view s) {
  if (s == "bitflip") return swfi::FaultModel::SingleBitFlip;
  if (s == "doublebit") return swfi::FaultModel::DoubleBitFlip;
  if (s == "syndrome") return swfi::FaultModel::RelativeError;
  if (s == "warp") return swfi::FaultModel::WarpRelativeError;
  if (s == "sticky") return swfi::FaultModel::StickyRelativeError;
  return std::nullopt;
}

std::optional<nn::CnnFaultModel> parse_cnn_model(std::string_view s) {
  if (s == "bitflip") return nn::CnnFaultModel::SingleBitFlip;
  if (s == "syndrome") return nn::CnnFaultModel::RelativeError;
  if (s == "tmxm") return nn::CnnFaultModel::TiledMxM;
  return std::nullopt;
}

bool is_known_app(std::string_view s) {
  return s == "mxm" || s == "gaussian" || s == "lud" || s == "hotspot" ||
         s == "lava" || s == "quicksort";
}

apps::HpcApp make_app(const std::string& name) {
  if (name == "mxm") return apps::make_mxm();
  if (name == "gaussian") return apps::make_gaussian();
  if (name == "lud") return apps::make_lud();
  if (name == "hotspot") return apps::make_hotspot();
  if (name == "lava") return apps::make_lava();
  if (name == "quicksort") return apps::make_quicksort();
  throw std::invalid_argument("unknown app: " + name);
}

}  // namespace gpufi::vocab
