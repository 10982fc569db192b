#include "rtl/state.hpp"

#include <stdexcept>

namespace gpufi::rtl {

std::string_view module_name(Module m) {
  switch (m) {
    case Module::Fp32Fu: return "FP32";
    case Module::IntFu: return "INT";
    case Module::Sfu: return "SFU";
    case Module::SfuCtl: return "SFU controller";
    case Module::Scheduler: return "Scheduler controller";
    case Module::PipelineRegs: return "Pipeline Registers";
  }
  return "?";
}

FieldRef StateLayout::add(std::string name, unsigned width, FieldRole role) {
  if (width == 0 || width > 64)
    throw std::invalid_argument("StateLayout::add: bad width for " + name);
  if (fields_.size() > 0xFFFF)
    throw std::length_error("StateLayout::add: too many fields");
  FieldInfo info;
  info.name = std::move(name);
  info.offset = static_cast<std::uint32_t>(bits_);
  info.width = static_cast<std::uint16_t>(width);
  info.role = role;
  fields_.push_back(info);
  bits_ += width;
  if (role == FieldRole::Data) data_bits_ += width;
  return FieldRef{info.offset, info.width,
                  static_cast<std::uint16_t>(fields_.size() - 1)};
}

void ModuleState::set_tracking(bool on, std::uint64_t salt) {
  track_ = on;
  if (!on) return;
  salt_ = salt;
  digest_ = 0;
  const auto& fs = layout_->fields();
  for (std::size_t i = 0; i < fs.size(); ++i)
    digest_ ^= state_digest_mix(salt_, fs[i].offset, words_[i]);
}

BitVector ModuleState::bits() const {
  BitVector packed(layout_->bits());
  const auto& fs = layout_->fields();
  for (std::size_t i = 0; i < fs.size(); ++i)
    packed.set_field(fs[i].offset, fs[i].width, words_[i]);
  return packed;
}

void ModuleState::load(const BitVector& bits, std::uint64_t digest) {
  if (bits.size() != layout_->bits())
    throw std::invalid_argument("ModuleState::load: size mismatch");
  const auto& fs = layout_->fields();
  for (std::size_t i = 0; i < fs.size(); ++i)
    words_[i] = bits.get_field(fs[i].offset, fs[i].width);
  digest_ = digest;
}

FieldBit StateLayout::locate(std::size_t bit) const {
  if (fields_.empty() || bit >= bits_)
    throw std::out_of_range("StateLayout::locate");
  // Binary search over the sorted field offsets.
  std::size_t lo = 0, hi = fields_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (fields_[mid].offset <= bit)
      lo = mid;
    else
      hi = mid;
  }
  const FieldInfo& fi = fields_[lo];
  return FieldBit{FieldRef{fi.offset, fi.width, static_cast<std::uint16_t>(lo)},
                  static_cast<unsigned>(bit - fi.offset)};
}

}  // namespace gpufi::rtl
