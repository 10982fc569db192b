#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.hpp"
#include "common/rng.hpp"

namespace gpufi::rtl {

/// The six fault-injection targets of Table I. Memories (register file,
/// shared memory, caches) are deliberately absent: the paper assumes they
/// are ECC protected and does not inject into them.
enum class Module : std::uint8_t {
  Fp32Fu,       ///< 8-lane unified FP32 FMA datapath
  IntFu,        ///< 8-lane integer MAD datapath
  Sfu,          ///< 2 special function units (sin/exp pipelines)
  SfuCtl,       ///< SFU request queue / arbitration controller
  Scheduler,    ///< warp scheduler controller (warp table + issue FSM)
  PipelineRegs, ///< operand/result collectors and per-stage latches
};

/// Number of faultable modules.
constexpr std::size_t kNumModules = 6;

/// Human-readable module name ("FP32", "Scheduler", ...).
std::string_view module_name(Module m);

/// Whether a flip-flop field carries datapath values or control signals.
/// The paper's key structural observation (~84% of pipeline registers are
/// data, ~16% control, and the control ones cause the DUEs/multi-thread
/// SDCs) is reproduced by tagging every field.
enum class FieldRole : std::uint8_t { Data, Control };

/// Handle to a field of a module's flip-flop bank: its bit offset in the
/// bank's packed image and its slot, the index of the machine word that
/// holds it in the live bank.
struct FieldRef {
  std::uint32_t offset = 0;
  std::uint16_t width = 0;
  std::uint16_t slot = 0;
};

/// One flip-flop resolved to its field: the field's handle plus the bit's
/// position inside the field.
struct FieldBit {
  FieldRef field;
  unsigned bit = 0;
};

/// Metadata of one registered field.
struct FieldInfo {
  std::string name;
  std::uint32_t offset = 0;
  std::uint16_t width = 0;
  FieldRole role = FieldRole::Data;
};

/// Builder/registry for a module's flip-flop bank: fields are appended in
/// declaration order, numbered by slot, and packed contiguously in the bit
/// numbering fault injection uses. The layout doubles as the lookup table
/// that maps an injected bit index back to its field, for the live bank's
/// flip/force and for the detailed fault reports.
class StateLayout {
 public:
  /// Registers a field of `width` bits; returns its handle.
  FieldRef add(std::string name, unsigned width,
               FieldRole role = FieldRole::Data);

  /// Total flip-flop count (Table I column "RTL Size").
  std::size_t bits() const { return bits_; }
  /// Flip-flops tagged as data.
  std::size_t data_bits() const { return data_bits_; }
  /// Flip-flops tagged as control.
  std::size_t control_bits() const { return bits_ - data_bits_; }

  /// Field containing the given bit (for reports). Throws if out of range.
  const FieldInfo& field_at(std::size_t bit) const {
    return fields_[locate(bit).field.slot];
  }
  /// The given bit as (field handle, bit in field). Throws if out of range.
  FieldBit locate(std::size_t bit) const;

  /// Registered fields; a field's slot is its index here.
  const std::vector<FieldInfo>& fields() const { return fields_; }

 private:
  std::vector<FieldInfo> fields_;
  std::size_t bits_ = 0;
  std::size_t data_bits_ = 0;
};

// ---------------------------------------------------------------------------
// Incremental state digests.
//
// Every stateful component (flip-flop bank, architectural memory, CTA loop
// index) contributes an XOR-accumulated 64-bit digest; the composite machine
// digest is the XOR of all component digests. A component's digest is the
// XOR over its (position, value) pairs of `state_digest_mix`, which hashes
// position and value under a per-component salt. Two properties make the
// digest cheap to maintain:
//  * XOR accumulation: changing one field costs two mixes (XOR the old
//    contribution out, the new one in) — O(1) per state write.
//  * Zero values contribute nothing: a power-on-reset component digests to
//    0 and re-computation after enabling tracking touches only live state.
//
// The digest is 64 bits wide: with ~1e6 digest comparisons per campaign the
// probability of any false state-equality is bounded by ~1e6 * 2^-64
// (~5e-14), far below the campaigns' statistical margins.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kDigestPosMult = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kDigestValMult = 0xbf58476d1ce4e5b9ull;

/// Contribution of one (position, value) pair to a component digest.
constexpr std::uint64_t state_digest_mix(std::uint64_t salt, std::uint64_t pos,
                                         std::uint64_t val) {
  return val == 0
             ? 0
             : splitmix64(salt + (pos + 1) * kDigestPosMult +
                          val * kDigestValMult);
}

/// Digest-domain indices: each component mixes under a distinct salt so that
/// equal (position, value) pairs in different components cannot cancel.
constexpr unsigned kSaltDomainModule0 = 0;  ///< + Module enum index (0..5)
constexpr unsigned kSaltDomainGlobal = 8;
constexpr unsigned kSaltDomainRegs = 9;
constexpr unsigned kSaltDomainPreds = 10;
constexpr unsigned kSaltDomainShared = 11;
constexpr unsigned kSaltDomainCta = 12;

/// Salt of a digest domain.
constexpr std::uint64_t digest_salt(unsigned domain) {
  return splitmix64(0x6770756669646967ull + domain);
}

/// A module's live flip-flop bank: one 64-bit word per field, addressed
/// through FieldRef slots, so a field read is one load and a field write
/// one masked store. Fault injection flips raw bits in the bank's packed
/// numbering; the layout maps such a bit to the field that holds it.
///
/// With tracking enabled (`set_tracking`), the bank maintains an incremental
/// field-granular digest of its contents; tracking is off by default so the
/// plain simulation path pays only an untaken branch per field write.
class ModuleState {
 public:
  explicit ModuleState(const StateLayout& layout)
      : layout_(&layout), words_(layout.fields().size(), 0) {}

  std::uint64_t get(FieldRef f) const { return words_[f.slot]; }
  /// Writes the low `f.width` bits of `v`. The digest sees only those bits,
  /// so it stays a function of the bank's contents.
  void set(FieldRef f, std::uint64_t v) {
    std::uint64_t& w = words_[f.slot];
    v &= ~std::uint64_t{0} >> (64 - f.width);
    if (track_ && w != v)
      digest_ ^= state_digest_mix(salt_, f.offset, w) ^
                 state_digest_mix(salt_, f.offset, v);
    w = v;
  }
  bool get_flag(FieldRef f) const { return get(f) != 0; }

  /// Sign-extends a field read as a two's-complement value.
  std::int64_t get_signed(FieldRef f) const {
    const std::uint64_t v = get(f);
    if (f.width == 64) return static_cast<std::int64_t>(v);
    const std::uint64_t sign = std::uint64_t{1} << (f.width - 1);
    return static_cast<std::int64_t>((v ^ sign)) -
           static_cast<std::int64_t>(sign);
  }

  /// Stuck-at drive primitive: forces the flip-flop to `value`, a no-op
  /// when it already holds it (so the digest stays exact either way).
  void force(FieldBit b, bool value) {
    if (((words_[b.field.slot] >> b.bit) & 1u) != value) flip(b);
  }

  /// The fault-injection primitive.
  void flip(FieldBit b) {
    std::uint64_t& w = words_[b.field.slot];
    const std::uint64_t flipped = w ^ (std::uint64_t{1} << b.bit);
    if (track_)
      digest_ ^= state_digest_mix(salt_, b.field.offset, w) ^
                 state_digest_mix(salt_, b.field.offset, flipped);
    w = flipped;
  }
  void flip(std::size_t bit) { flip(layout_->locate(bit)); }

  /// Clears every flip-flop (power-on reset).
  void reset() {
    words_.assign(words_.size(), 0);
    digest_ = 0;
  }

  std::size_t size() const { return layout_->bits(); }
  const StateLayout& layout() const { return *layout_; }

  // ---- digest tracking (checkpoint/convergence fast path) --------------

  /// Enables (recomputing the digest from the live bits) or disables
  /// incremental digest maintenance. `salt` is the bank's digest domain.
  void set_tracking(bool on, std::uint64_t salt);
  bool tracking() const { return track_; }
  /// Current content digest (only meaningful while tracking).
  std::uint64_t digest() const { return digest_; }

  /// Packed bit image, every field at its layout offset (checkpoint
  /// capture).
  BitVector bits() const;
  /// Restores a packed bit image plus its digest. Sizes must match.
  void load(const BitVector& bits, std::uint64_t digest);

 private:
  const StateLayout* layout_;
  std::vector<std::uint64_t> words_;  ///< indexed by FieldRef::slot
  std::uint64_t salt_ = 0;
  std::uint64_t digest_ = 0;
  bool track_ = false;
};

}  // namespace gpufi::rtl
