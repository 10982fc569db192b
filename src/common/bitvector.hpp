#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace gpufi {

/// Dynamically sized vector of bits backed by 64-bit words.
///
/// This is the packed image of an RTL flip-flop bank: a checkpoint stores
/// each bank as a BitVector in which every field (an 8-bit exponent, a
/// 48-bit product, a 32-bit active mask) is a contiguous bit run at its
/// layout offset, accessed through get_field/set_field. The live bank keeps
/// one machine word per field instead (rtl::ModuleState) and packs to and
/// unpacks from this image.
class BitVector {
 public:
  BitVector() = default;
  /// Constructs `bits` zero bits.
  explicit BitVector(std::size_t bits);

  /// Number of bits.
  std::size_t size() const { return size_; }

  /// Resets every bit to zero without changing the size.
  void clear();

  /// Value of bit `i` (0-based).
  bool get(std::size_t i) const {
    assert(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  /// Sets bit `i` to `v`.
  void set(std::size_t i, bool v) {
    assert(i < size_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }
  /// Inverts bit `i`.
  void flip(std::size_t i) {
    assert(i < size_);
    words_[i >> 6] ^= std::uint64_t{1} << (i & 63);
  }

  /// Reads `width` (<= 64) bits starting at `offset`, LSB-first.
  std::uint64_t get_field(std::size_t offset, std::size_t width) const {
    assert(width >= 1 && width <= 64);
    assert(offset + width <= size_);
    const std::size_t w = offset >> 6;
    const std::size_t b = offset & 63;
    std::uint64_t lo = words_[w] >> b;
    if (b + width > 64) lo |= words_[w + 1] << (64 - b);
    return lo & (~std::uint64_t{0} >> (64 - width));
  }
  /// Writes the low `width` (<= 64) bits of `value` starting at `offset`.
  void set_field(std::size_t offset, std::size_t width, std::uint64_t value) {
    assert(width >= 1 && width <= 64);
    assert(offset + width <= size_);
    const std::uint64_t mask = ~std::uint64_t{0} >> (64 - width);
    value &= mask;
    const std::size_t w = offset >> 6;
    const std::size_t b = offset & 63;
    words_[w] = (words_[w] & ~(mask << b)) | (value << b);
    if (b + width > 64) {
      const std::uint64_t hi_mask = mask >> (64 - b);
      words_[w + 1] = (words_[w + 1] & ~hi_mask) | (value >> (64 - b));
    }
  }

  /// Number of set bits.
  std::size_t popcount() const;

  /// Bitwise equality (sizes must match for equality to hold).
  bool operator==(const BitVector& other) const;

  /// "01011..." rendering, bit 0 first. Intended for debugging and reports.
  std::string to_string() const;

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace gpufi
