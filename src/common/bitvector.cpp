#include "common/bitvector.hpp"

#include <bit>

namespace gpufi {

BitVector::BitVector(std::size_t bits)
    : size_(bits), words_((bits + 63) / 64, 0) {}

void BitVector::clear() {
  for (auto& w : words_) w = 0;
}

std::size_t BitVector::popcount() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    std::uint64_t w = words_[i];
    // Mask tail bits of the last word (they are always zero by invariant,
    // but be defensive).
    if (i + 1 == words_.size() && (size_ & 63) != 0)
      w &= (std::uint64_t{1} << (size_ & 63)) - 1;
    n += static_cast<std::size_t>(std::popcount(w));
  }
  return n;
}

bool BitVector::operator==(const BitVector& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

}  // namespace gpufi
