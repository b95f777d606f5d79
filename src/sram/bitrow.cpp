#include "sram/bitrow.h"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace bpntt::sram {

bitrow::bitrow(unsigned width) : width_(width), limbs_((width + 63) / 64, 0) {
  if (width == 0) throw std::invalid_argument("bitrow: zero width");
}

bool bitrow::get(unsigned i) const noexcept {
  assert(i < width_);
  return (limbs_[i / 64] >> (i % 64)) & 1ULL;
}

void bitrow::set(unsigned i, bool v) noexcept {
  assert(i < width_);
  const std::uint64_t mask = 1ULL << (i % 64);
  if (v) {
    limbs_[i / 64] |= mask;
  } else {
    limbs_[i / 64] &= ~mask;
  }
}

void bitrow::clear() noexcept {
  for (auto& l : limbs_) l = 0;
}

bool bitrow::any() const noexcept {
  for (auto l : limbs_) {
    if (l != 0) return true;
  }
  return false;
}

unsigned bitrow::popcount() const noexcept {
  unsigned n = 0;
  for (auto l : limbs_) n += static_cast<unsigned>(std::popcount(l));
  return n;
}

std::uint64_t bitrow::extract(unsigned base, unsigned count) const noexcept {
  assert(count <= 64 && base + count <= width_);
  if (count == 0) return 0;
  // The field spans at most two limbs: the low part of limb w and, when it
  // crosses a limb boundary, the bottom of limb w + 1.
  const unsigned w = base / 64;
  const unsigned b = base % 64;
  std::uint64_t v = limbs_[w] >> b;
  if (b + count > 64) v |= limbs_[w + 1] << (64 - b);
  return count == 64 ? v : v & ((1ULL << count) - 1);
}

void bitrow::deposit(unsigned base, unsigned count, std::uint64_t value) noexcept {
  assert(count <= 64 && base + count <= width_);
  if (count == 0) return;
  const std::uint64_t field = count == 64 ? ~0ULL : (1ULL << count) - 1;
  value &= field;
  const unsigned w = base / 64;
  const unsigned b = base % 64;
  limbs_[w] = (limbs_[w] & ~(field << b)) | (value << b);
  if (b + count > 64) {
    const unsigned s = 64 - b;
    limbs_[w + 1] = (limbs_[w + 1] & ~(field >> s)) | (value >> s);
  }
}

std::string bitrow::to_string() const {
  std::string s;
  s.reserve(width_);
  for (unsigned i = width_; i-- > 0;) s += get(i) ? '1' : '0';
  return s;
}

}  // namespace bpntt::sram
