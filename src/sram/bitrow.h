// A single SRAM row as a dynamic-width bit vector.
//
// Column c lives in bit c % 64 of limb c / 64; bits at and above width()
// are always zero.  The subarray runs its bitline operations as in-place
// word kernels directly over these limbs (see `words()`), so a row-wide
// micro-op costs a handful of 64-bit operations and no allocation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bpntt::sram {

class bitrow {
 public:
  bitrow() = default;
  explicit bitrow(unsigned width);

  [[nodiscard]] unsigned width() const noexcept { return width_; }
  [[nodiscard]] bool get(unsigned i) const noexcept;
  void set(unsigned i, bool v) noexcept;
  void clear() noexcept;
  [[nodiscard]] bool any() const noexcept;
  [[nodiscard]] unsigned popcount() const noexcept;

  // Limb storage for word-level kernels.  Writers must keep the bits at
  // and above width() zero.
  [[nodiscard]] std::span<std::uint64_t> words() noexcept { return limbs_; }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return limbs_; }

  // Word accessors used by tile packing (bit `base+i` for i in [0,count)).
  [[nodiscard]] std::uint64_t extract(unsigned base, unsigned count) const noexcept;
  void deposit(unsigned base, unsigned count, std::uint64_t value) noexcept;

  [[nodiscard]] std::string to_string() const;  // MSB-first, e.g. "0110"

  bool operator==(const bitrow& o) const noexcept = default;

 private:
  unsigned width_ = 0;
  std::vector<std::uint64_t> limbs_;
};

}  // namespace bpntt::sram
