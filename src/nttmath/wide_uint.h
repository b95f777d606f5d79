// Arbitrary-width unsigned integers for wide-coefficient experiments.
//
// The paper claims a single 256x256 subarray supports up to 256-bit
// coefficients; the SRAM model works at bit level and doesn't care, but the
// golden model needs arithmetic wider than __int128 to check those runs.
// wide_uint is a simple little-endian limb vector with a fixed bit width;
// every operation stays within that width (values are reduced mod 2^bits),
// mirroring the fixed tile width of the hardware.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bpntt::math {

struct wide_divmod;  // divmod()'s quotient/remainder pair, defined below

class wide_uint {
 public:
  wide_uint() = default;
  // Zero value of the given width (1..4096 bits).
  explicit wide_uint(unsigned bits);
  wide_uint(unsigned bits, std::uint64_t value);

  [[nodiscard]] unsigned bits() const noexcept { return bits_; }
  [[nodiscard]] bool is_zero() const noexcept;
  [[nodiscard]] bool bit(unsigned i) const noexcept;
  void set_bit(unsigned i, bool v) noexcept;
  [[nodiscard]] std::uint64_t low64() const noexcept;
  [[nodiscard]] std::string to_hex() const;

  // Bitwise ops (widths must match).
  [[nodiscard]] wide_uint operator&(const wide_uint& o) const;
  [[nodiscard]] wide_uint operator|(const wide_uint& o) const;
  [[nodiscard]] wide_uint operator^(const wide_uint& o) const;

  // Logical shifts by one bit within the fixed width (bits shifted out are
  // dropped, matching the hardware tile-segmented shifter).
  [[nodiscard]] wide_uint shl1() const;
  [[nodiscard]] wide_uint shr1() const;

  // Width adjustment: zero-extends, or truncates mod 2^new_bits.  The
  // mixed-width entry point for CRT work, where per-limb words, CRT terms
  // and the lazily-reduced accumulator all live at different widths.
  [[nodiscard]] wide_uint resized(unsigned new_bits) const;

  // Arithmetic mod 2^bits.
  [[nodiscard]] wide_uint add(const wide_uint& o) const;
  [[nodiscard]] wide_uint sub(const wide_uint& o) const;  // wraps on underflow

  // Full schoolbook product reduced mod 2^bits (the result keeps this
  // operand's width).  `o` may have any width.
  [[nodiscard]] wide_uint mul(const wide_uint& o) const;
  // Product by a machine word, mod 2^bits.
  [[nodiscard]] wide_uint mul_u64(std::uint64_t s) const;

  // Long division: quotient and remainder at this operand's width.  `d` may
  // have any width; d == 0 throws std::domain_error.
  [[nodiscard]] wide_divmod divmod(const wide_uint& d) const;
  // Round-to-nearest division (ties round up): round(x / d) at this
  // operand's width.  The RNS rescale primitive — dividing a big
  // coefficient by the dropped limb prime with exact rounding.  `d` may
  // have any width (aliasing with *this is fine); d == 0 throws
  // std::domain_error.
  [[nodiscard]] wide_uint divround(const wide_uint& d) const;
  // Remainder by a machine word (m != 0; throws std::domain_error).
  [[nodiscard]] std::uint64_t mod_u64(std::uint64_t m) const;

  [[nodiscard]] int compare(const wide_uint& o) const noexcept;  // -1/0/+1
  bool operator==(const wide_uint& o) const noexcept { return compare(o) == 0; }
  bool operator<(const wide_uint& o) const noexcept { return compare(o) < 0; }
  bool operator>=(const wide_uint& o) const noexcept { return compare(o) >= 0; }

  // (a + b) mod m, assuming a, b < m < 2^(bits-1).
  [[nodiscard]] static wide_uint add_mod(const wide_uint& a, const wide_uint& b,
                                         const wide_uint& m);
  // (a * b) mod m via binary double-and-add; independent oracle for the
  // carry-save Montgomery model at wide widths.
  [[nodiscard]] static wide_uint mul_mod(const wide_uint& a, const wide_uint& b,
                                         const wide_uint& m);
  // 2^k mod m (for Montgomery-factor handling at wide widths).
  [[nodiscard]] static wide_uint pow2_mod(unsigned k, const wide_uint& m);

 private:
  void trim() noexcept;  // clear bits above bits_
  // Zero value at a width exempt from the public 4096-bit cap: division
  // needs one carry bit of working headroom even at the maximum width.
  [[nodiscard]] static wide_uint internal_width(unsigned bits);

  unsigned bits_ = 0;
  std::vector<std::uint64_t> limbs_;
};

struct wide_divmod {
  wide_uint quot;
  wide_uint rem;
};

}  // namespace bpntt::math
