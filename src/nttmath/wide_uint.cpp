#include "nttmath/wide_uint.h"

#include <stdexcept>

namespace bpntt::math {
namespace {
constexpr unsigned kLimbBits = 64;
}

wide_uint::wide_uint(unsigned bits) : bits_(bits) {
  if (bits == 0 || bits > 4096) throw std::invalid_argument("wide_uint: bad width");
  limbs_.assign((bits + kLimbBits - 1) / kLimbBits, 0);
}

wide_uint wide_uint::internal_width(unsigned bits) {
  // Bypasses the public 4096-bit cap: division needs one carry bit of
  // working width even at the maximum client width.
  wide_uint r;
  r.bits_ = bits;
  r.limbs_.assign((bits + kLimbBits - 1) / kLimbBits, 0);
  return r;
}

wide_uint::wide_uint(unsigned bits, std::uint64_t value) : wide_uint(bits) {
  limbs_[0] = value;
  trim();
}

void wide_uint::trim() noexcept {
  const unsigned top = bits_ % kLimbBits;
  if (top != 0) limbs_.back() &= (top == 64 ? ~0ULL : ((1ULL << top) - 1));
}

bool wide_uint::is_zero() const noexcept {
  for (auto l : limbs_) {
    if (l != 0) return false;
  }
  return true;
}

bool wide_uint::bit(unsigned i) const noexcept {
  if (i >= bits_) return false;
  return (limbs_[i / kLimbBits] >> (i % kLimbBits)) & 1ULL;
}

void wide_uint::set_bit(unsigned i, bool v) noexcept {
  if (i >= bits_) return;
  const std::uint64_t mask = 1ULL << (i % kLimbBits);
  if (v) {
    limbs_[i / kLimbBits] |= mask;
  } else {
    limbs_[i / kLimbBits] &= ~mask;
  }
}

std::uint64_t wide_uint::low64() const noexcept { return limbs_.empty() ? 0 : limbs_[0]; }

std::string wide_uint::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (unsigned i = (bits_ + 3) / 4; i-- > 0;) {
    const unsigned nibble = static_cast<unsigned>((limbs_[i * 4 / kLimbBits] >> (i * 4 % kLimbBits)) & 0xF);
    if (nibble == 0 && leading && i != 0) continue;
    leading = false;
    out += digits[nibble];
  }
  return out;
}

wide_uint wide_uint::operator&(const wide_uint& o) const {
  if (bits_ != o.bits_) throw std::invalid_argument("wide_uint: width mismatch");
  wide_uint r(bits_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) r.limbs_[i] = limbs_[i] & o.limbs_[i];
  return r;
}

wide_uint wide_uint::operator|(const wide_uint& o) const {
  if (bits_ != o.bits_) throw std::invalid_argument("wide_uint: width mismatch");
  wide_uint r(bits_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) r.limbs_[i] = limbs_[i] | o.limbs_[i];
  return r;
}

wide_uint wide_uint::operator^(const wide_uint& o) const {
  if (bits_ != o.bits_) throw std::invalid_argument("wide_uint: width mismatch");
  wide_uint r(bits_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) r.limbs_[i] = limbs_[i] ^ o.limbs_[i];
  return r;
}

wide_uint wide_uint::shl1() const {
  wide_uint r = internal_width(bits_);  // divmod shifts at carry-headroom width
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    r.limbs_[i] = (limbs_[i] << 1) | carry;
    carry = limbs_[i] >> 63;
  }
  r.trim();
  return r;
}

wide_uint wide_uint::shr1() const {
  wide_uint r(bits_);
  std::uint64_t carry = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    r.limbs_[i] = (limbs_[i] >> 1) | (carry << 63);
    carry = limbs_[i] & 1ULL;
  }
  return r;
}

wide_uint wide_uint::add(const wide_uint& o) const {
  if (bits_ != o.bits_) throw std::invalid_argument("wide_uint: width mismatch");
  wide_uint r(bits_);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const unsigned __int128 s = carry + limbs_[i] + o.limbs_[i];
    r.limbs_[i] = static_cast<std::uint64_t>(s);
    carry = s >> 64;
  }
  r.trim();
  return r;
}

wide_uint wide_uint::sub(const wide_uint& o) const {
  if (bits_ != o.bits_) throw std::invalid_argument("wide_uint: width mismatch");
  wide_uint r = internal_width(bits_);  // divmod subtracts at carry-headroom width
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const unsigned __int128 lhs = limbs_[i];
    const unsigned __int128 rhs = static_cast<unsigned __int128>(o.limbs_[i]) +
                                  static_cast<unsigned __int128>(borrow);
    if (lhs >= rhs) {
      r.limbs_[i] = static_cast<std::uint64_t>(lhs - rhs);
      borrow = 0;
    } else {
      r.limbs_[i] = static_cast<std::uint64_t>((static_cast<unsigned __int128>(1) << 64) + lhs - rhs);
      borrow = 1;
    }
  }
  r.trim();
  return r;
}

wide_uint wide_uint::resized(unsigned new_bits) const {
  wide_uint r(new_bits);
  const std::size_t common = std::min(r.limbs_.size(), limbs_.size());
  for (std::size_t i = 0; i < common; ++i) r.limbs_[i] = limbs_[i];
  r.trim();
  return r;
}

wide_uint wide_uint::mul(const wide_uint& o) const {
  // Schoolbook limb products; partial sums above this width are dropped
  // (mod 2^bits), so only the limbs that can land inside it are computed.
  wide_uint r(bits_);
  const std::size_t n = r.limbs_.size();
  for (std::size_t i = 0; i < std::min(limbs_.size(), n); ++i) {
    if (limbs_[i] == 0) continue;
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; i + j < n; ++j) {
      const std::uint64_t oj = j < o.limbs_.size() ? o.limbs_[j] : 0;
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(limbs_[i]) * oj + r.limbs_[i + j] + carry;
      r.limbs_[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
  }
  r.trim();
  return r;
}

wide_uint wide_uint::mul_u64(std::uint64_t s) const {
  wide_uint r(bits_);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const unsigned __int128 cur = static_cast<unsigned __int128>(limbs_[i]) * s + carry;
    r.limbs_[i] = static_cast<std::uint64_t>(cur);
    carry = cur >> 64;
  }
  r.trim();
  return r;
}

wide_divmod wide_uint::divmod(const wide_uint& d) const {
  if (d.is_zero()) throw std::domain_error("wide_uint: division by zero");
  wide_divmod out{wide_uint(bits_), wide_uint(bits_)};
  if (d.bits() > bits_ && d.resized(bits_).compare(d) != 0) {
    // The divisor exceeds this width entirely: quotient 0, remainder = this.
    out.rem = *this;
    return out;
  }
  // Binary long division, MSB first.  The running remainder stays below
  // 2*divisor, which can exceed 2^bits when the divisor's top bit is set —
  // one spare bit of working width keeps the shift lossless.
  wide_uint divisor = internal_width(bits_ + 1);
  for (std::size_t i = 0; i < std::min(d.limbs_.size(), divisor.limbs_.size()); ++i) {
    divisor.limbs_[i] = d.limbs_[i];
  }
  divisor.trim();  // d's value fits bits_ (checked above), so nothing is lost
  wide_uint rem = internal_width(bits_ + 1);
  for (unsigned i = bits_; i-- > 0;) {
    rem = rem.shl1();
    if (bit(i)) rem.limbs_[0] |= 1ULL;
    if (rem >= divisor) {
      rem = rem.sub(divisor);
      out.quot.set_bit(i, true);
    }
  }
  out.rem = rem.resized(bits_);
  return out;
}

wide_uint wide_uint::divround(const wide_uint& d) const {
  wide_divmod dm = divmod(d);
  // Ties round up: the quotient bumps when 2*rem >= d, i.e. d - rem <= rem.
  // Compared at a width holding both operands, so a divisor wider than this
  // value (quotient 0, rem = *this) still rounds correctly.
  const unsigned w = std::max(bits_, d.bits());
  const wide_uint rem = dm.rem.resized(w);
  if (!rem.is_zero() && d.resized(w).sub(rem).compare(rem) <= 0) {
    dm.quot = dm.quot.add(wide_uint(bits_, 1));
  }
  return dm.quot;
}

std::uint64_t wide_uint::mod_u64(std::uint64_t m) const {
  if (m == 0) throw std::domain_error("wide_uint: division by zero");
  unsigned __int128 rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs_[i]) % m;
  }
  return static_cast<std::uint64_t>(rem);
}

int wide_uint::compare(const wide_uint& o) const noexcept {
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  for (std::size_t i = n; i-- > 0;) {
    const std::uint64_t a = i < limbs_.size() ? limbs_[i] : 0;
    const std::uint64_t b = i < o.limbs_.size() ? o.limbs_[i] : 0;
    if (a != b) return a < b ? -1 : 1;
  }
  return 0;
}

wide_uint wide_uint::add_mod(const wide_uint& a, const wide_uint& b, const wide_uint& m) {
  wide_uint s = a.add(b);
  if (s >= m) s = s.sub(m);
  return s;
}

wide_uint wide_uint::mul_mod(const wide_uint& a, const wide_uint& b, const wide_uint& m) {
  // Double-and-add from the top bit down; all intermediates stay < m so the
  // fixed width (>= bits(m)+1) never wraps.
  wide_uint acc(a.bits());
  for (unsigned i = a.bits(); i-- > 0;) {
    acc = add_mod(acc, acc, m);
    if (a.bit(i)) acc = add_mod(acc, b, m);
  }
  return acc;
}

wide_uint wide_uint::pow2_mod(unsigned k, const wide_uint& m) {
  wide_uint r(m.bits(), 1);
  for (unsigned i = 0; i < k; ++i) r = add_mod(r, r, m);
  return r;
}

}  // namespace bpntt::math
