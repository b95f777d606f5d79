// The word kernels of the compute micro-ops: the one definition of each
// op's bitline semantics over a row's 64-bit limbs.  `subarray::op_*` and
// the compiled-program interpreter (isa::executor) both run them.
//
// `Words` fixes the limb count at compile time, so a 256-column row's four
// limbs unroll into straight-line code; std::dynamic_extent reads it from
// the state instead.  Every kernel reads the source limbs it needs before
// it writes a destination limb (shifts walk away from the limbs they have
// yet to read), so a destination may alias a source, as in the hardware,
// which latches both SA outputs before either write.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace bpntt::sram {

enum class logic_fn : std::uint8_t { op_and, op_or, op_xor, op_nor };
enum class shift_dir : std::uint8_t { left, right };  // left = toward tile MSB

// Write-predication mode for ops that store a result row.
enum class write_mask : std::uint8_t {
  none,      // write all columns
  pred,      // write only columns whose predicate latch is 1
  pred_inv,  // write only columns whose predicate latch is 0
};

using word = std::uint64_t;

// Everything a compute op reads or writes besides its rows: limb pointers
// into one subarray's column masks and latches, valid until its next
// set_tile_bits.
struct kernel_state {
  std::size_t words = 0;  // limbs per row
  unsigned cols = 0;
  unsigned tile_bits = 0;
  const word* lsb = nullptr;  // each tile's LSB column
  const word* msb = nullptr;  // each tile's MSB column
  // What a segmented shift keeps: the columns covered by some tile, less
  // the edge column it vacates (each tile's LSB going left, MSB going right).
  const word* keep_left = nullptr;
  const word* keep_right = nullptr;
  // Stuck-at faults: columns a write forces to 1, and columns it may leave
  // at their value (neither stuck at 0 nor above the row width).
  const word* stuck_set = nullptr;
  const word* writable = nullptr;
  word* pred = nullptr;     // the predicate latch
  word* scratch = nullptr;  // one row of limbs for check_pred's dynamic extent
};

namespace kernels {

template <std::size_t Words>
[[nodiscard]] constexpr std::size_t extent(const kernel_state& s) noexcept {
  if constexpr (Words == std::dynamic_extent) {
    return s.words;
  } else {
    return Words;
  }
}

// dst = src << s over n limbs (toward higher columns); bits shifted past the
// top limb are dropped.  dst must not alias src.
inline void shift_up(const word* src, word* dst, std::size_t n, unsigned s) noexcept {
  const std::size_t w = s / 64 < n ? s / 64 : n;
  const unsigned b = s % 64;
  for (std::size_t i = 0; i < w; ++i) dst[i] = 0;
  if (b == 0) {
    for (std::size_t i = w; i < n; ++i) dst[i] = src[i - w];
    return;
  }
  word carry = 0;
  for (std::size_t i = w; i < n; ++i) {
    const word x = src[i - w];
    dst[i] = (x << b) | carry;
    carry = x >> (64 - b);
  }
}

// dst = src >> s over n limbs (toward lower columns).  dst must not alias
// src.
inline void shift_down(const word* src, word* dst, std::size_t n, unsigned s) noexcept {
  const std::size_t w = s / 64 < n ? s / 64 : n;
  const unsigned b = s % 64;
  for (std::size_t i = n - w; i < n; ++i) dst[i] = 0;
  if (b == 0) {
    for (std::size_t i = 0; i + w < n; ++i) dst[i] = src[i + w];
    return;
  }
  word carry = 0;
  for (std::size_t i = n - w; i-- > 0;) {
    const word x = src[i + w];
    dst[i] = (x >> b) | carry;
    carry = x << (64 - b);
  }
}

// The one write path of every compute op: result limb `v` of limb `i`
// through the stuck columns, then the write mask against the limb `old` it
// replaces.  Inverting ops set the bits above the row width; they are
// dropped here with the stuck-at-0 columns.
[[nodiscard]] inline word store(const kernel_state& s, std::size_t i, word v, word old,
                                write_mask m) noexcept {
  v = (v | s.stuck_set[i]) & s.writable[i];
  switch (m) {
    case write_mask::none:
      return v;
    case write_mask::pred:
      return (v & s.pred[i]) | (old & ~s.pred[i]);
    case write_mask::pred_inv:
      return (v & ~s.pred[i]) | (old & s.pred[i]);
  }
  return old;
}

// One dual-row activation, one result row: d = a fn b.
template <std::size_t Words>
inline void binary(const kernel_state& s, word* d, const word* a, const word* b, logic_fn fn,
                   write_mask m) noexcept {
  for (std::size_t i = 0; i < extent<Words>(s); ++i) {
    word v = 0;
    switch (fn) {
      case logic_fn::op_and: v = a[i] & b[i]; break;
      case logic_fn::op_or: v = a[i] | b[i]; break;
      case logic_fn::op_xor: v = a[i] ^ b[i]; break;
      case logic_fn::op_nor: v = ~(a[i] | b[i]); break;
    }
    d[i] = store(s, i, v, d[i], m);
  }
}

// The fused half-adder: {a AND b -> c, a XOR b -> sum}.  c and sum differ.
template <std::size_t Words>
inline void pair(const kernel_state& s, word* c, word* sum, const word* a, const word* b,
                 write_mask m) noexcept {
  for (std::size_t i = 0; i < extent<Words>(s); ++i) {
    const word x = a[i];
    const word y = b[i];
    c[i] = store(s, i, x & y, c[i], m);
    sum[i] = store(s, i, x ^ y, sum[i], m);
  }
}

// Single-row activation with optional output inversion.
template <std::size_t Words>
inline void copy(const kernel_state& s, word* d, const word* a, bool invert,
                 write_mask m) noexcept {
  const word flip = invert ? ~0ULL : 0;
  for (std::size_t i = 0; i < extent<Words>(s); ++i) d[i] = store(s, i, a[i] ^ flip, d[i], m);
}

// d = a shifted one column; returns the 1-bits a lossless shift dropped.
// Segmented, the bit leaving each tile is lost and the vacated edge column
// fills with zero; columns outside any tile are cleared so stale bits
// cannot drift back in.  Unsegmented, only the row's edge bit is lost.
template <std::size_t Words>
[[nodiscard]] inline unsigned shift(const kernel_state& s, word* d, const word* a,
                                    shift_dir dir, bool segmented, bool lossless) noexcept {
  const std::size_t n = extent<Words>(s);
  const bool left = dir == shift_dir::left;
  const word* lost = left ? s.msb : s.lsb;
  const word* keep = left ? s.keep_left : s.keep_right;
  unsigned dropped = 0;
  if (lossless && !segmented) {
    const unsigned edge = left ? s.cols - 1 : 0;
    dropped = static_cast<unsigned>((a[edge / 64] >> (edge % 64)) & 1);
  }
  const auto one = [&](std::size_t i, word v) {
    if (segmented) {
      if (lossless) {
        // Usually nothing is lost, and without a popcount instruction the
        // count is a dozen ops, so skip empty limbs.
        if (const word x = a[i] & lost[i]; x != 0) {
          dropped += static_cast<unsigned>(std::popcount(x));
        }
      }
      v &= keep[i];
    }
    d[i] = store(s, i, v, d[i], write_mask::none);
  };
  if (left) {
    for (std::size_t i = n; i-- > 0;) one(i, (a[i] << 1) | (i > 0 ? a[i - 1] >> 63 : 0));
  } else {
    for (std::size_t i = 0; i < n; ++i) one(i, (a[i] >> 1) | (i + 1 < n ? a[i + 1] << 63 : 0));
  }
  return dropped;
}

// Latch bit `bit` of every tile of `a`, broadcast across that tile's
// columns, into the predicate latch.  L holds each flagged tile's bit at
// the tile's LSB column b, and (L << k) - L is the sum of 2^(b+k) - 2^b, a
// run of k ones over each flagged tile.  The runs are disjoint, so the sum
// is their OR; it fits the row, so computing it modulo the row's limbs is
// exact even when the top tile's 2^(b+k) falls past the last limb.
template <std::size_t Words>
inline void check_pred(const kernel_state& s, const word* a, unsigned bit) noexcept {
  const std::size_t n = extent<Words>(s);
  word local[Words == std::dynamic_extent ? 1 : Words];
  word* const l = Words == std::dynamic_extent ? s.scratch : local;
  word* const pred = s.pred;
  shift_down(a, l, n, bit);
  for (std::size_t i = 0; i < n; ++i) l[i] &= s.lsb[i];
  shift_up(l, pred, n, s.tile_bits);
  word borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const word diff = pred[i] - l[i];
    const word next = (pred[i] < l[i]) | (diff < borrow);
    pred[i] = diff - borrow;
    borrow = next;
  }
}

// The wired-OR zero test: true when no column of `a` is set.
template <std::size_t Words>
[[nodiscard]] inline bool is_zero(const kernel_state& s, const word* a) noexcept {
  word any = 0;
  for (std::size_t i = 0; i < extent<Words>(s); ++i) any |= a[i];
  return any == 0;
}

}  // namespace kernels
}  // namespace bpntt::sram
