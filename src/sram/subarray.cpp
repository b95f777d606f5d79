#include "sram/subarray.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace bpntt::sram {
namespace {

using word = std::uint64_t;

// dst = src << s over n limbs (toward higher columns); bits shifted past the
// top limb are dropped.  dst must not alias src.
void shift_up(const word* src, word* dst, std::size_t n, unsigned s) noexcept {
  const std::size_t w = std::min<std::size_t>(s / 64, n);
  const unsigned b = s % 64;
  std::fill(dst, dst + w, 0);
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
void shift_down(const word* src, word* dst, std::size_t n, unsigned s) noexcept {
  const std::size_t w = std::min<std::size_t>(s / 64, n);
  const unsigned b = s % 64;
  std::fill(dst + (n - w), dst + n, 0);
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

// Number of columns set in both rows (usually none, so skip empty limbs).
unsigned popcount_and(std::span<const word> a, std::span<const word> b) noexcept {
  unsigned n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (const word x = a[i] & b[i]; x != 0) n += static_cast<unsigned>(std::popcount(x));
  }
  return n;
}

}  // namespace

subarray::subarray(unsigned rows, tile_geometry geom, tech_params tech)
    : geom_(geom), tech_(std::move(tech)) {
  geom_.validate();
  if (rows == 0 || rows > 4096) throw std::invalid_argument("subarray: rows out of range");
  const bitrow zero(geom_.cols);
  data_.assign(rows, zero);
  pred_mask_ = scratch_ = scratch2_ = stuck_set_ = stuck_clr_ = zero;
  const unsigned cols = geom_.cols;
  e_binary_ = energy_compute_op_pj(tech_, cols, 2, true);
  // The fused pair op drives a second result row.
  e_pair_ = energy_compute_op_pj(tech_, cols, 2, true);
  e_pair_ += cols * tech_.e_write_fj_per_col * 1e-3;
  e_copy_ = energy_compute_op_pj(tech_, cols, 1, true);
  e_shift_ = energy_shift_op_pj(tech_, cols);
  e_check_ = energy_check_op_pj(tech_, cols);
  rebuild_tile_masks();
}

void subarray::set_tile_bits(unsigned tile_bits) {
  tile_geometry g = geom_;
  g.tile_bits = tile_bits;
  g.validate();
  geom_ = g;
  rebuild_tile_masks();
}

void subarray::rebuild_tile_masks() {
  lsb_mask_ = msb_mask_ = used_mask_ = bitrow(geom_.cols);
  for (unsigned t = 0; t < geom_.num_tiles(); ++t) {
    lsb_mask_.set(geom_.tile_base(t), true);
    msb_mask_.set(geom_.tile_base(t) + geom_.tile_bits - 1, true);
  }
  for (unsigned c = 0; c < geom_.used_cols(); ++c) used_mask_.set(c, true);
}

void subarray::bounds(unsigned row) const {
  if (row >= data_.size()) throw std::out_of_range("subarray: row index");
}

unsigned subarray::word_base(unsigned tile) const {
  if (geom_.tile_bits > 64) {
    throw std::invalid_argument("subarray: word access needs tiles of at most 64 bits");
  }
  return geom_.tile_base(tile);
}

void subarray::host_write_row(unsigned row, const bitrow& value) {
  bounds(row);
  if (value.width() != geom_.cols) throw std::invalid_argument("subarray: row width mismatch");
  data_[row] = value;
  ++stats_.host_writes;
  ++stats_.cycles;
  stats_.energy_pj += energy_compute_op_pj(tech_, geom_.cols, 1, true);
}

void subarray::host_write_word(unsigned tile, unsigned row, std::uint64_t value) {
  bounds(row);
  data_[row].deposit(word_base(tile), geom_.tile_bits, value);
  ++stats_.host_writes;
  ++stats_.cycles;
  stats_.energy_pj += energy_compute_op_pj(tech_, geom_.tile_bits, 1, true);
}

std::uint64_t subarray::host_read_word(unsigned tile, unsigned row) {
  bounds(row);
  const unsigned base = word_base(tile);
  ++stats_.host_reads;
  ++stats_.cycles;
  stats_.energy_pj += energy_compute_op_pj(tech_, geom_.tile_bits, 1, false);
  return data_[row].extract(base, geom_.tile_bits);
}

const bitrow& subarray::peek(unsigned row) const {
  bounds(row);
  return data_[row];
}

std::uint64_t subarray::peek_word(unsigned tile, unsigned row) const {
  bounds(row);
  return data_[row].extract(word_base(tile), geom_.tile_bits);
}

void subarray::store_words(unsigned dst, const std::uint64_t* v, write_mask mask) {
  bounds(dst);
  const auto d = data_[dst].words();
  const auto set = stuck_set_.words();
  const auto clr = stuck_clr_.words();
  const auto p = pred_mask_.words();
  const std::size_t n = d.size();
  switch (mask) {
    case write_mask::none:
      for (std::size_t i = 0; i < n; ++i) d[i] = (v[i] | set[i]) & ~clr[i];
      break;
    case write_mask::pred:
      for (std::size_t i = 0; i < n; ++i) {
        d[i] = (((v[i] | set[i]) & ~clr[i]) & p[i]) | (d[i] & ~p[i]);
      }
      break;
    case write_mask::pred_inv:
      for (std::size_t i = 0; i < n; ++i) {
        d[i] = (((v[i] | set[i]) & ~clr[i]) & ~p[i]) | (d[i] & p[i]);
      }
      break;
  }
  // Inverting ops set the bits above the row width; keep them zero.
  if (const unsigned top = geom_.cols % 64; top != 0) d[n - 1] &= (1ULL << top) - 1;
}

void subarray::inject_stuck_column(unsigned col, bool value) {
  if (col >= geom_.cols) throw std::out_of_range("subarray: fault column");
  stuck_set_.set(col, value);
  stuck_clr_.set(col, !value);
}

void subarray::clear_faults() noexcept {
  stuck_set_.clear();
  stuck_clr_.clear();
}

void subarray::op_binary(unsigned dst, unsigned src0, unsigned src1, logic_fn fn,
                         write_mask mask) {
  bounds(src0);
  bounds(src1);
  const auto a = data_[src0].words();
  const auto b = data_[src1].words();
  const auto r = scratch_.words();
  const std::size_t n = r.size();
  switch (fn) {
    case logic_fn::op_and:
      for (std::size_t i = 0; i < n; ++i) r[i] = a[i] & b[i];
      break;
    case logic_fn::op_or:
      for (std::size_t i = 0; i < n; ++i) r[i] = a[i] | b[i];
      break;
    case logic_fn::op_xor:
      for (std::size_t i = 0; i < n; ++i) r[i] = a[i] ^ b[i];
      break;
    case logic_fn::op_nor:
      for (std::size_t i = 0; i < n; ++i) r[i] = ~(a[i] | b[i]);
      break;
  }
  store_words(dst, r.data(), mask);
  ++stats_.binary_ops;
  ++stats_.cycles;
  stats_.energy_pj += e_binary_;
}

void subarray::op_pair(unsigned c_dst, unsigned s_dst, unsigned src0, unsigned src1,
                       write_mask mask) {
  bounds(src0);
  bounds(src1);
  if (c_dst == s_dst) throw std::invalid_argument("subarray: pair destinations collide");
  // Both SA outputs of one dual-row activation are latched before either
  // write, so a destination aliasing a source behaves like the hardware.
  const auto a = data_[src0].words();
  const auto b = data_[src1].words();
  const auto c = scratch_.words();
  const auto s = scratch2_.words();
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = a[i] & b[i];
    s[i] = a[i] ^ b[i];
  }
  store_words(c_dst, c.data(), mask);
  store_words(s_dst, s.data(), mask);
  ++stats_.pair_ops;
  ++stats_.cycles;
  stats_.energy_pj += e_pair_;
}

void subarray::op_copy(unsigned dst, unsigned src, bool invert, write_mask mask) {
  bounds(src);
  const auto a = data_[src].words();
  const auto r = scratch_.words();
  const word flip = invert ? ~0ULL : 0;
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = a[i] ^ flip;
  store_words(dst, r.data(), mask);
  ++stats_.copy_ops;
  ++stats_.cycles;
  stats_.energy_pj += e_copy_;
}

void subarray::op_shift(unsigned dst, unsigned src, shift_dir dir, bool segmented,
                        bool expect_lossless) {
  bounds(src);
  const auto in = data_[src].words();
  const auto out = scratch_.words();
  const bool left = dir == shift_dir::left;
  if (left) {
    shift_up(in.data(), out.data(), out.size(), 1);
  } else {
    shift_down(in.data(), out.data(), out.size(), 1);
  }
  if (segmented) {
    // The bit leaving each tile is lost and the vacated edge column fills
    // with zero; columns outside any tile are cleared so stale bits cannot
    // drift back in.
    const auto lost = (left ? msb_mask_ : lsb_mask_).words();
    const auto fill = (left ? lsb_mask_ : msb_mask_).words();
    const auto used = used_mask_.words();
    if (expect_lossless) stats_.lossless_shift_violations += popcount_and(in, lost);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] &= ~fill[i] & used[i];
  } else if (expect_lossless) {
    const unsigned edge = left ? geom_.cols - 1 : 0;
    if (data_[src].get(edge)) ++stats_.lossless_shift_violations;
  }
  store_words(dst, out.data(), write_mask::none);
  ++stats_.shift_ops;
  ++stats_.cycles;
  stats_.energy_pj += e_shift_;
}

void subarray::op_check_pred(unsigned src, unsigned bit_index) {
  bounds(src);
  if (bit_index >= geom_.tile_bits) throw std::out_of_range("subarray: predicate bit index");
  // Broadcast bit `bit_index` of every tile across that tile's columns.
  // L holds each flagged tile's bit at the tile's LSB column b, and
  // (L << k) - L is the sum of 2^(b+k) - 2^b, a run of k ones over each
  // flagged tile.  The runs are disjoint, so the sum is their OR; it fits
  // the row, so computing it modulo the row's limbs is exact even when the
  // top tile's 2^(b+k) falls past the last limb.
  const auto l = scratch_.words();
  const auto pred = pred_mask_.words();
  const auto lsb = lsb_mask_.words();
  const std::size_t n = l.size();
  shift_down(data_[src].words().data(), l.data(), n, bit_index);
  for (std::size_t i = 0; i < n; ++i) l[i] &= lsb[i];
  shift_up(l.data(), pred.data(), n, geom_.tile_bits);
  word borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const word diff = pred[i] - l[i];
    const word next = (pred[i] < l[i]) | (diff < borrow);
    pred[i] = diff - borrow;
    borrow = next;
  }
  ++stats_.check_ops;
  ++stats_.cycles;
  stats_.energy_pj += e_check_;
}

bool subarray::op_check_zero(unsigned src) {
  bounds(src);
  zero_flag_ = !data_[src].any();
  ++stats_.check_ops;
  ++stats_.cycles;
  stats_.energy_pj += e_check_;
  return zero_flag_;
}

}  // namespace bpntt::sram
