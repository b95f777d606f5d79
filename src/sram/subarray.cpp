#include "sram/subarray.h"

#include <algorithm>
#include <stdexcept>

namespace bpntt::sram {

// The op_* entry points run the kernels at the dynamic extent; the
// interpreter instantiates them per limb count.
constexpr std::size_t dyn = std::dynamic_extent;

subarray::subarray(unsigned rows, tile_geometry geom, tech_params tech)
    : geom_(geom), tech_(std::move(tech)) {
  geom_.validate();
  if (rows == 0 || rows > 4096) throw std::invalid_argument("subarray: rows out of range");
  const bitrow zero(geom_.cols);
  data_.assign(rows, zero);
  row_limbs_.resize(rows);
  pred_mask_ = scratch_ = stuck_set_ = writable_ = zero;
  clear_faults();
  rebuild_geometry();
}

void subarray::set_tile_bits(unsigned tile_bits) {
  tile_geometry g = geom_;
  g.tile_bits = tile_bits;
  g.validate();
  geom_ = g;
  rebuild_geometry();
}

void subarray::rebuild_geometry() {
  lsb_mask_ = msb_mask_ = keep_left_ = keep_right_ = bitrow(geom_.cols);
  const unsigned top = geom_.tile_bits - 1;
  for (unsigned c = 0; c < geom_.used_cols(); ++c) {
    const unsigned bit = c % geom_.tile_bits;
    lsb_mask_.set(c, bit == 0);
    msb_mask_.set(c, bit == top);
    keep_left_.set(c, bit != 0);
    keep_right_.set(c, bit != top);
  }

  const unsigned cols = geom_.cols;
  energy_.binary = energy_compute_op_pj(tech_, cols, 2, true);
  // The fused pair op drives a second result row.
  energy_.pair = energy_compute_op_pj(tech_, cols, 2, true);
  energy_.pair += cols * tech_.e_write_fj_per_col * 1e-3;
  energy_.copy = energy_compute_op_pj(tech_, cols, 1, true);
  energy_.shift = energy_shift_op_pj(tech_, cols);
  energy_.check = energy_check_op_pj(tech_, cols);
  energy_.host_row_write = energy_compute_op_pj(tech_, cols, 1, true);
  energy_.host_tile_write = energy_compute_op_pj(tech_, geom_.tile_bits, 1, true);
  energy_.host_tile_read = energy_compute_op_pj(tech_, geom_.tile_bits, 1, false);
}

kernel_state subarray::state() noexcept {
  return {.words = pred_mask_.words().size(),
          .cols = geom_.cols,
          .tile_bits = geom_.tile_bits,
          .lsb = lsb_mask_.words().data(),
          .msb = msb_mask_.words().data(),
          .keep_left = keep_left_.words().data(),
          .keep_right = keep_right_.words().data(),
          .stuck_set = stuck_set_.words().data(),
          .writable = writable_.words().data(),
          .pred = pred_mask_.words().data(),
          .scratch = scratch_.words().data()};
}

subarray::kernel_view subarray::view() noexcept {
  for (std::size_t r = 0; r < data_.size(); ++r) row_limbs_[r] = data_[r].words().data();
  return {state(), row_limbs_.data(), energy_, stats_, zero_flag_};
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
  std::ranges::copy(value.words(), data_[row].words().begin());
  ++stats_.host_writes;
  ++stats_.cycles;
  stats_.energy_pj += energy_.host_row_write;
}

void subarray::host_write_word(unsigned tile, unsigned row, std::uint64_t value) {
  bounds(row);
  data_[row].deposit(word_base(tile), geom_.tile_bits, value);
  ++stats_.host_writes;
  ++stats_.cycles;
  stats_.energy_pj += energy_.host_tile_write;
}

std::uint64_t subarray::host_read_word(unsigned tile, unsigned row) {
  bounds(row);
  const unsigned base = word_base(tile);
  ++stats_.host_reads;
  ++stats_.cycles;
  stats_.energy_pj += energy_.host_tile_read;
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

void subarray::inject_stuck_column(unsigned col, bool value) {
  if (col >= geom_.cols) throw std::out_of_range("subarray: fault column");
  stuck_set_.set(col, value);
  writable_.set(col, value);
}

void subarray::clear_faults() noexcept {
  stuck_set_.clear();
  for (unsigned c = 0; c < geom_.cols; ++c) writable_.set(c, true);
}

void subarray::op_binary(unsigned dst, unsigned src0, unsigned src1, logic_fn fn,
                         write_mask mask) {
  bounds(src0);
  bounds(src1);
  bounds(dst);
  kernels::binary<dyn>(state(), limbs(dst), limbs(src0), limbs(src1), fn, mask);
  ++stats_.binary_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.binary;
}

void subarray::op_pair(unsigned c_dst, unsigned s_dst, unsigned src0, unsigned src1,
                       write_mask mask) {
  bounds(src0);
  bounds(src1);
  if (c_dst == s_dst) throw std::invalid_argument("subarray: pair destinations collide");
  bounds(c_dst);
  bounds(s_dst);
  kernels::pair<dyn>(state(), limbs(c_dst), limbs(s_dst), limbs(src0), limbs(src1), mask);
  ++stats_.pair_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.pair;
}

void subarray::op_copy(unsigned dst, unsigned src, bool invert, write_mask mask) {
  bounds(src);
  bounds(dst);
  kernels::copy<dyn>(state(), limbs(dst), limbs(src), invert, mask);
  ++stats_.copy_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.copy;
}

void subarray::op_shift(unsigned dst, unsigned src, shift_dir dir, bool segmented,
                        bool expect_lossless) {
  bounds(src);
  bounds(dst);
  stats_.lossless_shift_violations +=
      kernels::shift<dyn>(state(), limbs(dst), limbs(src), dir, segmented, expect_lossless);
  ++stats_.shift_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.shift;
}

void subarray::op_check_pred(unsigned src, unsigned bit_index) {
  bounds(src);
  if (bit_index >= geom_.tile_bits) throw std::out_of_range("subarray: predicate bit index");
  kernels::check_pred<dyn>(state(), limbs(src), bit_index);
  ++stats_.check_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.check;
}

bool subarray::op_check_zero(unsigned src) {
  bounds(src);
  zero_flag_ = kernels::is_zero<dyn>(state(), limbs(src));
  ++stats_.check_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.check;
  return zero_flag_;
}

}  // namespace bpntt::sram
