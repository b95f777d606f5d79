// Micro-op program container and a small assembler with label patching.
//
// Programs compiled for the array are mostly straight-line (twiddle bits
// are baked in at compile time — the paper's "implicit compare"), with
// short backward do-while loops for data-dependent carry-ripple early exit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/microop.h"

namespace bpntt::isa {

struct program {
  std::vector<micro_op> ops;

  [[nodiscard]] std::size_t size() const noexcept { return ops.size(); }
  // Encoded image as stored in the CTRL/CMD subarray.
  [[nodiscard]] std::vector<std::uint64_t> encode_image() const;
  [[nodiscard]] static program decode_image(const std::vector<std::uint64_t>& image);
  [[nodiscard]] std::string disassemble() const;
};

class program_builder {
 public:
  using label = std::size_t;

  [[nodiscard]] std::size_t here() const noexcept { return ops_.size(); }

  void emit(micro_op op) { ops_.push_back(op); }
  void check_pred(std::uint16_t src, std::uint8_t bit) { emit(make_check_pred(src, bit)); }
  void check_zero(std::uint16_t src) { emit(make_check_zero(src)); }
  void copy(std::uint16_t dst, std::uint16_t src, bool invert = false,
            sram::write_mask mask = sram::write_mask::none) {
    emit(make_copy(dst, src, invert, mask));
  }
  void shift(std::uint16_t dst, std::uint16_t src, sram::shift_dir dir,
             bool expect_lossless = false) {
    emit(make_shift(dst, src, dir, expect_lossless));
  }
  void binary(std::uint16_t dst, std::uint16_t src0, std::uint16_t src1, sram::logic_fn fn) {
    emit(make_binary(dst, src0, src1, fn));
  }
  void pair(std::uint16_t c_dst, std::uint16_t s_dst, std::uint16_t src0, std::uint16_t src1) {
    emit(make_pair(c_dst, s_dst, src0, src1));
  }
  // Clear a row without a constant-zero source: x XOR x = 0.
  void clear(std::uint16_t row) { binary(row, row, row, sram::logic_fn::op_xor); }
  void halt() { emit(make_halt()); }

  // Backward control flow to a previously recorded position.
  void jump_to(std::size_t target);
  void branch_nonzero_to(std::size_t target);

  // Forward branch: reserve now, patch when the target is known.
  [[nodiscard]] label reserve_branch_zero();
  void patch_to_here(label l);

  [[nodiscard]] program take();

 private:
  std::int16_t rel(std::size_t target) const;

  std::vector<micro_op> ops_;
};

}  // namespace bpntt::isa
