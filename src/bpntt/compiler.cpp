#include "bpntt/compiler.h"

#include <stdexcept>

#include "common/bitutil.h"

namespace bpntt::core {

using sram::logic_fn;
using sram::shift_dir;
using sram::write_mask;

void compile_options::validate() const {
  if (ripple_check_period < 1 || ripple_check_period > 8) {
    throw std::invalid_argument("compile_options: ripple_check_period out of [1,8]");
  }
}

microcode_compiler::microcode_compiler(ntt_params params, row_layout layout,
                                       compile_options options)
    : params_(params), layout_(layout), options_(options) {
  params_.validate();
  options_.validate();
  iters_ = params_.k;
  if (options_.reduced_iterations && !params_.synthetic()) {
    iters_ = common::bit_length(2 * params_.q);  // smallest r with 2q < 2^r
  }
}

void microcode_compiler::require_compatible(const twiddle_plan& plan) const {
  if (plan.r_bits == 0) return;  // hand-built plans: caller vouches for R
  if (plan.r_bits != iters_) {
    throw std::invalid_argument(
        "microcode_compiler: twiddle plan R does not match the iteration count "
        "(rebuild the plan with r_bits = iterations())");
  }
}

void microcode_compiler::emit_half_add(isa::program_builder& b, std::uint16_t c_dst,
                                       std::uint16_t s_dst, std::uint16_t src0,
                                       std::uint16_t src1) const {
  if (options_.fuse_pairs) {
    b.pair(c_dst, s_dst, src0, src1);
    return;
  }
  // Conventional single-result SAs: AND first (c_dst aliases no source by
  // scratch-map construction), then XOR still reads the original operands.
  if (c_dst == src0 || c_dst == src1) {
    throw std::logic_error("emit_half_add: unfused c_dst aliases a source");
  }
  b.binary(c_dst, src0, src1, logic_fn::op_and);
  b.binary(s_dst, src0, src1, logic_fn::op_xor);
}

// Resolve `carry_row` into `sum_row` by repeated half-adds:
//   do { carry <<= 1; {carry, sum} = {sum & carry, sum ^ carry}; }
//   while (carry != 0)
// When the represented value fits in k bits the shifted-out bit is provably
// zero (lossless); callers pass lossless=false when a dropped carry-out is
// the intended mod-2^k wraparound.  `tmp_row` stages the AND result in
// unfused mode (the in-place {carry, sum} write needs the dual-write SA).
void microcode_compiler::emit_ripple(isa::program_builder& b, std::uint16_t sum_row,
                                     std::uint16_t carry_row, bool lossless,
                                     std::uint16_t tmp_row) const {
  const std::size_t start = b.here();
  for (unsigned i = 0; i < options_.ripple_check_period; ++i) {
    b.shift(carry_row, carry_row, shift_dir::left, lossless);
    if (options_.fuse_pairs) {
      b.pair(carry_row, sum_row, sum_row, carry_row);
    } else {
      b.binary(tmp_row, sum_row, carry_row, logic_fn::op_and);
      b.binary(sum_row, sum_row, carry_row, logic_fn::op_xor);
      b.copy(carry_row, tmp_row);
    }
  }
  b.check_zero(carry_row);
  b.branch_nonzero_to(start);
}

// One Montgomery halving step (Algorithm 2 lines 11-16):
//   m  = LSB(Sum) ? M : 0                      (Check + masked copy)
//   c1,s1 = {Sum & m, Sum ^ m}
//   s1 >>= 1                                   (Observation 2: LSB is 0)
//   c2,s2 = {s1 & c1, s1 ^ c1}
//   c3,Sum = {Carry & s2, Carry ^ s2}
//   Carry = c2 | c3
void microcode_compiler::emit_montgomery_halving(isa::program_builder& b) const {
  const auto& L = layout_;
  b.check_pred(L.sum(), 0);
  b.clear(L.t());
  b.copy(L.t(), L.m_row(), false, write_mask::pred);
  emit_half_add(b, L.c1(), L.s1(), L.sum(), L.t());
  b.shift(L.s1(), L.s1(), shift_dir::right, /*expect_lossless=*/true);
  emit_half_add(b, L.c2(), L.s1(), L.s1(), L.c1());
  emit_half_add(b, L.c1(), L.sum(), L.carry(), L.s1());
  b.binary(L.carry(), L.c2(), L.c1(), logic_fn::op_or);
}

// Algorithm 2 with the multiplier bits of `a_bits` baked in.
void microcode_compiler::emit_modmul_const_body(isa::program_builder& b, std::uint16_t b_row,
                                                u64 a_bits) const {
  const auto& L = layout_;
  b.clear(L.sum());
  b.clear(L.carry());
  for (unsigned i = 0; i < iters_; ++i) {
    if ((a_bits >> i) & 1ULL) {
      // P += B (lines 6-9); Observation 1 makes the Carry shift lossless.
      emit_half_add(b, L.c1(), L.s1(), L.sum(), b_row);
      b.shift(L.carry(), L.carry(), shift_dir::left, /*expect_lossless=*/true);
      emit_half_add(b, L.c2(), L.sum(), L.carry(), L.s1());
      b.binary(L.carry(), L.c1(), L.c2(), logic_fn::op_or);
    }
    emit_montgomery_halving(b);
  }
}

// Data-driven variant: multiplier bits come from a_row via the per-tile
// predicate latch, enabling pointwise products where every lane has its own
// multiplier (beyond the twiddle-driven case the paper details).
void microcode_compiler::emit_modmul_data_body(isa::program_builder& b, std::uint16_t a_row,
                                               std::uint16_t b_row) const {
  const auto& L = layout_;
  b.clear(L.sum());
  b.clear(L.carry());
  for (unsigned i = 0; i < iters_; ++i) {
    // T = a_i ? B : 0, then unconditionally P += T.
    b.check_pred(a_row, static_cast<std::uint8_t>(i));
    b.clear(L.t());
    b.copy(L.t(), b_row, false, write_mask::pred);
    emit_half_add(b, L.c1(), L.s1(), L.sum(), L.t());
    b.shift(L.carry(), L.carry(), shift_dir::left, /*expect_lossless=*/true);
    emit_half_add(b, L.c2(), L.sum(), L.carry(), L.s1());
    b.binary(L.carry(), L.c1(), L.c2(), logic_fn::op_or);
    emit_montgomery_halving(b);
  }
}

// dst = Sum + (Carry << 1), plain binary (carry-save resolution).  The
// ripple loop's leading shift performs the <<1 weight alignment itself.
void microcode_compiler::emit_resolve(isa::program_builder& b, std::uint16_t dst) const {
  const auto& L = layout_;
  emit_ripple(b, L.sum(), L.carry(), /*lossless=*/true, /*tmp=*/L.c1());
  if (dst != L.sum()) b.copy(dst, L.sum());
}

// Canonicalize x in [0, 2M): y = x + (2^k - M) mod 2^k; keep x when the
// sign bit of y says x < M, else take y = x - M.  Clobbers C1, C2 (and SUM
// as unfused ripple staging — SUM is dead at every call site).
void microcode_compiler::emit_cond_sub(isa::program_builder& b, std::uint16_t x_row) const {
  const auto& L = layout_;
  emit_half_add(b, L.c1(), L.c2(), x_row, L.mneg_row());
  emit_ripple(b, L.c2(), L.c1(), /*lossless=*/false, /*tmp=*/L.sum());
  b.check_pred(L.c2(), static_cast<std::uint8_t>(params_.k - 1));
  b.copy(x_row, L.c2(), false, write_mask::pred_inv);
}

// dst = (a + b) mod M; clobbers C1, S1, C2 (and SUM unfused).
void microcode_compiler::emit_mod_add(isa::program_builder& b, std::uint16_t dst,
                                      std::uint16_t a, std::uint16_t src_b) const {
  const auto& L = layout_;
  emit_half_add(b, L.c1(), L.s1(), a, src_b);
  emit_ripple(b, L.s1(), L.c1(), /*lossless=*/true, /*tmp=*/L.c2());
  emit_cond_sub(b, L.s1());
  if (dst != L.s1()) b.copy(dst, L.s1());
}

// dst = (a - b) mod M via a + ~b + 1; an expected carry-out drop encodes
// a >= b, and a masked +M correction fixes the wrapped case.
void microcode_compiler::emit_mod_sub(isa::program_builder& b, std::uint16_t dst,
                                      std::uint16_t a, std::uint16_t src_b) const {
  const auto& L = layout_;
  b.copy(L.s1(), src_b, /*invert=*/true);
  emit_half_add(b, L.c1(), L.c2(), a, L.s1());
  emit_half_add(b, L.s1(), L.c2(), L.c2(), L.one_row());
  b.binary(L.c1(), L.c1(), L.s1(), logic_fn::op_or);
  emit_ripple(b, L.c2(), L.c1(), /*lossless=*/false, /*tmp=*/L.sum());
  b.check_pred(L.c2(), static_cast<std::uint8_t>(params_.k - 1));
  b.clear(L.s1());
  b.copy(L.s1(), L.m_row(), false, write_mask::pred);
  emit_half_add(b, L.c1(), L.c2(), L.c2(), L.s1());
  emit_ripple(b, L.c2(), L.c1(), /*lossless=*/false, /*tmp=*/L.sum());
  if (dst != L.c2()) b.copy(dst, L.c2());
}

// Cooley-Tukey butterfly (Algorithm 1 lines 6-8):
//   t = zeta * a[j+len];  a[j+len] = a[j] - t;  a[j] = a[j] + t.
void microcode_compiler::emit_ct_butterfly(isa::program_builder& b, std::uint16_t j_row,
                                           std::uint16_t jl_row, u64 zeta_mont) const {
  const auto& L = layout_;
  emit_modmul_const_body(b, jl_row, zeta_mont);
  emit_resolve(b, L.t());
  emit_cond_sub(b, L.t());
  emit_mod_sub(b, jl_row, j_row, L.t());
  emit_mod_add(b, j_row, j_row, L.t());
}

// Gentleman-Sande inverse butterfly:
//   t = a[j] - a[j+len];  a[j] = a[j] + a[j+len];  a[j+len] = t * zeta^-1.
// The difference is staged through T, then parked in the consumed a[j+len]
// row before the multiply: Algorithm 2's m-selection reuses T as scratch,
// so T cannot be the multiplicand.
void microcode_compiler::emit_gs_butterfly(isa::program_builder& b, std::uint16_t j_row,
                                           std::uint16_t jl_row, u64 zeta_inv_mont) const {
  const auto& L = layout_;
  emit_mod_sub(b, L.t(), j_row, jl_row);
  emit_mod_add(b, j_row, j_row, jl_row);
  b.copy(jl_row, L.t());
  emit_modmul_const_body(b, jl_row, zeta_inv_mont);
  emit_resolve(b, jl_row);
  emit_cond_sub(b, jl_row);
}

void microcode_compiler::emit_scale_row(isa::program_builder& b, std::uint16_t row,
                                        u64 factor_mont) const {
  emit_modmul_const_body(b, row, factor_mont);
  emit_resolve(b, row);
  emit_cond_sub(b, row);
}

isa::program microcode_compiler::compile_forward(const twiddle_plan& plan, unsigned base) const {
  require_compatible(plan);
  const u64 n = params_.n;
  const u64 min_len = params_.incomplete ? 2 : 1;
  isa::program_builder b;
  std::size_t k = 1;
  for (u64 len = n / 2; len >= min_len; len >>= 1) {
    for (u64 start = 0; start < n; start += 2 * len) {
      const u64 zeta = plan.zetas_mont.at(k++);
      for (u64 j = start; j < start + len; ++j) {
        emit_ct_butterfly(b, layout_.coeff_row(base, j), layout_.coeff_row(base, j + len), zeta);
      }
    }
  }
  b.halt();
  return b.take();
}

isa::program microcode_compiler::compile_inverse(const twiddle_plan& plan, unsigned base) const {
  require_compatible(plan);
  const u64 n = params_.n;
  const u64 min_len = params_.incomplete ? 2 : 1;
  isa::program_builder b;
  for (u64 len = min_len; len <= n / 2; len <<= 1) {
    const u64 k_base = n / (2 * len);
    for (u64 start = 0; start < n; start += 2 * len) {
      const u64 zeta_inv = plan.zetas_inv_mont.at(k_base + start / (2 * len));
      for (u64 j = start; j < start + len; ++j) {
        emit_gs_butterfly(b, layout_.coeff_row(base, j), layout_.coeff_row(base, j + len),
                          zeta_inv);
      }
    }
  }
  // Scale: n^-1 for the complete transform, (n/2)^-1 for the incomplete one
  // (the plan carries the right factor either way).
  for (u64 i = 0; i < n; ++i) emit_scale_row(b, layout_.coeff_row(base, i), plan.n_inv_mont);
  b.halt();
  return b.take();
}

isa::program microcode_compiler::compile_basemul(const twiddle_plan& plan, unsigned a_base,
                                                 unsigned b_base, bool scale_b) const {
  require_compatible(plan);
  if (!params_.incomplete) {
    throw std::logic_error("compile_basemul: params are not incomplete-mode");
  }
  if (plan.gammas_mont.size() != params_.n / 2) {
    throw std::invalid_argument("compile_basemul: plan lacks gammas");
  }
  const auto& L = layout_;
  isa::program_builder b;
  if (scale_b) {
    for (u64 i = 0; i < params_.n; ++i) {
      emit_scale_row(b, L.coeff_row(b_base, i), plan.r2);
    }
  }
  for (u64 i = 0; i < params_.n / 2; ++i) {
    const auto a0 = L.coeff_row(a_base, 2 * i);
    const auto a1 = L.coeff_row(a_base, 2 * i + 1);
    const auto b0 = L.coeff_row(b_base, 2 * i);
    const auto b1 = L.coeff_row(b_base, 2 * i + 1);
    // c0 = a0*b0 + a1*b1*gamma;  c1 = a0*b1 + a1*b0 — scheduled so every
    // row is overwritten only at its last use (U stages the gamma term).
    emit_modmul_data_body(b, a1, b1);
    emit_resolve(b, L.u());
    emit_cond_sub(b, L.u());
    emit_modmul_const_body(b, L.u(), plan.gammas_mont[i]);
    emit_resolve(b, L.u());
    emit_cond_sub(b, L.u());
    emit_modmul_data_body(b, a0, b1);
    emit_resolve(b, b1);
    emit_cond_sub(b, b1);
    emit_modmul_data_body(b, a1, b0);
    emit_resolve(b, a1);
    emit_cond_sub(b, a1);
    emit_modmul_data_body(b, a0, b0);
    emit_resolve(b, a0);
    emit_cond_sub(b, a0);
    emit_mod_add(b, a0, a0, L.u());
    emit_mod_add(b, a1, b1, a1);
  }
  b.halt();
  return b.take();
}

isa::program microcode_compiler::compile_pointwise(const twiddle_plan& plan, unsigned a_base,
                                                   unsigned b_base, unsigned dst_base, u64 count,
                                                   bool scale_b) const {
  require_compatible(plan);
  isa::program_builder b;
  if (scale_b) {
    for (u64 i = 0; i < count; ++i) {
      emit_scale_row(b, layout_.coeff_row(b_base, i), plan.r2);
    }
  }
  for (u64 i = 0; i < count; ++i) {
    emit_modmul_data_body(b, layout_.coeff_row(a_base, i), layout_.coeff_row(b_base, i));
    emit_resolve(b, layout_.coeff_row(dst_base, i));
    emit_cond_sub(b, layout_.coeff_row(dst_base, i));
  }
  b.halt();
  return b.take();
}

isa::program microcode_compiler::compile_modmul_const(const twiddle_plan& plan, unsigned b_row,
                                                      u64 a_mont, unsigned dst_row) const {
  require_compatible(plan);
  isa::program_builder b;
  emit_modmul_const_body(b, static_cast<std::uint16_t>(b_row), a_mont);
  emit_resolve(b, static_cast<std::uint16_t>(dst_row));
  emit_cond_sub(b, static_cast<std::uint16_t>(dst_row));
  b.halt();
  return b.take();
}

isa::program microcode_compiler::compile_modmul_data(unsigned a_row, unsigned b_row,
                                                     unsigned dst_row) const {
  isa::program_builder b;
  emit_modmul_data_body(b, static_cast<std::uint16_t>(a_row), static_cast<std::uint16_t>(b_row));
  emit_resolve(b, static_cast<std::uint16_t>(dst_row));
  emit_cond_sub(b, static_cast<std::uint16_t>(dst_row));
  b.halt();
  return b.take();
}

isa::program microcode_compiler::compile_mod_add(unsigned dst, unsigned a, unsigned b_row) const {
  isa::program_builder b;
  emit_mod_add(b, static_cast<std::uint16_t>(dst), static_cast<std::uint16_t>(a),
               static_cast<std::uint16_t>(b_row));
  b.halt();
  return b.take();
}

isa::program microcode_compiler::compile_mod_sub(unsigned dst, unsigned a, unsigned b_row) const {
  isa::program_builder b;
  emit_mod_sub(b, static_cast<std::uint16_t>(dst), static_cast<std::uint16_t>(a),
               static_cast<std::uint16_t>(b_row));
  b.halt();
  return b.take();
}

}  // namespace bpntt::core
