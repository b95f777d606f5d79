// Microcode compiler: lowers NTT kernels onto the BP-NTT micro-ISA.
//
// Twiddle-factor bits are baked into the command stream at compile time —
// the paper's "implicit compare" (line 5 of Algorithm 2): an iteration of
// the Montgomery loop whose multiplier bit is 0 simply emits no P += B
// step.  Data-dependent decisions (the m = M-or-0 selection, conditional
// corrections, carry-ripple termination) are handled with the Check
// instruction's per-tile predicate latch and zero flag at run time.
//
// Building blocks and their scratch-row contracts (rows from row_layout):
//
//   modmul_const   B=row, A baked      -> (SUM, CARRY) carry-save product
//   modmul_data    A=row, B=row        -> (SUM, CARRY); uses T for B&pred
//   resolve(dst)   (SUM,CARRY) -> dst  binary value  P = Sum + 2*Carry
//   cond_sub(x)    x in [0,2M) -> canonical; clobbers C1, C2 (+SUM unfused)
//   mod_add(d,a,b) canonical add;      clobbers C1, S1, C2 (+SUM unfused)
//   mod_sub(d,a,b) canonical subtract; clobbers C1, S1, C2 (+SUM unfused)
//   ct_butterfly   CT butterfly (Algorithm 1 lines 6-8)
//   gs_butterfly   Gentleman-Sande inverse butterfly
//
// All carry-ripple loops are compiled as do-while loops with a wired-OR
// zero test and a backward branch, so executed cycle counts are
// data-dependent (the paper's latency numbers are for fixed workloads; our
// benches use fixed seeds).  compile_options selects the ablation variants
// (dual-write pair fusion, ripple check period, reduced iteration count).
#pragma once

#include "bpntt/config.h"
#include "bpntt/layout.h"
#include "bpntt/options.h"
#include "bpntt/twiddle.h"
#include "isa/program.h"

namespace bpntt::core {

class microcode_compiler {
 public:
  microcode_compiler(ntt_params params, row_layout layout, compile_options options = {});

  [[nodiscard]] const ntt_params& params() const noexcept { return params_; }
  [[nodiscard]] const row_layout& layout() const noexcept { return layout_; }
  [[nodiscard]] const compile_options& options() const noexcept { return options_; }
  // Montgomery iteration count (== r_bits of a compatible twiddle plan).
  [[nodiscard]] unsigned iterations() const noexcept { return iters_; }

  // Full kernels (coefficients at rows [base, base+n)).  In incomplete mode
  // (params().incomplete) the butterfly recursion stops at len = 2 and
  // products are finished with compile_basemul.
  [[nodiscard]] isa::program compile_forward(const twiddle_plan& plan, unsigned base = 0) const;
  [[nodiscard]] isa::program compile_inverse(const twiddle_plan& plan, unsigned base = 0) const;
  // Degree-1 base multiplications of the incomplete transform:
  //   (a[2i], a[2i+1]) *= (b[2i], b[2i+1]) mod (x^2 - gamma_i)
  // for i in [0, n/2); results land in the a region.  If scale_b, the b
  // region is lifted to the Montgomery domain in-array first.
  [[nodiscard]] isa::program compile_basemul(const twiddle_plan& plan, unsigned a_base,
                                             unsigned b_base, bool scale_b) const;
  // dst[i] = a[i] * b[i] mod q for i in [0, count); if scale_b, b is first
  // lifted to the Montgomery domain in-array (b *= R via A = R^2), so the
  // result is the plain product.
  [[nodiscard]] isa::program compile_pointwise(const twiddle_plan& plan, unsigned a_base,
                                               unsigned b_base, unsigned dst_base, u64 count,
                                               bool scale_b) const;

  // Single-operation programs (unit tests, examples and engine kernels).
  [[nodiscard]] isa::program compile_modmul_const(const twiddle_plan& plan, unsigned b_row,
                                                  u64 a_mont, unsigned dst_row) const;
  [[nodiscard]] isa::program compile_modmul_data(unsigned a_row, unsigned b_row,
                                                 unsigned dst_row) const;
  [[nodiscard]] isa::program compile_mod_add(unsigned dst, unsigned a, unsigned b) const;
  [[nodiscard]] isa::program compile_mod_sub(unsigned dst, unsigned a, unsigned b) const;

 private:
  // One half-adder layer {AND -> c_dst, XOR -> s_dst}.  Fused: one
  // dual-write activation; unfused: two activations (c_dst must not alias
  // a source; s_dst may).
  void emit_half_add(isa::program_builder& b, std::uint16_t c_dst, std::uint16_t s_dst,
                     std::uint16_t src0, std::uint16_t src1) const;
  void emit_ripple(isa::program_builder& b, std::uint16_t sum_row, std::uint16_t carry_row,
                   bool lossless, std::uint16_t tmp_row) const;
  void emit_modmul_const_body(isa::program_builder& b, std::uint16_t b_row, u64 a_bits) const;
  void emit_modmul_data_body(isa::program_builder& b, std::uint16_t a_row,
                             std::uint16_t b_row) const;
  void emit_montgomery_halving(isa::program_builder& b) const;
  void emit_resolve(isa::program_builder& b, std::uint16_t dst) const;
  void emit_cond_sub(isa::program_builder& b, std::uint16_t x_row) const;
  void emit_mod_add(isa::program_builder& b, std::uint16_t dst, std::uint16_t a,
                    std::uint16_t src_b) const;
  void emit_mod_sub(isa::program_builder& b, std::uint16_t dst, std::uint16_t a,
                    std::uint16_t src_b) const;
  void emit_ct_butterfly(isa::program_builder& b, std::uint16_t j_row, std::uint16_t jl_row,
                         u64 zeta_mont) const;
  void emit_gs_butterfly(isa::program_builder& b, std::uint16_t j_row, std::uint16_t jl_row,
                         u64 zeta_inv_mont) const;
  void emit_scale_row(isa::program_builder& b, std::uint16_t row, u64 factor_mont) const;
  void require_compatible(const twiddle_plan& plan) const;

  ntt_params params_;
  row_layout layout_;
  compile_options options_;
  unsigned iters_ = 0;
};

}  // namespace bpntt::core
